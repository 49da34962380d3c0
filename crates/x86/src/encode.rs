//! Byte-accurate x86-64 machine-code encoding.
//!
//! Segue's trade-offs are partly *encoding* trade-offs: the `gs` segment
//! override and the address-size override each cost one prefix byte on every
//! sandboxed memory access, while eliminating a whole extra instruction
//! (4–5 bytes) in the common case. Table 2 of the paper (binary-size
//! reduction) and the 473_astar outlier (i-cache pressure from longer loads)
//! both hinge on real instruction lengths, so this module implements genuine
//! x86-64 encoding: legacy prefixes, REX, ModRM/SIB, displacement and
//! immediate size selection, and short/near branch relaxation.
//!
//! ```
//! use sfi_x86::{Gpr, Inst, Mem, Seg, Width};
//! use sfi_x86::encode::encode_inst;
//!
//! // Figure 1c, pattern 1: mov r10, gs:[ebx]  — five bytes.
//! let seg_load = Inst::Load {
//!     dst: Gpr::R10,
//!     mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs).with_addr32(),
//!     width: Width::Q,
//! };
//! assert_eq!(encode_inst(&seg_load).unwrap(), vec![0x65, 0x67, 0x4C, 0x8B, 0x13]);
//! ```

use crate::inst::{AluOp, ShiftAmount, ShiftOp};
use crate::{Cond, Gpr, Inst, Label, Mem, Program, Width};

/// An encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// `%rsp` cannot be used as an index register.
    RspIndex,
    /// A branch referenced an unbound label.
    UnboundLabel(Label),
    /// An immediate did not fit the encodable range for the instruction.
    ImmediateOutOfRange(i64),
}

impl core::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EncodeError::RspIndex => f.write_str("%rsp cannot be an index register"),
            EncodeError::UnboundLabel(l) => write!(f, "unbound label {l}"),
            EncodeError::ImmediateOutOfRange(v) => write!(f, "immediate {v} out of range"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// A fully encoded program.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The machine-code bytes.
    pub bytes: Vec<u8>,
    /// Byte offset of each instruction (same indexing as `Program::insts`).
    pub offsets: Vec<u32>,
}

impl Encoded {
    /// Total code size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the code is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The length in bytes of instruction `i`.
    pub fn inst_len(&self, i: usize) -> usize {
        let start = self.offsets[i] as usize;
        let end = self.offsets.get(i + 1).map_or(self.bytes.len(), |&o| o as usize);
        end - start
    }
}

/// One instruction's bytes, in a fixed buffer: x86-64 caps an instruction
/// at 15 bytes, so encoding never allocates.
struct Enc {
    buf: [u8; 16],
    len: usize,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: [0; 16], len: 0 }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    fn b(&mut self, byte: u8) -> &mut Self {
        self.put(&[byte])
    }

    fn imm8(&mut self, v: i8) -> &mut Self {
        self.put(&[v as u8])
    }

    fn imm16(&mut self, v: i16) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    fn imm32(&mut self, v: i32) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    fn imm64(&mut self, v: i64) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// Emits legacy prefixes for a memory operand (segment, address-size)
    /// plus the operand-size prefix for 16-bit operations.
    fn legacy_prefixes(&mut self, mem: Option<&Mem>, width: Option<Width>) -> &mut Self {
        if let Some(m) = mem {
            if let Some(seg) = m.seg {
                self.b(seg.prefix_byte());
            }
            if m.addr32 {
                self.b(0x67);
            }
        }
        if width == Some(Width::W) {
            self.b(0x66);
        }
        self
    }

    /// Emits a REX prefix if needed. `reg`/`index`/`base` are the extension
    /// bits for the ModRM.reg, SIB.index and ModRM.rm/SIB.base fields.
    fn rex(&mut self, w: bool, r: bool, x: bool, b: bool, force: bool) -> &mut Self {
        if w || r || x || b || force {
            self.b(0x40 | (w as u8) << 3 | (r as u8) << 2 | (x as u8) << 1 | b as u8);
        }
        self
    }

    /// Emits ModRM (+ SIB + displacement) addressing `mem` with `reg_field`
    /// in ModRM.reg.
    fn modrm_mem(&mut self, reg_field: u8, mem: &Mem) -> Result<&mut Self, EncodeError> {
        let reg = reg_field & 7;
        match (mem.base, mem.index) {
            (None, None) => {
                // [disp32] — encoded as SIB with no base, no index.
                self.b(reg << 3 | 0b100);
                self.b(0x25); // scale=0, index=100 (none), base=101 (disp32)
                self.imm32(mem.disp);
            }
            (Some(base), None) => {
                let bb = (base.index() as u8) & 7;
                let (modbits, disp_len) = disp_mode(mem.disp, base);
                if bb == 0b100 {
                    // rsp/r12 as base requires SIB.
                    self.b(modbits << 6 | reg << 3 | 0b100);
                    self.b(0x24); // scale=0, index=none, base=rsp
                } else {
                    self.b(modbits << 6 | reg << 3 | bb);
                }
                self.emit_disp(mem.disp, disp_len);
            }
            (base, Some((index, scale))) => {
                if index == Gpr::Rsp {
                    return Err(EncodeError::RspIndex);
                }
                let xi = (index.index() as u8) & 7;
                match base {
                    Some(b) => {
                        let bb = (b.index() as u8) & 7;
                        let (modbits, disp_len) = disp_mode(mem.disp, b);
                        self.b(modbits << 6 | reg << 3 | 0b100);
                        self.b(scale.sib_bits() << 6 | xi << 3 | bb);
                        self.emit_disp(mem.disp, disp_len);
                    }
                    None => {
                        // No base: mod=00, SIB.base=101 → disp32 always.
                        self.b(reg << 3 | 0b100);
                        self.b(scale.sib_bits() << 6 | xi << 3 | 0b101);
                        self.imm32(mem.disp);
                    }
                }
            }
        }
        Ok(self)
    }

    fn emit_disp(&mut self, disp: i32, len: u8) {
        match len {
            0 => {}
            1 => {
                self.imm8(disp as i8);
            }
            4 => {
                self.imm32(disp);
            }
            _ => unreachable!(),
        }
    }

    /// ModRM for a register r/m operand.
    fn modrm_reg(&mut self, reg_field: u8, rm: u8) -> &mut Self {
        self.b(0b11 << 6 | (reg_field & 7) << 3 | (rm & 7))
    }
}

/// Displacement mode for `[base + disp]`: returns (mod bits, disp length).
fn disp_mode(disp: i32, base: Gpr) -> (u8, u8) {
    // mod=00 with rm=101 (rbp/r13) means RIP-relative / disp32-no-base, so
    // those bases always need at least a disp8.
    let base_is_bp = matches!(base, Gpr::Rbp | Gpr::R13);
    if disp == 0 && !base_is_bp {
        (0b00, 0)
    } else if (-128..=127).contains(&disp) {
        (0b01, 1)
    } else {
        (0b10, 4)
    }
}

fn mem_rex_bits(mem: &Mem) -> (bool, bool) {
    let x = mem.index.is_some_and(|(i, _)| i.needs_rex_bit());
    let b = mem.base.is_some_and(Gpr::needs_rex_bit);
    (x, b)
}

/// REX is forced for 8-bit access to spl/bpl/sil/dil.
fn byte_reg_forces_rex(width: Width, reg: Gpr) -> bool {
    width == Width::B && matches!(reg, Gpr::Rsp | Gpr::Rbp | Gpr::Rsi | Gpr::Rdi)
}

/// Encodes a single non-relative instruction into bytes.
///
/// Branches and calls are encoded with their largest (near, rel32) form;
/// use [`encode_program`] to get relaxed (short where possible) encodings.
pub fn encode_inst(inst: &Inst) -> Result<Vec<u8>, EncodeError> {
    Ok(encode_with(inst, |_| 0x7FFF_FFFF)?.bytes().to_vec())
}

/// Encodes one instruction, resolving branch targets through `target_disp`
/// (which maps a label to the rel32 displacement from the *end* of this
/// instruction, assuming its near form).
fn encode_with(inst: &Inst, target_disp: impl Fn(Label) -> i64) -> Result<Enc, EncodeError> {
    let mut e = Enc::new();
    match *inst {
        Inst::MovRR { dst, src, width } => {
            e.legacy_prefixes(None, Some(width));
            let force = byte_reg_forces_rex(width, dst) || byte_reg_forces_rex(width, src);
            e.rex(width == Width::Q, src.needs_rex_bit(), false, dst.needs_rex_bit(), force);
            e.b(if width == Width::B { 0x88 } else { 0x89 });
            e.modrm_reg(src.index() as u8, dst.index() as u8);
        }
        Inst::MovRI { dst, imm, width } => match width {
            Width::B => {
                e.rex(false, false, false, dst.needs_rex_bit(), byte_reg_forces_rex(width, dst));
                e.b(0xB0 + (dst.index() as u8 & 7)).imm8(imm as i8);
            }
            Width::W => {
                e.b(0x66);
                e.rex(false, false, false, dst.needs_rex_bit(), false);
                e.b(0xB8 + (dst.index() as u8 & 7)).imm16(imm as i16);
            }
            Width::D => {
                e.rex(false, false, false, dst.needs_rex_bit(), false);
                e.b(0xB8 + (dst.index() as u8 & 7)).imm32(imm as i32);
            }
            Width::Q => {
                if i32::try_from(imm).is_ok() {
                    // REX.W C7 /0 imm32 (sign-extended).
                    e.rex(true, false, false, dst.needs_rex_bit(), false);
                    e.b(0xC7).modrm_reg(0, dst.index() as u8).imm32(imm as i32);
                } else {
                    e.rex(true, false, false, dst.needs_rex_bit(), false);
                    e.b(0xB8 + (dst.index() as u8 & 7)).imm64(imm);
                }
            }
        },
        Inst::Load { dst, mem, width } => {
            e.legacy_prefixes(Some(&mem), Some(width));
            let (x, b) = mem_rex_bits(&mem);
            e.rex(width == Width::Q, dst.needs_rex_bit(), x, b, byte_reg_forces_rex(width, dst));
            e.b(if width == Width::B { 0x8A } else { 0x8B });
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::LoadSx { dst, mem, width } => {
            e.legacy_prefixes(Some(&mem), None);
            let (x, b) = mem_rex_bits(&mem);
            e.rex(true, dst.needs_rex_bit(), x, b, false);
            match width {
                Width::B => {
                    e.b(0x0F).b(0xBE);
                }
                Width::W => {
                    e.b(0x0F).b(0xBF);
                }
                Width::D => {
                    e.b(0x63); // movsxd
                }
                Width::Q => {
                    e.b(0x8B); // plain 64-bit load
                }
            }
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::LoadZx { dst, mem, width } => {
            e.legacy_prefixes(Some(&mem), None);
            let (x, b) = mem_rex_bits(&mem);
            e.rex(false, dst.needs_rex_bit(), x, b, false);
            match width {
                Width::B => {
                    e.b(0x0F).b(0xB6);
                }
                Width::W => {
                    e.b(0x0F).b(0xB7);
                }
                // 32-bit loads zero-extend natively: plain mov.
                Width::D | Width::Q => {
                    e.b(0x8B);
                }
            }
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::Store { src, mem, width } => {
            e.legacy_prefixes(Some(&mem), Some(width));
            let (x, b) = mem_rex_bits(&mem);
            e.rex(width == Width::Q, src.needs_rex_bit(), x, b, byte_reg_forces_rex(width, src));
            e.b(if width == Width::B { 0x88 } else { 0x89 });
            e.modrm_mem(src.index() as u8, &mem)?;
        }
        Inst::StoreImm { imm, mem, width } => {
            e.legacy_prefixes(Some(&mem), Some(width));
            let (x, b) = mem_rex_bits(&mem);
            e.rex(width == Width::Q, false, x, b, false);
            e.b(if width == Width::B { 0xC6 } else { 0xC7 });
            e.modrm_mem(0, &mem)?;
            match width {
                Width::B => {
                    e.imm8(imm as i8);
                }
                Width::W => {
                    e.imm16(imm as i16);
                }
                Width::D | Width::Q => {
                    e.imm32(imm);
                }
            }
        }
        Inst::Lea { dst, mem, width } => {
            e.legacy_prefixes(Some(&mem), None);
            let (x, b) = mem_rex_bits(&mem);
            e.rex(width == Width::Q, dst.needs_rex_bit(), x, b, false);
            e.b(0x8D);
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::Movzx { dst, src, from } => {
            e.rex(
                from != Width::D,
                dst.needs_rex_bit(),
                false,
                src.needs_rex_bit(),
                byte_reg_forces_rex(from, src),
            );
            match from {
                Width::B => {
                    e.b(0x0F).b(0xB6);
                }
                Width::W => {
                    e.b(0x0F).b(0xB7);
                }
                // movzx from 32 bits is just `mov r32, r32`.
                Width::D | Width::Q => {
                    e.b(0x8B);
                }
            }
            e.modrm_reg(dst.index() as u8, src.index() as u8);
        }
        Inst::Movsx { dst, src, from } => {
            e.rex(true, dst.needs_rex_bit(), false, src.needs_rex_bit(), false);
            match from {
                Width::B => {
                    e.b(0x0F).b(0xBE);
                }
                Width::W => {
                    e.b(0x0F).b(0xBF);
                }
                Width::D | Width::Q => {
                    e.b(0x63);
                }
            }
            e.modrm_reg(dst.index() as u8, src.index() as u8);
        }
        Inst::AluRR { op, dst, src, width } => {
            e.legacy_prefixes(None, Some(width));
            let force = byte_reg_forces_rex(width, dst) || byte_reg_forces_rex(width, src);
            e.rex(width == Width::Q, src.needs_rex_bit(), false, dst.needs_rex_bit(), force);
            let base: u8 = match op {
                AluOp::Add => 0x00,
                AluOp::Or => 0x08,
                AluOp::And => 0x20,
                AluOp::Sub => 0x28,
                AluOp::Xor => 0x30,
                AluOp::Cmp => 0x38,
            };
            e.b(base + if width == Width::B { 0 } else { 1 });
            e.modrm_reg(src.index() as u8, dst.index() as u8);
        }
        Inst::AluRI { op, dst, imm, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(
                width == Width::Q,
                false,
                false,
                dst.needs_rex_bit(),
                byte_reg_forces_rex(width, dst),
            );
            let ext: u8 = match op {
                AluOp::Add => 0,
                AluOp::Or => 1,
                AluOp::And => 4,
                AluOp::Sub => 5,
                AluOp::Xor => 6,
                AluOp::Cmp => 7,
            };
            if width == Width::B {
                e.b(0x80).modrm_reg(ext, dst.index() as u8).imm8(imm as i8);
            } else if (-128..=127).contains(&imm) {
                e.b(0x83).modrm_reg(ext, dst.index() as u8).imm8(imm as i8);
            } else {
                e.b(0x81).modrm_reg(ext, dst.index() as u8);
                if width == Width::W {
                    e.imm16(imm as i16);
                } else {
                    e.imm32(imm);
                }
            }
        }
        Inst::AluRM { op, dst, mem, width } => {
            e.legacy_prefixes(Some(&mem), Some(width));
            let (x, b) = mem_rex_bits(&mem);
            e.rex(width == Width::Q, dst.needs_rex_bit(), x, b, byte_reg_forces_rex(width, dst));
            let base: u8 = match op {
                AluOp::Add => 0x02,
                AluOp::Or => 0x0A,
                AluOp::And => 0x22,
                AluOp::Sub => 0x2A,
                AluOp::Xor => 0x32,
                AluOp::Cmp => 0x3A,
            };
            e.b(base + if width == Width::B { 0 } else { 1 });
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::TestRR { a, b, width } => {
            e.legacy_prefixes(None, Some(width));
            let force = byte_reg_forces_rex(width, a) || byte_reg_forces_rex(width, b);
            e.rex(width == Width::Q, b.needs_rex_bit(), false, a.needs_rex_bit(), force);
            e.b(if width == Width::B { 0x84 } else { 0x85 });
            e.modrm_reg(b.index() as u8, a.index() as u8);
        }
        Inst::Imul { dst, src, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(width == Width::Q, dst.needs_rex_bit(), false, src.needs_rex_bit(), false);
            e.b(0x0F).b(0xAF);
            e.modrm_reg(dst.index() as u8, src.index() as u8);
        }
        Inst::ImulRRI { dst, src, imm, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(width == Width::Q, dst.needs_rex_bit(), false, src.needs_rex_bit(), false);
            if (-128..=127).contains(&imm) {
                e.b(0x6B).modrm_reg(dst.index() as u8, src.index() as u8).imm8(imm as i8);
            } else {
                e.b(0x69).modrm_reg(dst.index() as u8, src.index() as u8).imm32(imm);
            }
        }
        Inst::Div { src, width, signed } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(
                width == Width::Q,
                false,
                false,
                src.needs_rex_bit(),
                byte_reg_forces_rex(width, src),
            );
            e.b(if width == Width::B { 0xF6 } else { 0xF7 });
            e.modrm_reg(if signed { 7 } else { 6 }, src.index() as u8);
        }
        Inst::Cdq { width } => {
            e.rex(width == Width::Q, false, false, false, false);
            e.b(0x99);
        }
        Inst::Shift { op, dst, amount, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(
                width == Width::Q,
                false,
                false,
                dst.needs_rex_bit(),
                byte_reg_forces_rex(width, dst),
            );
            let ext: u8 = match op {
                ShiftOp::Rol => 0,
                ShiftOp::Ror => 1,
                ShiftOp::Shl => 4,
                ShiftOp::Shr => 5,
                ShiftOp::Sar => 7,
            };
            match amount {
                ShiftAmount::Imm(1) => {
                    e.b(if width == Width::B { 0xD0 } else { 0xD1 });
                    e.modrm_reg(ext, dst.index() as u8);
                }
                ShiftAmount::Imm(n) => {
                    e.b(if width == Width::B { 0xC0 } else { 0xC1 });
                    e.modrm_reg(ext, dst.index() as u8).imm8(n as i8);
                }
                ShiftAmount::Cl => {
                    e.b(if width == Width::B { 0xD2 } else { 0xD3 });
                    e.modrm_reg(ext, dst.index() as u8);
                }
            }
        }
        Inst::Neg { dst, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(width == Width::Q, false, false, dst.needs_rex_bit(), false);
            e.b(if width == Width::B { 0xF6 } else { 0xF7 });
            e.modrm_reg(3, dst.index() as u8);
        }
        Inst::Not { dst, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(width == Width::Q, false, false, dst.needs_rex_bit(), false);
            e.b(if width == Width::B { 0xF6 } else { 0xF7 });
            e.modrm_reg(2, dst.index() as u8);
        }
        Inst::Cmov { cond, dst, src, width } => {
            e.legacy_prefixes(None, Some(width));
            e.rex(width == Width::Q, dst.needs_rex_bit(), false, src.needs_rex_bit(), false);
            e.b(0x0F).b(0x40 + cond_code(cond));
            e.modrm_reg(dst.index() as u8, src.index() as u8);
        }
        Inst::Setcc { cond, dst } => {
            e.rex(false, false, false, dst.needs_rex_bit(), byte_reg_forces_rex(Width::B, dst));
            e.b(0x0F).b(0x90 + cond_code(cond));
            e.modrm_reg(0, dst.index() as u8);
        }
        Inst::Jmp { target } => {
            let d = target_disp(target);
            if (-128..=127).contains(&d) {
                e.b(0xEB).imm8(d as i8);
            } else {
                e.b(0xE9).imm32(d as i32);
            }
        }
        Inst::Jcc { cond, target } => {
            let d = target_disp(target);
            if (-128..=127).contains(&d) {
                e.b(0x70 + cond_code(cond)).imm8(d as i8);
            } else {
                e.b(0x0F).b(0x80 + cond_code(cond)).imm32(d as i32);
            }
        }
        Inst::JmpReg { reg } => {
            e.rex(false, false, false, reg.needs_rex_bit(), false);
            e.b(0xFF).modrm_reg(4, reg.index() as u8);
        }
        Inst::Call { target } => {
            let d = target_disp(target);
            e.b(0xE8).imm32(d as i32);
        }
        Inst::CallReg { reg } => {
            e.rex(false, false, false, reg.needs_rex_bit(), false);
            e.b(0xFF).modrm_reg(2, reg.index() as u8);
        }
        Inst::CallHost { .. } => {
            // Modeled as `call [rip+disp32]` through the host trampoline table.
            e.b(0xFF).b(0x15).imm32(0);
        }
        Inst::Ret => {
            e.b(0xC3);
        }
        Inst::Push { reg } => {
            e.rex(false, false, false, reg.needs_rex_bit(), false);
            e.b(0x50 + (reg.index() as u8 & 7));
        }
        Inst::Pop { reg } => {
            e.rex(false, false, false, reg.needs_rex_bit(), false);
            e.b(0x58 + (reg.index() as u8 & 7));
        }
        Inst::MovdquLoad { dst, mem } => {
            if let Some(seg) = mem.seg {
                e.b(seg.prefix_byte());
            }
            if mem.addr32 {
                e.b(0x67);
            }
            e.b(0xF3);
            let (x, b) = mem_rex_bits(&mem);
            e.rex(false, dst.needs_rex_bit(), x, b, false);
            e.b(0x0F).b(0x6F);
            e.modrm_mem(dst.index() as u8, &mem)?;
        }
        Inst::MovdquStore { src, mem } => {
            if let Some(seg) = mem.seg {
                e.b(seg.prefix_byte());
            }
            if mem.addr32 {
                e.b(0x67);
            }
            e.b(0xF3);
            let (x, b) = mem_rex_bits(&mem);
            e.rex(false, src.needs_rex_bit(), x, b, false);
            e.b(0x0F).b(0x7F);
            e.modrm_mem(src.index() as u8, &mem)?;
        }
        Inst::MovdqaRR { dst, src } => {
            e.b(0x66);
            e.rex(false, dst.needs_rex_bit(), false, src.needs_rex_bit(), false);
            e.b(0x0F).b(0x6F);
            e.modrm_reg(dst.index() as u8, src.index() as u8);
        }
        Inst::WrGsBase { src } => {
            e.b(0xF3);
            e.rex(true, false, false, src.needs_rex_bit(), false);
            e.b(0x0F).b(0xAE);
            e.modrm_reg(3, src.index() as u8);
        }
        Inst::RdGsBase { dst } => {
            e.b(0xF3);
            e.rex(true, false, false, dst.needs_rex_bit(), false);
            e.b(0x0F).b(0xAE);
            e.modrm_reg(1, dst.index() as u8);
        }
        Inst::WrFsBase { src } => {
            e.b(0xF3);
            e.rex(true, false, false, src.needs_rex_bit(), false);
            e.b(0x0F).b(0xAE);
            e.modrm_reg(2, src.index() as u8);
        }
        Inst::WrPkru => {
            e.b(0x0F).b(0x01).b(0xEF);
        }
        Inst::RdPkru => {
            e.b(0x0F).b(0x01).b(0xEE);
        }
        Inst::Ud2 => {
            e.b(0x0F).b(0x0B);
        }
        Inst::Lfence => {
            e.b(0x0F).b(0xAE).b(0xE8);
        }
        Inst::Nop => {
            e.b(0x90);
        }
    }
    Ok(e)
}

fn cond_code(c: Cond) -> u8 {
    match c {
        Cond::E => 0x4,
        Cond::Ne => 0x5,
        Cond::L => 0xC,
        Cond::Le => 0xE,
        Cond::G => 0xF,
        Cond::Ge => 0xD,
        Cond::B => 0x2,
        Cond::Be => 0x6,
        Cond::A => 0x7,
        Cond::Ae => 0x3,
        Cond::S => 0x8,
        Cond::Ns => 0x9,
    }
}

/// Encodes a whole program with branch relaxation (short forms where the
/// displacement fits in 8 bits).
///
/// Relaxation starts from the all-near encoding and repeatedly shrinks
/// branches whose displacement fits; since shrinking only moves code closer
/// together, the iteration converges.
///
/// Only `jmp`, `jcc` and `call` read their target's displacement, so every
/// other instruction is encoded once: the final emission copies its pass-1
/// bytes.
pub fn encode_program(p: &Program) -> Result<Encoded, EncodeError> {
    p.check_labels().map_err(EncodeError::UnboundLabel)?;
    let n = p.len();
    // Pass 1: every instruction with all-near branches.
    let mut near = Vec::with_capacity(4 * n);
    let mut lens: Vec<u32> = Vec::with_capacity(n);
    for inst in p.insts() {
        let enc = encode_with(inst, |_| 0x7FFF_FFFF)?;
        near.extend_from_slice(enc.bytes());
        lens.push(enc.len as u32);
    }
    let near_offsets = prefix_offsets(&lens);
    let mut offsets = near_offsets.clone();

    // Iterate: re-encode branches with real displacements; lengths only
    // shrink, so this converges (bounded by instruction count).
    for _ in 0..n.max(4) {
        let mut changed = false;
        for (i, inst) in p.insts().iter().enumerate() {
            if !matches!(inst, Inst::Jmp { .. } | Inst::Jcc { .. }) {
                continue;
            }
            let end = offsets[i] + lens[i];
            let len = encode_with(inst, |l| {
                let t = p.resolve(l).expect("checked above");
                i64::from(offsets[t]) - i64::from(end)
            })?
            .len as u32;
            if len < lens[i] {
                lens[i] = len;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        offsets = prefix_offsets(&lens);
    }

    // Final emission.
    let mut bytes = Vec::with_capacity(offsets.last().copied().unwrap_or(0) as usize);
    for (i, inst) in p.insts().iter().enumerate() {
        if !matches!(inst, Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. }) {
            bytes.extend_from_slice(&near[near_offsets[i] as usize..near_offsets[i + 1] as usize]);
            continue;
        }
        let end = offsets[i] + lens[i];
        let enc = encode_with(inst, |l| {
            let t = p.resolve(l).expect("checked above");
            i64::from(offsets[t]) - i64::from(end)
        })?;
        debug_assert_eq!(enc.len as u32, lens[i], "length drift for {inst}");
        bytes.extend_from_slice(enc.bytes());
    }
    Ok(Encoded { bytes, offsets })
}

fn prefix_offsets(lens: &[u32]) -> Vec<u32> {
    let mut offs = Vec::with_capacity(lens.len() + 1);
    let mut acc = 0u32;
    for &l in lens {
        offs.push(acc);
        acc += l;
    }
    offs.push(acc);
    offs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mem, Scale, Seg};

    fn enc(i: Inst) -> Vec<u8> {
        encode_inst(&i).unwrap()
    }

    #[test]
    fn figure1_baseline_pattern1() {
        // mov ebx, ebx (truncation)
        assert_eq!(
            enc(Inst::MovRR { dst: Gpr::Rbx, src: Gpr::Rbx, width: Width::D }),
            vec![0x89, 0xDB]
        );
        // mov r10, [rax + rbx]
        assert_eq!(
            enc(Inst::Load {
                dst: Gpr::R10,
                mem: Mem::bisd(Gpr::Rax, Gpr::Rbx, Scale::S1, 0),
                width: Width::Q
            }),
            vec![0x4C, 0x8B, 0x14, 0x18]
        );
    }

    #[test]
    fn figure1_segue_pattern1() {
        // mov r10, gs:[ebx] — one instruction, five bytes.
        assert_eq!(
            enc(Inst::Load {
                dst: Gpr::R10,
                mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs).with_addr32(),
                width: Width::Q
            }),
            vec![0x65, 0x67, 0x4C, 0x8B, 0x13]
        );
    }

    #[test]
    fn figure1_baseline_pattern2() {
        // lea edi, [rcx + rdx*4 + 8]
        assert_eq!(
            enc(Inst::Lea {
                dst: Gpr::Rdi,
                mem: Mem::bisd(Gpr::Rcx, Gpr::Rdx, Scale::S4, 8),
                width: Width::D
            }),
            vec![0x8D, 0x7C, 0x91, 0x08]
        );
        // mov r11, [rax + rdi]
        assert_eq!(
            enc(Inst::Load {
                dst: Gpr::R11,
                mem: Mem::bisd(Gpr::Rax, Gpr::Rdi, Scale::S1, 0),
                width: Width::Q
            }),
            vec![0x4C, 0x8B, 0x1C, 0x38]
        );
    }

    #[test]
    fn figure1_segue_pattern2() {
        // mov r11, gs:[ecx + edx*4 + 8] — 7 bytes vs 8 for the 2-inst form.
        assert_eq!(
            enc(Inst::Load {
                dst: Gpr::R11,
                mem: Mem::bisd(Gpr::Rcx, Gpr::Rdx, Scale::S4, 8)
                    .with_seg(Seg::Gs)
                    .with_addr32(),
                width: Width::Q
            }),
            vec![0x65, 0x67, 0x4C, 0x8B, 0x5C, 0x91, 0x08]
        );
    }

    #[test]
    fn rsp_base_needs_sib_and_rbp_needs_disp() {
        // mov rax, [rsp] → REX.W 8B 04 24
        assert_eq!(
            enc(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rsp), width: Width::Q }),
            vec![0x48, 0x8B, 0x04, 0x24]
        );
        // mov rax, [rbp] → REX.W 8B 45 00 (mod=01 disp8=0)
        assert_eq!(
            enc(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbp), width: Width::Q }),
            vec![0x48, 0x8B, 0x45, 0x00]
        );
        // r13 behaves like rbp, r12 like rsp.
        assert_eq!(
            enc(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::R13), width: Width::Q }),
            vec![0x49, 0x8B, 0x45, 0x00]
        );
        assert_eq!(
            enc(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::R12), width: Width::Q }),
            vec![0x49, 0x8B, 0x04, 0x24]
        );
    }

    #[test]
    fn rsp_index_rejected() {
        let bad = Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::isd(Gpr::Rsp, Scale::S2, 0),
            width: Width::Q,
        };
        assert_eq!(encode_inst(&bad), Err(EncodeError::RspIndex));
    }

    #[test]
    fn imm_width_selection() {
        // add rax, 8 → short imm8 form (83 C0 08 + REX.W).
        assert_eq!(
            enc(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 8, width: Width::Q }),
            vec![0x48, 0x83, 0xC0, 0x08]
        );
        // add rax, 0x1000 → imm32 form.
        assert_eq!(
            enc(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 0x1000, width: Width::Q }),
            vec![0x48, 0x81, 0xC0, 0x00, 0x10, 0x00, 0x00]
        );
        // mov rax, small → 7 bytes; mov rax, huge → 10 bytes.
        assert_eq!(enc(Inst::MovRI { dst: Gpr::Rax, imm: 1, width: Width::Q }).len(), 7);
        assert_eq!(
            enc(Inst::MovRI { dst: Gpr::Rax, imm: 0x1_0000_0000, width: Width::Q }).len(),
            10
        );
    }

    #[test]
    fn system_instruction_lengths() {
        assert_eq!(enc(Inst::WrPkru), vec![0x0F, 0x01, 0xEF]);
        assert_eq!(enc(Inst::RdPkru), vec![0x0F, 0x01, 0xEE]);
        assert_eq!(enc(Inst::WrGsBase { src: Gpr::Rax }).len(), 5);
        assert_eq!(enc(Inst::Ud2), vec![0x0F, 0x0B]);
    }

    #[test]
    fn branch_relaxation() {
        // A short backward loop should use the 2-byte jcc form.
        let mut p = Program::new();
        let top = p.here();
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        let e = encode_program(&p).unwrap();
        assert_eq!(e.inst_len(1), 2, "short jcc expected: {:02x?}", e.bytes);
        // sub(4) + jcc(2) + ret(1)
        assert_eq!(e.len(), 7);
        // Displacement: from end of jcc (offset 6) back to 0 → -6.
        assert_eq!(e.bytes[5] as i8, -6);
    }

    #[test]
    fn long_branches_stay_near() {
        let mut p = Program::new();
        let top = p.here();
        for _ in 0..64 {
            p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0, width: Width::D });
        }
        p.push(Inst::Jmp { target: top });
        let e = encode_program(&p).unwrap();
        // 64 × 5-byte movs = 320 > 127, so the jmp must be near (5 bytes).
        assert_eq!(e.inst_len(64), 5);
    }

    #[test]
    fn offsets_are_consistent() {
        let mut p = Program::new();
        p.push(Inst::Nop);
        p.push(Inst::MovRI { dst: Gpr::R8, imm: -1, width: Width::Q });
        p.push(Inst::Ret);
        let e = encode_program(&p).unwrap();
        assert_eq!(e.offsets[0], 0);
        assert_eq!(e.inst_len(0), 1);
        assert_eq!(e.offsets[3] as usize, e.len());
    }

    #[test]
    fn segment_prefix_adds_exactly_one_byte() {
        let plain = enc(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::Q });
        let seg = enc(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs),
            width: Width::Q,
        });
        assert_eq!(seg.len(), plain.len() + 1);
        assert_eq!(seg[0], 0x65);
    }
}

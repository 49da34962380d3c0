//! # sfi-x86: an x86-64 subset model for SFI research
//!
//! This crate models the slice of the x86-64 architecture that matters for
//! software-based fault isolation (SFI) research, as used by the Segue &
//! ColorGuard reproduction:
//!
//! - [`Gpr`], [`Seg`], [`Mem`]: registers and addressing modes, including the
//!   `%gs`/`%fs` segment overrides and the address-size override that Segue
//!   relies on (§3.1 of the paper).
//! - [`Inst`] and [`Program`]: an instruction set rich enough to express the
//!   code that Wasm/SFI compilers emit (ALU, loads/stores, `lea`, branches,
//!   calls, 128-bit SIMD moves, `wrgsbase`, `wrpkru`).
//! - [`encode`]: a byte-accurate encoder. Segue's costs are partly *encoding*
//!   costs (the one-byte `gs` prefix, the one-byte address-size override), so
//!   instruction lengths here are real x86-64 lengths, not estimates.
//! - [`emu::Machine`]: a deterministic emulator that executes programs,
//!   counts instructions, simulates an L1 instruction and data cache, and
//!   charges cycles through a documented, tunable [`cost::CostModel`].
//!
//! The emulator is *deterministic and observable*: every figure in the paper
//! reproduction is derived from exact instruction/byte/miss counts rather
//! than wall-clock noise.
//!
//! ## Example
//!
//! ```
//! use sfi_x86::{Gpr, Inst, Mem, Program, Width};
//! use sfi_x86::emu::{FlatMemory, Image, Machine};
//!
//! // mov rax, 7 ; mov [0x100], rax ; mov rbx, [0x100] ; ret
//! let mut p = Program::new();
//! p.push(Inst::MovRI { dst: Gpr::Rax, imm: 7, width: Width::Q });
//! p.push(Inst::Store { src: Gpr::Rax, mem: Mem::abs(0x100), width: Width::Q });
//! p.push(Inst::Load { dst: Gpr::Rbx, mem: Mem::abs(0x100), width: Width::Q });
//! p.push(Inst::Ret);
//!
//! let mut mem = FlatMemory::new(0x1000);
//! let mut m = Machine::new();
//! let image = Image::load(p).unwrap();
//! m.run_image(&image, &mut mem).unwrap();
//! assert_eq!(m.gpr(Gpr::Rbx), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod emu;
pub mod encode;

pub use inst::{AluOp, ShiftAmount, ShiftOp};

mod addr;
pub mod inst;
mod program;
mod reg;

pub use addr::{Mem, Scale};
pub use inst::{Cond, Inst, Width};
pub use program::{Label, Program, Provenance};
pub use reg::{Gpr, Seg, Xmm};

/// A fault raised by a memory access during emulation.
///
/// This is the architectural trap surface that SFI schemes rely on: guard
/// regions raise [`MemFault::Unmapped`], MPK striping raises
/// [`MemFault::PkuViolation`], MTE raises [`MemFault::MteTagMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MemFault {
    /// Access to a virtual address with no mapping (page fault on an
    /// unmapped page, e.g. a guard region).
    Unmapped {
        /// The faulting virtual address.
        addr: u64,
    },
    /// Access denied by page permissions (e.g. write to a read-only page,
    /// or any access to a `PROT_NONE` guard page).
    Protection {
        /// The faulting virtual address.
        addr: u64,
    },
    /// Access to a page whose MPK color is not enabled in the current PKRU.
    PkuViolation {
        /// The faulting virtual address.
        addr: u64,
        /// The protection key (color) of the page.
        key: u8,
    },
    /// ARM-MTE-style tag mismatch: the pointer's tag does not match the
    /// granule's memory tag.
    MteTagMismatch {
        /// The faulting virtual address.
        addr: u64,
        /// Tag carried in the pointer's top byte.
        ptr_tag: u8,
        /// Tag stored for the granule.
        mem_tag: u8,
    },
    /// Access outside the bounds of a flat test memory.
    OutOfRange {
        /// The faulting virtual address.
        addr: u64,
    },
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            MemFault::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemFault::Protection { addr } => write!(f, "protection violation at {addr:#x}"),
            MemFault::PkuViolation { addr, key } => {
                write!(f, "MPK violation at {addr:#x} (page key {key})")
            }
            MemFault::MteTagMismatch { addr, ptr_tag, mem_tag } => write!(
                f,
                "MTE tag mismatch at {addr:#x} (pointer tag {ptr_tag:#x}, memory tag {mem_tag:#x})"
            ),
            MemFault::OutOfRange { addr } => write!(f, "address {addr:#x} out of range"),
        }
    }
}

impl std::error::Error for MemFault {}

/// A reason emulation stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Trap {
    /// A memory access faulted.
    Mem(MemFault),
    /// Division by zero or signed overflow in `div`/`idiv`.
    DivideError,
    /// An explicit `ud2` (used by SFI bounds-check failure paths).
    Undefined,
    /// The program ran past its instruction budget (likely an infinite loop).
    FuelExhausted,
    /// A branch target or call target was out of range.
    BadControlFlow {
        /// The offending target (label id or instruction index).
        target: u64,
    },
    /// `wrpkru`/`wrgsbase` executed while the machine forbids them (models a
    /// sandbox that must not contain these instructions).
    PrivilegedInstruction,
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::Mem(m) => write!(f, "memory fault: {m}"),
            Trap::DivideError => write!(f, "divide error"),
            Trap::Undefined => write!(f, "undefined instruction (ud2)"),
            Trap::FuelExhausted => write!(f, "instruction budget exhausted"),
            Trap::BadControlFlow { target } => write!(f, "bad control-flow target {target}"),
            Trap::PrivilegedInstruction => write!(f, "forbidden privileged instruction"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemFault> for Trap {
    fn from(value: MemFault) -> Self {
        Trap::Mem(value)
    }
}

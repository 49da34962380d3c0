//! The reference interpreter — the differential-testing oracle.
//!
//! Every SFI compilation strategy in `sfi-core` must produce machine code
//! whose observable behaviour (return value, final linear-memory contents,
//! traps) matches this interpreter on every program. The interpreter
//! implements Wasm's semantics directly from the specification: 32-bit
//! wrap-around arithmetic, 33-bit effective addresses, deterministic traps.

use crate::module::HostImport;
use crate::{Module, Op, ValType, WasmTrap, MAX_PAGES, PAGE_SIZE};

/// Host-function dispatcher for imported functions.
pub trait Host {
    /// Calls import `import` with `args`; may read/write linear memory.
    fn call(
        &mut self,
        import: &HostImport,
        args: &[u64],
        memory: &mut [u8],
    ) -> Result<Option<u64>, WasmTrap>;
}

/// A host that rejects all imports (for modules that declare none).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHost;

impl Host for NoHost {
    fn call(
        &mut self,
        import: &HostImport,
        _args: &[u64],
        _memory: &mut [u8],
    ) -> Result<Option<u64>, WasmTrap> {
        Err(WasmTrap::HostError(format!("no host function bound for {}", import.name)))
    }
}

/// Pre-computed structured-control targets for one function body.
#[derive(Debug, Clone, Default)]
struct JumpTable {
    /// For each `Block`/`Loop`/`If` pc: the pc of the matching `End`.
    end_of: Vec<u32>,
    /// For each `If` pc: the pc of its `Else` (or the `End` if none).
    else_of: Vec<u32>,
}

fn build_jump_table(body: &[Op]) -> JumpTable {
    let n = body.len();
    let mut jt = JumpTable { end_of: vec![u32::MAX; n], else_of: vec![u32::MAX; n] };
    let mut stack: Vec<usize> = Vec::new();
    for (pc, op) in body.iter().enumerate() {
        match op {
            Op::Block | Op::Loop | Op::If => stack.push(pc),
            Op::Else => {
                let opener = *stack.last().expect("validated");
                jt.else_of[opener] = pc as u32;
            }
            Op::End => {
                if let Some(opener) = stack.pop() {
                    jt.end_of[opener] = pc as u32;
                    if jt.else_of[opener] == u32::MAX {
                        jt.else_of[opener] = pc as u32;
                    }
                    // An Else needs to know its End too: store under the
                    // Else pc so `Else` execution can skip to it.
                    let else_pc = jt.else_of[opener] as usize;
                    if else_pc != pc {
                        jt.end_of[else_pc] = pc as u32;
                    }
                }
                // The function-level End pops nothing (stack empty).
            }
            _ => {}
        }
    }
    jt
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Maximum executed instructions.
    pub fuel: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_call_depth: 256, fuel: 2_000_000_000 }
    }
}

/// The reference interpreter for one module instance.
///
/// Holds the instance state (linear memory, globals); each
/// [`Interpreter::invoke_export`] call runs one function to completion.
#[derive(Debug, Clone)]
pub struct Interpreter<'m> {
    module: &'m Module,
    /// Linear memory (public for test assertions).
    pub memory: Vec<u8>,
    globals: Vec<u64>,
    jump_tables: Vec<JumpTable>,
    limits: Limits,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Block,
    Loop,
    If,
}

struct Ctrl {
    kind: CtrlKind,
    /// pc of the opener (for Loop back-branches).
    start: usize,
    /// pc of the matching End.
    end: usize,
    /// Value-stack height at entry.
    height: usize,
}

impl<'m> Interpreter<'m> {
    /// Instantiates `module`: allocates memory, applies data segments,
    /// initializes globals.
    pub fn new(module: &'m Module) -> Result<Interpreter<'m>, WasmTrap> {
        let mem_bytes = module.mem_min_bytes() as usize;
        let mut memory = vec![0u8; mem_bytes];
        for (offset, bytes) in &module.data {
            let start = *offset as usize;
            let end = start + bytes.len();
            if end > memory.len() {
                return Err(WasmTrap::OutOfBoundsMemory { addr: end as u64 });
            }
            memory[start..end].copy_from_slice(bytes);
        }
        let globals = module.globals.iter().map(|g| g.init).collect();
        let jump_tables = module.funcs.iter().map(|f| build_jump_table(&f.body)).collect();
        Ok(Interpreter { module, memory, globals, jump_tables, limits: Limits::default() })
    }

    /// Overrides the execution limits.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Reads a global's current value.
    pub fn global(&self, idx: u32) -> Option<u64> {
        self.globals.get(idx as usize).copied()
    }

    /// Current memory size in pages.
    pub fn mem_pages(&self) -> u32 {
        (self.memory.len() as u64 / PAGE_SIZE) as u32
    }

    /// Invokes an exported function with no host imports.
    pub fn invoke_export(&mut self, name: &str, args: &[u64]) -> Result<Option<u64>, WasmTrap> {
        self.invoke_export_with_host(name, args, &mut NoHost)
    }

    /// Invokes an exported function, dispatching imports to `host`.
    pub fn invoke_export_with_host(
        &mut self,
        name: &str,
        args: &[u64],
        host: &mut dyn Host,
    ) -> Result<Option<u64>, WasmTrap> {
        let idx = self
            .module
            .export_index(name)
            .ok_or_else(|| WasmTrap::HostError(format!("no export named {name}")))?;
        self.invoke(idx, args, host)
    }

    /// Invokes a function by index in the function index space.
    pub fn invoke(
        &mut self,
        func_idx: u32,
        args: &[u64],
        host: &mut dyn Host,
    ) -> Result<Option<u64>, WasmTrap> {
        let mut fuel = self.limits.fuel;
        self.call(func_idx, args, 0, host, &mut fuel)
    }

    fn call(
        &mut self,
        func_idx: u32,
        args: &[u64],
        depth: usize,
        host: &mut dyn Host,
        fuel: &mut u64,
    ) -> Result<Option<u64>, WasmTrap> {
        if depth >= self.limits.max_call_depth {
            return Err(WasmTrap::StackExhausted);
        }
        if let Some(import) = self.module.imports.get(func_idx as usize) {
            return host.call(import, args, &mut self.memory);
        }
        let func = self
            .module
            .defined_func(func_idx)
            .ok_or(WasmTrap::UndefinedTableElement)?;
        let jt_idx = func_idx as usize - self.module.imports.len();

        let mut locals = vec![0u64; func.local_count() as usize];
        locals[..args.len()].copy_from_slice(args);
        // Canonicalize i32 params to their low 32 bits.
        for (i, p) in func.params.iter().enumerate() {
            if *p == ValType::I32 {
                locals[i] &= 0xFFFF_FFFF;
            }
        }

        let mut stack: Vec<u64> = Vec::with_capacity(32);
        let mut ctrl: Vec<Ctrl> = Vec::with_capacity(8);
        let mut pc = 0usize;
        let body = &func.body;

        macro_rules! pop {
            () => {
                stack.pop().expect("validated stack")
            };
        }
        macro_rules! bin32 {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!() as u32;
                let $a = pop!() as u32;
                stack.push(u64::from($e));
            }};
        }
        macro_rules! bin64 {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!();
                let $a = pop!();
                stack.push($e);
            }};
        }
        macro_rules! cmp64 {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!();
                let $a = pop!();
                stack.push(u64::from($e));
            }};
        }

        loop {
            if *fuel == 0 {
                return Err(WasmTrap::FuelExhausted);
            }
            *fuel -= 1;
            let op = &body[pc];
            match op {
                Op::I32Const(v) => stack.push(*v as u32 as u64),
                Op::I64Const(v) => stack.push(*v as u64),
                Op::LocalGet(i) => stack.push(locals[*i as usize]),
                Op::LocalSet(i) => locals[*i as usize] = pop!(),
                Op::LocalTee(i) => locals[*i as usize] = *stack.last().expect("validated"),
                Op::GlobalGet(i) => stack.push(self.globals[*i as usize]),
                Op::GlobalSet(i) => self.globals[*i as usize] = pop!(),
                Op::Drop => {
                    pop!();
                }
                Op::Select => {
                    let c = pop!() as u32;
                    let b = pop!();
                    let a = pop!();
                    stack.push(if c != 0 { a } else { b });
                }

                Op::I32Add => bin32!(|a, b| a.wrapping_add(b)),
                Op::I32Sub => bin32!(|a, b| a.wrapping_sub(b)),
                Op::I32Mul => bin32!(|a, b| a.wrapping_mul(b)),
                Op::I32DivU => {
                    let b = pop!() as u32;
                    let a = pop!() as u32;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(u64::from(a / b));
                }
                Op::I32DivS => {
                    let b = pop!() as u32 as i32;
                    let a = pop!() as u32 as i32;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    if a == i32::MIN && b == -1 {
                        return Err(WasmTrap::IntegerOverflow);
                    }
                    stack.push((a / b) as u32 as u64);
                }
                Op::I32RemU => {
                    let b = pop!() as u32;
                    let a = pop!() as u32;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(u64::from(a % b));
                }
                Op::I32RemS => {
                    let b = pop!() as u32 as i32;
                    let a = pop!() as u32 as i32;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(a.wrapping_rem(b) as u32 as u64);
                }
                Op::I32And => bin32!(|a, b| a & b),
                Op::I32Or => bin32!(|a, b| a | b),
                Op::I32Xor => bin32!(|a, b| a ^ b),
                Op::I32Shl => bin32!(|a, b| a.wrapping_shl(b)),
                Op::I32ShrU => bin32!(|a, b| a.wrapping_shr(b)),
                Op::I32ShrS => bin32!(|a, b| ((a as i32).wrapping_shr(b)) as u32),
                Op::I32Rotl => bin32!(|a, b| a.rotate_left(b & 31)),
                Op::I32Rotr => bin32!(|a, b| a.rotate_right(b & 31)),

                Op::I32Eqz => {
                    let a = pop!() as u32;
                    stack.push(u64::from(a == 0));
                }
                Op::I32Eq => bin32!(|a, b| u32::from(a == b)),
                Op::I32Ne => bin32!(|a, b| u32::from(a != b)),
                Op::I32LtU => bin32!(|a, b| u32::from(a < b)),
                Op::I32LtS => bin32!(|a, b| u32::from((a as i32) < (b as i32))),
                Op::I32GtU => bin32!(|a, b| u32::from(a > b)),
                Op::I32GtS => bin32!(|a, b| u32::from((a as i32) > (b as i32))),
                Op::I32LeU => bin32!(|a, b| u32::from(a <= b)),
                Op::I32LeS => bin32!(|a, b| u32::from((a as i32) <= (b as i32))),
                Op::I32GeU => bin32!(|a, b| u32::from(a >= b)),
                Op::I32GeS => bin32!(|a, b| u32::from((a as i32) >= (b as i32))),

                Op::I64Add => bin64!(|a, b| a.wrapping_add(b)),
                Op::I64Sub => bin64!(|a, b| a.wrapping_sub(b)),
                Op::I64Mul => bin64!(|a, b| a.wrapping_mul(b)),
                Op::I64DivU => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(a / b);
                }
                Op::I64DivS => {
                    let b = pop!() as i64;
                    let a = pop!() as i64;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    if a == i64::MIN && b == -1 {
                        return Err(WasmTrap::IntegerOverflow);
                    }
                    stack.push((a / b) as u64);
                }
                Op::I64RemU => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(a % b);
                }
                Op::I64RemS => {
                    let b = pop!() as i64;
                    let a = pop!() as i64;
                    if b == 0 {
                        return Err(WasmTrap::DivideByZero);
                    }
                    stack.push(a.wrapping_rem(b) as u64);
                }
                Op::I64And => bin64!(|a, b| a & b),
                Op::I64Or => bin64!(|a, b| a | b),
                Op::I64Xor => bin64!(|a, b| a ^ b),
                Op::I64Shl => bin64!(|a, b| a.wrapping_shl(b as u32)),
                Op::I64ShrU => bin64!(|a, b| a.wrapping_shr(b as u32)),
                Op::I64ShrS => bin64!(|a, b| ((a as i64).wrapping_shr(b as u32)) as u64),

                Op::I64Eqz => {
                    let a = pop!();
                    stack.push(u64::from(a == 0));
                }
                Op::I64Eq => cmp64!(|a, b| a == b),
                Op::I64Ne => cmp64!(|a, b| a != b),
                Op::I64LtU => cmp64!(|a, b| a < b),
                Op::I64LtS => cmp64!(|a, b| (a as i64) < (b as i64)),
                Op::I64GtU => cmp64!(|a, b| a > b),
                Op::I64GtS => cmp64!(|a, b| (a as i64) > (b as i64)),
                Op::I64LeU => cmp64!(|a, b| a <= b),
                Op::I64LeS => cmp64!(|a, b| (a as i64) <= (b as i64)),
                Op::I64GeU => cmp64!(|a, b| a >= b),
                Op::I64GeS => cmp64!(|a, b| (a as i64) >= (b as i64)),

                Op::I32WrapI64 => {
                    let a = pop!();
                    stack.push(a & 0xFFFF_FFFF);
                }
                Op::I64ExtendI32U => {
                    let a = pop!() as u32;
                    stack.push(u64::from(a));
                }
                Op::I64ExtendI32S => {
                    let a = pop!() as u32 as i32;
                    stack.push(a as i64 as u64);
                }

                Op::I32Load { offset } => {
                    let v = self.mem_load(pop!(), *offset, 4)?;
                    stack.push(v);
                }
                Op::I64Load { offset } => {
                    let v = self.mem_load(pop!(), *offset, 8)?;
                    stack.push(v);
                }
                Op::I32Load8U { offset } => {
                    let v = self.mem_load(pop!(), *offset, 1)?;
                    stack.push(v);
                }
                Op::I32Load8S { offset } => {
                    let v = self.mem_load(pop!(), *offset, 1)? as u8 as i8;
                    stack.push(v as i32 as u32 as u64);
                }
                Op::I32Load16U { offset } => {
                    let v = self.mem_load(pop!(), *offset, 2)?;
                    stack.push(v);
                }
                Op::I32Load16S { offset } => {
                    let v = self.mem_load(pop!(), *offset, 2)? as u16 as i16;
                    stack.push(v as i32 as u32 as u64);
                }
                Op::I32Store { offset } => {
                    let v = pop!();
                    self.mem_store(pop!(), *offset, 4, v)?;
                }
                Op::I64Store { offset } => {
                    let v = pop!();
                    self.mem_store(pop!(), *offset, 8, v)?;
                }
                Op::I32Store8 { offset } => {
                    let v = pop!();
                    self.mem_store(pop!(), *offset, 1, v)?;
                }
                Op::I32Store16 { offset } => {
                    let v = pop!();
                    self.mem_store(pop!(), *offset, 2, v)?;
                }
                Op::MemorySize => stack.push(u64::from(self.mem_pages())),
                Op::MemoryGrow => {
                    let delta = pop!() as u32;
                    let old = self.mem_pages();
                    let new = u64::from(old) + u64::from(delta);
                    let max = u64::from(self.module.mem_max_pages.unwrap_or(MAX_PAGES));
                    if new > max {
                        stack.push(u32::MAX as u64); // -1
                    } else {
                        self.memory.resize((new * PAGE_SIZE) as usize, 0);
                        stack.push(u64::from(old));
                    }
                }
                Op::MemoryCopy => {
                    let len = pop!() as u32 as u64;
                    let src = pop!() as u32 as u64;
                    let dst = pop!() as u32 as u64;
                    let mlen = self.memory.len() as u64;
                    if src + len > mlen || dst + len > mlen {
                        return Err(WasmTrap::OutOfBoundsMemory { addr: src.max(dst) + len });
                    }
                    self.memory.copy_within(src as usize..(src + len) as usize, dst as usize);
                }
                Op::MemoryFill => {
                    let len = pop!() as u32 as u64;
                    let val = pop!() as u8;
                    let dst = pop!() as u32 as u64;
                    let mlen = self.memory.len() as u64;
                    if dst + len > mlen {
                        return Err(WasmTrap::OutOfBoundsMemory { addr: dst + len });
                    }
                    self.memory[dst as usize..(dst + len) as usize].fill(val);
                }

                Op::Block => {
                    let end = self.jump_tables[jt_idx].end_of[pc] as usize;
                    ctrl.push(Ctrl { kind: CtrlKind::Block, start: pc, end, height: stack.len() });
                }
                Op::Loop => {
                    let end = self.jump_tables[jt_idx].end_of[pc] as usize;
                    ctrl.push(Ctrl { kind: CtrlKind::Loop, start: pc, end, height: stack.len() });
                }
                Op::If => {
                    let jt = &self.jump_tables[jt_idx];
                    let end = jt.end_of[pc] as usize;
                    let else_pc = jt.else_of[pc] as usize;
                    let cond = pop!() as u32;
                    ctrl.push(Ctrl { kind: CtrlKind::If, start: pc, end, height: stack.len() });
                    if cond == 0 {
                        // Jump just past the Else, or onto the End (whose
                        // handler pops the frame) when there is no else-arm.
                        pc = else_pc;
                        if body[pc] == Op::Else {
                            pc += 1;
                        }
                        continue;
                    }
                }
                Op::Else => {
                    // Fell through the then-branch: skip to the End.
                    let frame = ctrl.last().expect("validated");
                    pc = frame.end;
                    continue; // End handler pops the frame
                }
                Op::End => {
                    if ctrl.is_empty() {
                        // Function end: fall-through return.
                        let ret = func.result.map(|rt| match rt {
                            ValType::I32 => stack.pop().expect("validated") & 0xFFFF_FFFF,
                            ValType::I64 => stack.pop().expect("validated"),
                        });
                        return Ok(ret);
                    }
                    ctrl.pop();
                }
                Op::Br(d) => {
                    pc = Self::do_branch(&mut ctrl, &mut stack, *d);
                    if pc == usize::MAX {
                        return Self::do_return(func, &mut stack);
                    }
                    continue;
                }
                Op::BrIf(d) => {
                    let cond = pop!() as u32;
                    if cond != 0 {
                        pc = Self::do_branch(&mut ctrl, &mut stack, *d);
                        if pc == usize::MAX {
                            return Self::do_return(func, &mut stack);
                        }
                        continue;
                    }
                }
                Op::BrTable { targets, default } => {
                    let sel = pop!() as u32 as usize;
                    let d = targets.get(sel).copied().unwrap_or(*default);
                    pc = Self::do_branch(&mut ctrl, &mut stack, d);
                    if pc == usize::MAX {
                        return Self::do_return(func, &mut stack);
                    }
                    continue;
                }
                Op::Return => {
                    return Self::do_return(func, &mut stack);
                }
                Op::Call(idx) => {
                    let (params, _result) =
                        self.module.signature(*idx).ok_or(WasmTrap::UndefinedTableElement)?;
                    let argc = params.len();
                    let args: Vec<u64> = stack.split_off(stack.len() - argc);
                    let r = self.call(*idx, &args, depth + 1, host, fuel)?;
                    if let Some(v) = r {
                        stack.push(v);
                    }
                }
                Op::CallIndirect { type_func } => {
                    let ti = pop!() as u32;
                    let fidx = *self
                        .module
                        .table
                        .get(ti as usize)
                        .ok_or(WasmTrap::UndefinedTableElement)?;
                    let (want_p, want_r) =
                        self.module.signature(*type_func).ok_or(WasmTrap::UndefinedTableElement)?;
                    let (got_p, got_r) =
                        self.module.signature(fidx).ok_or(WasmTrap::UndefinedTableElement)?;
                    if want_p != got_p || want_r != got_r {
                        return Err(WasmTrap::IndirectCallTypeMismatch);
                    }
                    let argc = got_p.len();
                    let args: Vec<u64> = stack.split_off(stack.len() - argc);
                    let r = self.call(fidx, &args, depth + 1, host, fuel)?;
                    if let Some(v) = r {
                        stack.push(v);
                    }
                }
                Op::Unreachable => return Err(WasmTrap::Unreachable),
                Op::Nop => {}
            }
            pc += 1;
        }
    }

    /// Branch to relative depth `d`; returns the new pc, or `usize::MAX` to
    /// signal a branch to the function frame (acts as return).
    fn do_branch(ctrl: &mut Vec<Ctrl>, stack: &mut Vec<u64>, d: u32) -> usize {
        let d = d as usize;
        if d >= ctrl.len() {
            // Branch to the implicit function label.
            return usize::MAX;
        }
        let keep = ctrl.len() - 1 - d;
        let frame = &ctrl[keep];
        let (target, height) = match frame.kind {
            CtrlKind::Loop => (frame.start + 1, frame.height),
            _ => (frame.end + 1, frame.height),
        };
        stack.truncate(height);
        match frame.kind {
            // A branch to a loop re-enters it: keep the loop frame.
            CtrlKind::Loop => ctrl.truncate(keep + 1),
            _ => ctrl.truncate(keep),
        }
        target
    }

    fn do_return(func: &crate::Func, stack: &mut Vec<u64>) -> Result<Option<u64>, WasmTrap> {
        Ok(func.result.map(|rt| match rt {
            ValType::I32 => stack.pop().expect("validated") & 0xFFFF_FFFF,
            ValType::I64 => stack.pop().expect("validated"),
        }))
    }

    fn mem_load(&self, addr: u64, offset: u32, width: u32) -> Result<u64, WasmTrap> {
        // 33-bit effective address: 32-bit dynamic + 32-bit static offset.
        let ea = (addr & 0xFFFF_FFFF) + u64::from(offset);
        let end = ea + u64::from(width);
        if end > self.memory.len() as u64 {
            return Err(WasmTrap::OutOfBoundsMemory { addr: ea });
        }
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&self.memory[ea as usize..end as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    fn mem_store(&mut self, addr: u64, offset: u32, width: u32, val: u64) -> Result<(), WasmTrap> {
        let ea = (addr & 0xFFFF_FFFF) + u64::from(offset);
        let end = ea + u64::from(width);
        if end > self.memory.len() as u64 {
            return Err(WasmTrap::OutOfBoundsMemory { addr: ea });
        }
        self.memory[ea as usize..end as usize].copy_from_slice(&val.to_le_bytes()[..width as usize]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, FuncBuilder, Global};

    fn one_func_module(params: &[ValType], result: Option<ValType>, body: Vec<Op>) -> Module {
        let mut m = Module::new(1);
        let mut b = FuncBuilder::new("f").params(params);
        if let Some(r) = result {
            b = b.result(r);
        }
        let idx = m.push_func(b.locals(&[ValType::I32, ValType::I64]).body(body).build());
        m.export("f", idx);
        validate(&m).expect("test module must validate");
        m
    }

    fn run(m: &Module, args: &[u64]) -> Result<Option<u64>, WasmTrap> {
        Interpreter::new(m).unwrap().invoke_export("f", args)
    }

    #[test]
    fn arithmetic_wraps_at_32_bits() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![Op::LocalGet(0), Op::I32Const(1), Op::I32Add, Op::End],
        );
        assert_eq!(run(&m, &[u32::MAX as u64]).unwrap(), Some(0));
    }

    #[test]
    fn div_traps() {
        let m = one_func_module(
            &[ValType::I32, ValType::I32],
            Some(ValType::I32),
            vec![Op::LocalGet(0), Op::LocalGet(1), Op::I32DivS, Op::End],
        );
        assert_eq!(run(&m, &[7, 0]), Err(WasmTrap::DivideByZero));
        assert_eq!(run(&m, &[i32::MIN as u32 as u64, u32::MAX as u64]), Err(WasmTrap::IntegerOverflow));
        assert_eq!(run(&m, &[7, 2]).unwrap(), Some(3));
        assert_eq!(
            run(&m, &[(-7i32) as u32 as u64, 2]).unwrap(),
            Some((-3i32) as u32 as u64)
        );
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::LocalGet(0),
                Op::I32Const(0x1234_5678),
                Op::I32Store { offset: 4 },
                Op::LocalGet(0),
                Op::I32Load { offset: 4 },
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[16]).unwrap(), Some(0x1234_5678));
    }

    #[test]
    fn oob_memory_traps_at_33_bit_address() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![Op::LocalGet(0), Op::I32Load { offset: 8 }, Op::End],
        );
        // addr = 0xFFFF_FFFF, offset 8 → 33-bit EA, must trap (not wrap!).
        let err = run(&m, &[0xFFFF_FFFF]).unwrap_err();
        assert_eq!(err, WasmTrap::OutOfBoundsMemory { addr: 0x1_0000_0007 });
        // Last valid word:
        assert_eq!(run(&m, &[65536 - 12]).unwrap(), Some(0));
    }

    #[test]
    fn loop_sums() {
        // sum 1..=n via loop
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::Block,
                Op::Loop,
                Op::LocalGet(0),
                Op::I32Eqz,
                Op::BrIf(1),
                Op::LocalGet(1),
                Op::LocalGet(0),
                Op::I32Add,
                Op::LocalSet(1),
                Op::LocalGet(0),
                Op::I32Const(1),
                Op::I32Sub,
                Op::LocalSet(0),
                Op::Br(0),
                Op::End,
                Op::End,
                Op::LocalGet(1),
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[100]).unwrap(), Some(5050));
    }

    #[test]
    fn if_else() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::LocalGet(0),
                Op::If,
                Op::I32Const(11),
                Op::LocalSet(1),
                Op::Else,
                Op::I32Const(22),
                Op::LocalSet(1),
                Op::End,
                Op::LocalGet(1),
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[1]).unwrap(), Some(11));
        assert_eq!(run(&m, &[0]).unwrap(), Some(22));
    }

    #[test]
    fn if_without_else() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::I32Const(5),
                Op::LocalSet(1),
                Op::LocalGet(0),
                Op::If,
                Op::I32Const(9),
                Op::LocalSet(1),
                Op::End,
                Op::LocalGet(1),
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[1]).unwrap(), Some(9));
        assert_eq!(run(&m, &[0]).unwrap(), Some(5));
    }

    #[test]
    fn br_table_dispatch() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::Block, // 2
                Op::Block, // 1
                Op::Block, // 0
                Op::LocalGet(0),
                Op::BrTable { targets: vec![0, 1], default: 2 },
                Op::End,
                Op::I32Const(100),
                Op::Return,
                Op::End,
                Op::I32Const(200),
                Op::Return,
                Op::End,
                Op::I32Const(300),
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[0]).unwrap(), Some(100));
        assert_eq!(run(&m, &[1]).unwrap(), Some(200));
        assert_eq!(run(&m, &[2]).unwrap(), Some(300));
        assert_eq!(run(&m, &[77]).unwrap(), Some(300));
    }

    #[test]
    fn calls_and_recursion() {
        let mut m = Module::new(1);
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let fib = FuncBuilder::new("fib")
            .params(&[ValType::I32])
            .result(ValType::I32)
            .body(vec![
                Op::LocalGet(0),
                Op::I32Const(2),
                Op::I32LtU,
                Op::If,
                Op::LocalGet(0),
                Op::Return,
                Op::End,
                Op::LocalGet(0),
                Op::I32Const(1),
                Op::I32Sub,
                Op::Call(0),
                Op::LocalGet(0),
                Op::I32Const(2),
                Op::I32Sub,
                Op::Call(0),
                Op::I32Add,
                Op::End,
            ])
            .build();
        let idx = m.push_func(fib);
        m.export("fib", idx);
        validate(&m).unwrap();
        let mut i = Interpreter::new(&m).unwrap();
        assert_eq!(i.invoke_export("fib", &[10]).unwrap(), Some(55));
    }

    #[test]
    fn call_indirect_and_type_mismatch() {
        let mut m = Module::new(1);
        let f1 = m.push_func(
            FuncBuilder::new("one").result(ValType::I32).body(vec![Op::I32Const(1), Op::End]).build(),
        );
        let f2 = m.push_func(
            FuncBuilder::new("two").result(ValType::I32).body(vec![Op::I32Const(2), Op::End]).build(),
        );
        let g = m.push_func(
            FuncBuilder::new("bad").result(ValType::I64).body(vec![Op::I64Const(3), Op::End]).build(),
        );
        m.push_table_entry(f1);
        m.push_table_entry(f2);
        m.push_table_entry(g);
        let caller = m.push_func(
            FuncBuilder::new("f")
                .params(&[ValType::I32])
                .result(ValType::I32)
                .body(vec![Op::LocalGet(0), Op::CallIndirect { type_func: f1 }, Op::End])
                .build(),
        );
        m.export("f", caller);
        validate(&m).unwrap();
        let mut i = Interpreter::new(&m).unwrap();
        assert_eq!(i.invoke_export("f", &[0]).unwrap(), Some(1));
        assert_eq!(i.invoke_export("f", &[1]).unwrap(), Some(2));
        assert_eq!(i.invoke_export("f", &[2]), Err(WasmTrap::IndirectCallTypeMismatch));
        assert_eq!(i.invoke_export("f", &[3]), Err(WasmTrap::UndefinedTableElement));
    }

    #[test]
    fn memory_grow_and_size() {
        let mut m = Module::new(1);
        m.mem_max_pages = Some(3);
        let idx = m.push_func(
            FuncBuilder::new("f")
                .result(ValType::I32)
                .body(vec![
                    Op::I32Const(1),
                    Op::MemoryGrow,
                    Op::Drop,
                    Op::I32Const(5),
                    Op::MemoryGrow, // exceeds max → -1
                    Op::Drop,
                    Op::MemorySize,
                    Op::End,
                ])
                .build(),
        );
        m.export("f", idx);
        validate(&m).unwrap();
        let mut i = Interpreter::new(&m).unwrap();
        assert_eq!(i.invoke_export("f", &[]).unwrap(), Some(2));
    }

    #[test]
    fn bulk_memory_ops() {
        let m = one_func_module(
            &[],
            Some(ValType::I32),
            vec![
                // fill [100, 108) with 0xAB
                Op::I32Const(100),
                Op::I32Const(0xAB),
                Op::I32Const(8),
                Op::MemoryFill,
                // copy [100,108) to [104,112) — overlapping
                Op::I32Const(104),
                Op::I32Const(100),
                Op::I32Const(8),
                Op::MemoryCopy,
                Op::I32Const(108),
                Op::I32Load8U { offset: 0 },
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[]).unwrap(), Some(0xAB));
    }

    #[test]
    fn bulk_oob_traps() {
        let m = one_func_module(
            &[],
            None,
            vec![
                Op::I32Const(65530),
                Op::I32Const(0),
                Op::I32Const(100),
                Op::MemoryFill,
                Op::End,
            ],
        );
        assert!(matches!(run(&m, &[]), Err(WasmTrap::OutOfBoundsMemory { .. })));
    }

    #[test]
    fn globals_and_host_calls() {
        let mut m = Module::new(1);
        let imp = m.push_import(HostImport {
            name: "host.add10".into(),
            params: vec![ValType::I32],
            result: Some(ValType::I32),
        });
        m.push_global(Global { ty: ValType::I32, mutable: true, init: 5 });
        let idx = m.push_func(
            FuncBuilder::new("f")
                .result(ValType::I32)
                .body(vec![
                    Op::GlobalGet(0),
                    Op::Call(imp),
                    Op::GlobalSet(0),
                    Op::GlobalGet(0),
                    Op::End,
                ])
                .build(),
        );
        m.export("f", idx);
        validate(&m).unwrap();
        struct Add10;
        impl Host for Add10 {
            fn call(
                &mut self,
                _i: &HostImport,
                args: &[u64],
                _m: &mut [u8],
            ) -> Result<Option<u64>, WasmTrap> {
                Ok(Some(args[0] + 10))
            }
        }
        let mut i = Interpreter::new(&m).unwrap();
        assert_eq!(i.invoke_export_with_host("f", &[], &mut Add10).unwrap(), Some(15));
        assert_eq!(i.global(0), Some(15));
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let m = one_func_module(&[], None, vec![Op::Loop, Op::Br(0), Op::End, Op::End]);
        let mut i = Interpreter::new(&m).unwrap();
        i.set_limits(Limits { fuel: 10_000, ..Limits::default() });
        assert_eq!(i.invoke_export("f", &[]), Err(WasmTrap::FuelExhausted));
    }

    #[test]
    fn deep_recursion_exhausts_stack() {
        let mut m = Module::new(1);
        let idx = m.push_func(
            FuncBuilder::new("f").body(vec![Op::Call(0), Op::End]).build(),
        );
        m.export("f", idx);
        validate(&m).unwrap();
        let mut i = Interpreter::new(&m).unwrap();
        // Keep the host stack shallow: the interpreter recurses per guest
        // frame, and debug builds have large frames.
        i.set_limits(Limits { max_call_depth: 64, ..Limits::default() });
        assert_eq!(i.invoke_export("f", &[]), Err(WasmTrap::StackExhausted));
    }

    #[test]
    fn data_segments_applied() {
        let mut m = Module::new(1);
        m.push_data(8, vec![1, 2, 3, 4]);
        let idx = m.push_func(
            FuncBuilder::new("f")
                .result(ValType::I32)
                .body(vec![Op::I32Const(8), Op::I32Load { offset: 0 }, Op::End])
                .build(),
        );
        m.export("f", idx);
        validate(&m).unwrap();
        let mut i = Interpreter::new(&m).unwrap();
        assert_eq!(i.invoke_export("f", &[]).unwrap(), Some(0x04030201));
    }

    #[test]
    fn unreachable_traps() {
        let m = one_func_module(&[], None, vec![Op::Unreachable, Op::End]);
        assert_eq!(run(&m, &[]), Err(WasmTrap::Unreachable));
    }

    #[test]
    fn select_and_tee() {
        let m = one_func_module(
            &[ValType::I32],
            Some(ValType::I32),
            vec![
                Op::I32Const(10),
                Op::I32Const(20),
                Op::LocalGet(0),
                Op::Select,
                Op::End,
            ],
        );
        assert_eq!(run(&m, &[1]).unwrap(), Some(10));
        assert_eq!(run(&m, &[0]).unwrap(), Some(20));
    }
}

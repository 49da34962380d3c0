//! Modules, functions and globals.

use std::collections::BTreeMap;

use crate::{Op, ValType};

/// Wasm's linear-memory page size (64 KiB).
pub const PAGE_SIZE: u64 = 65536;

/// The page count a memory may grow to when it declares no maximum (4 GiB
/// of 32-bit address space).
pub const MAX_PAGES: u32 = 65_536;

/// A function: signature, locals and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func {
    /// Debug name.
    pub name: String,
    /// Parameter types (parameters are locals `0..params.len()`).
    pub params: Vec<ValType>,
    /// Result type (mini-Wasm allows at most one).
    pub result: Option<ValType>,
    /// Additional local variables (indices continue after the parameters).
    pub locals: Vec<ValType>,
    /// The body; must be terminated by [`Op::End`].
    pub body: Vec<Op>,
}

impl Func {
    /// Total local count (parameters + declared locals).
    pub fn local_count(&self) -> u32 {
        (self.params.len() + self.locals.len()) as u32
    }

    /// The type of local `i` (parameter or declared local).
    pub fn local_type(&self, i: u32) -> Option<ValType> {
        let i = i as usize;
        self.params.get(i).or_else(|| self.locals.get(i - self.params.len().min(i))).copied()
    }
}

/// A builder for [`Func`].
///
/// ```
/// use sfi_wasm::{FuncBuilder, Op, ValType};
/// let f = FuncBuilder::new("double")
///     .params(&[ValType::I32])
///     .result(ValType::I32)
///     .locals(&[ValType::I32])
///     .body(vec![Op::LocalGet(0), Op::I32Const(2), Op::I32Mul, Op::End])
///     .build();
/// assert_eq!(f.local_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FuncBuilder {
    func: Func,
}

impl FuncBuilder {
    /// Starts a function named `name` with no parameters or result.
    pub fn new(name: impl Into<String>) -> FuncBuilder {
        FuncBuilder {
            func: Func {
                name: name.into(),
                params: Vec::new(),
                result: None,
                locals: Vec::new(),
                body: Vec::new(),
            },
        }
    }

    /// Sets the parameter types.
    #[must_use]
    pub fn params(mut self, params: &[ValType]) -> Self {
        self.func.params = params.to_vec();
        self
    }

    /// Sets the result type.
    #[must_use]
    pub fn result(mut self, ty: ValType) -> Self {
        self.func.result = Some(ty);
        self
    }

    /// Declares extra locals.
    #[must_use]
    pub fn locals(mut self, locals: &[ValType]) -> Self {
        self.func.locals = locals.to_vec();
        self
    }

    /// Sets the body. An [`Op::End`] terminator is appended if missing.
    #[must_use]
    pub fn body(mut self, body: Vec<Op>) -> Self {
        self.func.body = body;
        self
    }

    /// Finishes the function.
    pub fn build(mut self) -> Func {
        if self.func.body.last() != Some(&Op::End) {
            self.func.body.push(Op::End);
        }
        self.func
    }
}

/// A module global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Value type.
    pub ty: ValType,
    /// Whether the global may be written.
    pub mutable: bool,
    /// Initial value (reinterpreted at `ty`).
    pub init: u64,
}

/// An imported (host) function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostImport {
    /// Debug name (e.g. `"wasi.clock_time_get"`).
    pub name: String,
    /// Parameter types.
    pub params: Vec<ValType>,
    /// Result type.
    pub result: Option<ValType>,
}

/// A mini-Wasm module.
///
/// Function index space: host imports come first (`0..imports.len()`),
/// followed by the module's own functions — matching Wasm's convention.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Host imports (function index space `0..imports.len()`).
    pub imports: Vec<HostImport>,
    /// Module-defined functions.
    pub funcs: Vec<Func>,
    /// Globals.
    pub globals: Vec<Global>,
    /// Initial linear-memory size in pages.
    pub mem_min_pages: u32,
    /// Optional maximum memory size in pages ([`MAX_PAGES`] when absent).
    pub mem_max_pages: Option<u32>,
    /// Function table (for `call_indirect`): entries are function indices.
    pub table: Vec<u32>,
    /// Exported functions: name → function index.
    pub exports: BTreeMap<String, u32>,
    /// Data segments: (offset, bytes) copied into memory at instantiation.
    pub data: Vec<(u32, Vec<u8>)>,
}

impl Module {
    /// Creates a module with `mem_pages` pages of linear memory.
    pub fn new(mem_pages: u32) -> Module {
        Module { mem_min_pages: mem_pages, ..Module::default() }
    }

    /// Appends a function, returning its index in the function index space.
    pub fn push_func(&mut self, func: Func) -> u32 {
        self.funcs.push(func);
        (self.imports.len() + self.funcs.len() - 1) as u32
    }

    /// Declares a host import, returning its function index.
    ///
    /// # Panics
    ///
    /// Panics if any module function was already added (imports must come
    /// first in the index space).
    pub fn push_import(&mut self, import: HostImport) -> u32 {
        assert!(self.funcs.is_empty(), "imports must be declared before functions");
        self.imports.push(import);
        (self.imports.len() - 1) as u32
    }

    /// Exports function `idx` under `name`.
    pub fn export(&mut self, name: impl Into<String>, idx: u32) {
        self.exports.insert(name.into(), idx);
    }

    /// Looks up an exported function index.
    pub fn export_index(&self, name: &str) -> Option<u32> {
        self.exports.get(name).copied()
    }

    /// Appends a global, returning its index.
    pub fn push_global(&mut self, g: Global) -> u32 {
        self.globals.push(g);
        (self.globals.len() - 1) as u32
    }

    /// Appends a table entry, returning the table slot.
    pub fn push_table_entry(&mut self, func_idx: u32) -> u32 {
        self.table.push(func_idx);
        (self.table.len() - 1) as u32
    }

    /// Adds a data segment.
    pub fn push_data(&mut self, offset: u32, bytes: Vec<u8>) {
        self.data.push((offset, bytes));
    }

    /// Number of functions in the index space (imports + defined).
    pub fn func_space_len(&self) -> u32 {
        (self.imports.len() + self.funcs.len()) as u32
    }

    /// Resolves a function index to a defined function (None for imports or
    /// out-of-range indices).
    pub fn defined_func(&self, idx: u32) -> Option<&Func> {
        let i = (idx as usize).checked_sub(self.imports.len())?;
        self.funcs.get(i)
    }

    /// Whether `idx` refers to a host import.
    pub fn is_import(&self, idx: u32) -> bool {
        (idx as usize) < self.imports.len()
    }

    /// Signature of any function in the index space: `(params, result)`.
    pub fn signature(&self, idx: u32) -> Option<(&[ValType], Option<ValType>)> {
        if let Some(imp) = self.imports.get(idx as usize) {
            return Some((&imp.params, imp.result));
        }
        self.defined_func(idx).map(|f| (&f.params[..], f.result))
    }

    /// Initial linear-memory size in bytes.
    pub fn mem_min_bytes(&self) -> u64 {
        u64::from(self.mem_min_pages) * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop_func(name: &str) -> Func {
        FuncBuilder::new(name).body(vec![Op::End]).build()
    }

    #[test]
    fn builder_appends_end() {
        let f = FuncBuilder::new("f").body(vec![Op::Nop]).build();
        assert_eq!(f.body.last(), Some(&Op::End));
        let g = FuncBuilder::new("g").body(vec![Op::End]).build();
        assert_eq!(g.body.len(), 1);
    }

    #[test]
    fn import_and_func_index_space() {
        let mut m = Module::new(1);
        let imp = m.push_import(HostImport {
            name: "host.log".into(),
            params: vec![ValType::I32],
            result: None,
        });
        assert_eq!(imp, 0);
        let f = m.push_func(nop_func("f"));
        assert_eq!(f, 1);
        assert!(m.is_import(0));
        assert!(!m.is_import(1));
        assert!(m.defined_func(0).is_none());
        assert_eq!(m.defined_func(1).unwrap().name, "f");
        assert_eq!(m.func_space_len(), 2);
    }

    #[test]
    #[should_panic(expected = "imports must be declared before functions")]
    fn imports_after_funcs_panic() {
        let mut m = Module::new(1);
        m.push_func(nop_func("f"));
        m.push_import(HostImport { name: "x".into(), params: vec![], result: None });
    }

    #[test]
    fn exports_resolve() {
        let mut m = Module::new(1);
        let f = m.push_func(nop_func("f"));
        m.export("entry", f);
        assert_eq!(m.export_index("entry"), Some(f));
        assert_eq!(m.export_index("missing"), None);
    }

    #[test]
    fn local_types_span_params_and_locals() {
        let f = FuncBuilder::new("f")
            .params(&[ValType::I32, ValType::I64])
            .locals(&[ValType::I32])
            .body(vec![Op::End])
            .build();
        assert_eq!(f.local_type(0), Some(ValType::I32));
        assert_eq!(f.local_type(1), Some(ValType::I64));
        assert_eq!(f.local_type(2), Some(ValType::I32));
        assert_eq!(f.local_type(3), None);
    }

    #[test]
    fn signatures() {
        let mut m = Module::new(1);
        let f = m.push_func(
            FuncBuilder::new("f")
                .params(&[ValType::I32])
                .result(ValType::I64)
                .body(vec![Op::I64Const(0), Op::End])
                .build(),
        );
        let (p, r) = m.signature(f).unwrap();
        assert_eq!(p, &[ValType::I32]);
        assert_eq!(r, Some(ValType::I64));
        assert!(m.signature(9).is_none());
    }
}

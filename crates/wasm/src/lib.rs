//! # sfi-wasm: a mini-WebAssembly substrate
//!
//! A compact, from-scratch model of the WebAssembly execution semantics that
//! matter for SFI research: a typed stack-machine IR ([`Op`]), modules with
//! linear memory, globals, function tables and exports ([`Module`]), a
//! validator enforcing Wasm's stack discipline ([`validate`]), a reference
//! interpreter used as the differential-testing oracle
//! ([`interp::Interpreter`]), and a WAT-subset text parser ([`wat`]).
//!
//! ## Scope
//!
//! The subset covers the integer, memory, control-flow and bulk-memory
//! instructions that Wasm/SFI compilers instrument. Floating point is
//! deliberately out of scope: Segue and ColorGuard act on *memory accesses*,
//! and the reproduction's float-heavy benchmark stand-ins use fixed-point
//! kernels with the same access patterns (see DESIGN.md).
//!
//! ## Example
//!
//! ```
//! use sfi_wasm::{Module, FuncBuilder, Op, ValType};
//! use sfi_wasm::interp::Interpreter;
//!
//! let mut module = Module::new(1); // 1 page (64 KiB) of linear memory
//! let add = FuncBuilder::new("add")
//!     .params(&[ValType::I32, ValType::I32])
//!     .result(ValType::I32)
//!     .body(vec![Op::LocalGet(0), Op::LocalGet(1), Op::I32Add, Op::End])
//!     .build();
//! let idx = module.push_func(add);
//! module.export("add", idx);
//! sfi_wasm::validate(&module).unwrap();
//!
//! let mut interp = Interpreter::new(&module).unwrap();
//! let r = interp.invoke_export("add", &[2, 40]).unwrap();
//! assert_eq!(r, Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interp;
pub mod print;
pub mod wat;

mod module;
mod op;
mod validate;

pub use module::{Func, FuncBuilder, Global, HostImport, Module, MAX_PAGES, PAGE_SIZE};
pub use op::{Op, ValType};
pub use validate::{validate, ValidationError};

/// A Wasm runtime trap (the reference semantics' failure modes).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WasmTrap {
    /// `unreachable` executed.
    Unreachable,
    /// Linear-memory access out of bounds.
    OutOfBoundsMemory {
        /// The (33-bit) effective address that missed.
        addr: u64,
    },
    /// Integer division by zero.
    DivideByZero,
    /// `INT_MIN / -1` style overflow.
    IntegerOverflow,
    /// `call_indirect` with an out-of-range table index.
    UndefinedTableElement,
    /// `call_indirect` signature mismatch.
    IndirectCallTypeMismatch,
    /// Call stack exceeded the configured depth.
    StackExhausted,
    /// Interpreter ran out of fuel (likely an infinite loop).
    FuelExhausted,
    /// A host function reported an error.
    HostError(String),
}

impl core::fmt::Display for WasmTrap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WasmTrap::Unreachable => f.write_str("unreachable executed"),
            WasmTrap::OutOfBoundsMemory { addr } => {
                write!(f, "out-of-bounds memory access at {addr:#x}")
            }
            WasmTrap::DivideByZero => f.write_str("integer divide by zero"),
            WasmTrap::IntegerOverflow => f.write_str("integer overflow"),
            WasmTrap::UndefinedTableElement => f.write_str("undefined table element"),
            WasmTrap::IndirectCallTypeMismatch => f.write_str("indirect call type mismatch"),
            WasmTrap::StackExhausted => f.write_str("call stack exhausted"),
            WasmTrap::FuelExhausted => f.write_str("fuel exhausted"),
            WasmTrap::HostError(msg) => write!(f, "host error: {msg}"),
        }
    }
}

impl std::error::Error for WasmTrap {}

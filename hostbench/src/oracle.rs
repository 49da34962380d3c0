//! The checks behind `failed`: every op's outputs are compared against an
//! independent reference, and any mismatch counts the op as failed.
//!
//! An op fails when its result or heap differs from the `sfi_wasm`
//! interpreter's, when it traps and the interpreter does not (or the
//! reverse), when a hostile request does *not* trap, when a declared-safe
//! speculative cell leaks, or when an emulator run's cycle buckets do not
//! sum to its total (`attributed_cycles() != cycles`).

use std::fmt;

use sfi_core::harness::{ExecError, ExecOutcome};
use sfi_runtime::{InvokeOutcome, RuntimeError};
use sfi_wasm::interp::Interpreter;
use sfi_x86::cost::RunStats;

use crate::rng::digest;

/// Why an op failed. `cell` names the input (kernel, strategy, tier) so a
/// failure can be reproduced.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The returned value differs from the reference's.
    Result {
        cell: String,
        expected: Option<u64>,
        got: Option<u64>,
    },
    /// The final linear memory differs from the reference's.
    Heap { cell: String },
    /// One side trapped and the other did not.
    Trap { cell: String, detail: String },
    /// A hostile request completed instead of trapping.
    HostileNotTrapped { cell: String },
    /// A declared-safe strategy × mitigation cell leaked speculatively.
    DeclaredSafeLeak { cell: String, leaks: u64 },
    /// Cycle buckets do not sum to the run's total.
    Attribution {
        cell: String,
        cycles: f64,
        attributed: f64,
    },
    /// Any other broken expectation (a compile error, a malformed scrape).
    Other { cell: String, detail: String },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Result {
                cell,
                expected,
                got,
            } => {
                write!(f, "{cell}: result {got:?}, reference {expected:?}")
            }
            Failure::Heap { cell } => write!(f, "{cell}: heap differs from the reference"),
            Failure::Trap { cell, detail } => write!(f, "{cell}: {detail}"),
            Failure::HostileNotTrapped { cell } => write!(f, "{cell}: hostile store did not trap"),
            Failure::DeclaredSafeLeak { cell, leaks } => {
                write!(f, "{cell}: declared safe but leaked {leaks} time(s)")
            }
            Failure::Attribution {
                cell,
                cycles,
                attributed,
            } => {
                write!(f, "{cell}: cycles {cycles} but buckets sum to {attributed}")
            }
            Failure::Other { cell, detail } => write!(f, "{cell}: {detail}"),
        }
    }
}

/// Expected final linear memory: the bytes themselves, or a digest when
/// many references are kept for a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Heap {
    /// The reference memory.
    Bytes(Vec<u8>),
    /// Length and [`digest`] of the reference memory.
    Digest { len: usize, digest: u64 },
}

impl Heap {
    /// Whether `actual` starts with the reference memory. Compiled
    /// harness memories may extend past the module's pages; the extra
    /// bytes are not the module's.
    pub fn matches(&self, actual: &[u8]) -> bool {
        match self {
            Heap::Bytes(b) => actual.get(..b.len()) == Some(b.as_slice()),
            Heap::Digest { len, digest: d } => actual.get(..*len).is_some_and(|a| digest(a) == *d),
        }
    }

    /// This reference reduced to a digest.
    pub fn to_digest(&self) -> Heap {
        match self {
            Heap::Bytes(b) => Heap::Digest {
                len: b.len(),
                digest: digest(b),
            },
            d => d.clone(),
        }
    }
}

/// One reference outcome from the interpreter: `Err(())` means it trapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// The return value, or `Err(())` if the interpreter trapped.
    pub result: Result<Option<u64>, ()>,
    /// The final memory.
    pub heap: Heap,
}

impl Reference {
    /// Interprets `export(args)` on a fresh instance of `module`.
    pub fn interpret(module: &sfi_wasm::Module, export: &str, args: &[u64]) -> Reference {
        match Interpreter::new(module) {
            Ok(mut interp) => {
                let result = interp.invoke_export(export, args).map_err(|_| ());
                Reference {
                    result,
                    heap: Heap::Bytes(std::mem::take(&mut interp.memory)),
                }
            }
            Err(_) => Reference {
                result: Err(()),
                heap: Heap::Bytes(Vec::new()),
            },
        }
    }
}

/// Compares a 32-bit export's return value: compiled code leaves the upper
/// half of `%rax` unspecified.
fn low32(v: Option<u64>) -> Option<u64> {
    v.map(|r| r & 0xFFFF_FFFF)
}

/// Checks a harness run against its reference: same trap-or-not, same
/// result, same heap, exact cycle attribution.
pub fn check_exec(
    cell: &str,
    reference: &Reference,
    actual: &Result<ExecOutcome, ExecError>,
) -> Result<(), Failure> {
    match (&reference.result, actual) {
        (Ok(expected), Ok(out)) => {
            check_attribution(cell, &out.stats)?;
            if low32(out.result) != low32(*expected) {
                return Err(Failure::Result {
                    cell: cell.to_owned(),
                    expected: *expected,
                    got: out.result,
                });
            }
            if !reference.heap.matches(&out.heap) {
                return Err(Failure::Heap {
                    cell: cell.to_owned(),
                });
            }
            Ok(())
        }
        // Both trapped: trap kinds differ by design between the two.
        (Err(()), Err(ExecError::Trapped(_))) => Ok(()),
        (Ok(_), Err(e)) => Err(Failure::Trap {
            cell: cell.to_owned(),
            detail: format!("trapped ({e}), reference did not"),
        }),
        (Err(()), Ok(_)) => Err(Failure::Trap {
            cell: cell.to_owned(),
            detail: "reference trapped, compiled code did not".into(),
        }),
        (Err(()), Err(e)) => Err(Failure::Other {
            cell: cell.to_owned(),
            detail: e.to_string(),
        }),
    }
}

/// Checks one benign runtime invocation's return value.
pub fn check_invoke(
    cell: &str,
    expected: &Result<Option<u64>, ()>,
    actual: &Result<InvokeOutcome, RuntimeError>,
) -> Result<(), Failure> {
    match (expected, actual) {
        (Ok(e), Ok(out)) => {
            check_attribution(cell, &out.stats)?;
            if low32(out.result) == low32(*e) {
                Ok(())
            } else {
                Err(Failure::Result {
                    cell: cell.to_owned(),
                    expected: *e,
                    got: out.result,
                })
            }
        }
        (Err(()), Err(RuntimeError::Trapped(_))) => Ok(()),
        (_, Err(e)) => Err(Failure::Trap {
            cell: cell.to_owned(),
            detail: format!("{e}"),
        }),
        (Err(()), Ok(_)) => Err(Failure::Trap {
            cell: cell.to_owned(),
            detail: "reference trapped, runtime did not".into(),
        }),
    }
}

/// A hostile request must end in a sandbox trap.
pub fn check_hostile(
    cell: &str,
    actual: &Result<InvokeOutcome, RuntimeError>,
) -> Result<(), Failure> {
    match actual {
        Err(RuntimeError::Trapped(_)) => Ok(()),
        Ok(_) => Err(Failure::HostileNotTrapped {
            cell: cell.to_owned(),
        }),
        Err(e) => Err(Failure::Other {
            cell: cell.to_owned(),
            detail: format!("hostile request: {e}"),
        }),
    }
}

/// A cell declared safe against the modeled speculative-leak classes must
/// measure zero leaks.
pub fn check_spec_cell(cell: &str, declared_safe: bool, stats: &RunStats) -> Result<(), Failure> {
    check_attribution(cell, stats)?;
    if declared_safe && stats.spec_leaks > 0 {
        return Err(Failure::DeclaredSafeLeak {
            cell: cell.to_owned(),
            leaks: stats.spec_leaks,
        });
    }
    Ok(())
}

/// The exact-sum invariant: provenance and penalty buckets add up to the
/// total bit for bit.
pub fn check_attribution(cell: &str, stats: &RunStats) -> Result<(), Failure> {
    let attributed = stats.attributed_cycles();
    if attributed.to_bits() == stats.cycles.to_bits() {
        Ok(())
    } else {
        Err(Failure::Attribution {
            cell: cell.to_owned(),
            cycles: stats.cycles,
            attributed,
        })
    }
}

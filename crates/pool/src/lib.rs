//! # sfi-pool: the ColorGuard pooling allocator
//!
//! ColorGuard (§3.2, §5 of the paper) packs Wasm instances up to 15× more
//! densely by striping MPK colors across the address space that guard-based
//! SFI would waste. This crate implements the whole allocator stack:
//!
//! - [`PoolConfig`] / [`compute_layout`] / [`SlotLayout`]: the slot-layout
//!   computation — the explicit contract between the allocator and the
//!   compiler, with all ten Table 1 invariants enforced (including the four
//!   preconditions the paper's verification effort found missing).
//! - [`buggy`]: the pre-verification implementation, preserving the
//!   saturating-add bug and the missing preconditions.
//! - [`invariants`]: Table 1 as an executable checker.
//! - [`verify`]: bounded-exhaustive model checking that rediscovers the
//!   paper's findings — no violations in the fixed version, concrete
//!   counterexamples against the buggy one.
//! - [`MemoryPool`]: the runtime allocator on `sfi-vm` — slab reservation,
//!   per-stripe `pkey_mprotect`, `madvise` recycling with color retention.
//!
//! ```
//! use sfi_pool::{MemoryPool, PoolConfig};
//! use sfi_vm::AddressSpace;
//!
//! let mut space = AddressSpace::new_48bit();
//! let cfg = PoolConfig {
//!     num_slots: 4,
//!     max_memory_bytes: 65536,
//!     expected_slot_bytes: 4 * 65536,
//!     guard_bytes: 4 * 65536,
//!     guard_before_slots: true,
//!     num_pkeys_available: 15,
//!     total_memory_bytes: 1 << 30,
//! };
//! let mut pool = MemoryPool::create(&mut space, &cfg).unwrap();
//! let slot = pool.allocate(&mut space).unwrap();
//! assert!(slot.pkey > 0, "ColorGuard slots carry an MPK color");
//! pool.deallocate(&mut space, slot).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buggy;
pub mod invariants;
pub mod verify;

mod layout;
mod pool;

pub use layout::{compute_layout, LayoutError, PoolConfig, SlotLayout};
pub use pool::{
    MemoryPool, PoolError, QuarantineOutcome, QuarantinePolicy, QuarantineStats, SlotHandle,
};

/// Wasm's linear-memory page size (64 KiB) — layout granularity per
/// Table 1, invariants 7–8.
pub const WASM_PAGE_SIZE: u64 = 65536;

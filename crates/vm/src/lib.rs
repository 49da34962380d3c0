//! # sfi-vm: the virtual-memory substrate
//!
//! A deterministic model of the Linux/x86-64 virtual-memory machinery that
//! ColorGuard depends on:
//!
//! - [`AddressSpace`]: a sparse 48-bit (or 57-bit) address space with
//!   kernel-style VMA tracking (`mmap`/`mprotect`/`munmap`/`madvise`),
//!   including the `vm.max_map_count` limit that ColorGuard deployments must
//!   raise (§5.1 of the paper), and lazily materialized page contents so
//!   terabytes of reservations cost only bookkeeping.
//! - **MPK** ([`mpk`]): per-VMA protection keys (`pkey_alloc`,
//!   `pkey_mprotect`) checked against the PKRU value carried on every
//!   emulated access.
//! - **MTE** ([`mte`]): a 4-bit-per-16-byte-granule tag store with the two
//!   system-call behaviours §7 measures — slow user-level bulk tagging and
//!   tag-discarding `madvise(MADV_DONTNEED)`.
//! - **TLB** ([`tlb`]): a set-associative dTLB model whose walk cost depends
//!   on the paging depth (4-level vs 5-level, §8).
//!
//! [`AddressSpace`] implements [`sfi_x86::emu::MemBus`], so compiled SFI code
//! runs directly against this substrate and out-of-bounds accesses surface
//! as the same faults real hardware would raise (unmapped guard page, PKU
//! violation, MTE tag mismatch).
//!
//! For robustness testing, [`chaos`] provides a deterministic fault-injection
//! plan that can be attached to an [`AddressSpace`] to fail mapping calls
//! (transiently or persistently) and raise spurious bus faults, all derived
//! from one seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod mpk;
pub mod mte;
pub mod tlb;

mod space;

pub use chaos::{fault_draw, ChaosConfig, ChaosStats, EngineFault, FaultPlan, SyscallKind};
pub use space::{AddressSpace, MapError, Prot, VmaInfo, DEFAULT_MAX_MAP_COUNT, OS_PAGE_SIZE};

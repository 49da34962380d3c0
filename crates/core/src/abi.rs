//! The sandbox entry ABI (DESIGN.md §6): how every runner — the flat
//! [`harness`](crate::harness), the pooled runtime and the LFI runner —
//! enters compiled code and serves the compiler's built-in calls, over any
//! bus that implements [`HostBytes`].

use sfi_wasm::PAGE_SIZE;
use sfi_x86::emu::{HostBytes, RegFile};
use sfi_x86::{Gpr, MemFault, Trap};

use crate::compile::hostcall;
use crate::config::{regs, RuntimeRegions};

/// Modeled cycles of one `memory.grow` (an `mmap`-like host call).
pub const GROW_CYCLES: f64 = 60.0;

/// Modeled cycles of a bulk memory operation over `len` bytes: SIMD-ish 16
/// bytes/cycle plus a small fixed dispatch cost.
pub fn bulk_cycles(len: u64) -> f64 {
    10.0 + len as f64 / 16.0
}

/// Bytes moved per step of a bulk operation, through a stack buffer.
const CHUNK: usize = 4096;

/// One sandbox's placement for the duration of an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sandbox {
    /// The runtime regions the compiled code addresses absolutely.
    pub regions: RuntimeRegions,
    /// Where linear memory starts in the bus.
    pub heap_base: u64,
    /// The most pages `memory.grow` may reach: what the runner's bus can
    /// back, capped by the module's maximum.
    pub page_limit: u64,
}

/// Writes the data segments at `heap_base + off`.
pub fn install_data(
    bus: &mut impl HostBytes,
    heap_base: u64,
    data: &[(u32, Vec<u8>)],
) -> Result<(), MemFault> {
    data.iter().try_for_each(|(off, bytes)| bus.write_unchecked(heap_base + u64::from(*off), bytes))
}

/// The `i`-th 8-byte stack slot above `%rsp`: argument `i` counted from the
/// last one pushed.
pub fn stack_arg(bus: &impl HostBytes, regs: &RegFile, i: u64) -> Result<u64, MemFault> {
    let mut b = [0u8; 8];
    bus.read_unchecked(regs.gpr(Gpr::Rsp) + 8 * i, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

impl Sandbox {
    /// The entry half of the protocol: installs the header (current pages,
    /// then the stashed heap base of the §4.1 segment-entry protocol), the
    /// 8-byte globals and the table; resets `regs` and points `%gs` and
    /// [`regs::HEAP_BASE`] at the heap; pushes `args` in order below
    /// `stack_top` and leaves `%rsp` at the last one.
    pub fn enter(
        &self,
        regs: &mut RegFile,
        bus: &mut impl HostBytes,
        mem_pages: u32,
        globals: &[u64],
        table: &[u8],
        args: &[u64],
    ) -> Result<(), MemFault> {
        let header = u64::from(self.regions.header_base);
        bus.write_unchecked(header, &mem_pages.to_le_bytes())?;
        bus.write_unchecked(header + 8, &self.heap_base.to_le_bytes())?;
        for (at, g) in (u64::from(self.regions.globals_base)..).step_by(8).zip(globals) {
            bus.write_unchecked(at, &g.to_le_bytes())?;
        }
        bus.write_unchecked(u64::from(self.regions.table_base), table)?;
        *regs = RegFile::default();
        regs.gs_base = self.heap_base;
        regs.set_gpr(regs::HEAP_BASE, self.heap_base);
        let mut sp = u64::from(self.regions.stack_top);
        for &a in args {
            sp -= 8;
            bus.write_unchecked(sp, &a.to_le_bytes())?;
        }
        regs.set_gpr(Gpr::Rsp, sp);
        Ok(())
    }

    /// The inverse of [`Sandbox::enter`]'s state layout: reads the globals
    /// back into `globals` and returns the current page count.
    pub fn read_back(&self, bus: &impl HostBytes, globals: &mut [u64]) -> Result<u32, MemFault> {
        for (at, g) in (u64::from(self.regions.globals_base)..).step_by(8).zip(globals) {
            let mut b = [0u8; 8];
            bus.read_unchecked(at, &mut b)?;
            *g = u64::from_le_bytes(b);
        }
        self.pages(bus)
    }

    /// The current page count, from the header.
    pub fn pages(&self, bus: &impl HostBytes) -> Result<u32, MemFault> {
        let mut b = [0u8; 4];
        bus.read_unchecked(u64::from(self.regions.header_base), &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Serves built-in `id` and returns its modeled cycles, or `None` when
    /// `id` is not a [`hostcall`] built-in. Arguments sit in Wasm operand
    /// order, the last one at `%rsp`. An out-of-bounds bulk operation faults
    /// with [`MemFault::Unmapped`] at `heap_base` plus the interpreter's
    /// trap address: `max(src, dst) + len` for copy, `dst + len` for fill.
    pub fn builtin(
        &self,
        id: u32,
        regs: &mut RegFile,
        bus: &mut impl HostBytes,
    ) -> Option<Result<f64, Trap>> {
        let served = match id {
            hostcall::MEMORY_GROW => self.grow(regs, bus),
            hostcall::MEMORY_COPY => self.bulk(true, regs, bus),
            hostcall::MEMORY_FILL => self.bulk(false, regs, bus),
            _ => return None,
        };
        Some(served.map_err(Trap::Mem))
    }

    fn grow(&self, regs: &mut RegFile, bus: &mut impl HostBytes) -> Result<f64, MemFault> {
        let delta = stack_arg(bus, regs, 0)? as u32;
        let cur = self.pages(bus)?;
        let new = u64::from(cur) + u64::from(delta);
        if new > self.page_limit {
            regs.set_gpr(Gpr::Rax, u64::from(u32::MAX));
        } else {
            bus.write_unchecked(u64::from(self.regions.header_base), &(new as u32).to_le_bytes())?;
            regs.set_gpr(Gpr::Rax, u64::from(cur));
        }
        Ok(GROW_CYCLES)
    }

    /// `memory.copy(dst, src, len)` or `memory.fill(dst, val, len)`.
    fn bulk(&self, copy: bool, regs: &RegFile, bus: &mut impl HostBytes) -> Result<f64, MemFault> {
        let len = stack_arg(bus, regs, 0)? as u32 as u64;
        let src_or_val = stack_arg(bus, regs, 1)?;
        let dst = stack_arg(bus, regs, 2)? as u32 as u64;
        let src = src_or_val as u32 as u64;
        let end = if copy { src.max(dst) } else { dst } + len;
        if end > u64::from(self.pages(bus)?) * PAGE_SIZE {
            return Err(MemFault::Unmapped { addr: self.heap_base + end });
        }
        let mut buf = [src_or_val as u8; CHUNK];
        let mut done = 0;
        while done < len {
            let n = (len - done).min(CHUNK as u64);
            // Backwards when dst > src: memmove never clobbers unread source.
            let at = if copy && dst > src { len - done - n } else { done };
            let chunk = &mut buf[..n as usize];
            if copy {
                bus.read_unchecked(self.heap_base + src + at, chunk)?;
            }
            bus.write_unchecked(self.heap_base + dst + at, chunk)?;
            done += n;
        }
        Ok(bulk_cycles(len))
    }
}

//! The multi-instance runtime: pooled instances executing on the virtual
//! address space, with ColorGuard PKRU switching on every transition.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use sfi_core::abi;
use sfi_core::compile::CompiledModule;
use sfi_core::config::regs;
use sfi_core::Strategy;
use sfi_pool::{MemoryPool, PoolConfig, PoolError, QuarantineOutcome, SlotHandle};
use sfi_vm::mpk::Pkru;
use sfi_vm::{AddressSpace, MapError, Prot};
use sfi_wasm::PAGE_SIZE;
use sfi_x86::cost::RunStats;
use sfi_x86::emu::{Machine, RegFile};
use sfi_x86::{Gpr, Provenance, Trap};

use sfi_telemetry::TraceKind;

use crate::fault::SandboxFault;
use crate::telemetry::RuntimeTelemetry;
use crate::transition::{TransitionKind, TransitionModel, TransitionStats};

/// The low runtime region (header, globals, table, native stack) mapped at
/// startup and scrubbed before every invocation.
const LOW_REGION_BASE: u64 = 0x1000;
const LOW_REGION_LEN: u64 = 0xF_F000; // 4 KiB .. 1 MiB

/// A host API: named functions the sandbox may import (mini-WASI).
pub trait HostApi {
    /// Handles the import `name` with `args`; may return a value. `heap`
    /// is the calling instance's linear memory (host functions access guest
    /// memory through it, like WASI does).
    fn call(&mut self, name: &str, args: &[u64], heap: &mut [u8]) -> Result<Option<u64>, String>;
}

/// A host API that rejects everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHostApi;

impl HostApi for NoHostApi {
    fn call(&mut self, name: &str, _args: &[u64], _heap: &mut [u8]) -> Result<Option<u64>, String> {
        Err(format!("no host function bound for {name}"))
    }
}

/// Identifies a live instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The raw numeric id — stable across the instance's lifetime, used as
    /// the `sandbox` field of flight-recorder events.
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Instance {
    module: Arc<CompiledModule>,
    slot: SlotHandle,
    globals: Vec<u64>,
    mem_pages: u32,
    /// Set when a guest trap makes this instance's state untrusted. A
    /// poisoned instance refuses further invocations; its slot can only be
    /// returned through [`Runtime::recycle`].
    poisoned: bool,
    /// The classified cause of the most recent failed invocation.
    last_fault: Option<SandboxFault>,
    /// Modeled compile cycles charged by a cold spawn, drained into the
    /// first successful invocation's [`CycleBreakdown`] (0 after that, and
    /// always 0 for warm spawns).
    pending_compile_cycles: f64,
}

/// Runtime failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Pool allocation failed.
    Pool(PoolError),
    /// Mapping runtime regions failed.
    Map(MapError),
    /// Unknown instance.
    BadInstance,
    /// Unknown export.
    NoSuchExport(String),
    /// The module was compiled with an incompatible configuration.
    IncompatibleModule(String),
    /// Compiling the module failed (spawn fast path).
    Compile(sfi_core::CompileError),
    /// The sandbox trapped.
    Trapped(Trap),
    /// The instance exceeded its epoch budget (cooperative preemption).
    EpochInterrupted,
    /// A host function failed.
    Host(String),
    /// The instance previously trapped and its state is untrusted; it must
    /// be recycled.
    Poisoned,
    /// A host-side heap access was out of the instance's memory bounds.
    HeapOutOfBounds {
        /// Requested offset into the heap.
        offset: u64,
        /// Requested length.
        len: u64,
        /// The instance's current memory size in bytes.
        size: u64,
    },
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Pool(e) => write!(f, "pool: {e}"),
            RuntimeError::Map(e) => write!(f, "map: {e}"),
            RuntimeError::BadInstance => f.write_str("unknown instance"),
            RuntimeError::NoSuchExport(n) => write!(f, "no export named {n}"),
            RuntimeError::IncompatibleModule(m) => write!(f, "incompatible module: {m}"),
            RuntimeError::Compile(e) => write!(f, "compile: {e}"),
            RuntimeError::Trapped(t) => write!(f, "trap: {t}"),
            RuntimeError::EpochInterrupted => f.write_str("epoch interrupted"),
            RuntimeError::Host(m) => write!(f, "host: {m}"),
            RuntimeError::Poisoned => f.write_str("instance is poisoned (previous trap)"),
            RuntimeError::HeapOutOfBounds { offset, len, size } => {
                write!(f, "heap access [{offset:#x}, +{len}) out of bounds (memory is {size} bytes)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PoolError> for RuntimeError {
    fn from(e: PoolError) -> Self {
        RuntimeError::Pool(e)
    }
}

impl From<MapError> for RuntimeError {
    fn from(e: MapError) -> Self {
        RuntimeError::Map(e)
    }
}

/// The result of an invocation.
#[derive(Debug, Clone)]
pub struct InvokeOutcome {
    /// Return value (if the export returns one).
    pub result: Option<u64>,
    /// Emulator counters for the guest execution.
    pub stats: RunStats,
    /// Modeled transition cycles charged for this invocation (entry + exit
    /// + one pair per host call).
    pub transition_cycles: f64,
    /// Where every modeled cycle of this invocation went (DESIGN.md §14).
    pub breakdown: CycleBreakdown,
}

/// Penalty bucket labels for [`CycleBreakdown::penalty_cycles`], in index
/// order.
pub const PENALTY_NAMES: [&str; 3] = ["icache", "dcache", "branch"];

/// Modeled cycles charged for compiling a module on a cold spawn: a fixed
/// per-emitted-instruction cost (single-pass baseline codegen is linear in
/// output size). Deterministic — same module, same charge — and surfaced
/// through [`CycleBreakdown::compile_cycles`] and
/// `sfi_compile_cycles_total` rather than folded into guest cycles, so
/// benchmark guest numbers are unchanged by the profiler.
pub fn modeled_compile_cycles(emitted_insts: usize) -> f64 {
    150.0 * emitted_insts as f64
}

/// Per-invocation cycle attribution: one bucket for every modeled cycle
/// the request cost, none counted twice (the DESIGN.md §14 contract).
///
/// The guest buckets are the emulator's provenance attribution
/// ([`RunStats::prov_cycles`] and the penalty buckets), so
/// [`CycleBreakdown::guest_cycles`] equals the run's `stats.cycles`
/// bit-for-bit. Transition cycles are the host-side save/restore protocol
/// (entry + exit + one pair per host call); compile cycles appear only on
/// the first invocation after a cold spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Transition save/restore cycles for this invocation.
    pub transition_cycles: f64,
    /// Guest cycles by instruction provenance (indexed per
    /// [`Provenance::index`]).
    pub guest_prov_cycles: [f64; Provenance::COUNT],
    /// Micro-architectural penalty buckets, indexed per [`PENALTY_NAMES`]:
    /// icache misses, dcache misses, branch mispredictions.
    pub penalty_cycles: [f64; 3],
    /// Modeled compile cycles drained from a cold spawn (0 on warm paths).
    pub compile_cycles: f64,
}

impl CycleBreakdown {
    /// Builds the breakdown for one completed run.
    pub fn from_run(stats: &RunStats, transition_cycles: f64, compile_cycles: f64) -> CycleBreakdown {
        CycleBreakdown {
            transition_cycles,
            guest_prov_cycles: stats.prov_cycles,
            penalty_cycles: [
                stats.icache_penalty_cycles,
                stats.dcache_penalty_cycles,
                stats.branch_penalty_cycles,
            ],
            compile_cycles,
        }
    }

    /// Guest cycles: provenance buckets + penalty buckets, summed in the
    /// same fixed order as [`RunStats::attributed_cycles`] — equal to the
    /// run's total modeled guest cycles bit-for-bit.
    pub fn guest_cycles(&self) -> f64 {
        let mut total = 0.0;
        for c in self.guest_prov_cycles {
            total += c;
        }
        total + self.penalty_cycles[0] + self.penalty_cycles[1] + self.penalty_cycles[2]
    }

    /// Every modeled cycle this invocation cost: guest + transition +
    /// compile.
    pub fn total_cycles(&self) -> f64 {
        self.guest_cycles() + self.transition_cycles + self.compile_cycles
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The pool configuration.
    pub pool: PoolConfig,
    /// Enable ColorGuard: stripe slots with MPK and switch PKRU on
    /// transitions.
    pub colorguard: bool,
    /// Transition cost model.
    pub transition: TransitionModel,
    /// Guest instruction budget per invocation (epoch interruption);
    /// `None` = unlimited.
    pub epoch_fuel: Option<u64>,
    /// Flight-recorder capacity in events (0 disables tracing — the
    /// telemetry-off configuration of the overhead gate).
    pub recorder_capacity: usize,
}

impl RuntimeConfig {
    /// A small test configuration: 64 KiB memories, 8 slots.
    pub fn small_test(colorguard: bool) -> RuntimeConfig {
        RuntimeConfig {
            pool: PoolConfig {
                num_slots: 8,
                max_memory_bytes: PAGE_SIZE,
                expected_slot_bytes: 4 * PAGE_SIZE,
                guard_bytes: 4 * PAGE_SIZE,
                guard_before_slots: true,
                num_pkeys_available: if colorguard { 15 } else { 0 },
                total_memory_bytes: 1 << 31,
            },
            colorguard,
            transition: TransitionModel::default(),
            epoch_fuel: None,
            recorder_capacity: 256,
        }
    }
}

/// The multi-instance runtime.
pub struct Runtime {
    space: AddressSpace,
    pool: MemoryPool,
    machine: Machine,
    config: RuntimeConfig,
    instances: HashMap<u64, Instance>,
    next_id: u64,
    /// Cumulative transition accounting.
    pub transitions: TransitionStats,
    /// Metrics registry, flight recorder and virtual clock.
    telemetry: RuntimeTelemetry,
}

impl Runtime {
    /// Creates a runtime: maps the low runtime regions (header, globals,
    /// table, stack) and the instance pool.
    pub fn new(config: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        let mut space = AddressSpace::new_48bit();
        // Low runtime regions (key 0, always accessible).
        space.mmap_fixed(LOW_REGION_BASE, LOW_REGION_LEN, Prot::READ_WRITE)?;
        let pool = MemoryPool::create(&mut space, &config.pool)?;
        let telemetry = RuntimeTelemetry::new(config.recorder_capacity, 0);
        Ok(Runtime {
            space,
            pool,
            machine: Machine::new(),
            config,
            instances: HashMap::new(),
            next_id: 0,
            transitions: TransitionStats::default(),
            telemetry,
        })
    }

    /// The pool (e.g. for capacity checks).
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The telemetry bundle (registry, flight recorder, virtual clock).
    /// Gauges are synced lazily: call [`Runtime::sync_telemetry`] first for
    /// a snapshot that reflects current occupancies.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (sharded hosts stamp their own events and
    /// merge registries through this).
    pub fn telemetry_mut(&mut self) -> &mut RuntimeTelemetry {
        &mut self.telemetry
    }

    /// Syncs occupancy gauges and scrapes the pool / chaos counters into
    /// the registry. Call before exporting.
    pub fn sync_telemetry(&mut self) {
        self.telemetry.scrape(&self.pool, &self.space, self.instances.len());
    }

    /// A deterministic JSON metrics snapshot (gauges synced first).
    pub fn telemetry_snapshot(&mut self) -> String {
        self.sync_telemetry();
        sfi_telemetry::export::json_snapshot(self.telemetry.registry())
    }

    /// The post-mortem report for an instance whose last invocation failed:
    /// the classified fault, the slot and MPK color it ran in, and the
    /// flight recorder's recent events for that sandbox. `None` when the
    /// instance is unknown or has never faulted.
    pub fn fault_report(&self, id: InstanceId) -> Option<String> {
        let inst = self.instances.get(&id.0)?;
        let fault = inst.last_fault.as_ref()?;
        let mut out = format!(
            "fault: {fault}\ninstance: {} slot: {} color: {}\nrecent events:\n",
            id.0, inst.slot.index, inst.slot.pkey
        );
        for e in self.telemetry.recorder.last_for_sandbox(id.0, 16) {
            out.push_str(&e.dump_line());
            out.push('\n');
        }
        Some(out)
    }

    /// The address space (for test assertions).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Attaches a deterministic fault-injection plan to the runtime's
    /// address space (see [`sfi_vm::chaos`]).
    pub fn set_fault_plan(&mut self, plan: Option<sfi_vm::FaultPlan>) {
        self.space.set_fault_plan(plan);
    }

    /// Sets the pool's crash-containment policy.
    pub fn set_quarantine_policy(&mut self, policy: sfi_pool::QuarantinePolicy) {
        self.pool.set_quarantine_policy(policy);
    }

    /// Live instance count.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Instantiates a compiled module: allocates a slot, installs data
    /// segments, snapshots globals.
    pub fn instantiate(&mut self, module: Arc<CompiledModule>) -> Result<InstanceId, RuntimeError> {
        if module.config.strategy == Strategy::Native {
            return Err(RuntimeError::IncompatibleModule(
                "Native-strategy modules bake an absolute heap base and cannot be pooled".into(),
            ));
        }
        let mem_bytes = u64::from(module.mem_min_pages) * PAGE_SIZE;
        if mem_bytes > self.pool.layout().max_memory_bytes {
            return Err(RuntimeError::IncompatibleModule(format!(
                "module needs {mem_bytes} bytes, slots hold {}",
                self.pool.layout().max_memory_bytes
            )));
        }
        let slot = self.pool.allocate(&mut self.space)?;
        abi::install_data(&mut self.space, slot.heap_base, &module.data)
            .map_err(|f| RuntimeError::Trapped(Trap::Mem(f)))?;
        let id = self.next_id;
        self.next_id += 1;
        self.instances.insert(
            id,
            Instance {
                globals: module.globals_init.clone(),
                mem_pages: module.mem_min_pages,
                module,
                slot,
                poisoned: false,
                last_fault: None,
                pending_compile_cycles: 0.0,
            },
        );
        self.telemetry.trace(TraceKind::Spawn, id, slot.index);
        Ok(InstanceId(id))
    }

    /// The pool's slot-layout contract fingerprint — the third component of
    /// the engine's cache key.
    pub fn layout_fingerprint(&self) -> u64 {
        self.pool.layout().contract_fingerprint()
    }

    /// The spawn fast path: obtains compiled code from the engine's cache
    /// (compiling only on a miss) and instantiates it. A warm spawn —
    /// module already cached for this pool's layout contract — skips
    /// `sfi-core` codegen entirely; observationally it is identical to a
    /// cold spawn.
    pub fn spawn(
        &mut self,
        engine: &mut crate::cache::Engine,
        module: &sfi_wasm::Module,
        config: &sfi_core::CompilerConfig,
    ) -> Result<InstanceId, RuntimeError> {
        let misses_before = engine.cache().stats().misses;
        let cm = engine
            .load(module, config, self.layout_fingerprint())
            .map_err(RuntimeError::Compile)?;
        let cold = engine.cache().stats().misses > misses_before;
        let id = self.instantiate(cm)?;
        if cold {
            self.telemetry.trace(TraceKind::Compile, id.0, 0);
            self.charge_compile(id);
        }
        self.telemetry.scrape_cache(engine.cache().stats());
        Ok(id)
    }

    /// Charges a cold spawn's modeled compile cycles to the instance; the
    /// first successful invocation drains them into its
    /// [`CycleBreakdown::compile_cycles`].
    fn charge_compile(&mut self, id: InstanceId) {
        let inst = self.instances.get_mut(&id.0).expect("just instantiated");
        inst.pending_compile_cycles = modeled_compile_cycles(inst.module.image.program().len());
    }

    /// The tiered spawn path: like [`Runtime::spawn`], but hot modules are
    /// recompiled at the optimizing tier once they cross the engine's
    /// [`TierPolicy`](crate::cache::TierPolicy) threshold. Promotions are
    /// traced ([`TraceKind::Promote`]) and counted
    /// (`sfi_tier_promotions_total`); invocations of the returned instance
    /// land in the per-tier cycle histogram automatically, because the tier
    /// rides in the compiled module's config.
    pub fn spawn_tiered(
        &mut self,
        engine: &mut crate::cache::Engine,
        module: &sfi_wasm::Module,
        config: &sfi_core::CompilerConfig,
    ) -> Result<(InstanceId, crate::cache::Tier), RuntimeError> {
        let misses_before = engine.cache().stats().misses;
        let promotions_before = engine.tier_stats().promotions;
        let (cm, tier) = engine
            .load_tiered(module, config, self.layout_fingerprint())
            .map_err(RuntimeError::Compile)?;
        let cold = engine.cache().stats().misses > misses_before;
        let id = self.instantiate(cm)?;
        if cold {
            self.telemetry.trace(TraceKind::Compile, id.0, 0);
            self.charge_compile(id);
        }
        if engine.tier_stats().promotions > promotions_before {
            self.telemetry.trace(TraceKind::Promote, id.0, engine.tier_stats().promotions);
        }
        self.telemetry.scrape_cache(engine.cache().stats());
        self.telemetry.scrape_tiers(engine.tier_stats());
        Ok((id, tier))
    }

    /// Destroys a healthy instance, recycling its slot (`madvise`).
    /// Poisoned instances are routed through [`Runtime::recycle`] so their
    /// slot never skips quarantine.
    pub fn terminate(&mut self, id: InstanceId) -> Result<(), RuntimeError> {
        if self.instances.get(&id.0).ok_or(RuntimeError::BadInstance)?.poisoned {
            self.recycle(id)?;
            return Ok(());
        }
        let inst = self.instances.remove(&id.0).ok_or(RuntimeError::BadInstance)?;
        self.pool.deallocate(&mut self.space, inst.slot)?;
        Ok(())
    }

    /// Deterministic teardown of an instance whose sandbox trapped: the
    /// instance is destroyed and its slot goes through the pool's
    /// quarantine path (heap scrubbed with `madvise(MADV_DONTNEED)`,
    /// fenced `PROT_NONE`, stripe color re-applied on rehabilitation, slot
    /// retired after repeated faults).
    pub fn recycle(&mut self, id: InstanceId) -> Result<QuarantineOutcome, RuntimeError> {
        let inst = self.instances.remove(&id.0).ok_or(RuntimeError::BadInstance)?;
        let outcome = self.pool.quarantine(&mut self.space, inst.slot)?;
        self.telemetry
            .trace(TraceKind::Recycle, id.0, u64::from(outcome == QuarantineOutcome::Retired));
        self.sync_telemetry();
        Ok(outcome)
    }

    /// Whether `id` is poisoned (trapped and awaiting recycle). `None` for
    /// unknown instances.
    pub fn is_poisoned(&self, id: InstanceId) -> Option<bool> {
        self.instances.get(&id.0).map(|i| i.poisoned)
    }

    /// The classified cause of `id`'s most recent failed invocation.
    pub fn last_fault(&self, id: InstanceId) -> Option<&SandboxFault> {
        self.instances.get(&id.0)?.last_fault.as_ref()
    }

    /// The heap base of `id`'s slot in the shared address space — the frame
    /// in which guard/color fault addresses are reported. `None` for
    /// unknown instances.
    pub fn heap_base(&self, id: InstanceId) -> Option<u64> {
        self.instances.get(&id.0).map(|i| i.slot.heap_base)
    }

    /// The host's PKRU view after the last invocation (0 = full access —
    /// the value every exit path must restore).
    pub fn host_pkru(&self) -> u32 {
        self.machine.regs.pkru
    }

    /// The host's segment base after the last invocation (0 = restored).
    pub fn host_gs_base(&self) -> u64 {
        self.machine.regs.gs_base
    }

    /// Invokes an export with no host API.
    pub fn invoke(
        &mut self,
        id: InstanceId,
        export: &str,
        args: &[u64],
    ) -> Result<InvokeOutcome, RuntimeError> {
        self.invoke_with_host(id, export, args, &mut NoHostApi)
    }

    /// Invokes `export(args)` on instance `id`, dispatching imports to
    /// `host`. Models the full transition protocol: PKRU is narrowed to the
    /// instance's stripe on entry and restored on exit (and around every
    /// host call), the segment base is set on entry.
    pub fn invoke_with_host(
        &mut self,
        id: InstanceId,
        export: &str,
        args: &[u64],
        host: &mut dyn HostApi,
    ) -> Result<InvokeOutcome, RuntimeError> {
        let inst = self.instances.get(&id.0).ok_or(RuntimeError::BadInstance)?;
        if inst.poisoned {
            return Err(RuntimeError::Poisoned);
        }
        let module = Arc::clone(&inst.module);
        let entry = module
            .export_entry(export)
            .ok_or_else(|| RuntimeError::NoSuchExport(export.to_owned()))?;
        let has_result = module.func_has_result[module.exports[export] as usize];
        let pkey = inst.slot.pkey;
        let sandbox = abi::Sandbox {
            regions: module.config.regions,
            heap_base: inst.slot.heap_base,
            page_limit: (self.pool.layout().max_memory_bytes / PAGE_SIZE)
                .min(u64::from(module.mem_max_pages)),
        };

        // Scrub the shared low regions (header, globals, table, stack)
        // before writing this instance's state in. Unconditional: a trap in
        // a previous invocation must not leave another instance's state —
        // or a partially clobbered table — visible to this one.
        self.space.madvise_dontneed(LOW_REGION_BASE, LOW_REGION_LEN)?;

        // Install per-instance runtime state into the shared low regions
        // and stage the architectural entry.
        let (regs_, space) = (&mut self.machine.regs, &mut self.space);
        sandbox
            .enter(regs_, space, inst.mem_pages, &inst.globals, &module.table_bytes, args)
            .map_err(|f| RuntimeError::Trapped(Trap::Mem(f)))?;

        // Architectural entry protocol.
        let enter = TransitionKind {
            colorguard: self.config.colorguard,
            set_segment_base: module.config.strategy.segue_loads()
                || module.config.strategy.segue_stores(),
            ..TransitionKind::default()
        };
        let exit =
            TransitionKind { colorguard: self.config.colorguard, ..TransitionKind::default() };
        self.transitions.record(&self.config.transition, enter);
        let mut invocation_transition_cycles = self.config.transition.cycles(enter);
        self.telemetry.on_transition(enter, self.config.transition.cycles(enter));
        self.telemetry.trace(TraceKind::Enter, id.0, u64::from(pkey));

        if self.config.colorguard {
            self.machine.regs.pkru = Pkru::only_stripe(pkey).0;
        }
        if let Some(fuel) = self.config.epoch_fuel {
            self.machine.set_fuel(fuel);
        }

        // Host dispatcher: builtins + imports. Host calls transition out of
        // the sandbox (restore PKRU) and back in.
        let colorguard = self.config.colorguard;
        let tm = self.config.transition;
        let mut host_transition_cycles = 0.0f64;
        let mut host_transitions = 0u64;
        let mut host_err: Option<String> = None;

        let mut handler = |fid: u32, regs_: &mut RegFile, bus: &mut AddressSpace| -> Result<f64, Trap> {
            // Transition out + back in for the host work.
            let pair = tm.cycles(exit)
                + tm.cycles(TransitionKind { colorguard, ..TransitionKind::default() });
            host_transition_cycles += pair;
            host_transitions += 2;
            let saved_pkru = regs_.pkru;
            regs_.pkru = 0; // host runs with full access

            let r = match sandbox.builtin(fid, regs_, bus) {
                Some(r) => r,
                None if fid < module.num_imports => {
                    // Dispatch to the host API by import name, with a
                    // copy-in/copy-out view of the current heap. A
                    // fault (`?`) ends the run; the exit path below
                    // restores PKRU.
                    let i = fid as usize;
                    let name = module.import_names.get(i).map_or_else(
                        || Cow::Owned(format!("import{fid}")),
                        |n| Cow::Borrowed(n.as_str()),
                    );
                    let argc = module.import_arg_counts.get(i).copied().unwrap_or(0) as u64;
                    let args = (0..argc)
                        .map(|i| abi::stack_arg(bus, regs_, argc - 1 - i))
                        .collect::<Result<Vec<u64>, _>>()?;
                    let cur_bytes = u64::from(sandbox.pages(bus)?) * PAGE_SIZE;
                    let mut heap = vec![0u8; cur_bytes as usize];
                    bus.read_unchecked(sandbox.heap_base, &mut heap);
                    match host.call(&name, &args, &mut heap) {
                        Ok(r) => {
                            bus.write_unchecked(sandbox.heap_base, &heap);
                            if let Some(v) = r {
                                regs_.set_gpr(Gpr::Rax, v);
                            }
                            Ok(150.0) // host work dispatch cost
                        }
                        Err(msg) => {
                            host_err = Some(msg);
                            Err(Trap::Undefined)
                        }
                    }
                }
                None => Err(Trap::BadControlFlow { target: u64::from(fid) }),
            };
            regs_.pkru = saved_pkru;
            r
        };
        let stats =
            self.machine.run_image_from(&module.image, entry, &mut self.space, &mut handler);

        // Exit transition: restore the full host state (PKRU and segment
        // base) on every path — success, trap, epoch, host error.
        self.transitions.record(&self.config.transition, exit);
        invocation_transition_cycles += self.config.transition.cycles(exit);
        invocation_transition_cycles += host_transition_cycles;
        self.transitions.count += host_transitions;
        self.transitions.cycles += host_transition_cycles;
        self.transitions.wrpkru += if colorguard { host_transitions } else { 0 };
        self.telemetry.on_transition(exit, self.config.transition.cycles(exit));
        // Each host-call transition is architecturally an `exit`-shaped
        // transition (restore/narrow PKRU, no segment-base change).
        for _ in 0..host_transitions {
            self.telemetry.on_transition(exit, tm.cycles(exit));
        }
        self.machine.regs.pkru = 0;
        self.machine.regs.gs_base = 0;

        let stats = match stats {
            Ok(s) => s,
            Err(Trap::FuelExhausted) if self.config.epoch_fuel.is_some() => {
                let inst = self.instances.get_mut(&id.0).expect("checked above");
                inst.last_fault = Some(SandboxFault::EpochInterrupted);
                self.telemetry.on_fault(&SandboxFault::EpochInterrupted);
                return Err(RuntimeError::EpochInterrupted);
            }
            Err(t) => {
                let inst = self.instances.get_mut(&id.0).expect("checked above");
                let (err, fault) = match host_err {
                    Some(m) => {
                        // Host API errors say nothing about the guest: the
                        // instance stays healthy and re-invocable.
                        let fault = SandboxFault::HostError(m.clone());
                        inst.last_fault = Some(fault.clone());
                        (RuntimeError::Host(m), fault)
                    }
                    None => {
                        // A guest trap: the sandbox violated its contract,
                        // so its state is untrusted from here on.
                        let fault = SandboxFault::from_trap(&t);
                        inst.last_fault = Some(fault.clone());
                        inst.poisoned = true;
                        (RuntimeError::Trapped(t), fault)
                    }
                };
                self.telemetry.on_fault(&fault);
                let trap_arg = match &fault {
                    SandboxFault::GuardHit { addr }
                    | SandboxFault::ColorFault { addr, .. }
                    | SandboxFault::TagFault { addr, .. } => *addr,
                    SandboxFault::BadControlFlow { target } => *target,
                    _ => 0,
                };
                self.telemetry.trace(TraceKind::Trap, id.0, trap_arg);
                return Err(err);
            }
        };
        self.telemetry.clock.advance_cycles(stats.cycles);
        self.telemetry.on_guest_mem_accesses(stats.loads, stats.stores);
        let tier = match module.config.opt_level {
            sfi_core::OptLevel::Optimized => crate::cache::Tier::Optimized,
            _ => crate::cache::Tier::Baseline,
        };
        self.telemetry.observe_guest_cycles(tier, stats.cycles);
        self.telemetry.observe_invocation_transition_cycles(invocation_transition_cycles);
        self.telemetry
            .trace(TraceKind::Exit, id.0, invocation_transition_cycles.round() as u64);

        // Attribute this invocation's cycles (DESIGN.md §14). A cold
        // spawn's compile charge drains into the first successful
        // invocation; trapped runs keep it pending.
        let compile_cycles = std::mem::take(
            &mut self.instances.get_mut(&id.0).expect("checked above").pending_compile_cycles,
        );
        let breakdown =
            CycleBreakdown::from_run(&stats, invocation_transition_cycles, compile_cycles);
        self.telemetry.observe_breakdown(&breakdown);
        self.telemetry.observe_speculation(&stats, module.config.mitigation);

        // Read back per-instance state.
        let inst = self.instances.get_mut(&id.0).expect("checked above");
        inst.mem_pages = sandbox
            .read_back(&self.space, &mut inst.globals)
            .map_err(|f| RuntimeError::Trapped(Trap::Mem(f)))?;

        Ok(InvokeOutcome {
            result: has_result.then(|| self.machine.gpr(regs::RET)),
            stats,
            transition_cycles: invocation_transition_cycles,
            breakdown,
        })
    }

    /// Bounds-checks a host-side heap access against the instance's
    /// *current* memory size (the host must not reach into guard space or a
    /// neighbouring slot on behalf of a caller).
    fn heap_access(inst: &Instance, offset: u64, len: usize) -> Result<u64, RuntimeError> {
        let size = u64::from(inst.mem_pages) * PAGE_SIZE;
        let oob = RuntimeError::HeapOutOfBounds { offset, len: len as u64, size };
        let end = offset.checked_add(len as u64).ok_or(oob.clone())?;
        if end > size {
            return Err(oob);
        }
        Ok(inst.slot.heap_base + offset)
    }

    /// Reads bytes from an instance's heap (host-side inspection).
    /// Fails with [`RuntimeError::HeapOutOfBounds`] if the range leaves the
    /// instance's memory.
    pub fn read_heap(&self, id: InstanceId, offset: u64, buf: &mut [u8]) -> Result<(), RuntimeError> {
        let inst = self.instances.get(&id.0).ok_or(RuntimeError::BadInstance)?;
        let addr = Self::heap_access(inst, offset, buf.len())?;
        self.space.read_unchecked(addr, buf);
        Ok(())
    }

    /// Writes bytes into an instance's heap, with the same bounds check as
    /// [`Runtime::read_heap`].
    pub fn write_heap(&mut self, id: InstanceId, offset: u64, bytes: &[u8]) -> Result<(), RuntimeError> {
        let inst = self.instances.get(&id.0).ok_or(RuntimeError::BadInstance)?;
        let addr = Self::heap_access(inst, offset, bytes.len())?;
        self.space.write_unchecked(addr, bytes);
        Ok(())
    }

    /// An instance's current global value.
    pub fn global(&self, id: InstanceId, idx: usize) -> Option<u64> {
        self.instances.get(&id.0)?.globals.get(idx).copied()
    }
}

//! `faas_invoke`: the pooled-runtime path. One op is one tenant request
//! against one ColorGuard `Runtime` (`small_test(true)`) and one
//! `Engine::new(64)` with the default tier policy: `wat::parse` +
//! `validate` of the tenant's WAT, `spawn_tiered`, one to four `invoke`s,
//! then `terminate`.
//!
//! Tenants deploy `hash_lb`, `regex_filter` or `html_template` at one of
//! 16 sizes (about 3K–40K guest instructions per invoke) under
//! GuardRegion, Segue or BoundsCheckSegue: 144 keys. Request popularity
//! is Zipf(1.0) over a fixed ranking of the keys, so the 64-entry LRU
//! cache misses at a steady rate and hot modules get promoted; the seed
//! draws the requests. One request in a hundred comes from a hostile
//! tenant whose store lands one slot stride away: it must trap, and its
//! instance is `recycle`d.

use sfi_core::{CompilerConfig, Strategy};
use sfi_runtime::{Engine, InstanceId, QuarantinePolicy, Runtime, RuntimeConfig};
use sfi_wasm::Module;
use sfi_workloads::kernels;

use crate::bench::{Workload, WARM_UP_BASE};
use crate::oracle::{check_hostile, check_invoke, Failure, Heap};
use crate::rng::{digest, Digest, Rng, Zipf};
use crate::trace::{Layer, Tracer};

const KERNELS: [&str; 3] = ["hash_lb", "regex_filter", "html_template"];
const SIZES: usize = 16;
const STRATEGIES: [Strategy; 3] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::BoundsCheckSegue,
];
/// Invokes per request: 1 to this many.
const MAX_INVOKES: u64 = 4;
/// One request in this many is hostile.
const HOSTILE_EVERY: u64 = 100;
/// Warm-up requests before measuring (fewer in quick runs). The first
/// `UNIFORM_WARM_UP` draw keys uniformly, so every key crosses the
/// promotion threshold before measuring (under Zipf draws the tail would
/// take thousands of requests, and throughput would still be climbing);
/// the rest settle the LRU cache into its Zipf steady state.
const WARM_UP: u64 = 2_000;
const UNIFORM_WARM_UP: u64 = 1_500;
const QUICK_WARM_UP: u64 = 16;

/// The WAT of kernel `k` at size step `s` (0..16), a geometric ladder
/// from roughly 3K to 40K guest instructions per invoke. Memory is one
/// page: the pool's test slots hold 64 KiB.
pub fn tenant_wat(k: usize, s: usize) -> String {
    let step =
        |lo: f64, hi: f64| (lo * (hi / lo).powf(s as f64 / (SIZES - 1) as f64)).round() as u32;
    match KERNELS[k] {
        "hash_lb" => kernels::hash_lb(step(4.0, 110.0), 256, 1),
        "regex_filter" => kernels::regex_filter(step(64.0, 900.0), 1),
        _ => kernels::html_template(step(24.0, 640.0), 1),
    }
}

/// A tenant whose `run` stores 4 bytes at linear address `offset`. With
/// `offset` one slot stride it writes into the neighbouring slot, which
/// ColorGuard's stripe colors must stop.
pub fn hostile_wat(offset: u64) -> String {
    format!(
        r#"(module (memory 1)
             (func (export "run") (result i32)
               i32.const {offset}
               i32.const 0x41414141
               i32.store
               i32.const 0))"#
    )
}

/// The quarantine policy of the benchmark's runtime: hostile requests
/// recur for the whole run, so a faulting slot is parked and scrubbed but
/// never retired (retirement would exhaust the eight-slot pool).
pub const QUARANTINE: QuarantinePolicy = QuarantinePolicy {
    ring_capacity: 2,
    max_faults: u32::MAX,
};

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// A hostile request (ignores `key`).
    pub hostile: bool,
    /// The tenant key: `(kernel * SIZES + size) * 3 + strategy`.
    pub key: usize,
    /// Invokes on the spawned instance.
    pub invokes: u64,
}

/// The fixed popularity ranking: rank → key. Seed-independent, so every
/// seed sees the same mix and only the draws differ.
fn ranking() -> Vec<usize> {
    let mut keys: Vec<usize> = (0..KERNELS.len() * SIZES * STRATEGIES.len()).collect();
    Rng::new(0, 0x5A1F).shuffle(&mut keys);
    keys
}

/// Request `id` of the stream for `seed`.
pub fn request(seed: u64, id: u64, zipf: &Zipf, ranking: &[usize]) -> Request {
    let mut rng = Rng::new(seed, 0xFAA5_0000_0000 ^ id);
    let hostile = rng.below(HOSTILE_EVERY) == 0;
    let uniform = (WARM_UP_BASE..WARM_UP_BASE + UNIFORM_WARM_UP).contains(&id);
    let rank = if uniform {
        rng.below(ranking.len() as u64) as usize
    } else {
        zipf.sample(&mut rng)
    };
    Request {
        hostile,
        key: ranking[rank],
        invokes: 1 + rng.below(MAX_INVOKES),
    }
}

/// Digest of the first `ops` measured requests for `seed`.
pub fn stream_digest(seed: u64, ops: u64) -> u64 {
    let (zipf, ranking) = (Zipf::new(ranking().len(), 1.0), ranking());
    let mut d = Digest::default();
    for i in 0..ops {
        let r = request(seed, i, &zipf, &ranking);
        d = d.u64(u64::from(r.hostile)).u64(r.key as u64).u64(r.invokes);
    }
    d.finish()
}

/// Reference results of one tenant module: the return value of each of
/// up to four successive invokes and the heap after each.
#[derive(Debug, Clone)]
pub struct ModuleRef {
    results: Vec<Result<Option<u64>, ()>>,
    heaps: Vec<Heap>,
}

/// The `faas_invoke` workload.
pub struct FaasInvoke {
    seed: u64,
    rt: Runtime,
    engine: Engine,
    wats: Vec<String>,
    hostile: String,
    zipf: Zipf,
    ranking: Vec<usize>,
    heap: Vec<u8>,
    counts: Counts,
    /// Modeled cycles of the warm-up requests.
    warm_up_cycles: f64,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    guest_insts: u64,
    invokes: u64,
    hostile: u64,
    traps: u64,
    cold_spawns: u64,
    warm_spawns: u64,
    modeled_cycles: f64,
}

fn parse(src: &str) -> Result<Module, String> {
    let m = sfi_wasm::wat::parse(src).map_err(|e| e.to_string())?;
    sfi_wasm::validate(&m).map_err(|e| e.to_string())?;
    Ok(m)
}

impl FaasInvoke {
    fn spawn(
        &mut self,
        module: &Module,
        config: &CompilerConfig,
        cell: &str,
        tr: &mut Tracer,
    ) -> Result<InstanceId, Failure> {
        let misses = self.engine.cache().stats().misses;
        let open = tr.begin();
        let spawned = self.rt.spawn_tiered(&mut self.engine, module, config);
        let cold = self.engine.cache().stats().misses > misses;
        tr.end(
            open,
            if cold {
                Layer::SpawnCold
            } else {
                Layer::SpawnWarm
            },
        );
        if cold {
            self.counts.cold_spawns += 1;
        } else {
            self.counts.warm_spawns += 1;
        }
        spawned.map(|(id, _tier)| id).map_err(|e| Failure::Other {
            cell: cell.to_owned(),
            detail: format!("spawn: {e}"),
        })
    }

    fn parse_traced(src: &str, cell: &str, tr: &mut Tracer) -> Result<Module, Failure> {
        let module = tr
            .span(Layer::WasmParse, || parse(src))
            .map_err(|e| Failure::Other {
                cell: cell.to_owned(),
                detail: format!("parse: {e}"),
            })?;
        tr.work(Layer::WasmParse, src.len() as f64);
        Ok(module)
    }

    fn benign(&mut self, req: Request, refs: &[ModuleRef], tr: &mut Tracer) -> Result<(), Failure> {
        let module_idx = req.key / STRATEGIES.len();
        let cell = format!(
            "{}#{}/{}",
            KERNELS[module_idx / SIZES],
            module_idx % SIZES,
            STRATEGIES[req.key % STRATEGIES.len()].name()
        );
        let module = Self::parse_traced(&self.wats[module_idx], &cell, tr);
        let config = CompilerConfig::for_strategy(STRATEGIES[req.key % STRATEGIES.len()]);
        let id = self.spawn(&module?, &config, &cell, tr)?;
        let reference = &refs[module_idx];
        let mut verdict = Ok(());
        for j in 0..req.invokes as usize {
            let out = tr.span(Layer::RuntimeInvoke, || self.rt.invoke(id, "run", &[]));
            self.counts.invokes += 1;
            if let Ok(o) = &out {
                self.counts.guest_insts += o.stats.insts;
                self.counts.modeled_cycles += o.breakdown.total_cycles();
                tr.work(Layer::RuntimeInvoke, o.stats.insts as f64);
            }
            let last = j + 1 == req.invokes as usize;
            let (rt, heap) = (&self.rt, &mut self.heap);
            verdict = tr.check(|| {
                check_invoke(&cell, &reference.results[j], &out)?;
                // Reading a slot back costs one page-table lookup per byte:
                // oracle time, left out of the op.
                if last && (rt.read_heap(id, 0, heap).is_err() || !reference.heaps[j].matches(heap))
                {
                    return Err(Failure::Heap { cell: cell.clone() });
                }
                Ok(())
            });
            if verdict.is_err() {
                break;
            }
        }
        // A trapped instance is poisoned; terminate routes it through
        // quarantine.
        tr.span(Layer::RuntimeTerminate, || self.rt.terminate(id))
            .map_err(|e| Failure::Other {
                cell: cell.clone(),
                detail: format!("terminate: {e}"),
            })?;
        verdict
    }

    fn hostile(&mut self, tr: &mut Tracer) -> Result<(), Failure> {
        let cell = "hostile/segue";
        self.counts.hostile += 1;
        let module = Self::parse_traced(&self.hostile, cell, tr);
        let config = CompilerConfig::for_strategy(Strategy::Segue);
        let id = self.spawn(&module?, &config, cell, tr)?;
        let out = tr.span(Layer::RuntimeInvoke, || self.rt.invoke(id, "run", &[]));
        self.counts.invokes += 1;
        let verdict = tr.check(|| check_hostile(cell, &out));
        let teardown = if verdict.is_ok() {
            self.counts.traps += 1;
            tr.span(Layer::RuntimeRecycle, || self.rt.recycle(id).map(drop))
        } else {
            tr.span(Layer::RuntimeTerminate, || self.rt.terminate(id))
        };
        teardown.map_err(|e| Failure::Other {
            cell: cell.to_owned(),
            detail: format!("teardown: {e}"),
        })?;
        verdict
    }
}

impl Workload for FaasInvoke {
    type Refs = Vec<ModuleRef>;

    // ≥5,000 requests per default run: p99 leaves ≥50 samples beyond it.
    const TAIL_PERCENTILE: f64 = 99.0;

    fn references(_seed: u64, _quick: bool) -> Vec<ModuleRef> {
        (0..KERNELS.len() * SIZES)
            .map(|m| {
                let module =
                    parse(&tenant_wat(m / SIZES, m % SIZES)).expect("tenant kernels parse");
                let mut interp = sfi_wasm::interp::Interpreter::new(&module).expect("instantiates");
                let mut r = ModuleRef {
                    results: Vec::new(),
                    heaps: Vec::new(),
                };
                for _ in 0..MAX_INVOKES {
                    r.results
                        .push(interp.invoke_export("run", &[]).map_err(|_| ()));
                    r.heaps.push(Heap::Digest {
                        len: interp.memory.len(),
                        digest: digest(&interp.memory),
                    });
                }
                r
            })
            .collect()
    }

    fn setup(seed: u64, _quick: bool, _refs: &Vec<ModuleRef>) -> FaasInvoke {
        let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
        rt.set_quarantine_policy(QUARANTINE);
        let stride = rt.pool().layout().slot_bytes;
        let ranking = ranking();
        FaasInvoke {
            seed,
            rt,
            engine: Engine::new(64),
            wats: (0..KERNELS.len() * SIZES)
                .map(|m| tenant_wat(m / SIZES, m % SIZES))
                .collect(),
            hostile: hostile_wat(stride),
            zipf: Zipf::new(ranking.len(), 1.0),
            ranking,
            heap: vec![0; sfi_wasm::PAGE_SIZE as usize],
            counts: Counts::default(),
            warm_up_cycles: 0.0,
        }
    }

    fn warm_up_ops(&self, quick: bool) -> u64 {
        if quick {
            QUICK_WARM_UP
        } else {
            WARM_UP
        }
    }

    fn op(&mut self, id: u64, refs: &Vec<ModuleRef>, tr: &mut Tracer) -> Result<(), Failure> {
        let req = request(self.seed, id, &self.zipf, &self.ranking);
        let cycles = self.counts.modeled_cycles;
        let verdict = if req.hostile {
            self.hostile(tr)
        } else {
            self.benign(req, refs, tr)
        };
        if id >= WARM_UP_BASE {
            self.warm_up_cycles += self.counts.modeled_cycles - cycles;
        }
        verdict
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let c = self.counts;
        let cache = self.engine.cache().stats();
        vec![
            ("guest_insts", c.guest_insts as f64),
            ("invokes", c.invokes as f64),
            ("hostile", c.hostile as f64),
            ("traps", c.traps as f64),
            ("cold_spawns", c.cold_spawns as f64),
            ("warm_spawns", c.warm_spawns as f64),
            ("cache_misses", cache.misses as f64),
            ("cache_evictions", cache.evictions as f64),
            ("promotions", self.engine.tier_stats().promotions as f64),
        ]
    }

    fn exact(&self) -> Vec<(&'static str, &'static str, f64)> {
        // The warm-up stream is fixed per seed, so its modeled cycles
        // repeat bit for bit whatever the measured phase's length.
        vec![("modeled_gcycles", "Gcycles", self.warm_up_cycles / 1e9)]
    }
}

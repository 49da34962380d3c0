//! The compiled-code cache and the [`Engine`] that fronts `sfi-core`.
//!
//! Per-invoke compilation dominates FaaS spawn cost (Kolosick et al. — the
//! transition/setup tax), so the engine memoizes compilation keyed on
//! *everything* that can change the emitted bytes:
//!
//! - the module's content hash ([`sfi_core::module_hash`]),
//! - the compile-options fingerprint ([`CompilerConfig::cache_fingerprint`]
//!   — strategy, vectorizer, stack checks, memory layout, runtime regions),
//! - the allocator's [`SlotLayout::contract_fingerprint`] — guard-elision
//!   decisions baked into code are sound only for the slot layout they were
//!   compiled against (the Table 1 contract), so code must never migrate
//!   between pools with different layouts.
//!
//! Eviction is deterministic LRU (least-recently-*used* by a monotonic
//! logical tick, ties impossible because ticks are unique), and the cache
//! keeps hit/miss/eviction counters so benches can report warm-path rates.
//!
//! [`SlotLayout::contract_fingerprint`]: sfi_pool::SlotLayout::contract_fingerprint

use std::collections::HashMap;
use std::sync::Arc;

use sfi_core::{compile, CompileError, CompiledModule, CompilerConfig};
use sfi_wasm::Module;

/// The full cache key: module content × compile options × layout contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the module ([`sfi_core::module_hash`]).
    pub module_hash: u64,
    /// Fingerprint of the [`CompilerConfig`] (strategy, vectorizer flags,
    /// layout contract fields, runtime regions).
    pub options_fingerprint: u64,
    /// The pool's slot-layout contract fingerprint.
    pub layout_fingerprint: u64,
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache (no codegen).
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted by LRU capacity pressure.
    pub evictions: u64,
    /// Entries inserted (== misses unless insertion failed).
    pub inserts: u64,
    /// Entries dropped by [`CodeCache::poison`] (compiled code implicated
    /// in repeated guest faults — never serve it warm again).
    pub poisons: u64,
}

struct CacheEntry {
    module: Arc<CompiledModule>,
    /// Logical last-use tick; strictly increasing, so LRU order is total
    /// and eviction is deterministic.
    last_used: u64,
}

/// An LRU-bounded map from [`CacheKey`] to compiled code.
pub struct CodeCache {
    entries: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl CodeCache {
    /// Creates a cache holding at most `capacity` compiled modules
    /// (`capacity` 0 disables caching: every load is a miss and nothing is
    /// retained).
    pub fn new(capacity: usize) -> CodeCache {
        CodeCache { entries: HashMap::new(), capacity, tick: 0, stats: CacheStats::default() }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CompiledModule>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&e.module))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is resident, without touching LRU order or counters.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts compiled code under `key`, evicting the least-recently-used
    /// entry if the cache is at capacity. Returns the evicted key, if any.
    pub fn insert(&mut self, key: CacheKey, module: Arc<CompiledModule>) -> Option<CacheKey> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Unique ticks make min_by_key deterministic.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty at capacity");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
            evicted = Some(victim);
        }
        self.entries.insert(key, CacheEntry { module, last_used: self.tick });
        self.stats.inserts += 1;
        evicted
    }

    /// Drops `key` from the cache because its compiled code is implicated
    /// in repeated guest faults — the next load recompiles from scratch.
    /// Returns whether the entry was resident.
    pub fn poison(&mut self, key: &CacheKey) -> bool {
        let hit = self.entries.remove(key).is_some();
        if hit {
            self.stats.poisons += 1;
        }
        hit
    }
}

/// Which compiler tier produced a served module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The single-pass baseline compiler (cold spawns).
    Baseline,
    /// The optimizing tier (hot modules past the promotion threshold).
    Optimized,
}

impl Tier {
    /// Stable lowercase name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Optimized => "optimized",
        }
    }
}

/// When to recompile a module at the optimizing tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// Number of baseline loads of the same key after which the next load
    /// recompiles at [`Tier::Optimized`]. `u64::MAX` disables promotion.
    pub promote_after: u64,
}

impl Default for TierPolicy {
    fn default() -> TierPolicy {
        TierPolicy { promote_after: 8 }
    }
}

/// Tiering observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Hot-count threshold crossings that compiled an optimized body.
    pub promotions: u64,
    /// Demotions (optimized entry poisoned, hot count reset).
    pub demotions: u64,
}

/// The engine: a [`CodeCache`] plus the compile path that fills it.
///
/// `Engine::load` is the only compilation entry point a sharded FaaS host
/// needs: a warm spawn is a cache hit (an `Arc` clone), a cold spawn pays
/// `sfi_core::compile`. [`Engine::load_tiered`] adds hot-count promotion on
/// top: cold modules are served by the baseline single-pass compiler, and a
/// module loaded more than [`TierPolicy::promote_after`] times is
/// recompiled at the optimizing tier (a *different* cache key — the tier is
/// part of [`CompilerConfig::cache_fingerprint`], so a stale baseline body
/// can never be served as optimized or vice versa).
pub struct Engine {
    cache: CodeCache,
    tier_policy: TierPolicy,
    tier_stats: TierStats,
    /// Baseline-key → load count (reset by [`Engine::demote`]).
    hot_counts: HashMap<CacheKey, u64>,
}

impl Engine {
    /// Creates an engine with a cache of `capacity` modules.
    pub fn new(capacity: usize) -> Engine {
        Engine {
            cache: CodeCache::new(capacity),
            tier_policy: TierPolicy::default(),
            tier_stats: TierStats::default(),
            hot_counts: HashMap::new(),
        }
    }

    /// Creates an engine with an explicit promotion policy.
    pub fn with_tier_policy(capacity: usize, policy: TierPolicy) -> Engine {
        Engine { tier_policy: policy, ..Engine::new(capacity) }
    }

    /// The active promotion policy.
    pub fn tier_policy(&self) -> TierPolicy {
        self.tier_policy
    }

    /// Tiering counters snapshot.
    pub fn tier_stats(&self) -> TierStats {
        self.tier_stats
    }

    /// The cache (for stats and direct inspection).
    pub fn cache(&self) -> &CodeCache {
        &self.cache
    }

    /// Mutable cache access (tests exercise LRU behaviour directly).
    pub fn cache_mut(&mut self) -> &mut CodeCache {
        &mut self.cache
    }

    /// The cache key `load` would use for this (module, config, layout)
    /// triple.
    pub fn key_for(module: &Module, config: &CompilerConfig, layout_fingerprint: u64) -> CacheKey {
        CacheKey {
            module_hash: sfi_core::module_hash(module),
            options_fingerprint: config.cache_fingerprint(),
            layout_fingerprint,
        }
    }

    /// Returns compiled code for `module` under `config`, bound to the pool
    /// layout identified by `layout_fingerprint` — from the cache when
    /// possible, compiling (and caching) otherwise.
    pub fn load(
        &mut self,
        module: &Module,
        config: &CompilerConfig,
        layout_fingerprint: u64,
    ) -> Result<Arc<CompiledModule>, CompileError> {
        let key = Self::key_for(module, config, layout_fingerprint);
        if let Some(cm) = self.cache.get(&key) {
            return Ok(cm);
        }
        let cm = Arc::new(compile(module, config)?);
        self.cache.insert(key, Arc::clone(&cm));
        Ok(cm)
    }

    fn baseline_config(config: &CompilerConfig) -> CompilerConfig {
        let mut c = config.clone();
        c.opt_level = sfi_core::OptLevel::Baseline;
        c
    }

    /// Tiered load: serves the optimizing tier when this module is hot,
    /// the baseline otherwise.
    ///
    /// - If an optimized body is resident it is served immediately (no
    ///   hot-count bump — the module already earned its tier).
    /// - Otherwise the baseline load count is bumped; once it exceeds
    ///   [`TierPolicy::promote_after`], the module is recompiled at
    ///   [`Tier::Optimized`] under its own cache key.
    /// - Below the threshold, this is exactly [`Engine::load`] with the
    ///   baseline config.
    ///
    /// Returns the compiled module and the tier that produced it.
    pub fn load_tiered(
        &mut self,
        module: &Module,
        config: &CompilerConfig,
        layout_fingerprint: u64,
    ) -> Result<(Arc<CompiledModule>, Tier), CompileError> {
        let base_cfg = Self::baseline_config(config);
        let opt_cfg = base_cfg.clone().optimized();
        let opt_key = Self::key_for(module, &opt_cfg, layout_fingerprint);

        // A resident optimized body wins outright. `contains` first so a
        // cold module does not pollute the miss counter with a speculative
        // optimized-tier probe.
        if self.cache.contains(&opt_key) {
            let cm = self.cache.get(&opt_key).expect("checked residency");
            return Ok((cm, Tier::Optimized));
        }

        let base_key = Self::key_for(module, &base_cfg, layout_fingerprint);
        let count = self.hot_counts.entry(base_key).or_insert(0);
        *count += 1;
        if *count > self.tier_policy.promote_after {
            let cm = self.load(module, &opt_cfg, layout_fingerprint)?;
            self.tier_stats.promotions += 1;
            return Ok((cm, Tier::Optimized));
        }
        let cm = self.load(module, &base_cfg, layout_fingerprint)?;
        Ok((cm, Tier::Baseline))
    }

    /// Demotes a module: poisons its optimized-tier cache entry and resets
    /// its hot count, so subsequent loads fall back to the still-cached
    /// baseline body *without recompiling or re-validating anything*.
    /// Returns whether an optimized body was resident.
    pub fn demote(
        &mut self,
        module: &Module,
        config: &CompilerConfig,
        layout_fingerprint: u64,
    ) -> bool {
        let base_cfg = Self::baseline_config(config);
        let opt_key = Self::key_for(module, &base_cfg.clone().optimized(), layout_fingerprint);
        let base_key = Self::key_for(module, &base_cfg, layout_fingerprint);
        self.hot_counts.remove(&base_key);
        let dropped = self.cache.poison(&opt_key);
        self.tier_stats.demotions += 1;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_core::Strategy;
    use sfi_wasm::wat;

    fn tiny(n: u32) -> Module {
        wat::parse(&format!(
            "(module (memory 1) (func (export \"f\") (result i32) i32.const {n}))"
        ))
        .unwrap()
    }

    #[test]
    fn warm_load_is_a_hit_and_shares_the_arc() {
        let mut eng = Engine::new(4);
        let m = tiny(7);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let a = eng.load(&m, &cfg, 1).unwrap();
        let b = eng.load(&m, &cfg, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache hit must return the same code");
        let s = eng.cache().stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn any_key_component_separates_entries() {
        let mut eng = Engine::new(8);
        let m = tiny(7);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let base = eng.load(&m, &cfg, 1).unwrap();

        let other_module = eng.load(&tiny(8), &cfg, 1).unwrap();
        assert!(!Arc::ptr_eq(&base, &other_module));

        let other_cfg = eng.load(&m, &CompilerConfig::for_strategy(Strategy::BoundsCheck), 1).unwrap();
        assert!(!Arc::ptr_eq(&base, &other_cfg));

        let other_layout = eng.load(&m, &cfg, 2).unwrap();
        assert!(!Arc::ptr_eq(&base, &other_layout));

        assert_eq!(eng.cache().len(), 4);
        assert_eq!(eng.cache().stats().hits, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut eng = Engine::new(2);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let (m1, m2, m3) = (tiny(1), tiny(2), tiny(3));
        eng.load(&m1, &cfg, 0).unwrap();
        eng.load(&m2, &cfg, 0).unwrap();
        eng.load(&m1, &cfg, 0).unwrap(); // refresh m1 → m2 is now LRU
        eng.load(&m3, &cfg, 0).unwrap(); // evicts m2
        assert_eq!(eng.cache().stats().evictions, 1);
        assert!(eng.cache().contains(&Engine::key_for(&m1, &cfg, 0)), "m1 kept (recently used)");
        assert!(!eng.cache().contains(&Engine::key_for(&m2, &cfg, 0)), "m2 evicted");
        assert!(eng.cache().contains(&Engine::key_for(&m3, &cfg, 0)));
    }

    #[test]
    fn poison_drops_the_entry_and_counts() {
        let mut eng = Engine::new(4);
        let m = tiny(9);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let key = Engine::key_for(&m, &cfg, 1);
        let a = eng.load(&m, &cfg, 1).unwrap();
        assert!(eng.cache_mut().poison(&key), "resident entry dropped");
        assert!(!eng.cache_mut().poison(&key), "second poison is a no-op");
        let b = eng.load(&m, &cfg, 1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "poisoned code is recompiled, not served warm");
        let s = eng.cache().stats();
        assert_eq!((s.poisons, s.misses), (1, 2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut eng = Engine::new(0);
        let m = tiny(1);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);
        let a = eng.load(&m, &cfg, 0).unwrap();
        let b = eng.load(&m, &cfg, 0).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "nothing retained at capacity 0");
        assert_eq!(eng.cache().stats().misses, 2);
        assert_eq!(eng.cache().len(), 0);
    }

    #[test]
    fn tier_fingerprints_differ_so_promotion_cannot_hit_stale_code() {
        let m = tiny(5);
        let base = CompilerConfig::for_strategy(Strategy::Segue);
        let opt = base.clone().optimized();
        let bk = Engine::key_for(&m, &base, 1);
        let ok = Engine::key_for(&m, &opt, 1);
        assert_ne!(
            bk.options_fingerprint, ok.options_fingerprint,
            "the optimizing tier must land under its own cache key"
        );
    }

    #[test]
    fn promotion_recompiles_under_a_distinct_key_after_the_threshold() {
        let mut eng = Engine::with_tier_policy(8, TierPolicy { promote_after: 2 });
        let m = tiny(11);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);

        let (a, t1) = eng.load_tiered(&m, &cfg, 1).unwrap();
        let (b, t2) = eng.load_tiered(&m, &cfg, 1).unwrap();
        assert_eq!((t1, t2), (Tier::Baseline, Tier::Baseline));
        assert!(Arc::ptr_eq(&a, &b), "warm baseline served while cold");

        let (c, t3) = eng.load_tiered(&m, &cfg, 1).unwrap();
        assert_eq!(t3, Tier::Optimized, "third spawn crosses promote_after = 2");
        assert!(!Arc::ptr_eq(&a, &c), "promotion is a real recompile, not a stale hit");
        assert_eq!(eng.tier_stats().promotions, 1);
        assert_eq!(eng.cache().len(), 2, "baseline and optimized coexist under distinct keys");

        let (d, t4) = eng.load_tiered(&m, &cfg, 1).unwrap();
        assert_eq!(t4, Tier::Optimized);
        assert!(Arc::ptr_eq(&c, &d), "later spawns hit the optimized entry directly");
        assert_eq!(eng.tier_stats().promotions, 1, "a warm optimized hit is not a new promotion");
    }

    #[test]
    fn demote_falls_back_to_warm_baseline_without_revalidation() {
        let mut eng = Engine::with_tier_policy(8, TierPolicy { promote_after: 1 });
        let m = tiny(13);
        let cfg = CompilerConfig::for_strategy(Strategy::Segue);

        let (base_code, _) = eng.load_tiered(&m, &cfg, 1).unwrap();
        let (_, tier) = eng.load_tiered(&m, &cfg, 1).unwrap();
        assert_eq!(tier, Tier::Optimized);

        let misses_before = eng.cache().stats().misses;
        assert!(eng.demote(&m, &cfg, 1), "optimized entry was resident and dropped");
        assert_eq!(eng.tier_stats().demotions, 1);

        let (after, tier) = eng.load_tiered(&m, &cfg, 1).unwrap();
        assert_eq!(tier, Tier::Baseline, "demoted module restarts at the baseline tier");
        assert!(
            Arc::ptr_eq(&base_code, &after),
            "fallback serves the still-resident baseline entry"
        );
        assert_eq!(
            eng.cache().stats().misses,
            misses_before,
            "demotion fallback must not recompile anything"
        );
    }

    #[test]
    fn tiering_respects_explicitly_requested_opt_levels() {
        // A caller who asks for the optimized config outright still goes
        // through the hot-count ladder: load_tiered normalizes to baseline
        // first so tier decisions stay deterministic per module.
        let mut eng = Engine::with_tier_policy(8, TierPolicy { promote_after: 1 });
        let m = tiny(17);
        let opt_cfg = CompilerConfig::for_strategy(Strategy::Segue).optimized();
        let (_, t1) = eng.load_tiered(&m, &opt_cfg, 1).unwrap();
        assert_eq!(t1, Tier::Baseline, "first spawn is cold regardless of requested level");
        let (_, t2) = eng.load_tiered(&m, &opt_cfg, 1).unwrap();
        assert_eq!(t2, Tier::Optimized);
    }
}

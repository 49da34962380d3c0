//! Stable fingerprints for code-cache keys.
//!
//! A compiled-code cache must key on everything that can change the emitted
//! bytes: the module itself ([`module_hash`]) and every compiler option that
//! influences codegen ([`CompilerConfig::cache_fingerprint`]). The module
//! hash is computed over the canonical WAT printing from `sfi_wasm::print`,
//! which round-trips function bodies, tables, globals and data segments —
//! two modules that print identically compile identically.

use crate::config::CompilerConfig;
use sfi_wasm::Module;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `h`.
pub(crate) fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable 64-bit content hash of a module, computed over its canonical
/// WAT printing. Any semantic difference that survives printing — bodies,
/// signatures, exports, imports, tables, globals, memory limits, data —
/// perturbs the hash.
pub fn module_hash(m: &Module) -> u64 {
    fnv1a_bytes(FNV_OFFSET, sfi_wasm::print::print(m).as_bytes())
}

impl CompilerConfig {
    /// A stable 64-bit fingerprint of every field that influences code
    /// generation. Two configs with equal fingerprints produce identical
    /// code for the same module; any differing field produces a different
    /// fingerprint, so cached code is never reused across strategies,
    /// vectorizer settings, or memory-layout contracts.
    pub fn cache_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_bytes(h, self.strategy.name().as_bytes());
        h = fnv1a_bytes(h, self.opt_level.name().as_bytes());
        h = fnv1a_bytes(h, self.mitigation.name().as_bytes());
        h = fnv1a_bytes(
            h,
            &[
                u8::from(self.vectorize),
                u8::from(self.stack_check),
                u8::from(self.lfi_reserved_regs),
                u8::from(self.segment_entry_protocol),
            ],
        );
        for field in [self.layout.heap_base, self.layout.mem_size, self.layout.guard_size] {
            h = fnv1a_bytes(h, &field.to_le_bytes());
        }
        for field in [
            self.regions.globals_base,
            self.regions.table_base,
            self.regions.header_base,
            self.regions.stack_limit,
            self.regions.stack_top,
        ] {
            h = fnv1a_bytes(h, &field.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemLayout, OptLevel, RuntimeRegions, Strategy};
    use sfi_wasm::wat;

    #[test]
    fn module_hash_is_stable_and_content_sensitive() {
        let a = wat::parse("(module (memory 1) (func (export \"f\") (result i32) i32.const 1))")
            .unwrap();
        let a2 = wat::parse("(module (memory 1) (func (export \"f\") (result i32) i32.const 1))")
            .unwrap();
        let b = wat::parse("(module (memory 1) (func (export \"f\") (result i32) i32.const 2))")
            .unwrap();
        assert_eq!(module_hash(&a), module_hash(&a2), "same source, same hash");
        assert_ne!(module_hash(&a), module_hash(&b), "different body, different hash");
    }

    #[test]
    fn config_fingerprint_separates_strategy_and_flags() {
        let base = CompilerConfig::for_strategy(Strategy::Segue);
        let fp = base.cache_fingerprint();
        assert_eq!(fp, base.cache_fingerprint(), "stable");

        for s in Strategy::ALL {
            if s != Strategy::Segue {
                assert_ne!(
                    fp,
                    CompilerConfig::for_strategy(s).cache_fingerprint(),
                    "strategy {s} must not collide with segue"
                );
            }
        }

        // Every field, one perturbation each. The destructures list every
        // field with no `..`, so a field added to `CompilerConfig`,
        // `MemLayout` or `RuntimeRegions` breaks this build until it is
        // named here, and its binding is then unused until a perturbation
        // below reads it.
        let CompilerConfig {
            strategy,
            opt_level,
            vectorize,
            stack_check,
            layout,
            regions,
            lfi_reserved_regs,
            segment_entry_protocol,
            mitigation,
        } = base.clone();
        let MemLayout { heap_base, mem_size, guard_size } = layout;
        let RuntimeRegions { globals_base, table_base, header_base, stack_limit, stack_top } =
            regions;
        let with = |perturb: &dyn Fn(&mut CompilerConfig)| {
            let mut c = base.clone();
            perturb(&mut c);
            c.cache_fingerprint()
        };
        let other_strategy = Strategy::ALL.into_iter().find(|s| *s != strategy).unwrap();
        let other_opt =
            if opt_level == OptLevel::Baseline { OptLevel::Optimized } else { OptLevel::Baseline };
        let other_mitigation =
            crate::MitigationLevel::ALL.into_iter().find(|m| *m != mitigation).unwrap();
        let fields = [
            ("strategy", with(&|c| c.strategy = other_strategy)),
            ("opt_level", with(&|c| c.opt_level = other_opt)),
            ("vectorize", with(&|c| c.vectorize = !vectorize)),
            ("stack_check", with(&|c| c.stack_check = !stack_check)),
            ("layout.heap_base", with(&|c| c.layout.heap_base = heap_base + 0x1000)),
            ("layout.mem_size", with(&|c| c.layout.mem_size = mem_size * 2)),
            ("layout.guard_size", with(&|c| c.layout.guard_size = guard_size * 2)),
            ("regions.globals_base", with(&|c| c.regions.globals_base = globals_base + 0x10)),
            ("regions.table_base", with(&|c| c.regions.table_base = table_base + 0x10)),
            ("regions.header_base", with(&|c| c.regions.header_base = header_base + 0x10)),
            ("regions.stack_limit", with(&|c| c.regions.stack_limit = stack_limit + 0x1000)),
            ("regions.stack_top", with(&|c| c.regions.stack_top = stack_top + 0x1000)),
            ("lfi_reserved_regs", with(&|c| c.lfi_reserved_regs = !lfi_reserved_regs)),
            (
                "segment_entry_protocol",
                with(&|c| c.segment_entry_protocol = !segment_entry_protocol),
            ),
            ("mitigation", with(&|c| c.mitigation = other_mitigation)),
        ];
        for (field, perturbed) in fields {
            assert_ne!(fp, perturbed, "{field} must perturb the fingerprint");
        }

        // Each mitigation level is its own cache key: hardened code must
        // never be served under an unhardened lookup or vice versa.
        let mut seen = std::collections::BTreeSet::new();
        for level in crate::MitigationLevel::ALL {
            assert!(
                seen.insert(base.clone().mitigated(level).cache_fingerprint()),
                "mitigation level {level} must perturb the fingerprint"
            );
        }
        assert!(seen.contains(&fp), "None level matches the base config");

        // The tier is part of the key: promoted (optimized) code must never
        // be served under a baseline lookup or vice versa.
        let opt = base.optimized();
        assert_ne!(fp, opt.cache_fingerprint(), "opt level");
        assert_eq!(opt.cache_fingerprint(), opt.clone().cache_fingerprint(), "stable");
    }
}

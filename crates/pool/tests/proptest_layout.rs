//! Property-based verification of the layout contract: for *any* input the
//! fixed allocator either refuses or produces a layout satisfying all ten
//! Table 1 invariants — the paper's §5.2 attacker model ("called with
//! potentially unaligned, unsafe, or otherwise incorrect inputs").

use proptest::prelude::*;
use sfi_pool::invariants::check;
use sfi_pool::{compute_layout, PoolConfig, WASM_PAGE_SIZE};

fn config_strategy() -> impl Strategy<Value = PoolConfig> {
    (
        1u64..1000,
        0u64..64,          // max memory in wasm pages
        0u64..512,         // expected slot in wasm pages
        0u64..1024,        // guard in wasm pages
        any::<bool>(),
        0u8..=16,
        30u64..48,         // log2 of total budget
        // Raw byte jitter to generate unaligned values too.
        0u64..65536,
        0u64..65536,
        0u64..65536,
    )
        .prop_map(
            |(slots, mem_p, slot_p, guard_p, pre, keys, budget_log, j1, j2, j3)| PoolConfig {
                num_slots: slots,
                max_memory_bytes: mem_p * WASM_PAGE_SIZE + j1,
                expected_slot_bytes: slot_p * WASM_PAGE_SIZE + j2,
                guard_bytes: guard_p * WASM_PAGE_SIZE + j3,
                guard_before_slots: pre,
                num_pkeys_available: keys.min(15),
                total_memory_bytes: 1u64 << budget_log,
            },
        )
}

fn aligned_config_strategy() -> impl Strategy<Value = PoolConfig> {
    config_strategy().prop_map(|mut c| {
        c.max_memory_bytes = c.max_memory_bytes / WASM_PAGE_SIZE * WASM_PAGE_SIZE;
        c.expected_slot_bytes = c.expected_slot_bytes / WASM_PAGE_SIZE * WASM_PAGE_SIZE;
        c.guard_bytes = c.guard_bytes / WASM_PAGE_SIZE * WASM_PAGE_SIZE;
        c
    })
}

proptest! {
    #[test]
    fn accepted_layouts_satisfy_every_invariant(cfg in config_strategy()) {
        if let Ok(layout) = compute_layout(&cfg) {
            let violated = check(&cfg, &layout);
            prop_assert!(violated.is_empty(), "{cfg:?} → {layout:?} violates {violated:?}");
        }
    }

    #[test]
    fn aligned_reasonable_configs_are_accepted(cfg in aligned_config_strategy()) {
        // Well-formed inputs with room in the budget must not be refused
        // (no false rejections — the allocator is defensive, not paranoid).
        prop_assume!(cfg.expected_slot_bytes >= cfg.max_memory_bytes);
        prop_assume!(cfg.expected_slot_bytes > 0);
        prop_assume!(
            cfg.total_memory_bytes / 4 > cfg.expected_slot_bytes + 2 * cfg.guard_bytes
        );
        let layout = compute_layout(&cfg);
        prop_assert!(layout.is_ok(), "{cfg:?} → {layout:?}");
    }

    #[test]
    fn striping_never_loses_capacity(cfg in aligned_config_strategy()) {
        prop_assume!(cfg.expected_slot_bytes >= cfg.max_memory_bytes.max(WASM_PAGE_SIZE));
        prop_assume!(cfg.total_memory_bytes / 4 > cfg.expected_slot_bytes + 2 * cfg.guard_bytes);
        let mut no_keys = cfg;
        no_keys.num_pkeys_available = 0;
        let mut full_keys = cfg;
        full_keys.num_pkeys_available = 15;
        if let (Ok(plain), Ok(striped)) =
            (compute_layout(&no_keys), compute_layout(&full_keys))
        {
            prop_assert!(
                striped.num_slots >= plain.num_slots,
                "striping shrank capacity: {plain:?} → {striped:?}"
            );
        }
    }

    #[test]
    fn slots_never_overlap(cfg in aligned_config_strategy()) {
        if let Ok(layout) = compute_layout(&cfg) {
            let n = layout.num_slots.min(16);
            for i in 0..n {
                for j in (i + 1)..n {
                    let (a, b) = (layout.slot_offset(i), layout.slot_offset(j));
                    prop_assert!(
                        a + layout.max_memory_bytes <= b || b + layout.max_memory_bytes <= a,
                        "slots {i} and {j} overlap in {layout:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn adjacent_slots_use_different_stripes(cfg in aligned_config_strategy()) {
        if let Ok(layout) = compute_layout(&cfg) {
            if layout.num_stripes > 1 {
                for i in 0..layout.num_slots.min(32).saturating_sub(1) {
                    prop_assert_ne!(layout.stripe_of(i), layout.stripe_of(i + 1));
                }
            }
        }
    }
}

//! §6.4.2: the scaling microbenchmark.
//!
//! The paper instantiates Wasmtime's pooling allocator with 408 MB slots on
//! a 47-bit user address space: 14,582 slots without ColorGuard, 218,716
//! with — a ≈15× increase. This binary computes the same layouts, then
//! actually *builds* both pools in the virtual-memory model (with the
//! `vm.max_map_count` sysctl raised, as §5.1 requires) and allocates from
//! them.

use sfi_bench::{Artifact, Json, Obj};
use sfi_pool::{compute_layout, MemoryPool, PoolConfig};
use sfi_vm::AddressSpace;

fn main() {
    println!("§6.4.2: pool scaling with 408 MiB slots on a 47-bit user address space\n");

    let without = compute_layout(&PoolConfig::scaling_benchmark(0)).expect("layout");
    let with = compute_layout(&PoolConfig::scaling_benchmark(15)).expect("layout");
    println!(
        "without ColorGuard: {:>9} slots (stride {:.2} GiB, {} stripe)",
        without.num_slots,
        without.slot_bytes as f64 / (1 << 30) as f64,
        without.num_stripes
    );
    println!(
        "with    ColorGuard: {:>9} slots (stride {:.2} GiB, {} stripes)",
        with.num_slots,
        with.slot_bytes as f64 / (1 << 30) as f64,
        with.num_stripes
    );
    println!(
        "increase: {:.1}×   (paper: 14,582 → 218,716 slots, ≈15×)\n",
        with.num_slots as f64 / without.num_slots as f64
    );

    // Now build the ColorGuard pool for real in the VM model: reserve the
    // slab, allocate a batch of slots, and show the VMA pressure.
    let mut space = AddressSpace::new_48bit();
    space.set_max_map_count(1_000_000); // the sysctl §5.1 says to raise
    let mut cfg = PoolConfig::scaling_benchmark(15);
    cfg.num_slots = 100_000; // cap the demo to keep it snappy
    let mut pool = MemoryPool::create_with(&mut space, &cfg, false).expect("pool");
    println!(
        "built a ColorGuard pool with {} committed-on-demand slots in one mapping",
        pool.capacity()
    );
    let mut handles = Vec::new();
    for _ in 0..20_000 {
        handles.push(pool.allocate(&mut space).expect("slot"));
    }
    println!(
        "allocated {} instances; address space now holds {} VMAs \
         (default vm.max_map_count is {}, hence the sysctl)",
        handles.len(),
        space.map_count(),
        sfi_vm::DEFAULT_MAX_MAP_COUNT
    );
    let stripes: std::collections::BTreeSet<u8> = handles.iter().map(|h| h.pkey).collect();
    println!("instances span {} distinct MPK colors", stripes.len());

    // Export the built pool's occupancy through the runtime telemetry
    // bundle (scrape syncs the pool/VM gauges), embedding the same
    // `"telemetry"` section `figX_multicore` carries.
    let mut telem = sfi_runtime::RuntimeTelemetry::new(0, 0);
    telem.scrape(&pool, &space, handles.len());
    Artifact::new(
        "sec642_scaling",
        Obj::new()
            .with("slots_without_colorguard", without.num_slots)
            .with("slots_with_colorguard", with.num_slots)
            .with("built_capacity", pool.capacity())
            .with("allocated", handles.len())
            .with("vmas", space.map_count())
            .with("colors", stripes.len())
            .with("telemetry", Json::raw(sfi_telemetry::json_snapshot(telem.registry()))),
    )
    .write("BENCH_sec642.json");
}

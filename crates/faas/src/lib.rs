//! # sfi-faas: the FaaS-edge scaling simulation
//!
//! Reproduces §6.4.3 of the paper — ColorGuard's single-address-space
//! scaling versus multi-process scaling, on a deterministic discrete-event
//! model of the paper's single-core rig (Tokio-style scheduling, 1 ms
//! epochs, Poisson IO at 5 ms).
//!
//! The three FaaS workloads are implemented for real, from scratch (the
//! offline crate policy excludes `regex` et al.):
//!
//! - [`regex::Regex`] — a linear-time Thompson-NFA engine for URL filtering;
//! - [`template`] — an HTML templating engine with escaping, loops and
//!   conditionals;
//! - [`hashlb`] — FNV-1a + a consistent-hash ring for load balancing.
//!
//! Per-request compute in the simulation is derived from *actual* runs of
//! these engines, so workload differences in Figures 6/7 come from real
//! work, not made-up constants.
//!
//! ```
//! use sfi_faas::{simulate, FaasWorkload, ScalingMode, SimConfig};
//! let mut cfg = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
//! cfg.duration_ms = 1_000; // 1 simulated second
//! let report = simulate(&cfg);
//! assert!(report.completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hashlb;
pub mod qos;
pub mod regex;
pub mod stats;
pub mod template;

mod fleet;
mod serve;
mod shard;
mod sim;

pub use fleet::{
    AutoscalePolicy, FleetAlertPolicy, FleetConfig, FleetSupervisor, MemberState, MemberStatus,
    RetireReason, FLEET_BURN_RULE, MEMBER_AVAILABILITY_RULE,
};
pub use qos::{ClassReport, QosConfig, QosReport, SloClass};
pub use serve::{
    default_qos_rules, endpoints, flatten_traces, round_seed, route, serve_background,
    ExtraEndpoint, ScrapePlane, ScrapeSurface, Served, ServeConfig, ServeEngine,
    ALERT_LOG_CAPACITY, BURN_ALERT_THRESHOLD, NS_PER_TICK, SHED_ALERT_THRESHOLD, TSDB_MAX_SERIES,
    TSDB_WINDOW,
};
pub use shard::{
    simulate_multicore, trace_id, CacheMode, CoreMetrics, MultiCoreConfig, MultiCoreReport,
    SpawnModel, DTLB_SAMPLE_RATE,
};
pub use sim::{
    sim_registry, simulate, throughput_gain_percent, ArrivalModel, ArrivalPhase, FaasWorkload,
    FailureModel, ScalingMode, SimConfig, SimCosts, SimReport,
};

//! # sfi-telemetry: deterministic observability for the SFI stack
//!
//! The paper's claims are all *measurements* — 30.34 ns vs 51.52 ns
//! transitions (§6.4.1), per-`wrpkru` cost, pool occupancy at 256 K
//! instances — so the reproduction instruments exactly those primitives as
//! first-class, always-on telemetry. Three pieces:
//!
//! - [`Registry`]: a per-shard metrics registry of [counters](Registry::counter),
//!   [gauges](Registry::gauge) and fixed-bucket [cycle
//!   histograms](Registry::histogram) keyed by static names (plus optional
//!   labels). Registration detects name collisions at startup; shards each
//!   own a registry (no locks, no atomics) and merge at export time with
//!   [`Registry::merge_from`].
//! - [`FlightRecorder`]: a bounded ring buffer of structured
//!   [`TraceEvent`]s stamped with a **deterministic virtual tick clock**
//!   ([`VirtualClock`] — modeled cycles in the runtime, simulated ns in the
//!   FaaS rig, never wall time), so same-seed runs produce byte-identical
//!   traces, and the last N events can be dumped on a fault for
//!   post-mortem.
//! - Exporters ([`export`]): Prometheus text (with label escaping), a JSON
//!   snapshot for embedding in `BENCH_*.json`, and chrome://tracing
//!   trace-event JSON so a FaaS sim run renders as a timeline.
//! - Profiling surfaces ([`profile`], [`span`]): folded-stack flamegraph
//!   accumulation ([`FoldedStacks`]), per-bucket latency exemplars tying
//!   histogram tails to request trace ids ([`BucketExemplars`]), and the
//!   packed request-span encoding carried by [`TraceKind::Flow`] events
//!   (DESIGN.md §14).
//! - A live serving substrate ([`server`]): a std-only HTTP/1.1 loop plus
//!   matching scrape client, so the exports above can be *served* from a
//!   running engine (`/metrics`, `/snapshot`, `/trace?since=<cursor>`,
//!   `/healthz`) instead of only dumped post-mortem. Streaming rides on the
//!   recorder's cursor API ([`FlightRecorder::events_since`]); hot series
//!   can opt into deterministic 1-in-N sampling
//!   ([`Registry::sampled_counter`], rate recorded in the series labels).
//!
//! The contract (DESIGN.md §8): telemetry must never perturb the simulated
//! system — disabling it (recorder capacity 0) changes no modeled number —
//! and its host-side overhead is gated in CI by `figX_multicore --check`
//! and `faas_serve --check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
mod clock;
pub mod export;
mod histogram;
pub mod profile;
mod recorder;
mod registry;
pub mod server;
pub mod span;
pub mod tsdb;

pub use alert::{
    AlertEngine, AlertEvent, AlertRule, AlertState, AlertTransition, CompareOp, RecordingRule,
    RuleSource,
};
pub use clock::VirtualClock;
pub use export::{
    chrome_trace, chrome_trace_gap_line, chrome_trace_line, chrome_trace_lines,
    chrome_trace_wrap, json_escape, json_is_valid, json_snapshot, prometheus_text,
    push_chrome_trace_line,
};
pub use histogram::{CycleHistogram, HISTOGRAM_BUCKETS};
pub use profile::{BucketExemplars, FoldedStacks};
pub use recorder::{Drained, FlightRecorder, Retention, TraceEvent, TraceKind};
pub use span::{pack_span, unpack_span, SpanEdge, SpanLevel, SPAN_DETAIL_MASK};
pub use registry::{
    CounterId, GaugeId, HistogramId, Registry, RegistryError, SampledCounterId,
};
pub use server::{
    http_get, http_get_detailed, http_get_retry, percent_decode, retry_with, serve, Cursor,
    HttpRequest, HttpResponse, RetryPolicy, IO_TIMEOUT,
};
pub use tsdb::{QueryExpr, SampleKind, Selector, Tsdb};

//! Property tests for the flight recorder's cursor drain
//! ([`FlightRecorder::events_since`]) across ring wraparound and the
//! [`Retention::PinFaults`] policy: drains are strictly monotone in
//! sequence, every requested event is either returned or honestly counted
//! as dropped, and the newest faults stay pinned up to the recorder's
//! pinned capacity, every older one counted as evicted.

use proptest::prelude::*;
use sfi_telemetry::{FlightRecorder, Retention, TraceEvent, TraceKind};

/// Decodes one generated byte into a trace kind: two fault kinds (pinned
/// under `PinFaults`) and six high-rate lifecycle kinds.
fn kind_of(op: u8) -> TraceKind {
    match op % 8 {
        0 => TraceKind::Trap,
        1 => TraceKind::Recycle,
        2 => TraceKind::Spawn,
        3 => TraceKind::Exit,
        4 => TraceKind::Steal,
        5 => TraceKind::Compile,
        6 => TraceKind::Flow,
        _ => TraceKind::Enter,
    }
}

/// Records `ops` into a fresh recorder, tick = sequence number, so a
/// drained event's tick *is* its sequence and monotonicity is checkable
/// from the outside.
fn build(ops: &[u8], capacity: usize, retention: Retention) -> FlightRecorder {
    let mut r = FlightRecorder::with_retention(capacity, retention);
    for (seq, &op) in ops.iter().enumerate() {
        r.record(TraceEvent {
            tick: seq as u64,
            core: 0,
            sandbox: op as u64,
            kind: kind_of(op),
            arg: 0,
        });
    }
    r
}

proptest! {
    #[test]
    fn drain_is_monotone_with_exact_drop_accounting(
        ops in proptest::collection::vec(any::<u8>(), 0..160),
        capacity in 0usize..6,
        cursor in 0u64..200,
    ) {
        for retention in [Retention::Uniform, Retention::PinFaults] {
            let r = build(&ops, capacity, retention);
            let d = r.events_since(cursor);
            prop_assert_eq!(d.next, r.next_seq());
            // Strictly monotone sequence order, starting at or after the
            // cursor (ticks encode sequence numbers by construction).
            for w in d.events.windows(2) {
                prop_assert!(w[0].tick < w[1].tick, "out of order: {} then {}", w[0].tick, w[1].tick);
            }
            if let Some(first) = d.events.first() {
                prop_assert!(first.tick >= cursor, "event {} before cursor {cursor}", first.tick);
            }
            // Conservation: every requested sequence is either returned or
            // counted in `dropped` — nothing vanishes silently, nothing is
            // double-counted. Holds identically across both policies.
            let requested = r.total_recorded().saturating_sub(cursor);
            prop_assert_eq!(d.events.len() as u64 + d.dropped, requested);
            // The drain is exactly the retained suffix of the batch view.
            let suffix: Vec<u64> = r
                .events()
                .iter()
                .map(|e| e.tick)
                .filter(|t| *t >= cursor)
                .collect();
            let drained: Vec<u64> = d.events.iter().map(|e| e.tick).collect();
            prop_assert_eq!(drained, suffix);
            if retention == Retention::PinFaults && r.is_enabled() {
                // Per-kind retention: exactly the newest `pinned_capacity()`
                // faults are drainable from cursor 0 however far the ring
                // wrapped, and every older fault is counted as evicted
                // under its own kind.
                let recorded: Vec<u64> = (0..ops.len() as u64)
                    .filter(|&seq| kind_of(ops[seq as usize]).is_fault())
                    .collect();
                let kept = recorded.len().min(r.pinned_capacity());
                let drained: Vec<u64> = r
                    .events_since(0)
                    .events
                    .iter()
                    .filter(|e| e.kind.is_fault())
                    .map(|e| e.tick)
                    .collect();
                prop_assert_eq!(&drained[..], &recorded[recorded.len() - kept..]);
                prop_assert_eq!(
                    r.evicted_of(TraceKind::Trap) + r.evicted_of(TraceKind::Recycle),
                    (recorded.len() - kept) as u64
                );
            }
        }
    }

    #[test]
    fn split_stream_conserves_and_never_replays(
        ops in proptest::collection::vec(any::<u8>(), 0..120),
        capacity in 1usize..6,
        split in 0usize..120,
    ) {
        for retention in [Retention::Uniform, Retention::PinFaults] {
            let split = split.min(ops.len());
            let mut r = FlightRecorder::with_retention(capacity, retention);
            for (seq, &op) in ops[..split].iter().enumerate() {
                r.record(TraceEvent {
                    tick: seq as u64, core: 0, sandbox: op as u64, kind: kind_of(op), arg: 0,
                });
            }
            let d1 = r.events_since(0);
            for (off, &op) in ops[split..].iter().enumerate() {
                let seq = (split + off) as u64;
                r.record(TraceEvent {
                    tick: seq, core: 0, sandbox: op as u64, kind: kind_of(op), arg: 0,
                });
            }
            let d2 = r.events_since(d1.next);
            // Resuming from the returned cursor never replays an event …
            if let (Some(last), Some(first)) = (d1.events.last(), d2.events.first()) {
                prop_assert!(last.tick < first.tick);
            }
            // … and the two legs together account for every recorded event:
            // returned once or counted dropped once, across the wrap.
            let streamed = (d1.events.len() + d2.events.len()) as u64;
            prop_assert_eq!(streamed + d1.dropped + d2.dropped, ops.len() as u64);
        }
    }
}

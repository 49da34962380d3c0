//! The flight recorder: a bounded per-core ring of structured trace events.

use std::collections::VecDeque;

/// What happened. The variants cover every lifecycle edge the runtime and
/// the sharded FaaS engine expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// An instance was created (slot allocated, data segments installed).
    Spawn,
    /// Control transitioned into a sandbox (`arg` = MPK color).
    Enter,
    /// Control transitioned back to the host (`arg` = modeled transition
    /// cycles for the invocation).
    Exit,
    /// The sandbox trapped (`arg` = faulting address or target).
    Trap,
    /// A slot was recycled through quarantine (`arg` = 1 if retired).
    Recycle,
    /// A task was stolen onto this core (`arg` = victim core).
    Steal,
    /// Compiled code was produced — a code-cache miss (`arg` = modeled
    /// compile ns).
    Compile,
    /// An arrival was shed by admission control (`arg` = SLO class index,
    /// highest priority = 0).
    Shed,
    /// A module crossed the hot-count threshold and was recompiled at the
    /// optimizing tier (`arg` = the promotion count for that module).
    Promote,
    /// A request-span edge for end-to-end tracing: `sandbox` carries the
    /// request's trace id and `arg` packs the span level, start/end flags
    /// and a level-specific detail (see [`crate::span`]). Exported as
    /// chrome-trace flow events.
    Flow,
    /// An alert state-machine transition ([`crate::alert`]): `sandbox`
    /// carries the rule index and `arg` the transition code
    /// ([`crate::alert::AlertTransition::code`]). The bounded alert log is
    /// the primary record; these ride the normal ring for timeline
    /// correlation and are *not* fault-pinned.
    Alert,
}

impl TraceKind {
    /// Stable lowercase name, used by the dump and the exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Spawn => "spawn",
            TraceKind::Enter => "enter",
            TraceKind::Exit => "exit",
            TraceKind::Trap => "trap",
            TraceKind::Recycle => "recycle",
            TraceKind::Steal => "steal",
            TraceKind::Compile => "compile",
            TraceKind::Shed => "shed",
            TraceKind::Promote => "promote",
            TraceKind::Flow => "flow",
            TraceKind::Alert => "alert",
        }
    }

    /// Whether this kind is a *fault* event — the post-mortem evidence a
    /// long-running server keeps outside its ring
    /// ([`Retention::PinFaults`]): the trap itself and the
    /// quarantine/recycle that contained it.
    pub fn is_fault(self) -> bool {
        matches!(self, TraceKind::Trap | TraceKind::Recycle)
    }

    /// Dense index (for per-kind counters).
    pub(crate) fn index(self) -> usize {
        match self {
            TraceKind::Spawn => 0,
            TraceKind::Enter => 1,
            TraceKind::Exit => 2,
            TraceKind::Trap => 3,
            TraceKind::Recycle => 4,
            TraceKind::Steal => 5,
            TraceKind::Compile => 6,
            TraceKind::Shed => 7,
            TraceKind::Promote => 8,
            TraceKind::Flow => 9,
            TraceKind::Alert => 10,
        }
    }
}

/// Number of [`TraceKind`] variants (per-kind counter array size).
pub(crate) const TRACE_KINDS: usize = 11;

/// How a full [`FlightRecorder`] decides what to evict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Retention {
    /// One ring for every kind: when full, the oldest event is overwritten
    /// regardless of what it is (the original policy; keeps the recorder a
    /// strict ring).
    #[default]
    Uniform,
    /// Per-kind retention for long-running servers: fault events
    /// ([`TraceKind::is_fault`] — traps and recycles) are pinned outside
    /// the ring, so lifecycle chatter (enter/exit/spawn/steal/compile)
    /// never ages them out. The pinned set is bounded too, at
    /// [`FlightRecorder::pinned_capacity`] (1/16 of the ring, rounded up):
    /// a server whose recycles are routine — every slot handoff — keeps
    /// its newest faults and evicts the oldest pinned one first, so memory
    /// stays flat however long it serves.
    PinFaults,
}

/// Under [`Retention::PinFaults`], the pinned set holds at most the ring
/// capacity divided by this, rounded up.
const PIN_SHARE: usize = 16;

/// One structured trace event. Fixed-size and `Copy`, so recording is a
/// bounds check and a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual tick at which the event occurred ([`crate::VirtualClock`] —
    /// modeled cycles or simulated ns, never wall time).
    pub tick: u64,
    /// The core (shard) the event occurred on.
    pub core: u32,
    /// The sandbox / instance / request the event concerns (`u64::MAX` when
    /// not applicable).
    pub sandbox: u64,
    /// The event kind.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`]).
    pub arg: u64,
}

impl TraceEvent {
    /// The deterministic one-line dump form:
    /// `tick=… core=… sandbox=… kind=… arg=…`.
    pub fn dump_line(&self) -> String {
        let sandbox = if self.sandbox == u64::MAX {
            "-".to_owned()
        } else {
            self.sandbox.to_string()
        };
        format!(
            "tick={} core={} sandbox={} kind={} arg={:#x}",
            self.tick,
            self.core,
            sandbox,
            self.kind.name(),
            self.arg
        )
    }
}

/// One incremental drain from a [`FlightRecorder`] cursor
/// ([`FlightRecorder::events_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drained {
    /// The events at or after the requested cursor, oldest first.
    pub events: Vec<TraceEvent>,
    /// The cursor to pass next time (one past the newest event returned,
    /// or the recorder's current end if nothing was new).
    pub next: u64,
    /// Requested events the ring had already overwritten (0 when the
    /// stream kept up with the recorder).
    pub dropped: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Capacity 0 disables recording entirely (the telemetry-off configuration
/// of the overhead gate). When full, the oldest *evictable* event is
/// overwritten — which events are evictable is the [`Retention`] policy;
/// [`FlightRecorder::total_recorded`] keeps counting, so wraparound is
/// observable. Every recorded event has a stable sequence number (event *k*
/// overall has sequence *k*); eviction discards old events but never
/// renumbers the survivors, which is what keeps cursors valid across
/// wraparound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    /// The evictable ring: `(sequence, event)` in sequence order.
    ring: VecDeque<(u64, TraceEvent)>,
    /// Pinned events ([`Retention::PinFaults`] only), in sequence order,
    /// outside the ring capacity; at most [`FlightRecorder::pinned_capacity`],
    /// oldest evicted first.
    pinned: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    retention: Retention,
    total: u64,
    /// Events evicted so far, and per kind (for retention diagnostics).
    evicted: u64,
    evicted_by_kind: [u64; TRACE_KINDS],
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events, uniform retention.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_retention(capacity, Retention::Uniform)
    }

    /// A recorder with an explicit [`Retention`] policy. Under
    /// [`Retention::PinFaults`], `capacity` bounds the evictable ring only;
    /// up to [`FlightRecorder::pinned_capacity`] pinned fault events are
    /// retained beyond it.
    pub fn with_retention(capacity: usize, retention: Retention) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            pinned: VecDeque::new(),
            capacity,
            retention,
            total: 0,
            evicted: 0,
            evicted_by_kind: [0; TRACE_KINDS],
        }
    }

    /// A disabled recorder (capacity 0 — every record is a no-op).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::new(0)
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured capacity (of the evictable ring).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Most fault events kept pinned outside the ring: `capacity / 16`
    /// rounded up under [`Retention::PinFaults`], else 0.
    /// [`FlightRecorder::len`] never exceeds `capacity() +
    /// pinned_capacity()`.
    pub fn pinned_capacity(&self) -> usize {
        match self.retention {
            Retention::PinFaults => self.capacity.div_ceil(PIN_SHARE),
            Retention::Uniform => 0,
        }
    }

    /// The active retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Events currently retained (ring + pinned).
    pub fn len(&self) -> usize {
        self.ring.len() + self.pinned.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.pinned.is_empty()
    }

    /// Events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events evicted so far: by ring wraparound, and under
    /// [`Retention::PinFaults`] also pinned faults evicted past
    /// [`FlightRecorder::pinned_capacity`].
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events of `kind` evicted so far. Under [`Retention::PinFaults`] a
    /// fault kind's count stays 0 until more faults arrive than
    /// [`FlightRecorder::pinned_capacity`] holds.
    pub fn evicted_of(&self, kind: TraceKind) -> u64 {
        self.evicted_by_kind[kind.index()]
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let seq = self.total;
        self.total += 1;
        let pin = self.retention == Retention::PinFaults && ev.kind.is_fault();
        let cap = if pin { self.pinned_capacity() } else { self.capacity };
        let queue = if pin { &mut self.pinned } else { &mut self.ring };
        if queue.len() == cap {
            let (_, old) = queue.pop_front().expect("capacity > 0");
            self.evicted += 1;
            self.evicted_by_kind[old.kind.index()] += 1;
        }
        queue.push_back((seq, ev));
    }

    /// Retained events, oldest first (sequence order; pinned and ring
    /// events interleave exactly as recorded).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.retained(0).into_iter().map(|(_, e)| e).collect()
    }

    /// Retained `(seq, event)` pairs with sequence ≥ `cursor`, merged in
    /// sequence order.
    fn retained(&self, cursor: u64) -> Vec<(u64, TraceEvent)> {
        let ring_from = self.ring.partition_point(|(s, _)| *s < cursor);
        let pin_from = self.pinned.partition_point(|(s, _)| *s < cursor);
        let mut out = Vec::with_capacity(self.ring.len() - ring_from + self.pinned.len() - pin_from);
        let (mut i, mut j) = (ring_from, pin_from);
        while i < self.ring.len() && j < self.pinned.len() {
            if self.ring[i].0 < self.pinned[j].0 {
                out.push(self.ring[i]);
                i += 1;
            } else {
                out.push(self.pinned[j]);
                j += 1;
            }
        }
        out.extend(self.ring.iter().skip(i));
        out.extend(self.pinned.iter().skip(j));
        out
    }

    /// The sequence number of the oldest retained event (the recorder's
    /// current end when nothing is retained).
    pub fn first_retained_seq(&self) -> u64 {
        let ring = self.ring.front().map(|(s, _)| *s);
        let pin = self.pinned.front().map(|(s, _)| *s);
        match (ring, pin) {
            (Some(r), Some(p)) => r.min(p),
            (Some(r), None) => r,
            (None, Some(p)) => p,
            (None, None) => self.total,
        }
    }

    /// The cursor one past the newest event — pass it back to
    /// [`FlightRecorder::events_since`] to receive only what arrives later.
    pub fn next_seq(&self) -> u64 {
        self.total
    }

    /// Cursor-based incremental drain, the live-streaming counterpart of
    /// the post-mortem [`FlightRecorder::events`] dump: returns every
    /// retained event with sequence ≥ `cursor` (oldest first) plus how many
    /// requested events were already evicted. `dropped` counts *lost*
    /// events only: under [`Retention::PinFaults`], a pinned trap older
    /// than the ring window is returned, not counted as dropped. The
    /// recorder is not mutated — the caller owns its cursor, so independent
    /// scrapers can stream at their own pace — and repeatedly draining from
    /// cursor 0 on a ring that never wrapped reproduces `events()` exactly,
    /// which is what makes a concatenated stream byte-identical to the
    /// batch export.
    pub fn events_since(&self, cursor: u64) -> Drained {
        // Every sequence in [cursor, total) is either retained or evicted,
        // whatever order the ring and the pinned set evicted in.
        let events: Vec<TraceEvent> =
            self.retained(cursor).into_iter().map(|(_, e)| e).collect();
        let dropped = self.total.saturating_sub(cursor) - events.len() as u64;
        Drained { events, next: self.total, dropped }
    }

    /// The last `n` retained events concerning `sandbox`, oldest first —
    /// the post-mortem view attached to a fault report.
    pub fn last_for_sandbox(&self, sandbox: u64, n: usize) -> Vec<TraceEvent> {
        let mut hits: Vec<TraceEvent> =
            self.events().into_iter().filter(|e| e.sandbox == sandbox).collect();
        if hits.len() > n {
            hits.drain(..hits.len() - n);
        }
        hits
    }

    /// The deterministic text dump: one [`TraceEvent::dump_line`] per
    /// retained event, oldest first, trailing newline.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.dump_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, sandbox: u64) -> TraceEvent {
        TraceEvent { tick, core: 0, sandbox, kind: TraceKind::Enter, arg: 0 }
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let mut r = FlightRecorder::new(3);
        for t in 0..7 {
            r.record(ev(t, t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 7);
        let ticks: Vec<u64> = r.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [4, 5, 6], "oldest-first, newest retained");
        // Exactly at the boundary: capacity events, no wrap yet.
        let mut r = FlightRecorder::new(3);
        for t in 0..3 {
            r.record(ev(t, t));
        }
        assert_eq!(r.events().iter().map(|e| e.tick).collect::<Vec<_>>(), [0, 1, 2]);
        // One more wraps the single oldest.
        r.record(ev(3, 3));
        assert_eq!(r.events().iter().map(|e| e.tick).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = FlightRecorder::disabled();
        r.record(ev(1, 1));
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.dump(), "");
    }

    #[test]
    fn per_sandbox_postmortem_view() {
        let mut r = FlightRecorder::new(16);
        for t in 0..10 {
            r.record(ev(t, t % 2));
        }
        let s1 = r.last_for_sandbox(1, 3);
        assert_eq!(s1.iter().map(|e| e.tick).collect::<Vec<_>>(), [5, 7, 9]);
        assert!(r.last_for_sandbox(99, 3).is_empty());
    }

    #[test]
    fn cursor_drain_streams_incrementally() {
        let mut r = FlightRecorder::new(8);
        for t in 0..3 {
            r.record(ev(t, t));
        }
        // First drain from the start sees everything recorded so far.
        let d = r.events_since(0);
        assert_eq!(d.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!((d.next, d.dropped), (3, 0));
        // Nothing new: an empty drain at the same cursor.
        let d2 = r.events_since(d.next);
        assert!(d2.events.is_empty());
        assert_eq!((d2.next, d2.dropped), (3, 0));
        // New events appear after the cursor only.
        for t in 3..5 {
            r.record(ev(t, t));
        }
        let d3 = r.events_since(d.next);
        assert_eq!(d3.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(d3.next, 5);
        // The concatenated stream equals the batch dump.
        let mut streamed = d.events.clone();
        streamed.extend(d3.events);
        assert_eq!(streamed, r.events(), "stream must concatenate to the batch view");
    }

    #[test]
    fn cursor_drain_reports_wraparound_drops() {
        let mut r = FlightRecorder::new(3);
        for t in 0..7 {
            r.record(ev(t, t));
        }
        assert_eq!(r.first_retained_seq(), 4);
        assert_eq!(r.next_seq(), 7);
        // A stale cursor loses exactly the overwritten span.
        let d = r.events_since(1);
        assert_eq!(d.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(d.dropped, 3, "cursor 1 missed events 1..4");
        // A cursor inside the retained window drops nothing.
        let d = r.events_since(5);
        assert_eq!(d.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [5, 6]);
        assert_eq!(d.dropped, 0);
        // A cursor beyond the end is an empty, clean drain.
        let d = r.events_since(99);
        assert!(d.events.is_empty());
        assert_eq!((d.next, d.dropped), (7, 0));
        // A disabled recorder streams nothing, forever.
        let off = FlightRecorder::disabled();
        assert_eq!(off.events_since(0), Drained { events: vec![], next: 0, dropped: 0 });
    }

    #[test]
    fn pin_faults_survive_wraparound_with_honest_drop_counts() {
        let fault = |t: u64| TraceEvent {
            tick: t,
            core: 0,
            sandbox: t,
            kind: TraceKind::Trap,
            arg: 0,
        };
        let mut r = FlightRecorder::with_retention(3, Retention::PinFaults);
        // seq 0..2: enters; seq 3: trap; seq 4..9: enters — the ring (cap 3)
        // wraps while the trap is pinned outside it.
        for t in 0..3 {
            r.record(ev(t, t));
        }
        r.record(fault(3));
        for t in 4..10 {
            r.record(ev(t, t));
        }
        assert_eq!(r.total_recorded(), 10);
        // Ring kept the newest 3 evictable events; the trap survived even
        // though every enter recorded before it was evicted.
        let ticks: Vec<u64> = r.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [3, 7, 8, 9], "pinned trap outlives the ring window");
        assert_eq!(r.evicted(), 6);
        assert_eq!(r.evicted_of(TraceKind::Enter), 6);
        assert_eq!(r.evicted_of(TraceKind::Trap), 0, "one trap fits the pinned set");
        // Drop accounting is per kind: cursor 0 missed the 6 evicted enters
        // but receives the pinned trap, so it is not counted as dropped.
        let d = r.events_since(0);
        assert_eq!(d.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [3, 7, 8, 9]);
        assert_eq!(d.dropped, 6, "only evicted events count as dropped");
        assert_eq!(d.next, 10);
        // A cursor past the trap but inside the evicted span: seq 4..=6
        // were evicted (3 events), none pinned in that range.
        let d = r.events_since(4);
        assert_eq!(d.events.iter().map(|e| e.tick).collect::<Vec<_>>(), [7, 8, 9]);
        assert_eq!(d.dropped, 3);
        // A cursor inside the retained window drops nothing.
        let d = r.events_since(7);
        assert_eq!(d.dropped, 0);
        // Uniform retention on the same sequence evicts the trap like
        // anything else — PinFaults is the difference, not the kind.
        let mut u = FlightRecorder::new(3);
        for t in 0..3 {
            u.record(ev(t, t));
        }
        u.record(fault(3));
        for t in 4..10 {
            u.record(ev(t, t));
        }
        assert_eq!(u.events().iter().map(|e| e.tick).collect::<Vec<_>>(), [7, 8, 9]);
        assert_eq!(u.evicted_of(TraceKind::Trap), 1);
        assert_eq!(u.events_since(0).dropped, 7);
    }

    #[test]
    fn a_fault_flood_keeps_the_pinned_set_bounded() {
        let mut r = FlightRecorder::with_retention(64, Retention::PinFaults);
        assert_eq!(r.pinned_capacity(), 4);
        let mut faults = 0u64;
        for t in 0..10_000u64 {
            let kind = match t % 8 {
                0 => TraceKind::Enter,
                1 | 2 => TraceKind::Trap,
                _ => TraceKind::Recycle,
            };
            faults += u64::from(kind.is_fault());
            r.record(TraceEvent { tick: t, core: 0, sandbox: t, kind, arg: 0 });
            let len = r.len();
            assert!(len <= r.capacity() + r.pinned_capacity(), "{len} events at tick {t}");
        }
        // The newest four faults stay pinned; every older one is counted
        // as evicted under its own kind.
        let kept: Vec<u64> =
            r.events().iter().filter(|e| e.kind.is_fault()).map(|e| e.tick).collect();
        assert_eq!(kept, [9_996, 9_997, 9_998, 9_999]);
        assert_eq!(r.evicted_of(TraceKind::Trap) + r.evicted_of(TraceKind::Recycle), faults - 4);
        assert_eq!(r.evicted(), 10_000 - r.len() as u64);
        // A uniform ring pins nothing.
        assert_eq!(FlightRecorder::new(64).pinned_capacity(), 0);
    }

    #[test]
    fn drop_accounting_is_exact_for_every_cursor() {
        for retention in [Retention::Uniform, Retention::PinFaults] {
            let mut r = FlightRecorder::with_retention(20, retention);
            for t in 0..300u64 {
                let kind = if t % 3 == 0 { TraceKind::Enter } else { TraceKind::Recycle };
                r.record(TraceEvent { tick: t, core: 0, sandbox: t, kind, arg: 0 });
            }
            for c in 0..=r.total_recorded() + 3 {
                let d = r.events_since(c);
                assert_eq!(
                    d.dropped + d.events.len() as u64,
                    r.total_recorded().saturating_sub(c),
                    "{retention:?} cursor {c}"
                );
            }
        }
    }

    #[test]
    fn dump_is_deterministic_text() {
        let mut r = FlightRecorder::new(4);
        r.record(TraceEvent { tick: 5, core: 1, sandbox: 2, kind: TraceKind::Trap, arg: 0x1000 });
        r.record(TraceEvent {
            tick: 6,
            core: 1,
            sandbox: u64::MAX,
            kind: TraceKind::Steal,
            arg: 3,
        });
        assert_eq!(
            r.dump(),
            "tick=5 core=1 sandbox=2 kind=trap arg=0x1000\n\
             tick=6 core=1 sandbox=- kind=steal arg=0x3\n"
        );
    }
}

#!/usr/bin/env bash
# Local CI gate: everything runs offline (the workspace vendors its
# compatibility shims under compat/ and has no registry dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo "== full-corpus differential (release, includes cache path + both tiers) =="
cargo test -q --offline --release --test corpus_differential -- --include-ignored

echo "== tiered compiler: corpus + random-program equivalence, cycle win, baseline bytes =="
cargo run -q --offline --release -p sfi-bench --bin figX_tiers -- --check
grep -q '"telemetry"' BENCH_tiers.json
grep -q 'sfi_tier_promotions_total' BENCH_tiers.json
grep -q 'sfi_tier_guest_cycles' BENCH_tiers.json

echo "== multi-core sweep: determinism + warm/cold + scaling checks =="
cargo run -q --offline --release -p sfi-bench --bin figX_multicore -- --check

echo "== telemetry: snapshot embedded, overhead gate, collision-free schema =="
# figX_multicore --check (above) runs the telemetry gates: snapshot present
# and parseable, tracing on-vs-off byte-identical in every modeled field,
# self-overhead within the DESIGN.md §8 budget, and the runtime metric
# schema registered without a name collision. Verify the artifacts landed.
grep -q '"telemetry"' BENCH_multicore.json
grep -q 'sfi_shard_completed_total' BENCH_multicore.json
grep -q '"traceEvents"' TRACE_multicore.json

echo "== live serving: endpoint checks, stream==batch, observer effect, overhead =="
cargo run -q --offline --release -p sfi-bench --bin faas_serve -- --check

echo "== live serving: headless smoke (start, scrape, validate, clean shutdown) =="
# Start the server on an ephemeral port with a capped driver, scrape every
# endpoint with the binary's own std-only client (no curl: offline policy),
# then shut it down via /quit and require a clean exit.
SERVE_LOG=$(mktemp)
cargo run -q --offline --release -p sfi-bench --bin faas_serve -- --port 0 --rounds 2 >"$SERVE_LOG" &
SERVE_PID=$!
# Never orphan the server: if any scrape below fails, set -e exits before
# /quit — take the server (and the log) down with us.
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"' EXIT
ADDR=""
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$SERVE_LOG")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "faas_serve did not report its address"; kill "$SERVE_PID"; exit 1; }
FAAS_SERVE=target/release/faas_serve
# --timeout-ms bounds every scrape attempt: a server wedged on accept
# fails the step within its deadline instead of hanging CI.
"$FAAS_SERVE" --get "$ADDR" /metrics --timeout-ms 5000 | grep -q 'sfi_serve_scrapes_total'
"$FAAS_SERVE" --get "$ADDR" /snapshot --timeout-ms 5000 | grep -q '"histograms"'
"$FAAS_SERVE" --get "$ADDR" '/trace?since=0' --timeout-ms 5000 | head -1 | grep -q '"next"'
"$FAAS_SERVE" --get "$ADDR" /healthz --timeout-ms 5000 | grep -q '"availability"'
"$FAAS_SERVE" --get "$ADDR" /quit --timeout-ms 5000 >/dev/null
wait "$SERVE_PID"   # exit-code check: the serve loop must stop cleanly
rm -f "$SERVE_LOG"
trap - EXIT

echo "== fleet federation: K kills, recovery byte-equality, merged scrape surface =="
cargo run -q --offline --release -p sfi-bench --bin fleet_serve -- --check

echo "== overload: open-loop sweep, QoS shedding, elastic determinism, legacy bytes =="
# Runs after figX_multicore: gate 3 byte-compares the recomputed closed-loop
# sweep against the BENCH_multicore.json written above.
cargo run -q --offline --release -p sfi-bench --bin figX_overload -- --check
grep -q '"telemetry"' BENCH_overload.json
grep -q 'sfi_qos_shed_total' BENCH_overload.json

echo "== alerting plane: false positives, detection budget, timeline bytes, overhead =="
cargo run -q --offline --release -p sfi-bench --bin figX_alerts -- --check
grep -q '"telemetry"' BENCH_alerts.json
grep -q '"scenario": "clean_0", "rounds": 8, "transitions": 0' BENCH_alerts.json
grep -q '"rule": "fleet_slo_burn_ls"' BENCH_alerts.json
grep -q '"rule": "member_availability"' BENCH_alerts.json
grep -q '"rerun_timeline_identical": true' BENCH_alerts.json
grep -q '"kill_recovery_timeline_identical": true' BENCH_alerts.json

echo "== bench artifacts embed telemetry sections =="
cargo run -q --offline --release -p sfi-bench --bin fig6_throughput >/dev/null
cargo run -q --offline --release -p sfi-bench --bin fig7_ctx_dtlb >/dev/null
cargo run -q --offline --release -p sfi-bench --bin sec641_transitions >/dev/null
cargo run -q --offline --release -p sfi-bench --bin sec642_scaling >/dev/null
for f in BENCH_fig6.json BENCH_fig7.json BENCH_sec641.json BENCH_sec642.json; do
  grep -q '"telemetry"' "$f"
done
grep -q 'sfi_shard_request_latency_ns' BENCH_multicore.json
grep -q 'sample_rate' BENCH_sec641.json

echo "== calibration drift watch (sec641 p50 vs DESIGN.md §10 record) =="
# The transition microbench p50s are the cost-model canary: recompute them
# from the artifact just generated above and compare against the values
# recorded in DESIGN.md §10. A deliberate cost-model change must update the
# record in the same commit; anything else drifting >25% fails CI.
REF_LINE=$(grep -o 'calibration: sec641 transition_cycles p50 baseline=[0-9]* colorguard=[0-9]*' DESIGN.md)
[ -n "$REF_LINE" ] || { echo "DESIGN.md §10 calibration record missing"; exit 1; }
BASE_REF=$(echo "$REF_LINE" | sed 's/.*baseline=\([0-9]*\).*/\1/')
COLOR_REF=$(echo "$REF_LINE" | sed 's/.*colorguard=\([0-9]*\).*/\1/')
# Run order in the artifact: baseline histogram first, ColorGuard second.
P50S=$(grep -o '"sfi_invocation_transition_cycles": {[^}]*}' BENCH_sec641.json \
       | grep -o '"p50": [0-9]*' | awk '{print $2}')
BASE_GOT=$(echo "$P50S" | sed -n 1p)
COLOR_GOT=$(echo "$P50S" | sed -n 2p)
[ -n "$BASE_GOT" ] && [ -n "$COLOR_GOT" ] || { echo "sec641 p50s not found in artifact"; exit 1; }
for pair in "baseline $BASE_GOT $BASE_REF" "colorguard $COLOR_GOT $COLOR_REF"; do
  set -- $pair
  awk -v name="$1" -v got="$2" -v ref="$3" 'BEGIN {
    drift = (got > ref ? got - ref : ref - got) / ref;
    printf "calibration %s: p50 %d vs recorded %d (drift %.1f%%)\n", name, got, ref, drift * 100;
    exit !(drift <= 0.25);
  }' || { echo "calibration drift watch FAILED for $1"; exit 1; }
done

echo "== profiler: exact attribution, determinism, observer effect, overhead =="
cargo run -q --offline --release -p sfi-bench --bin figX_profile -- --check
grep -q '"telemetry"' BENCH_profile.json
grep -q '"profile"' BENCH_profile.json
grep -q 'sfi_profile_cycles_total' BENCH_profile.json

echo "== calibration drift watch (transition share vs DESIGN.md §14 record) =="
# The per-strategy transition-cycle share is the baseline the
# near-zero-cost-transitions work must beat: recompute it from the
# artifact and compare against the DESIGN.md §14 record, same 25% drift
# rule as the §10 watch above.
PROF_REF=$(grep -o 'calibration: profile transition_share_bp [a-z=0-9 -]*' DESIGN.md)
[ -n "$PROF_REF" ] || { echo "DESIGN.md §14 calibration record missing"; exit 1; }
SHARES=$(grep -o '"transition_share": {[^}]*}' BENCH_profile.json)
[ -n "$SHARES" ] || { echo "transition_share not found in BENCH_profile.json"; exit 1; }
for s in guard segue segue-loads bounds bounds-segue masking; do
  REF=$(echo "$PROF_REF" | grep -o " $s=[0-9]*" | sed 's/.*=//')
  GOT=$(echo "$SHARES" | grep -o "\"$s\": [0-9.]*" | sed 's/.*: //')
  [ -n "$REF" ] && [ -n "$GOT" ] || { echo "missing transition share for $s"; exit 1; }
  awk -v name="$s" -v got="$GOT" -v ref="$REF" 'BEGIN {
    got_bp = got * 10000;
    drift = (got_bp > ref ? got_bp - ref : ref - got_bp) / ref;
    printf "calibration %s: transition share %.0fbp vs recorded %dbp (drift %.1f%%)\n", name, got_bp, ref, drift * 100;
    exit !(drift <= 0.25);
  }' || { echo "calibration drift watch FAILED for $s"; exit 1; }
done

echo "== spectre matrix: leak gates, genprog sweep, mitigation frontier, determinism =="
cargo run -q --offline --release -p sfi-bench --bin figX_spectre -- --check
grep -q '"telemetry"' BENCH_spectre.json
grep -q 'sfi_spec_flushes_total' BENCH_spectre.json
grep -q 'sfi_spec_leaks_total' BENCH_spectre.json
grep -q 'sfi_spec_mitigation_cycles_total' BENCH_spectre.json

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "CI OK"

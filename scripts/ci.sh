#!/usr/bin/env bash
# Local CI gate: everything runs offline (the workspace vendors its
# compatibility shims under compat/ and has no registry dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo "== hostbench: builds against the workspace crates, oracle proofs with seeded violations =="
# hostbench path-depends on crates/* but is its own workspace: without this
# step an API change that breaks the benchmark would pass CI.
cargo test -q --offline --manifest-path hostbench/Cargo.toml

echo "== full-corpus differential (release, includes cache path + both tiers) =="
cargo test -q --offline --release --test corpus_differential -- --include-ignored

echo "== tiered compiler: corpus + random-program equivalence, cycle win, baseline bytes =="
cargo run -q --offline --release -p sfi-bench --bin figX_tiers -- --check

echo "== multi-core sweep: determinism, warm/cold, scaling, telemetry gates =="
# figX_multicore --check also runs the telemetry gates: snapshot present
# and parseable, tracing on-vs-off byte-identical in every modeled field,
# self-overhead within the DESIGN.md §8 budget, the runtime metric schema
# registered without a name collision, and latency series complete.
cargo run -q --offline --release -p sfi-bench --bin figX_multicore -- --check

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

echo "== alerting plane: false positives, detection budget, timeline bytes, overhead =="
cargo run -q --offline --release -p sfi-bench --bin figX_alerts -- --check

echo "== regenerate fig6, fig7, sec641 (gated by the DESIGN.md §10 calibration record) and sec642 =="
cargo run -q --offline --release -p sfi-bench --bin fig6_throughput >/dev/null
cargo run -q --offline --release -p sfi-bench --bin fig7_ctx_dtlb >/dev/null
cargo run -q --offline --release -p sfi-bench --bin sec641_transitions
cargo run -q --offline --release -p sfi-bench --bin sec642_scaling >/dev/null

echo "== profiler: exact attribution, determinism, observer effect, overhead, §14 calibration =="
cargo run -q --offline --release -p sfi-bench --bin figX_profile -- --check

echo "== spectre matrix: leak gates, genprog sweep, mitigation frontier, determinism =="
cargo run -q --offline --release -p sfi-bench --bin figX_spectre -- --check

echo "== paper binaries: cross-strategy agreement and LFI == native asserts (stdout discarded) =="
# The paper's headline binaries print tables and write no artifact; running
# them executes their own result-agreement asserts (about 20 s in total on
# a 2-core box).
for bin in fig3_spec2006 table2_binsize fig4_sightglass fig5_lfi_spec2017 \
           sec61_firefox sec62_wamr_suites table1_invariants sec7_mte; do
  cargo run -q --offline --release -p sfi-bench --bin "$bin" >/dev/null
done

echo "== artifact drift: every BENCH_*.json regenerated above matches the committed (or staged) file =="
# A change that moves an artifact byte must re-record it in the same commit.
# TRACE_multicore.json is gitignored, so there is no committed copy to diff.
git diff --exit-code -- 'BENCH_*.json'

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "CI OK"

#!/usr/bin/env bash
# Local CI gate: run everything a PR must keep green.
#
#   ./ci.sh
#
# 1. rustfmt check (no dirty formatting lands)
# 2. release build of the whole workspace (examples + benches included)
# 3. full test suite (unit, integration, golden-report, proptests, doctests),
#    then the benchmark package's tests: perfbench is its own workspace,
#    so the workspace build never compiles it, yet it matches the event
#    enums by variant and field
# 4. clippy with warnings denied
# 5. telemetry smoke: capture a small traced run, validate the outputs
#    (every JSONL line against the schema the event tables generate)
# 6. cluster smoke: 2-instance run with telemetry, validated the same way
# 7. chaos smoke: fixed-seed faulted run (crash + SSD errors), validated
#    the same way
# 8. tiers smoke: a 3-tier (DRAM/pooled/SSD) faulted run through the
#    depth-N stack machinery, validated the same way
# 9. watch smoke: a bursty run through the windowed observability
#    plane; the windowed JSONL is validated by trace_check --windows
#    (contiguous windows, well-paired alert timeline), and the Prometheus
#    exposition must carry the counter table, not a hand-picked subset
#    (admitted is a counter the old hand list never exported)
# 10. share smoke: a shared-prefix run under content-addressed block
#    keying, validated the same way plus a check that block dedup
#    events appear — and that a per-session run emits none
# 11. slo smoke: a flash-crowd run through the admission ladder and the
#    autoscaler; trace_check validates the overload vocabulary and the
#    gate greps for typed sheds plus at least one scaling action
# 12. rustdoc gate: the whole workspace documents cleanly with
#    warnings denied
# 13. scale smoke: exp_scale runs a small diurnal cluster trace with the
#    host-time self-profiler on, exports the two-clock Chrome trace, and
#    trace_check validates both it and the self-profile's internal
#    consistency (self <= total per scope, scope sum <= wall clock)
# 14. perf-regression gate: exp_profile re-runs the canonical scenario
#    matrix and diffs against the committed BENCH_profile.json with
#    tolerance bands. Intentional perf changes: REGEN_BENCH=1 ./ci.sh
#    regenerates the baseline (mirror of REGEN_GOLDEN=1 for fixtures).
# 15. throughput gate: exp_scale re-runs the pinned bench scenario and
#    diffs BENCH_scale.json — virtual fields (event count, makespan,
#    hit rate) must match exactly; host fields (events/sec, wall, RSS)
#    get a wide band that only catches algorithmic collapses. The event
#    count is of dispatched events, and a decode run is one event
#    however many tokens it covers. REGEN_BENCH=1 regenerates this
#    baseline too.
# 16. line counts: scripts/loc.py prints the non-test Rust lines of
#    crates/, src/ and examples/, then of compat/ (a report, not a gate)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt (check)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test (perfbench)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> telemetry smoke (exp_trace + trace_check)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/exp_trace --sessions 60 \
    --trace-out "$SMOKE_DIR/trace.jsonl" \
    --trace-out "$SMOKE_DIR/trace.json" \
    --metrics-out "$SMOKE_DIR/metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/trace.jsonl" \
    --chrome "$SMOKE_DIR/trace.json" \
    --metrics "$SMOKE_DIR/metrics.json"

echo "==> cluster smoke (exp_cluster + trace_check)"
./target/release/exp_cluster --sessions 60 --instances 2 \
    --trace-out "$SMOKE_DIR/cluster.jsonl" \
    --trace-out "$SMOKE_DIR/cluster.json" \
    --metrics-out "$SMOKE_DIR/cluster_metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/cluster.jsonl" \
    --chrome "$SMOKE_DIR/cluster.json" \
    --metrics "$SMOKE_DIR/cluster_metrics.json"

echo "==> chaos smoke (exp_chaos + trace_check)"
./target/release/exp_chaos --sessions 60 --intensity 1.0 --seed 20240418 \
    --trace-out "$SMOKE_DIR/chaos.jsonl" \
    --trace-out "$SMOKE_DIR/chaos.json" \
    --metrics-out "$SMOKE_DIR/chaos_metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/chaos.jsonl" \
    --chrome "$SMOKE_DIR/chaos.json" \
    --metrics "$SMOKE_DIR/chaos_metrics.json"
grep -q '"category":"fault"' "$SMOKE_DIR/chaos.jsonl" \
    || { echo "chaos smoke: no fault events in trace" >&2; exit 1; }

echo "==> tiers smoke (exp_tiers 3-tier stack + trace_check)"
./target/release/exp_tiers --sessions 60 --stack pooled \
    --trace-out "$SMOKE_DIR/tiers.jsonl" \
    --trace-out "$SMOKE_DIR/tiers.json" \
    --metrics-out "$SMOKE_DIR/tiers_metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/tiers.jsonl" \
    --chrome "$SMOKE_DIR/tiers.json" \
    --metrics "$SMOKE_DIR/tiers_metrics.json"
grep -q '"kind":"tier_config".*"name":"pooled"' "$SMOKE_DIR/tiers.jsonl" \
    || { echo "tiers smoke: pooled tier missing from trace" >&2; exit 1; }

echo "==> watch smoke (exp_watch windowed plane + trace_check --windows)"
./target/release/exp_watch --sessions 60 \
    --windows-out "$SMOKE_DIR/watch_windows.jsonl" \
    --prom-out "$SMOKE_DIR/watch.prom" \
    --trace-out "$SMOKE_DIR/watch.jsonl" \
    --trace-out "$SMOKE_DIR/watch.json" \
    --metrics-out "$SMOKE_DIR/watch_metrics.json" >/dev/null
./target/release/trace_check \
    --windows "$SMOKE_DIR/watch_windows.jsonl" \
    --jsonl "$SMOKE_DIR/watch.jsonl" \
    --chrome "$SMOKE_DIR/watch.json" \
    --metrics "$SMOKE_DIR/watch_metrics.json"
grep -q '"kind":"window_config"' "$SMOKE_DIR/watch_windows.jsonl" \
    || { echo "watch smoke: window_config header missing" >&2; exit 1; }
grep -q '^cachedattention_turns_arrived_total' "$SMOKE_DIR/watch.prom" \
    || { echo "watch smoke: prometheus exposition missing counters" >&2; exit 1; }
grep -q '^cachedattention_admitted_total ' "$SMOKE_DIR/watch.prom" \
    || { echo "watch smoke: prometheus exposition missing the counter table" >&2; exit 1; }

echo "==> share smoke (exp_share content-addressed blocks + trace_check)"
./target/release/exp_share --smoke --scenario system_prompt \
    --keying content_addressed \
    --trace-out "$SMOKE_DIR/share.jsonl" \
    --trace-out "$SMOKE_DIR/share.json" \
    --metrics-out "$SMOKE_DIR/share_metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/share.jsonl" \
    --chrome "$SMOKE_DIR/share.json" \
    --metrics "$SMOKE_DIR/share_metrics.json"
grep -q '"kind":"block_dedup_hit"' "$SMOKE_DIR/share.jsonl" \
    || { echo "share smoke: no block_dedup_hit events in trace" >&2; exit 1; }
./target/release/exp_share --smoke --scenario system_prompt \
    --keying per_session \
    --trace-out "$SMOKE_DIR/share_per.jsonl" \
    --metrics-out "$SMOKE_DIR/share_per_metrics.json" >/dev/null
./target/release/trace_check \
    --jsonl "$SMOKE_DIR/share_per.jsonl" \
    --metrics "$SMOKE_DIR/share_per_metrics.json"
! grep -q '"kind":"block_' "$SMOKE_DIR/share_per.jsonl" \
    || { echo "share smoke: per-session run emitted block events" >&2; exit 1; }

echo "==> slo smoke (exp_slo flash crowd + trace_check)"
./target/release/exp_slo --sessions 240 \
    --windows-out "$SMOKE_DIR/slo_windows.jsonl" \
    --trace-out "$SMOKE_DIR/slo.jsonl" \
    --trace-out "$SMOKE_DIR/slo.json" \
    --metrics-out "$SMOKE_DIR/slo_metrics.json" >/dev/null
./target/release/trace_check \
    --windows "$SMOKE_DIR/slo_windows.jsonl" \
    --jsonl "$SMOKE_DIR/slo.jsonl" \
    --chrome "$SMOKE_DIR/slo.json" \
    --metrics "$SMOKE_DIR/slo_metrics.json"
grep -q '"kind":"turn_shed"' "$SMOKE_DIR/slo.jsonl" \
    || { echo "slo smoke: no turn_shed rejections in trace" >&2; exit 1; }
grep -qE '"kind":"scale_(up|down)"' "$SMOKE_DIR/slo.jsonl" \
    || { echo "slo smoke: autoscaler never acted" >&2; exit 1; }

echo "==> scale smoke (exp_scale two-clock export + trace_check --self-profile)"
./target/release/exp_scale --sessions 150 --instances 2 --rate 1.0 \
    --out "$SMOKE_DIR/scale_smoke.json" \
    --trace-out "$SMOKE_DIR/scale_two_clock.json" >/dev/null
./target/release/trace_check \
    --chrome "$SMOKE_DIR/scale_two_clock.json" \
    --self-profile "$SMOKE_DIR/scale_smoke.json"
grep -q '"simulator host time (self-profile)"' "$SMOKE_DIR/scale_two_clock.json" \
    || { echo "scale smoke: self-profile track missing from two-clock trace" >&2; exit 1; }

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> perf-regression gate (exp_profile vs BENCH_profile.json)"
if [[ "${REGEN_BENCH:-0}" == "1" ]]; then
    ./target/release/exp_profile --out BENCH_profile.json >/dev/null
    echo "regenerated BENCH_profile.json — review and commit the diff"
else
    ./target/release/exp_profile --out "$SMOKE_DIR/profile.json" \
        --baseline BENCH_profile.json >/dev/null
fi

echo "==> throughput gate (exp_scale vs BENCH_scale.json)"
if [[ "${REGEN_BENCH:-0}" == "1" ]]; then
    ./target/release/exp_scale --out BENCH_scale.json >/dev/null
    echo "regenerated BENCH_scale.json — review and commit the diff"
else
    ./target/release/exp_scale --out "$SMOKE_DIR/scale.json" \
        --baseline BENCH_scale.json >/dev/null
fi

echo "==> non-test line counts (scripts/loc.py)"
python3 scripts/loc.py

echo "CI green."

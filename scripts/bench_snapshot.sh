#!/usr/bin/env bash
# Snapshot the performance numbers into the repo root:
#   BENCH_telemetry.json — functional-only vs power session with telemetry
#                          disabled (default) vs enabled (25 interleaved
#                          reps: min ns/cycle, median per-round ratios);
#   BENCH_sweep.json     — serial vs parallel seed×style sweep (wall time,
#                          speedup, ns/cycle, byte-identity check);
#   BENCH_events.json    — structured event ring: no tap vs disabled ring
#                          (cold-atomic branch) vs enabled ring, plus the
#                          publish rate.
#   BENCH_replay.json    — record/replay power emulation: record overhead,
#                          replay throughput, trace size, and the N-variant
#                          sweep speedup vs re-simulation (golden-checked).
#   BENCH_observatory.json — multi-resolution retention: anomaly-only vs
#                          anomaly+observatory ingest, with the 5% overhead
#                          ceiling enforced (the run exits 1 past it).
#   BENCH_serve.json     — sharded serving plane under load: `repro loadgen`
#                          self-hosts a 2-shard server and reports
#                          throughput, per-endpoint p50/p95/p99 latency and
#                          shed/error rates (exit 1 below 1000 req/s).
# All over the paper testbench.
#
# usage: scripts/bench_snapshot.sh [cycles] [seed] [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

CYCLES="${1:-1000000}"
SEED="${2:-2003}"
# Floor jobs at 2 so BENCH_sweep.json's per_job_count ladder always has a
# parallel rung, even on single-core boxes (where it documents the thread
# overhead instead of masquerading as a regression — see EXPERIMENTS.md E13).
CORES="$(nproc 2>/dev/null || echo 2)"
JOBS="${3:-$(( CORES < 2 ? 2 : CORES ))}"

cargo run --release -p ahbpower-bench --bin repro -- telemetry-overhead \
    --cycles "$CYCLES" --seed "$SEED" --jobs "$JOBS"
cargo run --release -p ahbpower-bench --bin repro -- sweep-bench \
    --cycles "$CYCLES" --seed "$SEED" --jobs "$JOBS"
cargo run --release -p ahbpower-bench --bin repro -- events-overhead \
    --cycles "$CYCLES" --seed "$SEED"
cargo run --release -p ahbpower-bench --bin repro -- replay-bench \
    --cycles "$CYCLES" --seed "$SEED" --jobs "$JOBS"
cargo run --release -p ahbpower-bench --bin repro -- observatory-overhead \
    --cycles "$CYCLES" --seed "$SEED"
cargo run --release -p ahbpower-bench --bin repro -- loadgen \
    --duration-s 5 --min-rps 1000 --out BENCH_serve.json
echo "snapshots written to BENCH_telemetry.json, BENCH_sweep.json, BENCH_events.json, BENCH_replay.json, BENCH_observatory.json and BENCH_serve.json"

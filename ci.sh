#!/usr/bin/env bash
# Tier-1 CI gate (see ROADMAP.md). Runs fully offline: the workspace has
# zero external crate dependencies, so no registry access is ever needed.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -q --offline --workspace -- -D warnings"
cargo clippy -q --offline --workspace -- -D warnings

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

# The parallel layer guarantees thread-count-independent results, so the
# whole suite must pass both forced-serial and with the default pool.
echo "==> cargo test -q --offline --workspace (HDIDX_THREADS=1)"
HDIDX_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test -q --offline --workspace (default threads)"
cargo test -q --offline --workspace

# Chaos leg: the whole suite must stay green under ambient low-pressure
# fault injection (HDIDX_FAULT_SEED reaches the CLI/env-configured paths;
# the default 2000 ppm rate is always absorbed by bounded retry). Two
# seeds so a pass never hinges on one lucky fault pattern.
for fault_seed in 1 20250807; do
  echo "==> cargo test -q --offline --workspace (HDIDX_FAULT_SEED=${fault_seed})"
  HDIDX_FAULT_SEED="${fault_seed}" cargo test -q --offline --workspace
done

# Burst-heavy chaos leg: correlated bad regions on top of the point rates,
# absorbed by the exponential backoff policy. Exercises the env precedence
# chain (HDIDX_FAULT_* + HDIDX_RETRY_*) end to end.
echo "==> cargo test -q --offline --workspace (burst chaos + exponential retry)"
HDIDX_FAULT_SEED=7 HDIDX_FAULT_BURST_PPM=50000 HDIDX_RETRY_POLICY=exponential \
  cargo test -q --offline --workspace

echo "==> fault_sweep --smoke (degradation-vs-accuracy experiment)"
cargo run -q --release -p hdidx-bench --bin fault_sweep --offline -- --smoke

echo "==> cargo bench --no-run --offline (bench targets must compile)"
cargo bench --no-run --offline

# SoA kernel smoke leg: one tiny shape through the kernels bench in
# soup_smoke mode. The run asserts — before any timing — that the AoS
# loop, the scalar SoA kernel and the batched SoA kernel return
# byte-identical counts at 1/2/8 threads, so every CI pass re-proves the
# bit-identity contract. Results go to a scratch dir so the committed
# BENCH_kernels.json baseline is never clobbered by smoke-grade numbers.
echo "==> kernels bench soup_smoke (SoA/AoS count identity)"
mkdir -p target/bench-smoke
HDIDX_BENCH_SAMPLES=3 HDIDX_BENCH_WARMUP_MS=1 HDIDX_BENCH_TARGET_MS=0.05 \
  HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --offline -p hdidx-bench --bench kernels -- soup_smoke

# SIMD dispatch-identity leg: the kernel tests must pass with the ISA
# pinned to the portable scalar path and with auto-detection (the widest
# supported lanes) — same assertions, different dispatch — and a serve
# smoke run under each must produce byte-identical latency digests. A
# digest that moves with the lane width would mean the SIMD kernels are
# not bit-exact replays of the scalar arithmetic. The vamsplit k-NN tests
# run the best-first search on the dispatched ISA, so its gathered SIMD
# path is checked bit for bit against the scan under both modes.
echo "==> simd dispatch identity (HDIDX_SIMD=scalar vs auto)"
for simd_mode in scalar auto; do
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline -p hdidx-core \
    -- simd soup knn
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline -p hdidx-vamsplit -- knn
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test simd_dispatch
done

# Serving smoke legs: the open-loop serving subsystem end to end through
# the CLI — once clean, once under a chaos fault seed with exponential
# retry (so backoff is charged and admission control actually sheds) —
# plus the sweep binary. Sweep output goes to the scratch dir so the
# committed BENCH_serve.json baseline is never clobbered.
echo "==> hdidx serve --smoke (clean + chaos fault seed)"
cargo run -q --release -p hdidx-cli --offline -- generate \
  --dataset texture48 --scale 0.2 --out target/bench-smoke/t48.csv
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --fault-seed 3 --fault-ppm 300000 --retry-policy exponential \
  --fault-phase-scale build:0 --admission-budget 0.05

echo "==> serve_sweep --smoke (tail-latency experiment)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin serve_sweep --offline -- --smoke

# Overload smoke legs: the overload-control layer end to end. The sweep
# binary asserts its own acceptance bars (protected-class p99 <= 25% of
# no-policy at 2.5x saturation; breaker bounds charged backoff vs
# breaker-off). The CLI pair then proves the closed-lane equivalence:
# shedding the knn+predict lanes outright must produce the exact same
# protected-class latency stream — digest included — as never offering
# that load at all.
echo "==> overload_sweep --smoke (protected p99 + breaker backoff bars)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin overload_sweep --offline -- --smoke

echo "==> hdidx serve: --simd scalar == --simd auto (latency digest identity)"
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --simd scalar | grep "latency digest" > target/bench-smoke/simd_scalar.txt
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --simd auto | grep "latency digest" > target/bench-smoke/simd_auto.txt
diff target/bench-smoke/simd_scalar.txt target/bench-smoke/simd_auto.txt

echo "==> hdidx serve: closed lanes == filtered stream (class digest identity)"
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --lanes knn:0,predict:0 | grep "class range" > target/bench-smoke/lanes.txt
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --only range | grep "class range" > target/bench-smoke/only.txt
diff target/bench-smoke/lanes.txt target/bench-smoke/only.txt

# Breaker chaos leg: the diskio breaker state machine under heavy fault
# pressure, two independent seeds so a pass never hinges on one fault
# pattern. The test asserts byte-identical transition trajectories at
# 1/2/8 threads and that gating bounds charged backoff vs a bare store.
for fault_seed in 5 11; do
  echo "==> breaker chaos (HDIDX_FAULT_SEED=${fault_seed})"
  HDIDX_FAULT_SEED="${fault_seed}" \
    cargo test -q --offline --release -p hdidx-diskio --test breaker_chaos
done

# Crash-sweep chaos leg: a power cut between EVERY pair of I/O ops the
# store issues (page-store histories and snapshot publishes), under all
# three durability modes, re-run under two independent injection seeds
# so a pass never hinges on one survival-roll pattern.
for crash_seed in 11 20250809; do
  echo "==> crash sweep (HDIDX_CRASH_SEED=${crash_seed}, all durability modes)"
  HDIDX_CRASH_SEED="${crash_seed}" \
    cargo test -q --offline -p hdidx-store --test crash_sweep
done

# File-backend smoke leg: the full persistence path through the CLI —
# build on the file-backed page store, publish + fsync a snapshot
# generation, reopen it and serve from the loaded tree. The store lives
# in a scratch tempdir that is removed on exit however the script ends.
echo "==> hdidx measure/serve --backend file (build -> fsync -> reopen -> serve)"
FILE_STORE_DIR="$(mktemp -d)"
trap 'rm -rf "${FILE_STORE_DIR}"' EXIT
cargo run -q --release -p hdidx-cli --offline -- measure \
  --data target/bench-smoke/t48.csv --m 200 --queries 10 --k 5 \
  --backend file --store "${FILE_STORE_DIR}" --durability per-batch
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --backend file --store "${FILE_STORE_DIR}" --durability every-8

# Scrub smoke leg: the offline scrubber over the store the previous leg
# left behind — once clean (exit 0), then after flipping a byte in the
# newest generation's superblock (the scrub must fall back to the
# retained previous generation, demote CURRENT, and exit 3 = degraded),
# then clean again (exit 0). Exit 2 (repaired) is pinned by the CLI unit
# tests; hard errors stay exit 1.
echo "==> hdidx scrub (exit codes: 0 clean, 3 degraded fallback, 0 clean)"
cargo run -q --release -p hdidx-cli --offline -- scrub --store "${FILE_STORE_DIR}"
printf '\xee' | dd of="${FILE_STORE_DIR}/index/gen-00000002/pages.db" \
  bs=1 seek=40 conv=notrunc status=none
scrub_code=0
cargo run -q --release -p hdidx-cli --offline -- scrub --store "${FILE_STORE_DIR}" \
  || scrub_code=$?
if [ "${scrub_code}" -ne 3 ]; then
  echo "scrub after superblock corruption must exit 3 (degraded), got ${scrub_code}"
  exit 1
fi
cargo run -q --release -p hdidx-cli --offline -- scrub --store "${FILE_STORE_DIR}"

echo "==> persist_roundtrip --smoke (charged vs wall clock per durability mode)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin persist_roundtrip --offline -- --smoke

echo "==> recovery_sweep --smoke (recovery + scrub throughput)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin recovery_sweep --offline -- --smoke

# End-to-end benchmark smoke leg: every workload of the e2e benchmark at
# half size, one round, all answer checks on. Among them, serve-mixed
# re-checks the seeks charged to each k-NN request against leaf counts
# from the scan's ball radii, so an index k-NN path that returned another
# radius would fail here. The run only reads e2ebench/; its build output
# goes to e2ebench/target.
echo "==> e2e --smoke (end-to-end benchmark, every workload, all checks)"
cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke

echo "CI green."

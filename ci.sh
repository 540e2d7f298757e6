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

echo "==> cargo doc --no-deps --offline --workspace (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

# The end-to-end benchmark (e2ebench/) is a workspace of its own, so the
# workspace legs above never reach it: format, lint and unit-test it here.
# Its build output goes to e2ebench/target.
echo "==> e2ebench: cargo fmt --check, clippy -D warnings"
cargo fmt --manifest-path e2ebench/Cargo.toml --all -- --check
cargo clippy -q --offline --manifest-path e2ebench/Cargo.toml -- -D warnings

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

# Two call sites still run on threads (the k-NN radius set-up's tree
# searches and serve's execution pass), and their results must not depend on the thread
# count, so the whole suite must pass both forced-serial and with the
# default pool.
echo "==> cargo test -q --offline --workspace (HDIDX_THREADS=1)"
HDIDX_THREADS=1 cargo test -q --offline --workspace

echo "==> cargo test -q --offline --workspace (default threads)"
cargo test -q --offline --workspace

# Fault injection is configured by CLI flags only. The faulted CLI runs
# (two point-fault seeds, one burst-heavy case with exponential retry)
# are a table-driven test inside the two legs above. The sweep asserts
# that retry pacing only charges time: per fault rate and predictor, the
# exponential row matches the fixed row in coverage, degraded units,
# retries and relative error, with at least as much backoff charged.
echo "==> fault_sweep --smoke (degradation-vs-accuracy experiment, pacing gate)"
cargo run -q --release -p hdidx-bench --bin fault_sweep --offline -- --smoke

# Paper-experiment legs. The whole suite runs in one process at a small
# scale, and each experiment run alone by name must print exactly its
# section of that run (the two-line completion trailer aside). Then the
# suite at the default quarter scale must print the committed
# experiments_output.txt byte for byte, so every number it quotes is
# regression-gated.
mkdir -p target/bench-smoke
echo "==> all_experiments --scale 0.05 --queries 50 (every paper experiment, smoke)"
cargo run -q --release -p hdidx-bench --bin all_experiments --offline -- \
  --scale 0.05 --queries 50 > target/bench-smoke/suite.txt
[ "$(grep -c '^################ ' target/bench-smoke/suite.txt)" -eq 15 ]
echo "==> all_experiments <name> --scale 0.05 --queries 50 == its section of the suite"
: > target/bench-smoke/suite_by_name.txt
for exp in $(grep -oE '^################ [a-z0-9_]+ ' target/bench-smoke/suite.txt | cut -d' ' -f2); do
  cargo run -q --release -p hdidx-bench --bin all_experiments --offline -- \
    "${exp}" --scale 0.05 --queries 50 | head -n -2 >> target/bench-smoke/suite_by_name.txt
done
head -n -2 target/bench-smoke/suite.txt | diff - target/bench-smoke/suite_by_name.txt

echo "==> all_experiments --scale 0.25 --queries 200 == experiments_output.txt"
cargo run -q --release -p hdidx-bench --bin all_experiments --offline -- \
  --scale 0.25 --queries 200 > target/bench-smoke/experiments_output.txt
diff experiments_output.txt target/bench-smoke/experiments_output.txt

echo "==> cargo bench --no-run --offline (bench targets must compile)"
cargo bench --no-run --offline

# Bench smoke legs. The kernels bench in soup_smoke mode runs one tiny
# shape and asserts — before any timing — that the AoS loop and, for
# every supported ISA, the single-query and batched SoA kernels return
# byte-identical counts. The parallel suite asserts that the k-NN radii
# and the serve report are identical at 1/2/4 threads before it times
# them. Both re-prove their identity contracts on every CI pass. Results
# go to a scratch dir so the committed BENCH_kernels.json and
# BENCH_parallel.json baselines are never clobbered by smoke-grade
# numbers.
echo "==> kernels bench soup_smoke (SoA/AoS count identity)"
mkdir -p target/bench-smoke
HDIDX_BENCH_SAMPLES=3 HDIDX_BENCH_WARMUP_MS=1 HDIDX_BENCH_TARGET_MS=0.05 \
  HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --offline -p hdidx-bench --bench kernels -- soup_smoke

echo "==> parallel bench (k-NN radius and serve identity at 1/2/4 threads)"
HDIDX_BENCH_SAMPLES=3 HDIDX_BENCH_WARMUP_MS=1 HDIDX_BENCH_TARGET_MS=0.05 \
  HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo bench -q --offline -p hdidx-bench --bench parallel

# SIMD dispatch-identity leg: the kernel tests must pass with the ISA
# pinned to the portable scalar path, to SSE2 and with auto-detection (the
# widest supported lanes) — same assertions, different dispatch. SSE2 is
# pinned on its own because on an AVX2 host `auto` never reaches the SSE2
# kernels, its `f32` filter among them. Serve smoke runs under scalar
# and auto (below) must produce byte-identical latency digests. A digest
# that moves with the lane width would mean the SIMD kernels are not
# bit-exact replays of the scalar arithmetic. The tree_soup suite
# holds the served leaf count through the directory to the flat count at
# every ISA. The vamsplit k-NN tests and the knn_tree suite run the
# best-first search on the dispatched ISA, so its in-place SIMD leaf path
# is checked bit for bit against the scan under both modes, and the
# soup_search suite holds the search through the directory's soups to the
# box-by-box search it replaced. The stats tests pin the tiled
# max-variance moments kernel to the scalar reference loops at every
# supported ISA. The soup_filter suite aims the counting kernels' `f32`
# filter at its error band (radii at a box's exact MINDIST² and its
# neighbours, underflowing and overflowing squares, NaN and infinite
# centres) and holds every count to the scalar decisions.
echo "==> simd dispatch identity (HDIDX_SIMD=scalar, sse2, auto)"
for simd_mode in scalar sse2 auto; do
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline -p hdidx-core \
    -- simd soup knn stats
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline -p hdidx-vamsplit -- knn
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test simd_dispatch
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test tree_soup
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test knn_tree
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test soup_search
  HDIDX_SIMD="${simd_mode}" cargo test -q --offline --test soup_filter
done

# Serving smoke legs: the open-loop serving subsystem end to end through
# the CLI — once clean, once under a chaos fault seed with exponential
# retry and one lane budget for every class (charged backoff inflates the
# shadow-priced queue delays, so the lanes must shed: the leg fails on a
# zero shed count) — plus the sweep binary. Sweep output goes to the
# scratch dir so the committed BENCH_serve.json baseline is never
# clobbered.
echo "==> hdidx serve --smoke (clean + chaos fault seed)"
cargo run -q --release -p hdidx-cli --offline -- generate \
  --dataset texture48 --scale 0.2 --out target/bench-smoke/t48.csv
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --fault-seed 3 --fault-ppm 300000 --retry-policy exponential \
  --fault-phase-scale build:0 --lanes 2 | tee target/bench-smoke/chaos_serve.txt
grep -qE "shed: [1-9]" target/bench-smoke/chaos_serve.txt

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

# The same digest identity through a deeper directory. The t48 CSV's
# index prunes only one level below the root; COLOR64 at a tenth has a
# height-4 index, so the served leaf count prunes at two directory levels.
# Checked clean and under the chaos leg's fault flags, with SSE2 pinned
# too (`auto` is AVX2 on an AVX2 host).
echo "==> hdidx serve on COLOR64: --simd scalar == sse2 == auto (clean + chaos)"
cargo run -q --release -p hdidx-cli --offline -- generate \
  --dataset color64 --scale 0.1 --out target/bench-smoke/c64.csv
c64_chaos="--fault-seed 3 --fault-ppm 300000 --retry-policy exponential \
--fault-phase-scale build:0 --lanes 2"
for flags in "" "${c64_chaos}"; do
  for simd_mode in scalar sse2 auto; do
    # shellcheck disable=SC2086
    cargo run -q --release -p hdidx-cli --offline -- serve \
      --data target/bench-smoke/c64.csv --m 200 --smoke --seed 5 ${flags} \
      --simd "${simd_mode}" | grep "digest" > "target/bench-smoke/c64_${simd_mode}.txt"
  done
  diff target/bench-smoke/c64_scalar.txt target/bench-smoke/c64_sse2.txt
  diff target/bench-smoke/c64_scalar.txt target/bench-smoke/c64_auto.txt
done

# The same identity one layer down: `predict` runs the resampled upper and
# lower bulk loads and `measure` the external build, every split choosing
# its dimension with the dispatched moments kernel, so their reports
# (pages, seeks, transfers, charged seconds) must not move with the ISA.
# Only the `simd:` provenance line may differ. Checked on the 48-d t48 CSV
# and on the 64-d COLOR64 one, whose external build at M = 200 runs more
# narrowing passes over the split key column and whose splits run the
# row-blocked moments over more row blocks and dimension tiles.
echo "==> hdidx predict/measure: --simd scalar == --simd auto (report identity)"
for csv in t48 c64; do
  for cmd in predict measure; do
    for simd_mode in scalar auto; do
      cargo run -q --release -p hdidx-cli --offline -- "${cmd}" \
        --data "target/bench-smoke/${csv}.csv" --m 200 --simd "${simd_mode}" \
        | grep -v "^simd:" > "target/bench-smoke/${csv}_${cmd}_${simd_mode}.txt"
    done
    diff "target/bench-smoke/${csv}_${cmd}_scalar.txt" \
      "target/bench-smoke/${csv}_${cmd}_auto.txt"
  done
done

echo "==> hdidx serve: closed lanes == filtered stream (class digest identity)"
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --lanes knn:0,predict:0 | grep "class range" > target/bench-smoke/lanes.txt
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --only range | grep "class range" > target/bench-smoke/only.txt
diff target/bench-smoke/lanes.txt target/bench-smoke/only.txt

# Zero-rate identity: a fault plan at rate 0 must reproduce the clean run.
# `compare` bills the basic and cutoff scans through the one replayed I/O
# path, and `serve` replays every disk-backed request through its
# per-request plan, so both reports must match the fault-free ones byte
# for byte once the fault provenance lines (if any) are dropped.
echo "==> hdidx compare/serve: --fault-ppm 0 == no faults (zero-rate identity)"
for cmd in compare serve; do
  extra=""
  if [ "${cmd}" = serve ]; then extra="--smoke --seed 5"; fi
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- "${cmd}" \
    --data target/bench-smoke/t48.csv --m 200 ${extra} \
    | grep -vE "^(fault degradation|injected faults):" \
    > "target/bench-smoke/${cmd}_clean.txt"
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- "${cmd}" \
    --data target/bench-smoke/t48.csv --m 200 ${extra} --fault-seed 3 --fault-ppm 0 \
    | grep -vE "^(fault degradation|injected faults):" \
    > "target/bench-smoke/${cmd}_zero_rate.txt"
  diff "target/bench-smoke/${cmd}_clean.txt" "target/bench-smoke/${cmd}_zero_rate.txt"
done

# Breaker chaos leg: the diskio breaker state machine driven around a
# heavily faulted simulated disk, two independent seeds so a pass never
# hinges on one fault pattern. The test asserts that the breaker trips,
# fails fast and recovers through half-open, that a replay reproduces the
# transition trajectory and fault trace byte for byte, and that gating
# bounds charged backoff vs a bare disk.
for fault_seed in 5 11; do
  echo "==> breaker chaos (HDIDX_FAULT_SEED=${fault_seed})"
  HDIDX_FAULT_SEED="${fault_seed}" \
    cargo test -q --offline --release -p hdidx-diskio --test breaker_chaos
done

# Crash-sweep chaos leg: a power cut between EVERY pair of I/O ops two
# snapshot publishes issue, re-run under two independent injection seeds
# so a pass never hinges on one survival-roll pattern.
for crash_seed in 11 20250809; do
  echo "==> crash sweep (HDIDX_CRASH_SEED=${crash_seed}, snapshot publishes)"
  HDIDX_CRASH_SEED="${crash_seed}" \
    cargo test -q --offline -p hdidx-store --test crash_sweep
done

# File-backend smoke leg: the full persistence path through the CLI —
# build on the simulated disk, publish + fsync a snapshot
# generation, reopen it and serve from the loaded tree. A generation is
# its page file and nothing else, so no write-ahead log may appear. The
# store lives in a scratch tempdir that is removed on exit however the
# script ends.
echo "==> hdidx measure/serve --backend file (build -> fsync -> reopen -> serve)"
FILE_STORE_DIR="$(mktemp -d)"
trap 'rm -rf "${FILE_STORE_DIR}"' EXIT
cargo run -q --release -p hdidx-cli --offline -- measure \
  --data target/bench-smoke/t48.csv --m 200 --queries 10 --k 5 \
  --backend file --store "${FILE_STORE_DIR}"
cargo run -q --release -p hdidx-cli --offline -- serve \
  --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 \
  --backend file --store "${FILE_STORE_DIR}"
if [ -n "$(find "${FILE_STORE_DIR}" -name wal.log)" ]; then
  echo "a snapshot store must not write wal.log"
  exit 1
fi

# Scrub smoke leg: the offline scrubber over the store the previous leg
# left behind — once clean (exit 0), then after flipping a byte in the
# newest generation's superblock (the scrub must fall back to the
# retained previous generation, demote CURRENT, and exit 3 = degraded),
# then clean again (exit 0). Hard errors (no committed generation loads)
# stay exit 1, which the CLI unit tests pin.
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

# Sim-vs-file serve identity: persisting the built tree, scrubbing it,
# reopening it and serving the loaded copy must answer exactly like
# serving the in-memory build, so the two reports match byte for byte
# once the file backend's own provenance lines are dropped. Checked once
# clean and once under the chaos fault seed with lanes and a breaker.
# The store is a fresh subdirectory of the previous legs' tempdir.
echo "==> hdidx serve: --backend sim == --backend file (persist/reopen identity)"
chaos_flags="--fault-seed 3 --fault-ppm 300000 --retry-policy exponential \
--fault-phase-scale build:0 --lanes 2 --breaker 4:0.5:1"
for flags in "" "${chaos_flags}"; do
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- serve \
    --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 ${flags} \
    --backend sim > target/bench-smoke/serve_sim.txt
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- serve \
    --data target/bench-smoke/t48.csv --m 200 --smoke --seed 5 ${flags} \
    --backend file --store "${FILE_STORE_DIR}/identity" \
    | grep -vE "^(backend|persist|scrub|reopen):" > target/bench-smoke/serve_file.txt
  diff target/bench-smoke/serve_sim.txt target/bench-smoke/serve_file.txt
done

# Sim-vs-file measure identity: both backends build and measure on the
# simulated disk that bills them, and the file backend then persists,
# scrubs and reopens the tree, so the reports match byte for byte once
# its provenance lines are dropped. Checked once clean and once with
# build-phase faults on; the build bill must keep its read/write intent
# counters.
echo "==> hdidx measure: --backend sim == --backend file (build bill identity)"
for flags in "" "--fault-seed 3 --fault-ppm 50000 --retry-policy exponential"; do
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- measure \
    --data target/bench-smoke/t48.csv --m 200 --queries 10 --k 5 ${flags} \
    --backend sim > target/bench-smoke/measure_sim.txt
  # shellcheck disable=SC2086
  cargo run -q --release -p hdidx-cli --offline -- measure \
    --data target/bench-smoke/t48.csv --m 200 --queries 10 --k 5 ${flags} \
    --backend file --store "${FILE_STORE_DIR}/measure-identity" \
    | grep -vE "^(backend|persist|scrub|reopen):" > target/bench-smoke/measure_file.txt
  diff target/bench-smoke/measure_sim.txt target/bench-smoke/measure_file.txt
  grep -qE "^build I/O: .* [1-9][0-9]*r/[1-9][0-9]*w pages$" target/bench-smoke/measure_sim.txt
done

echo "==> persist_roundtrip --smoke (charged vs wall clock)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin persist_roundtrip --offline -- --smoke

# The snapshot's shape and charged bill are a pure function of the build:
# the smoke row's page count, file size and charged seconds must equal
# the committed BENCH_persist.json row's. Only the wall columns may move.
echo "==> persist_roundtrip: charged columns == committed BENCH_persist.json"
for key in pages snapshot_bytes build_charged_s persist_charged_s reopen_charged_s; do
  want="$(grep -oE "\"${key}\":[^,}]*" BENCH_persist.json)"
  got="$(grep -oE "\"${key}\":[^,}]*" target/bench-smoke/BENCH_persist.json)"
  if [ -z "${want}" ] || [ "${want}" != "${got}" ]; then
    echo "persist_roundtrip ${key}: committed '${want}', smoke run '${got}'"
    exit 1
  fi
done

echo "==> recovery_sweep --smoke (scrub throughput)"
HDIDX_BENCH_OUT="$PWD/target/bench-smoke" \
  cargo run -q --release -p hdidx-bench --bin recovery_sweep --offline -- --smoke

echo "==> e2ebench: cargo test"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

# End-to-end benchmark smoke leg: every workload of the e2e benchmark at
# half size, one round, all answer checks on. Among them, serve-mixed
# re-checks the seeks charged to each k-NN request against leaf counts
# from the scan's ball radii, so an index k-NN path that returned another
# radius would fail here. The run only reads e2ebench/; its build output
# goes to e2ebench/target.
echo "==> e2e --smoke (end-to-end benchmark, every workload, all checks)"
cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke

echo "CI green."

#!/usr/bin/env bash
# Tier-1 verification: configure, build, run every test suite.
# Usage: ./ci.sh [--asan|--tsan|--tidy] [build-dir]
#        (default: build; build-asan with --asan, build-tsan with
#        --tsan, build-tidy with --tidy)
#   --asan: rebuild under Address + UndefinedBehavior sanitizers and run
#           the deterministic `unit` ctest label, the `crash` label (the
#           store's fork/_Exit crash-recovery matrix -- _Exit skips the
#           leak-check atexit hook, so the injected deaths are
#           ASan-clean), plus the `fuzz` label at reduced trial counts
#           (KAV_FUZZ_TRIALS / KAV_FUZZ_OPS) --
#           the mmap-backed store, the zero-copy BlockCursor/SIMD
#           decode, and the binary readers are exactly the code
#           sanitizers exist for, and the differential fuzzers are what
#           drive them through their adversarial paths. Both labels run
#           twice: with hardware SIMD dispatch and with
#           KAV_FORCE_SCALAR=1, so every tier is sanitized. Skips the
#           integration sweeps and the bench smoke (sanitized timings
#           are meaningless).
#   --tsan: rebuild under ThreadSanitizer (-DKAV_SANITIZE=thread) and
#           run the `unit` and `fuzz` labels at reduced trial counts.
#           This is the always-on observability layer's race check: the
#           sharded counter cells, gauge deltas, and tracer ring are
#           hammered from every pool worker, monitor drain task, and
#           background compaction pass the suites spin up. The `crash`
#           label is excluded -- its fork()-after-threads matrix is
#           undefined under TSan's runtime.
#   --tidy: the static-analysis gate. Three stages:
#             1. kav-lint (tools/kav_lint.py): repo invariants --
#                wire-format encoding discipline, no naked new, metric
#                name grammar, include guards, no raw std::mutex
#                outside the annotated wrappers. Needs only python3.
#             2. clang build with -DKAV_THREAD_SAFETY=ON and -Werror:
#                every util/thread_safety.h capability annotation
#                (GUARDED_BY/REQUIRES/EXCLUDES) becomes a compile-time
#                proof obligation.
#             3. clang-tidy (checked-in .clang-tidy: bugprone-*,
#                concurrency-*, performance-*, curated modernize-use-*)
#                over the compile_commands.json stage 2 exported.
#           Stages whose toolchain (clang / clang-tidy) is missing are
#           skipped LOUDLY but do not fail the run, so the gate
#           degrades to kav-lint on gcc-only boxes instead of lying.
set -euo pipefail
cd "$(dirname "$0")"

ASAN=0
TSAN=0
TIDY=0
if [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--tidy" ]]; then
  TIDY=1
  shift
fi

if [[ "$TIDY" == 1 ]]; then
  BUILD_DIR="${1:-build-tidy}"

  echo "== tidy stage 1/3: kav-lint =="
  if command -v python3 >/dev/null 2>&1; then
    python3 tools/kav_lint.py --self-test
    python3 tools/kav_lint.py
  else
    echo "!! SKIPPED: python3 not found -- kav-lint did NOT run" >&2
  fi

  if ! command -v clang++ >/dev/null 2>&1; then
    cat >&2 <<'EOF'
!! SKIPPED: clang++ not found -- the -Wthread-safety build and
!! clang-tidy did NOT run. The capability annotations in
!! util/thread_safety.h were NOT checked. Install clang + clang-tidy
!! and re-run ./ci.sh --tidy for the full gate.
EOF
    exit 0
  fi

  echo "== tidy stage 2/3: clang -Wthread-safety -Werror build =="
  cmake -B "$BUILD_DIR" -S . -DKAV_WERROR=ON -DKAV_THREAD_SAFETY=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" -L unit --output-on-failure -j "$(nproc)"

  echo "== tidy stage 3/3: clang-tidy =="
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$BUILD_DIR" "$(pwd)/src/.*" "$(pwd)/tests/.*"
  elif command -v clang-tidy >/dev/null 2>&1; then
    # No run-clang-tidy wrapper: drive clang-tidy directly, batched.
    find src tests -name '*.cpp' -print0 |
      xargs -0 -P "$(nproc)" -n 8 clang-tidy -quiet -p "$BUILD_DIR"
  else
    echo "!! SKIPPED: clang-tidy not found -- the .clang-tidy check" \
         "set did NOT run." >&2
  fi
  exit 0
fi

if [[ "$TSAN" == 1 ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DKAV_WERROR=ON -DKAV_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  # TSan multiplies runtime and memory like ASan does; trial volume
  # matters even less here -- what TSan needs is every lock-free path
  # exercised from genuinely concurrent threads, which the unit
  # hammers and the fuzz pipelines already guarantee.
  export KAV_FUZZ_TRIALS="${KAV_FUZZ_TRIALS:-5}"
  export KAV_FUZZ_OPS="${KAV_FUZZ_OPS:-50000}"
  ctest --test-dir "$BUILD_DIR" -L 'unit|fuzz' --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "$ASAN" == 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DKAV_WERROR=ON -DKAV_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  # Sanitized runs are ~10x slower: shrink the randomized sweeps to a
  # handful of trials and a small out-of-core workload. Coverage (which
  # code paths run) is what matters under sanitizers, not trial volume.
  export KAV_FUZZ_TRIALS="${KAV_FUZZ_TRIALS:-5}"
  export KAV_FUZZ_OPS="${KAV_FUZZ_OPS:-50000}"
  ctest --test-dir "$BUILD_DIR" -L 'unit|fuzz|crash' --output-on-failure -j "$(nproc)"
  KAV_FORCE_SCALAR=1 \
    ctest --test-dir "$BUILD_DIR" -L 'unit|fuzz|crash' --output-on-failure -j "$(nproc)"
  exit 0
fi

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DKAV_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
# Fast pre-pass: the seconds-scale unit suites fail first, before the
# fuzz and integration sweeps get a chance to burn minutes.
ctest --test-dir "$BUILD_DIR" -L unit --output-on-failure -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -LE unit --output-on-failure -j "$(nproc)"

# Perf smoke: quick bench data points (skipped when Google Benchmark
# was absent and the bench binaries were not built).
if [[ -x "$BUILD_DIR/bench_ingest" ]]; then
  bench/run_bench.sh --smoke "$BUILD_DIR"
fi

# Ledger self-check: bench/compare.py must parse every checked-in
# BENCH_*.json and find each one at HEAD (it prints ratios, gates
# nothing else).
if command -v python3 >/dev/null 2>&1 &&
   git rev-parse --verify -q HEAD >/dev/null 2>&1; then
  python3 bench/compare.py HEAD >/dev/null
else
  echo "!! SKIPPED: python3 or a git checkout missing --" \
       "bench/compare.py did NOT run" >&2
fi

# End-to-end benchmark smoke: every kavbench workload once, briefly.
# kavbench.py exits 1 when any workload's verdicts disagree with serial
# verify_k_atomicity, so the benchmark's correctness checks gate CI too.
if command -v python3 >/dev/null 2>&1; then
  python3 kavbench/kavbench.py run --smoke
else
  echo "!! SKIPPED: python3 not found -- the kavbench smoke did NOT run" >&2
fi

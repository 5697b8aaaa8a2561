#!/usr/bin/env bash
# Repo verification: the tier-1 test suite, a Release (-O3) build that
# must compile warning-clean where -Werror applies, plus an ASan/UBSan
# build of every target with the whole test suite run under it. Every
# layer holds Values, and a Value manages its own storage: a short
# string sits in its own 16 bytes, a long one in a heap buffer it owns
# and copies by hand. Numbers convert between int64 and double only
# where the conversion is exact; float-cast-overflow, which GCC's
# `undefined` group leaves out, checks that. It also builds the request
# benchmark (reqbench/, into build/reqbench-smoke) and runs its own
# smoke tests, so a change to the library API reqbench compiles against
# (PlanCache, PreparedQuery, QueryRecord, Optimizer) fails here rather
# than in a benchmark run.
#
# Not run here: scripts/kill_matrix.py, which plants 20 mutants (19
# soundness bugs, one sound change) in analysis/, rewrite/ and expr/ one
# at a time and checks that the suite kills every unsound one and spares
# the sound one (one full build and about 20 incremental ones, 8 to 12
# minutes on a 4-CPU machine). Run it after changing a rewrite gate, the
# analysis or the verifier. Its --dry-run, which builds nothing, does run
# here: an edit that moves a mutant's anchor fails the check instead of
# leaving the mutant silently stale.
#
# Optional modes:
#   --tsan        additionally build & run the concurrent obs tests and
#                 the plan-cache / advisor / time-series hammers
#                 (cache_test + concurrent_prepare_test + advisor_test +
#                 sentinel_test, whose hammer drives the plane's Tick()
#                 against an 8-thread PrepareBatch) under ThreadSanitizer,
#                 plus the shared-estimator hammers: cost_model_test
#                 (the formerly racy NDV cache under concurrent
#                 DistinctCount) and batch_exec_test (concurrent costed
#                 PrepareBatch + Execute, the differential tuple-vs-batch
#                 sweep), plus the DML plane hammers: dml_test and
#                 dml_oracle_test (8 threads of single-writer commits
#                 racing snapshot readers over the COW table versions),
#                 plus index_exec_test (the index operators, which
#                 borrow the lowering decisions a cached entry keeps;
#                 concurrent_prepare_test builds them from 8 threads
#                 while a writer commits)
#   --bench-gate  run the gated benchmarks with --metrics-json, compare
#                 against bench/baselines/*.json via
#                 scripts/bench_compare.py, and write the summary to
#                 build/bench-gate/summary.json, never over a checked-in
#                 BENCH_pr*.json record (copy it to BENCH_pr<N>.json to
#                 record a PR's run). The summary includes the
#                 plan-cache warm/cold p50 speedup, which
#                 must be >= 10x, the ticker-on vs ticker-off
#                 cold-prepare p50 ratio, which must stay <= 1.5x — live
#                 monitoring must not tax the prepare path — the
#                 equiv-prover-on vs prover-off cold-prepare p50 ratio,
#                 which must stay <= 1.3x: certifying every rewrite must
#                 remain a small tax — the batch-exec gate: batch p50
#                 >= 1.5x over tuple-at-a-time, via
#                 bench_compare.py --exec-scaling — and the index-exec
#                 gates: unique-index point lookup p50 >= 10x over the
#                 full scan and the build-free unique-index join no
#                 slower than the classic hash join, via
#                 bench_compare.py --index-exec
#   --equiv-sweep run only the symbolic-equivalence sweep: the random
#                 workload at the pinned seeds must yield zero
#                 EQUIV_REFUTED certificates and an UNPROVEN share under
#                 the pinned ceiling, plus the paper Examples 1-11 all
#                 EQUIV_PROVEN
#   --tidy        run only the clang-tidy gate (the default path runs it
#                 too; it skips with a warning when clang-tidy is not
#                 installed)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_TSAN=0
RUN_BENCH_GATE=0
TIDY_ONLY=0
EQUIV_SWEEP_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --bench-gate) RUN_BENCH_GATE=1 ;;
    --equiv-sweep) EQUIV_SWEEP_ONLY=1 ;;
    --tidy) TIDY_ONLY=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

# clang-tidy over every first-party translation unit, driven by the
# compilation database the build exports (CMAKE_EXPORT_COMPILE_COMMANDS).
# Containers without a clang-tidy binary skip the gate with a warning
# rather than failing — the -Werror verify module and the runtime plan
# verifier still run everywhere.
run_tidy() {
  echo "== clang-tidy: .clang-tidy checks via build/compile_commands.json =="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "warning: clang-tidy not found on PATH; skipping the tidy gate" >&2
    return 0
  fi
  cmake -B build -S . >/dev/null  # (re)generate compile_commands.json
  git ls-files 'src/*.cc' 'src/**/*.cc' | \
    xargs clang-tidy -p build --quiet
}

if [[ "$TIDY_ONLY" == 1 ]]; then
  run_tidy
  echo "== tidy gate done =="
  exit 0
fi

# The equivalence-prover sweep: refuting a production rewrite is a
# prover (or rewriter) soundness bug, so the sweep test hard-fails on
# any EQUIV_REFUTED certificate and pins the honest-UNPROVEN share.
run_equiv_sweep() {
  echo "== equiv sweep: zero refuted over the random workload, Examples 1-11 proven =="
  ./build/tests/equiv_test \
    --gtest_filter='*RandomSweep*:*PaperExample*' --gtest_brief=1
}

if [[ "$EQUIV_SWEEP_ONLY" == 1 ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j --target equiv_test
  run_equiv_sweep
  echo "== equiv sweep done =="
  exit 0
fi

echo "== kill matrix anchors: every mutant's patch applies =="
python3 scripts/kill_matrix.py --dry-run >/dev/null || {
  python3 scripts/kill_matrix.py --dry-run | grep -v ' applies ' >&2
  exit 1
}

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== release build: every target at -DCMAKE_BUILD_TYPE=Release =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j

echo "== plan verifier: differential sweep over the random workload =="
./build/tests/verify_test --gtest_filter='*VerifySweepTest*' \
  --gtest_brief=1

echo "== advisor smoke: sweep finds dropped key, full schema is quiet =="
./build/tests/advisor_test --gtest_filter='*SmokeSweep*' \
  --gtest_brief=1

echo "== sentinel smoke: injected slowdown alerts, quiet run stays silent =="
# Scripted shell sessions against the real plane + sentinel: six quiet
# windows of synthetic latency arm the series; a quiet run must raise 0
# alerts, and a 5x injected slowdown must raise at least one.
quiet_script=$'\\sentinel on\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\alerts\n\\q\n'
slow_script=$'\\sentinel on\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 1000 50\n\\tick\n\\inject smoke.op.ns 5000 50\n\\tick\n\\alerts\n\\q\n'
quiet_alerts=$(printf '%s' "$quiet_script" | ./build/examples/uniqopt_shell 2>/dev/null | grep -c "ALERT #" || true)
slow_alerts=$(printf '%s' "$slow_script" | ./build/examples/uniqopt_shell 2>/dev/null | grep -c "ALERT #" || true)
if [[ "$quiet_alerts" != 0 ]]; then
  echo "sentinel smoke FAILED: quiet run raised $quiet_alerts alert(s)" >&2
  exit 1
fi
if [[ "$slow_alerts" == 0 ]]; then
  echo "sentinel smoke FAILED: 5x slowdown raised no alert" >&2
  exit 1
fi
echo "sentinel smoke ok: quiet=0 alerts, 5x slowdown=${slow_alerts} alert(s)"

echo "== dml smoke: unique-violation rollback leaves the table byte-identical =="
# Two scripted shell sessions against the same seed database: one just
# dumps SUPPLIER, the other first runs an INSERT that collides with a
# committed primary key. The violating statement must report a
# ConstraintViolation and change nothing — after dropping that one error
# line the two transcripts must match byte for byte.
clean_dump=$(printf 'SELECT * FROM SUPPLIER;\n\\q\n' \
  | ./build/examples/uniqopt_shell 2>/dev/null)
violated_run=$(printf "INSERT INTO SUPPLIER VALUES (90, 'Dup', 'Chicago', 10.0, 'Active');\nSELECT * FROM SUPPLIER;\n\\q\n" \
  | ./build/examples/uniqopt_shell 2>/dev/null)
if ! grep -q 'error: ConstraintViolation: duplicate key' <<< "$violated_run"; then
  echo "dml smoke FAILED: duplicate insert did not raise ConstraintViolation" >&2
  exit 1
fi
violated_dump=$(grep -v 'error: ConstraintViolation' <<< "$violated_run")
if [[ "$clean_dump" != "$violated_dump" ]]; then
  echo "dml smoke FAILED: table changed after a rolled-back INSERT" >&2
  diff <(echo "$clean_dump") <(echo "$violated_dump") >&2 || true
  exit 1
fi
echo "dml smoke ok: duplicate-key INSERT rolled back, transcript byte-identical"
./build/tests/dml_test --gtest_filter='*RollsBack*' --gtest_brief=1

echo "== reqbench smoke: the request benchmark builds against the library and runs =="
CARGO_TARGET_DIR=build/reqbench-smoke python3 reqbench/test_reqbench.py

run_equiv_sweep

run_tidy

echo "== sanitizers: ASan/UBSan build of every target, the whole test suite =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all" \
  >/dev/null
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tsan: ThreadSanitizer build of concurrent obs tests =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    >/dev/null
  cmake --build build-tsan -j --target obs_test recorder_test \
    cache_test concurrent_prepare_test advisor_test \
    timeseries_test sentinel_test equiv_test cost_model_test \
    batch_exec_test dml_test dml_oracle_test index_exec_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/recorder_test
  ./build-tsan/tests/cache_test
  ./build-tsan/tests/concurrent_prepare_test
  ./build-tsan/tests/advisor_test
  ./build-tsan/tests/timeseries_test
  ./build-tsan/tests/sentinel_test
  ./build-tsan/tests/equiv_test
  ./build-tsan/tests/cost_model_test
  ./build-tsan/tests/batch_exec_test
  ./build-tsan/tests/dml_test
  ./build-tsan/tests/dml_oracle_test
  ./build-tsan/tests/index_exec_test
fi

if [[ "$RUN_BENCH_GATE" == 1 ]]; then
  echo "== bench gate: run benchmarks vs bench/baselines =="
  cmake --build build -j --target \
    bench_distinct_removal bench_ims_gateway bench_analyzer \
    bench_plan_cache bench_batch_exec bench_index_exec
  mkdir -p build/bench-gate
  gate_ok=1
  summaries=()
  for bench in bench_distinct_removal bench_ims_gateway bench_analyzer \
               bench_plan_cache bench_batch_exec bench_index_exec; do
    current="build/bench-gate/${bench}.json"
    summary="build/bench-gate/${bench}.summary.json"
    "./build/bench/${bench}" --benchmark_min_time=0.05 \
      --metrics-json="$current" >/dev/null
    if ! python3 scripts/bench_compare.py \
        --baseline "bench/baselines/${bench}.json" \
        --current "$current" \
        --summary "$summary"; then
      gate_ok=0
    fi
    summaries+=("$summary")
  done
  # Batch-path speedup over tuple-at-a-time: a ratio within one run, so
  # it gates on any machine speed.
  if ! python3 scripts/bench_compare.py --exec-scaling \
      --current build/bench-gate/bench_batch_exec.json \
      --summary build/bench-gate/exec_scaling.summary.json; then
    gate_ok=0
  fi
  # Index-exec invariants: the unique-index point probe must beat the
  # full scan by >= 10x, and dropping the join build phase must never be
  # slower than building. Ratios within one run, machine-independent.
  if ! python3 scripts/bench_compare.py --index-exec \
      --current build/bench-gate/bench_index_exec.json \
      --summary build/bench-gate/index_exec.summary.json; then
    gate_ok=0
  fi
  python3 - "${summaries[@]}" <<'EOF' > build/bench-gate/summary.json
import json, sys
benches = {}
ok = True
for path in sys.argv[1:]:
    with open(path) as f:
        s = json.load(f)
    name = path.rsplit("/", 1)[-1].removesuffix(".summary.json")
    benches[name] = s
    ok = ok and s["ok"]

# Plan-cache headline number: a warm hit must be >= 10x faster than a
# cold prepare (p50 over p50, from the bench's own histograms).
plan_cache = None
ticker = None
equiv = None
try:
    with open("build/bench-gate/bench_plan_cache.json") as f:
        metrics = {m["name"]: m for m in json.load(f)["metrics"]}
    cold = metrics["bench.plan_cache.cold.ns"]["p50"]
    warm = metrics["bench.plan_cache.warm.ns"]["p50"]
    speedup = cold / warm if warm else 0.0
    plan_cache = {
        "cold_p50_ns": cold,
        "warm_p50_ns": warm,
        "speedup": round(speedup, 2),
        "ok": speedup >= 10.0,
    }
    ok = ok and plan_cache["ok"]
    # Live monitoring must be near-free: cold prepare with the plane's
    # background ticker + sample feed on vs the ticker-off cold path.
    cold_ticker = metrics["bench.plan_cache.cold_ticker.ns"]["p50"]
    overhead = cold_ticker / cold if cold else 0.0
    ticker = {
        "cold_p50_ns": cold,
        "cold_ticker_p50_ns": cold_ticker,
        "overhead": round(overhead, 3),
        "ok": overhead <= 1.5,
    }
    ok = ok and ticker["ok"]
    # Certifying every rewrite with the symbolic equivalence prover must
    # stay a small tax on the cold prepare path.
    cold_equiv = metrics["bench.plan_cache.cold_equiv.ns"]["p50"]
    equiv_overhead = cold_equiv / cold if cold else 0.0
    equiv = {
        "cold_p50_ns": cold,
        "cold_equiv_p50_ns": cold_equiv,
        "overhead": round(equiv_overhead, 3),
        "ok": equiv_overhead <= 1.3,
    }
    ok = ok and equiv["ok"]
except (OSError, KeyError) as e:
    plan_cache = plan_cache or {"ok": False, "error": str(e)}
    ticker = ticker or {"ok": False, "error": str(e)}
    equiv = equiv or {"ok": False, "error": str(e)}
    ok = False

# Batch execution: batch >= 1.5x over the tuple-at-a-time p50, as
# judged by bench_compare.py --exec-scaling on the same metrics dump.
try:
    with open("build/bench-gate/exec_scaling.summary.json") as f:
        s = json.load(f)
    exec_scaling = {
        "speedups_vs_serial": s["exec_scaling"]["speedups_vs_serial"],
        "batch_speedup_floor": s["exec_scaling"]["batch_speedup_floor"],
        "regressions": s["regressions"],
        "ok": s["ok"],
    }
    ok = ok and exec_scaling["ok"]
except (OSError, KeyError) as e:
    exec_scaling = {"ok": False, "error": str(e)}
    ok = False

# Index-backed execution: point probe >= 10x over the full scan and the
# build-free unique-index join no slower than the classic hash join, as
# judged by bench_compare.py --index-exec on the same metrics dump.
try:
    with open("build/bench-gate/index_exec.summary.json") as f:
        s = json.load(f)
    index_exec = {
        "speedups_vs_scan": s["index_exec"]["speedups_vs_scan"],
        "index_lookup_speedup_floor":
            s["index_exec"]["index_lookup_speedup_floor"],
        "index_join_speedup_floor":
            s["index_exec"]["index_join_speedup_floor"],
        "regressions": s["regressions"],
        "ok": s["ok"],
    }
    ok = ok and index_exec["ok"]
except (OSError, KeyError) as e:
    index_exec = {"ok": False, "error": str(e)}
    ok = False

json.dump({"gate": "bench_compare", "ok": ok, "benches": benches,
           "plan_cache": plan_cache, "timeseries_ticker": ticker,
           "equiv_prover": equiv, "exec_scaling": exec_scaling,
           "index_exec": index_exec},
          sys.stdout, indent=2)
sys.stdout.write("\n")
EOF
  echo "bench gate summary written to build/bench-gate/summary.json"
  if ! python3 -c "import json,sys; sys.exit(0 if json.load(open('build/bench-gate/summary.json'))['ok'] else 1)"; then
    gate_ok=0
  fi
  if [[ "$gate_ok" != 1 ]]; then
    echo "== bench gate FAILED =="
    exit 1
  fi
fi

echo "== all checks passed =="

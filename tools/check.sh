#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes over the concurrency-sensitive tests.
#
#   tools/check.sh                    # full check (all stages)
#   tools/check.sh --fast             # tier-1 only (skip the sanitizer builds)
#   tools/check.sh --stage tsan       # one stage; repeatable for several
#   tools/check.sh --incremental      # reuse configured build dirs as-is
#
# Stages (each maps to one CI matrix entry in .github/workflows/ci.yml):
#
#   tier1    release build + full ctest suite, including the trace_check /
#            trace_check_workload fixtures (tracing pipeline end-to-end)
#            and serve_workload_check (concurrent server vs serialized
#            baseline: throughput, dedup savings, attribution invariant).
#   warn     release build with -Wall -Wextra -Werror (TASTI_WERROR=ON);
#            compile-only — the tier1 stage already runs the suite. CI
#            runs this on both gcc and clang.
#   sanitize ASan + UBSan build of the tests closest to the raw-pointer
#            kernel code, the observability and durability tests, the
#            core/propagation suites that drive cracks (RelaxTopK writing
#            raw top-k arrays from pool workers) and epoch deltas through
#            the index, and the labeler suite with the label-codec cases.
#            The byte decoders (label codec, index, WAL) are fed corrupt
#            and mutated inputs here.
#   chaos    ASan + UBSan build + the `chaos` ctest label: degraded
#            builds, bit-identity under transient faults, breaker/retry
#            behavior, integrity-footer corruption checks.
#   tsan     ThreadSanitizer build of the tests whose value is concurrent
#            correctness: the serving layer (epoch snapshots, cross-query
#            oracle batching), obs counters/spans, the thread pool, the
#            retry/breaker state machine, and the kernel/cluster suites
#            (each pool worker writes one record chunk's min-k rows across
#            all rep tiles in RelaxTopK, and FPF reduces per worker).
#   monitor  live-telemetry smoke: `tasti_cli monitor` under a concurrent
#            workload with a breach-everything SLO, then asserts the
#            Prometheus exposition carries the expected metric families
#            and the flight-recorder dump passes validate_trace --flight.
#   overload degraded-mode gate: ctest -L overload (deadline tokens, the
#            CoDel shedder, brownout, degraded scatter-gather merges),
#            then a serve-workload run with tight virtual deadlines, one
#            worker, and admission control that must shed load
#            (--require-shed) with zero deadline overruns.
#   crash    deterministic crash injection: `crash_loop` runs a durable
#            serve workload once as a control, then re-runs it crashing
#            the filesystem at every mutating op N, recovering each time
#            and asserting the recovered index is bit-identical to a
#            committed control epoch (plus idempotent double recovery and
#            the attribution invariant). Also runs ctest -L durable.
#
# CHECK_FULL=1 widens the crash grid to every mutating op (--stride 1);
# the default strides the grid (every 3rd op) to keep PR runs fast. The
# nightly CI job exports CHECK_FULL=1 and runs all stages.
#
# --incremental skips the configure step for any build directory that
# already has a CMakeCache.txt, so repeated local runs (and CI runs with a
# restored build cache) only pay for compilation of what changed.
#
# tools/check_targets.py (run in the tier1 stage and the CI lint job)
# asserts every tests/*_test.cc is registered in tests/CMakeLists.txt and
# every test binary this script names actually exists, so new tests cannot
# be silently forgotten from the suite or from the sanitizer stages.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,59p' "$0" | sed 's/^# \{0,1\}//'
}

STAGES=()
INCREMENTAL=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) STAGES=(tier1); shift ;;
    --stage) [[ $# -ge 2 ]] || { echo "error: --stage needs an argument" >&2; exit 2; }
             STAGES+=("$2"); shift 2 ;;
    --stage=*) STAGES+=("${1#--stage=}"); shift ;;
    --incremental) INCREMENTAL=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "error: unknown argument '$1' (try --help)" >&2; exit 2 ;;
  esac
done
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(tier1 warn sanitize chaos tsan monitor overload crash)
fi
for stage in "${STAGES[@]}"; do
  case "$stage" in
    tier1|warn|sanitize|chaos|tsan|monitor|overload|crash) ;;
    *) echo "error: unknown stage '$stage'" \
            "(tier1|warn|sanitize|chaos|tsan|monitor|overload|crash)" >&2
       exit 2 ;;
  esac
done

# configure <build-dir> <cmake-args...>: configure unless --incremental
# finds the directory already configured *and* current — a cache older
# than any CMakeLists.txt would leave new targets unbuildable ("No rule
# to make target"), so staleness forces a (cheap, warm-cache) reconfigure.
configure() {
  local dir="$1"; shift
  if [[ "$INCREMENTAL" == 1 && -f "$dir/CMakeCache.txt" ]] && \
     [[ -z "$(find . \( -path './build*' -o -path './.git' \) -prune -o \
              \( -name 'CMakeLists.txt' -o -name 'CMakePresets.json' \) \
              -newer "$dir/CMakeCache.txt" -print -quit)" ]]; then
    echo "-- incremental: reusing configured $dir"
  else
    cmake "$@" >/dev/null
  fi
}

# require_sanitizer <flag> <stage>: fail fast with a clear message when the
# compiler cannot link -fsanitize=<flag>, instead of a wall of cryptic
# errors halfway through the build.
require_sanitizer() {
  local flag="$1" stage="$2" cxx="${CXX:-c++}"
  if ! echo 'int main(){return 0;}' \
      | "$cxx" -x c++ "-fsanitize=$flag" -o /dev/null - >/dev/null 2>&1; then
    echo "error: $cxx cannot build with -fsanitize=$flag, required by the" \
         "'$stage' stage." >&2
    echo "hint: use a gcc/clang with $flag sanitizer support (set CXX), or" \
         "run only the stages this compiler supports: tools/check.sh" \
         "--stage tier1" >&2
    exit 1
  fi
}

stage_tier1() {
  echo "== tier-1: release build + full test suite (incl. trace_check) =="
  python3 tools/check_targets.py
  configure build -B build -S .
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j "$(nproc)")
}

stage_warn() {
  echo "== warn: -Wall -Wextra -Werror build (compile-only) =="
  configure build-warn --preset warn
  cmake --build build-warn -j "$(nproc)"
}

stage_sanitize() {
  echo "== sanitize: ASan/UBSan build of kernel + cluster + obs + durable + core + propagation + labeler tests =="
  require_sanitizer address sanitize
  configure build-sanitize --preset sanitize
  cmake --build build-sanitize -j "$(nproc)" \
    --target kernels_test cluster_test nn_test util_test obs_test \
    durable_test core_test propagation_test labeler_test
  for t in kernels_test cluster_test nn_test util_test obs_test \
           durable_test core_test propagation_test labeler_test; do
    echo "-- build-sanitize/tests/$t"
    "build-sanitize/tests/$t"
  done
}

stage_chaos() {
  echo "== chaos: ASan/UBSan build + fault-injection suite (ctest -L chaos) =="
  require_sanitizer address chaos
  configure build-chaos --preset chaos
  cmake --build build-chaos -j "$(nproc)" --target faults_test
  (cd build-chaos && ctest -L chaos --no-tests=error --output-on-failure \
    -j "$(nproc)")
}

stage_tsan() {
  echo "== tsan: ThreadSanitizer build of concurrency tests =="
  require_sanitizer thread tsan
  configure build-tsan --preset tsan
  cmake --build build-tsan -j "$(nproc)" \
    --target obs_test util_test serve_test faults_test shard_test \
             kernels_test cluster_test
  for t in obs_test util_test serve_test kernels_test cluster_test; do
    echo "-- build-tsan/tests/$t"
    "build-tsan/tests/$t"
  done
  echo "-- build-tsan/tests/faults_test (retry/breaker state machine)"
  "build-tsan/tests/faults_test" \
    --gtest_filter='ResilientLabelerTest.*:FaultInjectorTest.*'
  echo "-- build-tsan/tests/shard_test (concurrent scatter-gather)"
  "build-tsan/tests/shard_test" \
    --gtest_filter='ShardedServerConcurrencyTest.*:PartitionerTest.*:MergeTest.*'
}

stage_monitor() {
  echo "== monitor: live-telemetry smoke (exposition + flight dump) =="
  configure build -B build -S .
  cmake --build build -j "$(nproc)" --target tasti_cli validate_trace
  local out=build/tools/check_monitor.prom
  local flight=build/tools/check_monitor_flight
  rm -f "$out" "$flight"-*.json
  # --slo-latency-ms 0.001 makes every query breach the latency objective,
  # so the run deterministically raises an alert and cuts a flight dump.
  build/tools/tasti_cli monitor --dataset night-street --records 3000 \
    --train 150 --reps 200 --clients 4 --rounds 2 --budget 60 \
    --oracle-latency-ms 1 --slo-latency-ms 0.001 --slo-min-events 3 \
    --frame-ms 0 --require-alert --out "$out" --flight-dump "$flight"
  python3 - "$out" <<'PYEOF'
import sys

path = sys.argv[1]
text = open(path).read()
families = {
    "tasti_query_latency_ms",
    "tasti_slo_burn_rate",
    "tasti_score_cache_hit_ratio",
    "tasti_index_degraded_reps",
}
missing = sorted(f for f in families if f"\n{f}" not in text and not text.startswith(f))
if missing:
    sys.exit(f"monitor exposition {path} is missing families: {missing}")
# Every non-comment line must parse as `name{labels} value` or `name value`.
import re
line_re = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [-+0-9.eEinfa]+$")
for line in text.splitlines():
    if not line or line.startswith("#"):
        continue
    if not line_re.match(line):
        sys.exit(f"unparseable exposition line: {line!r}")
print(f"monitor exposition OK ({sum(1 for l in text.splitlines() if l and not l.startswith('#'))} samples)")
PYEOF
  echo "-- validate_trace --flight $flight-1.json"
  build/tools/validate_trace "$flight"-1.json --flight --max-events=40000
}

stage_overload() {
  echo "== overload: degraded-mode suite + shed/deadline workload gate =="
  configure build -B build -S .
  cmake --build build -j "$(nproc)" --target overload_test tasti_cli
  (cd build && ctest -L overload --no-tests=error --output-on-failure \
    -j "$(nproc)")
  # One worker + tight virtual deadlines + admission control: the run
  # must shed load (--require-shed) and no query may spend past its
  # deadline budget plus one per-call charge (--max-deadline-overruns 0).
  # Virtual time keeps the degraded answers deterministic; --skip-serial
  # drops the serialized throughput baseline this gate does not need.
  build/tools/tasti_cli serve-workload --dataset night-street \
    --records 3000 --train 150 --reps 150 --clients 8 \
    --queries-per-client 6 --oracle-latency-ms 2 --workers 1 \
    --skip-serial --shed --shed-target-ms 1 --priority-mix \
    --deadline-ms 25 --virtual-ms-per-call 1 \
    --require-shed --max-deadline-overruns 0
}

stage_crash() {
  echo "== crash: durable tests + deterministic crash-injection grid =="
  configure build -B build -S .
  cmake --build build -j "$(nproc)" --target durable_test crash_loop
  (cd build && ctest -L durable --no-tests=error --output-on-failure \
    -j "$(nproc)")
  # The grid crashes the filesystem at mutating ops of a durable serve
  # workload (build -> serve -> crack -> append -> drain) and requires
  # every recovery to land bit-identical on a committed control epoch.
  # Seeded, so failures reproduce exactly. PR runs stride the grid;
  # CHECK_FULL=1 (nightly) crashes at every op.
  local stride=3
  if [[ "${CHECK_FULL:-0}" == 1 ]]; then stride=1; fi
  echo "-- crash grid stride $stride (CHECK_FULL=${CHECK_FULL:-0})"
  rm -rf build/tools/check_crash_runs
  build/tools/crash_loop --records 600 --reps 50 --queries 6 \
    --stride "$stride" --seed 33 --dir build/tools/check_crash_runs
}

for stage in "${STAGES[@]}"; do
  "stage_$stage"
done
echo "== all requested stages passed: ${STAGES[*]} =="

#!/usr/bin/env sh
# CI driver: the plain tier-1 build plus a hardened build with IR invariant
# validation and sanitizers, running the full test suite under each.
#
#   tools/ci.sh [build-dir-prefix]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-"$root/build-ci"}

# Sanitized legs: make every UBSan finding fatal-with-stack and honor the
# committed suppression file (tools/sanitize.supp — empty by policy, see
# its header).  Harmless on unsanitized legs.
UBSAN_OPTIONS="suppressions=$root/tools/sanitize.supp:print_stacktrace=1"
export UBSAN_OPTIONS

run_matrix() {
  dir=$1
  shift
  echo "=== configure: $dir ($*)"
  cmake -B "$dir" -S "$root" "$@"
  echo "=== build: $dir"
  cmake --build "$dir" -j
  echo "=== test: $dir"
  ctest --test-dir "$dir" --output-on-failure -j
  abort_free_leg "$dir"
  differential_leg "$dir"
  server_leg "$dir"
  bench_leg "$dir"
  trace_leg "$dir"
  perfbench_leg "$dir"
}

# Server leg: omegad end to end in every configuration (so the wire
# protocol, admission control, and drain paths face the sanitizers).
# Frame-level malformed-input coverage lives in ServerTest, which the
# ctest pass above already ran under this leg's instrumentation; here the
# real daemon is driven through the real client:
#   1. the example corpus over 4 concurrent connections with --check
#      (every response recomputed in-process via countBatch and compared)
#      and cross-connection answers required bit-identical;
#   2. the same against an uncached daemon (--cache 0), whose sessions
#      take the uncached feasibility and projection paths;
#   3. a soft-limit-0 daemon sheds every query to the budgeted bounds
#      path, which must still answer (exit 0) and count the sheds;
#   4. every daemon must drain and exit 0 on SIGTERM.
server_leg() {
  dir=$1
  echo "=== server: $dir"
  sock="$dir/omegad-ci.sock"
  list="$dir/omegad-ci.batch"
  ls "$root"/examples/formulas/*.presburger > "$list"

  start_omegad "$dir" "$sock" --max-inflight 8
  "$dir/tools/omegaclient" --socket "$sock" --ping >/dev/null
  "$dir/tools/omegaclient" --socket "$sock" --batch "$list" --check \
    --connections 4 >/dev/null
  "$dir/tools/omegaclient" --socket "$sock" --stats \
    | grep -q '"schema": 7' || {
      echo "server: stats reply missing pipeline schema" >&2; exit 1; }
  drain_omegad omegad

  start_omegad "$dir" "$sock" --cache 0
  "$dir/tools/omegaclient" --socket "$sock" --batch "$list" --check \
    --connections 4 >/dev/null
  drain_omegad "uncached omegad"

  start_omegad "$dir" "$sock" --max-inflight 0 --hard-limit 8
  "$dir/tools/omegaclient" --socket "$sock" --batch "$list" >/dev/null
  "$dir/tools/omegaclient" --socket "$sock" --stats \
    | grep -q '"shed":[1-9]' || {
      echo "server: soft-limit-0 daemon shed nothing" >&2; exit 1; }
  drain_omegad "shed-mode omegad"
  echo "=== server: $dir clean"
}

# start_omegad DIR SOCKET [omegad flags...]: starts the daemon in the
# background (its pid in $pid) and waits up to 10 s for its socket.
start_omegad() {
  sdir=$1
  ssock=$2
  shift 2
  "$sdir/tools/omegad" --socket "$ssock" "$@" &
  pid=$!
  i=0
  while [ ! -S "$ssock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
}

# drain_omegad LABEL: SIGTERMs the daemon in $pid; it must exit 0.
drain_omegad() {
  kill -TERM "$pid"
  code=0; wait "$pid" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "server: $1 exited $code on SIGTERM (want 0)" >&2
    exit 1
  fi
}

# Differential leg: the cross-backend fuzz harness (DESIGN.md §14) run
# explicitly in every configuration — so the automaton and enumerate
# backends face the sanitizers too — with its skip accounting printed.
# 600 generated formulas; any count disagreement, silent skip, or
# non-refusal error fails the binary.
differential_leg() {
  dir=$1
  echo "=== differential: $dir"
  log="$dir/cross-backend.log"
  if ! "$dir/tests/fuzz_differential_test" --gtest_filter='*CrossBackend*' \
      >"$log" 2>&1; then
    cat "$log" >&2
    echo "differential: cross-backend harness failed" >&2
    exit 1
  fi
  grep "cross-backend" "$log"
  echo "=== differential: $dir clean"
}

# Bench leg: quick runs of the benchmark gates.  Each binary enforces its
# own correctness claims (identical answers across configurations for
# bench_pipeline; differential + golden checksums, zero allocations, and
# zero spills for bench_arith and bench_ir) and exits nonzero on violation.  When python3
# is available the emitted JSON is additionally parsed and its headline
# fields checked; on the unsanitized default leg the small-value fast path
# must beat the spilled limb path by >= 5x geomean (sanitizer
# instrumentation distorts relative timings, so other legs skip the bar).
bench_leg() {
  dir=$1
  echo "=== bench: $dir"
  "$dir/bench/bench_arith" --quick --out "$dir/BENCH_arith.json" \
    | grep -q "bench_arith: ok"
  "$dir/bench/bench_pipeline" --quick --out "$dir/BENCH_pipeline.json" \
    | grep -q "bench_pipeline: ok"
  "$dir/bench/bench_backend" --quick --out "$dir/BENCH_backend.json" \
    2>&1 | grep -q "bench_backend: ok"
  "$dir/bench/bench_ir" --quick --out "$dir/BENCH_ir.json" \
    | grep -q "bench_ir: ok"
  "$dir/bench/bench_server" --quick --out "$dir/BENCH_server.json" \
    | grep -q "bench_server: ok"
  if command -v python3 >/dev/null 2>&1; then
    strict=0
    case $dir in *-default) strict=1 ;; esac
    python3 - "$dir/BENCH_arith.json" "$dir/BENCH_pipeline.json" \
        "$strict" "$dir/BENCH_backend.json" "$root/BENCH_pipeline.json" \
        "$dir/BENCH_ir.json" "$root/BENCH_ir.json" \
        "$dir/BENCH_server.json" "$root/BENCH_server.json" \
        <<'PYEOF'
import json, sys
arith = json.load(open(sys.argv[1]))
pipe = json.load(open(sys.argv[2]))
strict = sys.argv[3] == "1"
backend = json.load(open(sys.argv[4]))
assert arith["checks_passed"], "bench_arith self-checks failed"
assert arith["small_allocations_total"] == 0, "small path allocated"
assert arith["small_spills_total"] == 0, "small path spilled"
assert all(s["checksum_ok"] for s in arith["sections"])
assert pipe["schema"] == 6, "bench_pipeline JSON schema drifted"
assert pipe["answers_identical"], "bench_pipeline answers diverged"
assert len(pipe["configs"]) == 3
assert all(c["stats"]["schema"] == 7 for c in pipe["configs"])
# Coalesce gates (quick run, deterministic counters): the indexed worklist
# must beat the committed pre-index baseline by the ISSUE's bars on the
# full-scale bench; on the quick bench the counters are deterministic, so
# assert the pair-pruning outcome directly: most candidate pairs must die
# in the prefilter, never reaching an Omega feasibility call.
serial = next(c["stats"] for c in pipe["configs"]
              if c["name"] == "serial-nocache")
pairs = serial["coalesce_pairs"] + serial["coalesce_prefiltered"]
assert pairs > 0, "coalesce saw no candidate pairs"
assert serial["coalesce_prefiltered"] >= serial["coalesce_pairs"], \
    f"prefilter rejected {serial['coalesce_prefiltered']}/{pairs} pairs " \
    "(want a majority; the clause index is not pruning)"
# The committed full-scale BENCH_pipeline.json must clear the ISSUE's
# bars against the pre-index baseline recorded inside it: >= 3x less
# coalesce wall time, >= 5x fewer feasibility tests, identical answers.
full = json.load(open(sys.argv[5]))
assert full["schema"] == 5 and full["answers_identical"]
base = full["baseline"]
fserial = next(c["stats"] for c in full["configs"]
               if c["name"] == "serial-nocache")
feas_ratio = base["feasibility_tests"] / fserial["feasibility_tests"]
assert feas_ratio >= 5.0, \
    f"committed bench: only {feas_ratio:.1f}x fewer feasibility tests " \
    "than the pre-index baseline (want >= 5x)"
ms_ratio = base["coalesce_ms"] / fserial["coalesce_ms"]
assert ms_ratio >= 3.0, \
    f"committed bench: coalesce {fserial['coalesce_ms']:.1f}ms vs baseline " \
    f"{base['coalesce_ms']:.1f}ms, only {ms_ratio:.1f}x (want >= 3x)"
assert backend["schema"] == 3, "bench_backend JSON schema drifted"
assert backend["answers_identical"], "bench_backend counts diverged"
assert len(backend["cases"]) >= 5, "dense-finite corpus shrank"
# IR gates: the flat-term correctness and allocation claims hold on every
# leg (the differential checksums are timing-independent and the inline
# path allocates nothing regardless of instrumentation); the 3x speedup
# bar, like arith's, only means something uninstrumented.
ir = json.load(open(sys.argv[6]))
assert ir["checks_passed"], "bench_ir self-checks failed"
assert ir["flat_allocations_total"] == 0, "flat inline path allocated"
assert ir["flat_term_spills"] == 0, "flat inline path spilled terms"
assert all(s["checksum_ok"] for s in ir["sections"])
# The committed full-scale BENCH_ir.json must clear the ISSUE bar: >= 3x
# aggregate over the string-keyed map model, allocation- and spill-free.
full_ir = json.load(open(sys.argv[7]))
assert full_ir["checks_passed"], "committed BENCH_ir.json self-checks failed"
assert full_ir["flat_allocations_total"] == 0
assert full_ir["flat_term_spills"] == 0
assert full_ir["aggregate_speedup"] >= 3.0, \
    f"committed bench: flat terms only {full_ir['aggregate_speedup']:.2f}x " \
    "vs the map model (want >= 3x)"
# Server gates: the quick run must stay answer-identical across its
# cold/warm passes and connection layouts on every leg; the committed
# full-scale BENCH_server.json must show the persistent cross-query cache
# earning its keep — warm-cache throughput >= 1.5x cold at every measured
# connection count (the ISSUE's bar for running a daemon at all).
srv = json.load(open(sys.argv[8]))
assert srv["schema"] == 1, "bench_server JSON schema drifted"
assert srv["answers_identical"], "bench_server answers diverged"
full_srv = json.load(open(sys.argv[9]))
assert full_srv["schema"] == 1 and full_srv["answers_identical"]
assert full_srv["warm_speedup_min"] >= 1.5, \
    f"committed bench: warm cache only {full_srv['warm_speedup_min']:.2f}x " \
    "vs cold (want >= 1.5x at every connection count)"
if strict:
    assert arith["speedup_geomean"] >= 5.0, \
        f"fast path only {arith['speedup_geomean']:.2f}x vs spilled (want >= 5x)"
    assert backend["speedup"] >= 2.0, \
        f"automaton only {backend['speedup']:.2f}x vs pugh (want >= 2x)"
    assert ir["aggregate_speedup"] >= 3.0, \
        f"flat terms only {ir['aggregate_speedup']:.2f}x vs map (want >= 3x)"
print("bench json: ok (arith x%.1f, automaton x%.1f, ir x%.1f, "
      "server warm x%.1f)"
      % (arith["speedup_geomean"], backend["speedup"],
         ir["aggregate_speedup"], full_srv["warm_speedup_min"]))
PYEOF
  else
    echo "bench json: python3 unavailable, JSON checks skipped"
  fi
  echo "=== bench: $dir clean"
}

# Abort-free leg: every malformed input must exit 1 with a diagnostic and
# every budget-starved query must exit 0 with certified bounds — an abort
# (signal exit, code >= 128) fails the leg.  Runs inside each sanitizer
# configuration so the degraded paths are exercised hardened too.
abort_free_leg() {
  dir=$1
  echo "=== abort-free: $dir"
  count="$dir/tools/omegacount"
  lint="$dir/tools/omegalint"
  for bad in "$root"/tests/corpus/bad/*.presburger; do
    code=0
    "$count" --budget=bits=64 --file "$bad" >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 1 ]; then
      echo "abort-free: $bad: omegacount exited $code (want 1)" >&2
      exit 1
    fi
    # overflow_literal is only malformed under a budget's bits= knob;
    # omegalint takes no budget, so it legitimately accepts that one.
    case $bad in *overflow_literal*) continue ;; esac
    code=0
    "$lint" --no-enumerate "$bad" >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 1 ]; then
      echo "abort-free: $bad: omegalint exited $code (want 1)" >&2
      exit 1
    fi
  done
  # Tiny budget forced to exhaust over the example formulas: degraded
  # answers are still answers, so the exit code must be 0.
  for ex in "$root"/examples/formulas/*.presburger; do
    code=0
    "$count" --file "$ex" --budget=clauses=1,depth=1 >/dev/null 2>&1 \
      || code=$?
    if [ "$code" -ne 0 ]; then
      echo "abort-free: $ex: budget-starved omegacount exited $code" \
           "(want 0)" >&2
      exit 1
    fi
  done
  echo "=== abort-free: $dir clean"
}

# Trace leg (default configuration only): every example formula run with
# --trace must emit Chrome JSON that python3 json.load()s with resolvable
# parent links, the text summary must list all nine pipeline phases, and
# the *disabled*-tracing pipeline must stay within 1% of the committed
# BENCH_pipeline.json baseline — the instrumentation's one-branch cost
# model (DESIGN.md §12).  Wall clock is noisy even best-of-reps, so the
# overhead gate retries a few times and passes on the first clean run.
trace_leg() {
  dir=$1
  case $dir in *-default) ;; *) return 0 ;; esac
  echo "=== trace: $dir"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "trace: python3 unavailable, leg skipped"
    return 0
  fi
  count="$dir/tools/omegacount"
  out="$dir/trace-ci"
  mkdir -p "$out"
  for ex in "$root"/examples/formulas/*.presburger; do
    name=$(basename "$ex" .presburger)
    "$count" --file "$ex" --trace-summary --trace "$out/$name.trace.json" \
      >/dev/null 2>"$out/$name.summary.txt"
  done
  for phase in simplify toDNF crossConjoin projectVars splinter \
               makeDisjoint coalesce summation snfReparam; do
    if ! grep -q "$phase" "$out/figure1.summary.txt"; then
      echo "trace: phase $phase missing from summary" >&2
      exit 1
    fi
  done
  python3 - "$out"/*.trace.json <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    trace = json.load(open(path))
    events = trace["traceEvents"]
    assert events, f"{path}: empty trace"
    ids = {e["args"]["id"] for e in events}
    for e in events:
        assert e["ph"] == "X" and e["cat"] == "omega", f"{path}: bad event"
        for key in ("name", "ts", "dur", "pid", "tid"):
            assert key in e, f"{path}: event missing {key}"
        parent = e["args"]["parent"]
        assert parent == 0 or parent in ids, \
            f"{path}: dangling parent {parent}"
print(f"trace json: ok ({len(sys.argv) - 1} files)")
PYEOF
  attempts=4
  while :; do
    "$dir/bench/bench_pipeline" --out "$out/pipe.json" >/dev/null 2>&1
    code=0
    python3 - "$root/BENCH_pipeline.json" "$out/pipe.json" <<'PYEOF' || code=$?
import json, sys
base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
pick = lambda d: next(c["wall_ms"] for c in d["configs"]
                      if c["name"] == "serial-nocache")
b, c = pick(base), pick(cur)
ratio = c / b
print(f"trace overhead: serial-nocache {c:.1f}ms vs baseline {b:.1f}ms "
      f"(x{ratio:.3f})")
sys.exit(0 if ratio <= 1.01 else 1)
PYEOF
    [ "$code" -eq 0 ] && break
    attempts=$((attempts - 1))
    if [ "$attempts" -le 0 ]; then
      echo "trace: disabled-tracing overhead exceeds 1% of baseline" >&2
      exit 1
    fi
    echo "trace: overhead gate noisy, retrying ($attempts left)"
  done
  echo "=== trace: $dir clean"
}

# Perfbench leg (default configuration only, needs python3): the
# benchmark's self-test (perfbench/README.md).  It checks determinism and
# the traced pipeline inside the binary, then runs every BENCHMARK.json
# workload briefly and checks each answer against the independent
# reference.  The benchmark builds its own Release binary, here under the
# leg's build directory.
perfbench_leg() {
  dir=$1
  case $dir in *-default) ;; *) return 0 ;; esac
  if ! command -v python3 >/dev/null 2>&1; then
    echo "perfbench: python3 unavailable, leg skipped"
    return 0
  fi
  echo "=== perfbench: $dir"
  (cd "$root" && CARGO_TARGET_DIR="$dir" python3 perfbench/run.py --selftest)
  echo "=== perfbench: $dir clean"
}

# Analyze leg: the static-analysis gate (README "Static analysis").
#   1. omegatidy over src/ tools/ bench/ — zero findings required.
#   2. Clang capability analysis: full build at -DOMEGA_THREAD_SAFETY=ON
#      (-Wthread-safety -Werror=thread-safety), plus the fixture pair —
#      thread_safety_fail.cpp must be REJECTED, thread_safety_ok.cpp must
#      compile clean.  Probed: skipped with a notice when clang++ is not
#      installed (gcc compiles the annotations to no-ops).
#   3. clang-tidy (expanded .clang-tidy: bugprone/performance/concurrency)
#      over src/ via the compilation database, bounded to library sources
#      so the leg stays minutes, not hours.
# Needs the default leg's build dir for the omegatidy binary and
# compile_commands.json, so run_matrix "$prefix-default" must come first.
analyze_leg() {
  dir="$prefix-default"
  echo "=== analyze: omegatidy"
  "$dir/tools/omegatidy" "$root/src" "$root/tools" "$root/bench"

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== analyze: clang -Wthread-safety build"
    cmake -B "$prefix-analyze" -S "$root" -DCMAKE_CXX_COMPILER=clang++ \
      -DOMEGA_THREAD_SAFETY=ON
    cmake --build "$prefix-analyze" -j
    echo "=== analyze: capability-analysis fixtures"
    ts="clang++ -std=c++20 -I$root/src -Wthread-safety
        -Werror=thread-safety -fsyntax-only"
    if $ts "$root/tests/lint/thread_safety_fail.cpp" 2>/dev/null; then
      echo "analyze: thread_safety_fail.cpp compiled; -Wthread-safety" \
           "failed to reject an unguarded access" >&2
      exit 1
    fi
    $ts "$root/tests/lint/thread_safety_ok.cpp"
  else
    echo "=== analyze: clang++ unavailable, thread-safety build skipped"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== analyze: clang-tidy"
    find "$root/src" -name '*.cpp' \
      | xargs clang-tidy -quiet -p "$dir"
  else
    echo "=== analyze: clang-tidy unavailable, skipped"
  fi
  echo "=== analyze: clean"
}

# Tier 1: the default configuration every change must keep green.
run_matrix "$prefix-default"
analyze_leg

# Hardened: boundary validation on, AddressSanitizer + UBSan.
run_matrix "$prefix-hardened" \
  -DOMEGA_VALIDATE=ON "-DOMEGA_SANITIZE=address;undefined"

# ThreadSanitizer + validation: omegad sessions, the per-thread
# feasibility memos and the shared projection cache are the concurrency
# left (ServerTest and CacheTest drive them from several threads).  Probed
# with a trivial compile, since TSan is absent from some gcc builds; the
# leg then runs unsanitized.
tsan_flags=""
if printf 'int main(){return 0;}\n' | \
   ${CXX:-c++} -fsanitize=thread -x c++ - -o /dev/null 2>/dev/null; then
  tsan_flags="-DOMEGA_SANITIZE=thread"
else
  echo "=== ci: ThreadSanitizer unavailable, running tsan leg unsanitized"
fi
run_matrix "$prefix-tsan" -DOMEGA_VALIDATE=ON $tsan_flags

echo "=== ci: all configurations green"

#!/usr/bin/env bash
# End-to-end test of the automap_cli workflow (§3.3): export, describe,
# search (with profiles persistence), evaluate, visualize, codegen (the
# generated mapper is syntax-checked with ${CXX:-c++} against the headers
# of the repository this script sits in).
# Usage: cli_test.sh <path-to-automap_cli>
set -euo pipefail

CLI="$1"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" export-machine shepard 2 "$DIR/m.machine" > /dev/null
"$CLI" export-app circuit 2 1 "$DIR/g.graph" > /dev/null
test -s "$DIR/m.machine"
test -s "$DIR/g.graph"

"$CLI" describe "$DIR/m.machine" "$DIR/g.graph" | grep -q "task graph"

"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --profiles "$DIR/db.txt" -o "$DIR/best.mapping" | grep -q "AM-CCD"
test -s "$DIR/best.mapping"
test -s "$DIR/db.txt"

# Resumed search must report a seeded database.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --profiles "$DIR/db.txt" | grep -q "seeded profiles database"

# Each fault flag's help names the event its probability is drawn per.
help="$("$CLI" search --help)"
grep -q -- "--fault-crash P .*crash probability per task execution" <<< "$help"
grep -q -- "--fault-straggler P .*per task execution" <<< "$help"
grep -q -- "--fault-oom P .*per run" <<< "$help"
grep -q -- "--fault-copy P .*per copy leg" <<< "$help"

# The alternative algorithms run through the same entry point.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --algorithm heft \
      --repeats 2 | grep -q "HEFT-static"

# Unknown algorithms fail cleanly with the registry's name list.
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --algorithm nosuch \
      > /dev/null 2>&1; then
  echo "expected nonzero exit for unknown algorithm" >&2
  exit 1
fi

# Pruning must not change the result: the search summary line (best time,
# suggested/evaluated counts, search time) is byte-identical with
# incumbent-bounded pruning on and off.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      | grep "best mapping" > "$DIR/pruned.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --no-prune | grep "best mapping" > "$DIR/unpruned.txt"
cmp "$DIR/pruned.txt" "$DIR/unpruned.txt"

# A search runs on one thread: --threads is not an option.
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --threads 1 \
      > "$DIR/threads.out" 2>&1; then
  echo "expected nonzero exit for --threads" >&2
  exit 1
fi
grep -q "unknown option: --threads" "$DIR/threads.out"

# The canonical options codec round-trips through the CLI: --dump-options
# emits schema-versioned JSON that, fed back via --options, reproduces
# the byte-identical summary line.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --dump-options > "$DIR/options.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
      assert d['schema'] == 1 and d['rotations'] == 2" "$DIR/options.json"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --options "$DIR/options.json" \
      | grep "best mapping" > "$DIR/fromjson.txt"
cmp "$DIR/pruned.txt" "$DIR/fromjson.txt"

# A corrupted options file fails loudly (strict parse: unknown keys are
# errors), not by silently falling back to defaults.
sed 's/"rotations"/"rotation_count"/' "$DIR/options.json" > "$DIR/bad-options.json"
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
      --options "$DIR/bad-options.json" > /dev/null 2> "$DIR/badopt.txt"; then
  echo "expected nonzero exit for unknown options key" >&2
  exit 1
fi
grep -q "error" "$DIR/badopt.txt"

"$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --repeats 5 | grep -q "speedup"

# Observability flags: telemetry counters, profile digest, Chrome trace.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      --telemetry --profile --trace-json "$DIR/search.trace.json" \
      > "$DIR/telemetry.txt"
grep -q "hit rate" "$DIR/telemetry.txt"
grep -q "rotation" "$DIR/telemetry.txt"
grep -q "critical path" "$DIR/telemetry.txt"
grep -q "traceEvents" "$DIR/search.trace.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$DIR/search.trace.json"
"$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --profile | grep -q "utilization"

"$CLI" visualize "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --dot "$DIR/map.dot" --trace "$DIR/trace.json" | grep -q "legend"
grep -q "digraph mapping" "$DIR/map.dot"
grep -q "traceEvents" "$DIR/trace.json"

"$CLI" codegen "$DIR/g.graph" "$DIR/best.mapping" TunedMapper \
      "$DIR/mapper.cpp" > /dev/null
grep -q "class TunedMapper final : public Mapper" "$DIR/mapper.cpp"
# The generated mapper compiles against this library's Mapper API.
"${CXX:-c++}" -std=c++20 -Wall -Wextra -Werror -fsyntax-only -I"$ROOT" \
      "$DIR/mapper.cpp"

"$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      | grep -q "valid and executable"

# An invalid mapping (CPU task with Frame-Buffer arguments) must fail
# validation with a nonzero exit. Circuit has 3 tasks with 6/5/4 args.
cat > "$DIR/broken.mapping" <<'EOF'
task 0 dist CPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 1 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 2 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer
EOF
if "$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/broken.mapping" \
      > /dev/null 2>&1; then
  echo "expected validation failure" >&2
  exit 1
fi

# Malformed mapping and machine files end in one error line that names
# the offending line and no source file: a priority list naming a kind
# twice, and an unknown processor or memory kind name.
expect_one_error() {
  local pattern="$1"
  shift
  if "$@" > "$DIR/one-error.out" 2>&1; then
    echo "expected nonzero exit: $*" >&2
    exit 1
  fi
  test "$(wc -l < "$DIR/one-error.out")" -eq 1
  grep -q "^error: $pattern" "$DIR/one-error.out"
  if grep -q '\.cpp' "$DIR/one-error.out"; then
    echo "error names a source file: $*" >&2
    exit 1
  fi
}
cat > "$DIR/twice.mapping" <<'EOF'
task 0 dist CPU ZeroCopy,ZeroCopy,ZeroCopy,ZeroCopy,System System System System System System
task 1 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 2 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer
EOF
expect_one_error "line 1: task 0 argument 0 lists ZeroCopy twice" \
      "$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/twice.mapping"
sed '1s/ZeroCopy,[^ ]*/Bogus/' "$DIR/twice.mapping" > "$DIR/bogus.mapping"
expect_one_error "line 1: unknown memory kind 'Bogus'" \
      "$CLI" validate "$DIR/m.machine" "$DIR/g.graph" "$DIR/bogus.mapping"
sed '1s/ CPU / TPU /' "$DIR/broken.mapping" > "$DIR/tpu.mapping"
expect_one_error "line 1: unknown processor kind 'TPU'" \
      "$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/tpu.mapping"
sed 's/^mem ZeroCopy /mem Bogus /' "$DIR/m.machine" > "$DIR/bogus.machine"
zc_line="$(grep -n '^mem ZeroCopy ' "$DIR/m.machine" | cut -d: -f1)"
expect_one_error "line $zc_line: unknown memory kind 'Bogus'" \
      "$CLI" describe "$DIR/bogus.machine" "$DIR/g.graph"
# Negative sizes fail at their own line instead of wrapping round to huge
# unsigned values, and a machine without processors names what is missing.
sed 's/^\(mem FrameBuffer count [0-9]* capacity \)[0-9]*/\1-5/' \
      "$DIR/m.machine" > "$DIR/capacity.machine"
fb_line="$(grep -n '^mem FrameBuffer ' "$DIR/m.machine" | cut -d: -f1)"
expect_one_error "line $fb_line: integer -5 outside" \
      "$CLI" describe "$DIR/capacity.machine" "$DIR/g.graph"
sed '0,/elem_bytes [0-9]*/s//elem_bytes -64/' "$DIR/g.graph" \
      > "$DIR/elem.graph"
region_line="$(grep -n -m1 'elem_bytes' "$DIR/g.graph" | cut -d: -f1)"
expect_one_error "line $region_line: integer -64 outside" \
      "$CLI" describe "$DIR/m.machine" "$DIR/elem.graph"
sed '0,/ bytes [0-9]* /s// bytes -1 /' "$DIR/g.graph" > "$DIR/edge.graph"
edge_line="$(grep -n -m1 '^edge ' "$DIR/g.graph" | cut -d: -f1)"
expect_one_error "line $edge_line: integer -1 outside" \
      "$CLI" evaluate "$DIR/m.machine" "$DIR/edge.graph" "$DIR/best.mapping"
echo "machine m nodes 1" > "$DIR/header.machine"
expect_one_error "invalid machine: no 'proc' processor group" \
      "$CLI" describe "$DIR/header.machine" "$DIR/g.graph"
# Real-valued fields are finite and in their builder's range, checked at
# their line: one case per machine and graph directive family.
double_case() {
  local file="$1" prefix="$2" from="$3" to="$4" pattern="$5"
  shift 5
  local line
  line="$(grep -n -m1 "^$prefix" "$DIR/$file" | cut -d: -f1)"
  sed "${line}s/$from/$to/" "$DIR/$file" > "$DIR/double.${file##*.}"
  expect_one_error "line $line: $pattern" "$@"
}
for spec in "runtime_overhead |runtime_overhead [^ ]*|runtime_overhead nan" \
            "restart_overhead |restart_overhead [^ ]*|restart_overhead -1" \
            "proc CPU |speed [^ ]*|speed inf" \
            "affinity CPU System |bandwidth [^ ]*|bandwidth 0" \
            "channel System System intra |latency [^ ]*|latency nan" \
            "cross_socket |bandwidth [^ ]*|bandwidth inf"; do
  IFS='|' read -r prefix from to <<< "$spec"
  value="${to##* }"
  case "$value" in
    nan|inf) pattern="expected a finite number, got: $value" ;;
    *) pattern="number $value outside" ;;
  esac
  double_case m.machine "$prefix" "$from" "$to" "$pattern" \
        "$CLI" describe "$DIR/double.machine" "$DIR/g.graph"
done
for spec in "task |cpu [^ ]*|cpu inf" "  arg |RW 1|RW nan" \
            "edge |fraction [^ ]*|fraction 2"; do
  IFS='|' read -r prefix from to <<< "$spec"
  value="${to##* }"
  case "$value" in
    nan|inf) pattern="expected a finite number, got: $value" ;;
    *) pattern="number $value outside" ;;
  esac
  double_case g.graph "$prefix" "$from" "$to" "$pattern" \
        "$CLI" describe "$DIR/m.machine" "$DIR/double.graph"
done
# Graph structure: an edge on a collection its task does not take fails
# at its line, and a same-iteration cycle names its tasks.
edge_line="$(grep -n -m1 '^edge 0 0 4 4 ' "$DIR/g.graph" | cut -d: -f1)"
sed "${edge_line}s/^edge 0 0 4 4 /edge 0 0 3 3 /" "$DIR/g.graph" \
      > "$DIR/lacking.graph"
expect_one_error "line $edge_line: producer task 0 'calc_new_currents' does not take collection 3 'node_attrs'" \
      "$CLI" search "$DIR/m.machine" "$DIR/lacking.graph" --rotations 1
cross_line="$(grep -n -m1 '^edge 1 0 2 1 .* cross 1 ' "$DIR/g.graph" \
      | cut -d: -f1)"
sed "${cross_line}s/cross 1/cross 0/" "$DIR/g.graph" > "$DIR/cycle.graph"
expect_one_error "invalid task graph: same-iteration dependence cycle: task 0 'calc_new_currents' -> task 1 'distribute_charge' -> task 0" \
      "$CLI" search "$DIR/m.machine" "$DIR/cycle.graph" --rotations 1
# A missing input and an unwritable output are one plain line each.
expect_one_error "cannot open for reading: $DIR/nonexistent.graph" \
      "$CLI" search "$DIR/m.machine" "$DIR/nonexistent.graph"
expect_one_error "cannot write output file: $DIR/nonexistent_dir/x.mapping" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 1 \
      -o "$DIR/nonexistent_dir/x.mapping"
# The graph header's counts must match what follows, and a graph needs a
# task.
sed '1s/ tasks [0-9]* / tasks 99 /' "$DIR/g.graph" > "$DIR/count.graph"
expect_one_error "line 1: the header declares 99 tasks but the file holds 3" \
      "$CLI" search "$DIR/m.machine" "$DIR/count.graph" --rotations 1
echo "taskgraph" > "$DIR/bare.graph"
expect_one_error "line 1: expected: taskgraph regions <n> collections <n>" \
      "$CLI" search "$DIR/m.machine" "$DIR/bare.graph" --rotations 1
echo "taskgraph regions 0 collections 0 tasks 0 edges 0" > "$DIR/none.graph"
expect_one_error "invalid task graph: no tasks" \
      "$CLI" describe "$DIR/m.machine" "$DIR/none.graph"
# Simulator options are checked where they enter.
expect_one_error "invalid sim options: fault_crash must be in \[0, 1\], got 2" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --fault-crash 2
# Positional numbers decode strictly, presets and apps are checked by
# name, and out-of-range arguments are plain errors.
expect_one_error "<nodes> expects an integer, got 'x'" \
      "$CLI" export-machine shepard x "$DIR/x.machine"
expect_one_error "<nodes> must be >= 1, got 0" \
      "$CLI" export-machine shepard 0 "$DIR/x.machine"
expect_one_error "unknown machine preset 'nosuch' (expected shepard|lassen|cpu-cluster)" \
      "$CLI" export-machine nosuch 1 "$DIR/x.machine"
test ! -e "$DIR/x.machine"
expect_one_error "unknown application 'nosuch' (expected circuit|stencil|pennant|htr|maestro)" \
      "$CLI" export-app nosuch 1 0 "$DIR/x.graph"
expect_one_error "<step> must be in \[0, 7\] for circuit, got 99" \
      "$CLI" export-app circuit 1 99 "$DIR/x.graph"
expect_one_error "<step> expects an integer, got '1.5'" \
      "$CLI" export-app circuit 1 1.5 "$DIR/x.graph"
test ! -e "$DIR/x.graph"
expect_one_error "<job> expects a non-negative integer, got 'abc'" \
      "$CLI" client --socket "$DIR/no.sock" status abc
# A flag with no value, and a 120-byte socket path (a Unix socket address
# holds 107 bytes), name the flag or the path. serve refuses the path
# before it creates its store.
expect_one_error "--seed needs a value" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --seed
LONG_SOCK="$DIR/$(printf 's%.0s' $(seq 1 $((119 - ${#DIR}))))"
expect_one_error "socket path '$LONG_SOCK' is 120 bytes" \
      "$CLI" client ping --socket "$LONG_SOCK"
expect_one_error "socket path '$LONG_SOCK' is 120 bytes" \
      "$CLI" serve --socket "$LONG_SOCK" --store "$DIR/long-store"
test ! -e "$DIR/long-store"
expect_one_error "no checkpoint at $DIR/missing.ckpt" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --resume "$DIR/missing.ckpt"
expect_one_error "--repeats must be >= 1, got 0" \
      "$CLI" evaluate "$DIR/m.machine" "$DIR/g.graph" "$DIR/best.mapping" \
      --repeats 0
# A search budget must be positive, from a flag or an options file.
expect_one_error "invalid search options: budget must be positive, got -5" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --budget -5 --rotations 1
expect_one_error "invalid search options: budget must be positive, got 0" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --budget 0 --rotations 1
echo '{"schema":1,"budget":-5}' > "$DIR/negative-budget.json"
expect_one_error "invalid search options: budget must be positive, got -5" \
      "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
      --options "$DIR/negative-budget.json"
expect_one_error "<ClassName> must be a C++ identifier, got '9bad'" \
      "$CLI" codegen "$DIR/g.graph" "$DIR/best.mapping" 9bad "$DIR/bad.cpp"
test ! -e "$DIR/bad.cpp"

# On a machine whose Frame-Buffer holds 1 KiB, a mapping that keeps its
# data there cannot run: evaluate fails with the simulator's one-line
# cause. A mapping in System memory still runs, and the default mapper,
# which puts GPU tasks' data in the Frame-Buffer, reports its failure in
# place of a speedup.
sed 's/^\(mem FrameBuffer count [0-9]* capacity\) [0-9]*$/\1 1024/' \
      "$DIR/m.machine" > "$DIR/tiny-fb.machine"
grep -q "^mem FrameBuffer count [0-9]* capacity 1024$" "$DIR/tiny-fb.machine"
cat > "$DIR/all-fb.mapping" <<'EOF'
task 0 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 1 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer FrameBuffer
task 2 dist GPU FrameBuffer FrameBuffer FrameBuffer FrameBuffer
EOF
expect_one_error "mapping failed to execute: out of memory: " \
      "$CLI" evaluate "$DIR/tiny-fb.machine" "$DIR/g.graph" \
      "$DIR/all-fb.mapping" --repeats 3
cat > "$DIR/all-sys.mapping" <<'EOF'
task 0 dist CPU System System System System System System
task 1 dist CPU System System System System System
task 2 dist CPU System System System System
EOF
"$CLI" evaluate "$DIR/tiny-fb.machine" "$DIR/g.graph" "$DIR/all-sys.mapping" \
      --repeats 3 > "$DIR/tiny-fb.out"
grep -q "^mean over 3 runs: [0-9.]* ms$" "$DIR/tiny-fb.out"
grep -q "^default mapper: failed to execute: out of memory: " "$DIR/tiny-fb.out"
if grep -q "speedup\|inf" "$DIR/tiny-fb.out"; then
  echo "a default mapper that cannot run has no speedup" >&2
  exit 1
fi

# A garbled profiles database must fail with a one-line diagnostic and a
# nonzero exit, not a raw uncaught exception / abort.
cat > "$DIR/garbled.txt" <<'EOF'
profiles 1
mean 0.5
task notanumber dist GPU FrameBuffer
EOF
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 1 --repeats 2 \
      --profiles "$DIR/garbled.txt" > /dev/null 2> "$DIR/garbled.err"; then
  echo "expected nonzero exit for garbled profiles" >&2
  exit 1
fi
grep -qi "error" "$DIR/garbled.err"
test "$(wc -l < "$DIR/garbled.err")" -le 2

# Same for a malformed numeric flag: the whole token must decode into the
# flag's type (no truncated fraction, no wrapped negative, no NaN), and the
# one error line names the flag and the token.
for bad in "--rotations banana" "--repeats abc" "--repeats 3.7" \
           "--seed -1" "--budget nan"; do
  read -r flag token <<< "$bad"
  if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" "$flag" "$token" \
        > /dev/null 2> "$DIR/badflag.err"; then
    echo "expected nonzero exit for $flag $token" >&2
    exit 1
  fi
  grep -q "^error: $flag .*'$token'" "$DIR/badflag.err"
  test "$(wc -l < "$DIR/badflag.err")" -eq 1
done

# Options no search can run with fail before the search starts.
for bad in '"final_repeats":31/"final_repeats":-1' \
           '"final_repeats":31/"final_repeats":0'; do
  sed "s/$bad/" "$DIR/options.json" > "$DIR/bad-final.json"
  if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
        --options "$DIR/bad-final.json" > "$DIR/badfinal.out" 2>&1; then
    echo "expected nonzero exit for $bad" >&2
    exit 1
  fi
  grep -q "^error: .*final_repeats must be positive" "$DIR/badfinal.out"
  test "$(wc -l < "$DIR/badfinal.out")" -eq 1
done

# Fault injection: the searched result under faults is the same with
# pruning on and off, and the resilience telemetry reaches the output.
FAULTS=(--fault-crash 0.05 --fault-straggler 0.05 --retries 2 --quarantine 2)
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --telemetry > "$DIR/faulty.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --no-prune --telemetry > "$DIR/faulty-unpruned.txt"
grep "best mapping" "$DIR/faulty.txt" > "$DIR/faulty.line"
grep "best mapping" "$DIR/faulty-unpruned.txt" > "$DIR/faulty-unpruned.line"
cmp "$DIR/faulty.line" "$DIR/faulty-unpruned.line"
grep -q "resilience:" "$DIR/faulty.txt"

# A search in which no candidate ever completes a run fails with one error
# line naming the cause, never an invariant message with a source
# location: at this crash rate every Pennant run crashes, so the default
# search and annealing (whose starting mapping then has no cost) both see
# every candidate quarantined.
"$CLI" export-machine shepard 1 "$DIR/m1.machine" > /dev/null
"$CLI" export-app pennant 1 0 "$DIR/p.graph" > /dev/null
for algorithm in "ccd" "anneal --budget 30"; do
  if "$CLI" search "$DIR/m1.machine" "$DIR/p.graph" --fault-crash 0.02 \
        --algorithm $algorithm > "$DIR/nocomplete.out" 2>&1; then
    echo "expected nonzero exit when no candidate completes ($algorithm)" >&2
    exit 1
  fi
  test "$(grep -c '^error:' "$DIR/nocomplete.out")" -eq 1
  grep -q "^error: .*no candidate completed a run (.* quarantined" \
        "$DIR/nocomplete.out"
  if grep -q '\.cpp' "$DIR/nocomplete.out"; then
    echo "error names a source file ($algorithm)" >&2
    exit 1
  fi
done

# --aggregate takes the names the options codec writes: the trimmed mean
# round-trips through --dump-options, and a name outside the codec gets
# the codec's one-line error listing the names.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --aggregate trimmed_mean \
      --dump-options | grep -q '"aggregation":"trimmed_mean"'
if "$CLI" search "$DIR/m.machine" "$DIR/g.graph" --aggregate trimmed \
      > "$DIR/badagg.out" 2>&1; then
  echo "expected nonzero exit for --aggregate trimmed" >&2
  exit 1
fi
grep -q "^error: .*'trimmed'.*mean|median|trimmed_mean" "$DIR/badagg.out"
test "$(wc -l < "$DIR/badagg.out")" -eq 1

# Interrupt-and-resume: a search cut mid-flight by the simulated budget
# leaves a mid-search checkpoint; resuming from it must land on the exact
# summary line of the uninterrupted run (deterministic cut).
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" | grep "best mapping" > "$DIR/uninterrupted.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --budget 10 --checkpoint "$DIR/ck_budget.txt" \
      > /dev/null
test -s "$DIR/ck_budget.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" --resume "$DIR/ck_budget.txt" | grep "best mapping" \
      > "$DIR/budget_resumed.txt"
cmp "$DIR/uninterrupted.txt" "$DIR/budget_resumed.txt"

# Kill-and-resume smoke: the same flow under a real SIGKILL (timing-
# dependent: if the kill misses the run, the fallback still exercises the
# uninterrupted path).
for attempt in 1 2 3; do
  rm -f "$DIR/ck.txt"
  ( timeout --signal=KILL 0.05 "$CLI" search "$DIR/m.machine" "$DIR/g.graph" \
        --rotations 2 --repeats 3 "${FAULTS[@]}" \
        --checkpoint "$DIR/ck.txt" > /dev/null 2>&1 || true ) 2> /dev/null
  if [ -s "$DIR/ck.txt" ]; then break; fi
done
RESUME=()
if [ -s "$DIR/ck.txt" ]; then
  RESUME=(--resume "$DIR/ck.txt")
fi
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      "${FAULTS[@]}" ${RESUME[@]+"${RESUME[@]}"} | grep "best mapping" \
      > "$DIR/resumed.txt"
cmp "$DIR/uninterrupted.txt" "$DIR/resumed.txt"

# Resume of a search seeded from a profiles database: the checkpoint log
# pins the database it was seeded from, so each run starts from its own
# copy of the same seed database (a finished search rewrites its
# --profiles file). The resumed search replays its log over that seed and
# lands on the uninterrupted run's summary and database.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 1 --repeats 3 \
      --seed 5 --profiles "$DIR/seed_db.txt" > /dev/null
for run in full cut resumed; do cp "$DIR/seed_db.txt" "$DIR/db_$run.txt"; done
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 3 --repeats 3 \
      --profiles "$DIR/db_full.txt" | grep "best mapping" > "$DIR/seeded_full.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 3 --repeats 3 \
      --profiles "$DIR/db_cut.txt" --budget 0.4 \
      --checkpoint "$DIR/ck_seeded.txt" > /dev/null
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 3 --repeats 3 \
      --profiles "$DIR/db_resumed.txt" --resume "$DIR/ck_seeded.txt" \
      | grep "best mapping" > "$DIR/seeded_resumed.txt"
cmp "$DIR/seeded_full.txt" "$DIR/seeded_resumed.txt"
cmp "$DIR/db_full.txt" "$DIR/db_resumed.txt"

# Provenance journal + metrics: the journal is valid JSONL, the metrics
# dump is Prometheus text, and the telemetry digest points at both.
"$CLI" export-app stencil 2 1 "$DIR/s.graph" > /dev/null
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" --rotations 3 --repeats 3 \
      --journal "$DIR/s.journal.jsonl" --metrics-out "$DIR/s.metrics.txt" \
      --telemetry > "$DIR/jtel.txt"
test -s "$DIR/s.journal.jsonl"
python3 -c '
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines[0]["type"] == "journal" and lines[0]["version"] >= 1
assert [l["n"] for l in lines] == list(range(len(lines)))
types = {l["type"] for l in lines}
for required in ("search_begin", "candidate", "move", "incumbent",
                 "metrics", "finalize"):
    assert required in types, required
' "$DIR/s.journal.jsonl"
grep -q "# HELP automap_candidates_suggested_total" "$DIR/s.metrics.txt"
grep -q "# TYPE automap_candidate_mean_seconds histogram" "$DIR/s.metrics.txt"
grep -q "journal: " "$DIR/jtel.txt"
grep -q "convergence: " "$DIR/jtel.txt"

# explain renders per-decision provenance incl. co-location attribution.
"$CLI" explain "$DIR/s.graph" "$DIR/s.journal.jsonl" > "$DIR/explain.txt"
grep -q "decision provenance" "$DIR/explain.txt"
grep -q "forced by co-location with" "$DIR/explain.txt"
grep -q "processor = " "$DIR/explain.txt"

# replay cross-checks the journal against a fresh run: no drift.
"$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/s.journal.jsonl" \
      | grep -q "no drift"
if "$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/s.journal.jsonl" \
      --threads 1 > "$DIR/replay-threads.out" 2>&1; then
  echo "expected nonzero exit for replay --threads" >&2
  exit 1
fi
grep -q "unknown option: --threads" "$DIR/replay-threads.out"

# A resumed search re-runs from its first proposal against its checkpoint
# log, so its journal is complete: it replays with no drift and equals the
# uninterrupted run's journal apart from search_begin's "resumed" flag.
# Multistart's budget ends in its third descent: every descent logs.
for cut in "ccd 0.7" "multistart 1.3"; do
  read -r algorithm budget <<< "$cut"
  CUT=(--algorithm "$algorithm" --rotations 3 --repeats 3)
  "$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${CUT[@]}" \
        --checkpoint "$DIR/ck_whole.txt" --journal "$DIR/whole.jsonl" \
        > /dev/null
  "$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${CUT[@]}" \
        --budget "$budget" --checkpoint "$DIR/ck_cut.txt" \
        --journal "$DIR/cut.jsonl" > /dev/null
  if cmp -s "$DIR/ck_cut.txt" "$DIR/ck_whole.txt"; then
    echo "expected the budget to cut the $algorithm search" >&2
    exit 1
  fi
  "$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${CUT[@]}" \
        --resume "$DIR/ck_cut.txt" --checkpoint "$DIR/ck_cut.txt" \
        --journal "$DIR/resumed.jsonl" > /dev/null
  "$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/resumed.jsonl" \
        | grep -q "no drift"
  grep -q '"resumed":true' "$DIR/resumed.jsonl"
  sed 's/"resumed":true/"resumed":false/' "$DIR/resumed.jsonl" \
        | cmp - "$DIR/whole.jsonl"
  cmp "$DIR/ck_cut.txt" "$DIR/ck_whole.txt"
done

# The median of an odd repeat count races the censor threshold: a
# candidate is censored once a majority of its runs cross it. The race is
# exact, so pruning changes no output; censored candidates are logged, and
# a budget-cut search resumes to the uninterrupted journal and checkpoint.
MEDIAN=(--rotations 3 --repeats 5 --aggregate median)
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${MEDIAN[@]}" --telemetry \
      --checkpoint "$DIR/ck_median_whole.txt" \
      --journal "$DIR/median_whole.jsonl" > "$DIR/median.txt"
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${MEDIAN[@]}" --no-prune \
      | grep "best mapping" > "$DIR/median_unpruned.txt"
grep "best mapping" "$DIR/median.txt" | cmp - "$DIR/median_unpruned.txt"
grep -Eq "^  proposals: .* [1-9][0-9]* censored$" "$DIR/median.txt"
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${MEDIAN[@]}" --budget 1.3 \
      --checkpoint "$DIR/ck_median.txt" > /dev/null
if cmp -s "$DIR/ck_median.txt" "$DIR/ck_median_whole.txt"; then
  echo "expected the budget to cut the median search" >&2
  exit 1
fi
grep -q " censored " "$DIR/ck_median.txt"
"$CLI" search "$DIR/m.machine" "$DIR/s.graph" "${MEDIAN[@]}" \
      --resume "$DIR/ck_median.txt" --checkpoint "$DIR/ck_median.txt" \
      --journal "$DIR/median_resumed.jsonl" > /dev/null
"$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/median_resumed.jsonl" \
      | grep -q "no drift"
sed 's/"resumed":true/"resumed":false/' "$DIR/median_resumed.jsonl" \
      | cmp - "$DIR/median_whole.jsonl"
cmp "$DIR/ck_median.txt" "$DIR/ck_median_whole.txt"

# A tampered journal must be caught (nonzero exit, drift report).
sed 's/"type":"finalize","algorithm":"AM-CCD","best":/"type":"finalize","algorithm":"AM-CCD","best":9/' \
      "$DIR/s.journal.jsonl" > "$DIR/tampered.jsonl"
if "$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/tampered.jsonl" \
      > "$DIR/tampered.out" 2>&1; then
  echo "expected nonzero exit for tampered journal" >&2
  exit 1
fi
grep -q "DRIFT" "$DIR/tampered.out"

# A file that is not a search journal is one plain error line.
expect_one_error "journal does not start with a header record" \
      "$CLI" explain "$DIR/g.graph" "$DIR/options.json"
head -1 "$DIR/s.journal.jsonl" > "$DIR/header-only.jsonl"
expect_one_error "journal has no search_begin record" \
      "$CLI" explain "$DIR/s.graph" "$DIR/header-only.jsonl"
expect_one_error "journal has no search_begin record" \
      "$CLI" replay "$DIR/m.machine" "$DIR/s.graph" "$DIR/header-only.jsonl"

# Unwritable output paths fail up front with one Error line, before any
# search work runs.
if "$CLI" search "$DIR/m.machine" "$DIR/s.graph" \
      --journal "$DIR/no-such-dir/x.jsonl" > /dev/null 2> "$DIR/badpath.err"
then
  echo "expected nonzero exit for unwritable journal path" >&2
  exit 1
fi
grep -qi "error" "$DIR/badpath.err"
test "$(wc -l < "$DIR/badpath.err")" -le 2
if "$CLI" search "$DIR/m.machine" "$DIR/s.graph" \
      --metrics-out "$DIR/no-such-dir/m.txt" > /dev/null 2>&1; then
  echo "expected nonzero exit for unwritable metrics path" >&2
  exit 1
fi

# Unknown commands fail cleanly.
if "$CLI" frobnicate > /dev/null 2>&1; then
  echo "expected nonzero exit for unknown command" >&2
  exit 1
fi

echo "cli_test OK"

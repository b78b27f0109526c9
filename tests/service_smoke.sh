#!/usr/bin/env bash
# End-to-end smoke test of the mapping service: daemon startup, client
# round trips, byte-identity of daemon answers with the one-shot `search`
# path, the cross-job result cache (a repeat submission runs zero new
# simulator runs), journal streaming, the flight recorder (`trace`, `top`,
# and the --service-trace Chrome export), warm restart from the persisted
# store and a cached resubmission after it, clean shutdown, and the
# client's strict decoding of replies.
# Usage: service_smoke.sh <path-to-automap_cli> <path-to-automap_client>
# Set AUTOMAP_SMOKE_TRACE to keep the Chrome trace at a fixed path (CI
# uploads it as an artifact); it defaults to the throwaway temp dir.
set -euo pipefail

CLI="$1"
CLIENT="$2"
DIR="$(mktemp -d)"
SOCK="$DIR/automap.sock"
STORE="$DIR/store"
TRACE_OUT="${AUTOMAP_SMOKE_TRACE:-$DIR/service_trace.json}"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_for_daemon() {
  for _ in $(seq 1 150); do
    if "$CLIENT" ping --socket "$SOCK" > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "daemon did not come up" >&2
  cat "$DIR"/serve*.log >&2 || true
  exit 1
}

sim_runs() {
  "$CLIENT" stats --socket "$SOCK" \
    | awk '$1 == "automap_sim_runs_total" { print $2 }'
}

"$CLI" export-machine shepard 2 "$DIR/m.machine" > /dev/null
"$CLI" export-app stencil 2 1 "$DIR/g.graph" > /dev/null

"$CLI" serve --socket "$SOCK" --store "$STORE" \
      --workers 2 --service-trace "$TRACE_OUT" > "$DIR/serve.log" 2>&1 &
SERVER_PID=$!
wait_for_daemon
"$CLIENT" ping --socket "$SOCK" | grep -q "pong"

# Submit a job with a journal and wait for its result.
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 2 --repeats 3 --journal --wait \
      -o "$DIR/daemon.mapping" > "$DIR/daemon.txt"
grep -q "best mapping" "$DIR/daemon.txt"

# The daemon's answer is byte-identical to the one-shot CLI path: the
# summary line and the mapping file both compare equal.
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 2 --repeats 3 \
      -o "$DIR/oneshot.mapping" > "$DIR/oneshot.txt"
grep "best mapping" "$DIR/daemon.txt" > "$DIR/daemon.line"
grep "best mapping" "$DIR/oneshot.txt" > "$DIR/oneshot.line"
cmp "$DIR/daemon.line" "$DIR/oneshot.line"
cmp "$DIR/daemon.mapping" "$DIR/oneshot.mapping"

# The identical submission is answered from the result cache with zero
# new simulator runs.
RUNS_BEFORE="$(sim_runs)"
test -n "$RUNS_BEFORE"
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 2 --repeats 3 --journal --wait > "$DIR/cached.txt"
grep -q "(cached)" "$DIR/cached.txt"
grep "best mapping" "$DIR/cached.txt" > "$DIR/cached.line"
cmp "$DIR/cached.line" "$DIR/oneshot.line"
test "$(sim_runs)" = "$RUNS_BEFORE"
# The client's own retry flag is not a search option: the same submission
# with it is still the cached job.
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 2 --repeats 3 --journal --retry-attempts 3 \
      > "$DIR/cached-retry.txt"
grep -q "^job 1 done (cached)$" "$DIR/cached-retry.txt"
test "$(sim_runs)" = "$RUNS_BEFORE"
# awk reads the whole stats listing (several stdio writes) before deciding:
# exiting at the match would let the client's next write hit a closed pipe,
# and pipefail would turn that SIGPIPE into a spurious failure.
"$CLIENT" stats --socket "$SOCK" \
  | awk '$1 == "automap_service_result_cache_hits_total" { v = $2 }
         END { exit !(v >= 1) }'

# Journal streaming reconstructs a well-formed JSONL provenance stream.
"$CLIENT" journal 1 --socket "$SOCK" > "$DIR/journal.jsonl"
test -s "$DIR/journal.jsonl"
python3 - "$DIR/journal.jsonl" << 'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines[0]["type"] == "journal" and lines[0]["version"] >= 1
assert [l["n"] for l in lines] == list(range(len(lines)))
assert any(l["type"] == "search_begin" for l in lines)
assert any(l["type"] == "finalize" for l in lines)
EOF

"$CLIENT" jobs --socket "$SOCK" | grep -q "job 1 done"

# The flight recorder replays job 1's full lifecycle: the trace table
# walks submitted -> queued -> admitted -> running -> finished in order.
"$CLIENT" trace 1 --socket "$SOCK" > "$DIR/trace1.txt"
grep -q "job 1 trace" "$DIR/trace1.txt"
for span in submitted queued admitted running finished; do
  grep -q "$span" "$DIR/trace1.txt"
done
# Asking for a job nobody submitted is a structured error, not a hang.
if "$CLIENT" trace 9999 --socket "$SOCK" > /dev/null \
      2> "$DIR/trace-missing.txt"; then
  echo "expected trace of an unknown job to fail" >&2
  exit 1
fi
grep -qi "not_found" "$DIR/trace-missing.txt"

# One `top` frame renders the uptime header, counts, and quantiles.
"$CLIENT" top --once --socket "$SOCK" > "$DIR/top.txt"
grep -q "automap service" "$DIR/top.txt"
grep -q "uptime" "$DIR/top.txt"
grep -q "finished" "$DIR/top.txt"

# A bad submission gets a structured one-line error, not a hang or a
# dropped connection.
if "$CLIENT" submit /dev/null "$DIR/g.graph" --socket "$SOCK" \
      > /dev/null 2> "$DIR/bad.txt"; then
  echo "expected nonzero exit for a bad submit" >&2
  exit 1
fi
grep -qi "error" "$DIR/bad.txt"

# A second daemon must refuse to hijack the live daemon's socket.
if "$CLI" serve --socket "$SOCK" --store "$DIR/store2" \
      > "$DIR/hijack.txt" 2>&1; then
  echo "expected second serve on a live socket to fail" >&2
  exit 1
fi
grep -q "in use by a running daemon" "$DIR/hijack.txt"

# A client that disconnects mid-response must not take the daemon down:
# the EPIPE stays on that connection instead of killing the process with
# SIGPIPE. Five rounds of send-then-reset, then the daemon still answers.
python3 - "$SOCK" << 'EOF'
import socket, struct, sys
for _ in range(5):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    req = b'{"op":"journal","job":1,"after":-1}'
    s.sendall(struct.pack(">I", len(req)) + req)
    s.shutdown(socket.SHUT_RDWR)  # response write now hits a dead peer
    s.close()
EOF
sleep 0.2
"$CLIENT" ping --socket "$SOCK" | grep -q "pong"

# Cooperative cancel of a *running* job, then resume by resubmission: the
# cancel lands at a task boundary once a checkpoint exists, and the
# revived job resumes from that checkpoint to the byte-identical one-shot
# answer.
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 60 --repeats 3 > "$DIR/long.txt"
LONG_ID="$(awk '{ print $2 }' "$DIR/long.txt")"
for _ in $(seq 1 300); do
  [ -f "$STORE/jobs/$LONG_ID/checkpoint" ] && break
  sleep 0.02
done
test -f "$STORE/jobs/$LONG_ID/checkpoint"
"$CLIENT" cancel "$LONG_ID" --socket "$SOCK" | grep -q "cancelled"
for _ in $(seq 1 300); do
  "$CLIENT" status "$LONG_ID" --socket "$SOCK" | grep -q "cancelled" \
    && break
  sleep 0.02
done
"$CLIENT" status "$LONG_ID" --socket "$SOCK" | grep -q "cancelled"
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 60 --repeats 3 --wait -o "$DIR/resumed.mapping" \
      > "$DIR/resumed.txt"
grep -q "job $LONG_ID queued" "$DIR/resumed.txt"
"$CLI" search "$DIR/m.machine" "$DIR/g.graph" --rotations 60 --repeats 3 \
      -o "$DIR/long-oneshot.mapping" > /dev/null
cmp "$DIR/resumed.mapping" "$DIR/long-oneshot.mapping"

# Clean shutdown over the wire.
"$CLIENT" shutdown --socket "$SOCK" > /dev/null
wait "$SERVER_PID"
SERVER_PID=""
grep -q "service stopped" "$DIR/serve.log"

# The Chrome trace written at shutdown is valid JSON in the trace-event
# format Perfetto loads: a traceEvents array with named worker lanes and
# the job spans threaded onto them.
test -s "$TRACE_OUT"
python3 - "$TRACE_OUT" << 'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
lanes = {e["args"]["name"] for e in events if e.get("ph") == "M"}
assert "service" in lanes and "queue" in lanes, lanes
assert any(l.startswith("worker ") for l in lanes), lanes
spans = [e for e in events if e.get("ph") == "X"]
assert any("running" in e["name"] for e in spans), "no running span"
assert all(e["dur"] >= 0 for e in spans)
marks = [e for e in events if e.get("ph") == "i"]
assert any("finished" in e["name"] for e in marks), "no finished marker"
# The recorder's chain has no gaps: each bar of a job ends within 0.001 us
# of the start of another event of that job. A job at the recorder's
# 64-span bound (kRecorderMaxSpansPerJob) has shed its oldest checkpoint
# markers, never a lifecycle span, so it is checked too.
starts = {}
for e in spans + marks:
    if e["name"].startswith("j%d " % e["args"].get("job", -1)):
        starts.setdefault(e["args"]["job"], []).append(e["ts"])
checked = 0
for e in spans:
    job_starts = starts[e["args"]["job"]]
    end = e["ts"] + e["dur"]
    assert any(abs(end - ts) <= 0.001 for ts in job_starts), (
        "gap after %s ending at %r" % (e["name"], end))
    checked += 1
assert checked > 0, "no complete job chain to check"
EOF

# Warm restart on the same store: the finished job is served from disk —
# still byte-identical — without a single new simulator run.
"$CLI" serve --socket "$SOCK" --store "$STORE" \
      --workers 2 > "$DIR/serve2.log" 2>&1 &
SERVER_PID=$!
wait_for_daemon
"$CLIENT" result 1 --socket "$SOCK" -o "$DIR/revived.mapping" \
      > "$DIR/revived.txt"
grep "best mapping" "$DIR/revived.txt" > "$DIR/revived.line"
cmp "$DIR/revived.line" "$DIR/oneshot.line"
cmp "$DIR/revived.mapping" "$DIR/oneshot.mapping"
test "$(sim_runs)" = "0"
# The identical submission maps onto the recovered job: the restarted
# daemon validates its request once, then answers from the cache, still
# byte-identical and still without a simulator run.
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 2 --repeats 3 --journal --wait \
      -o "$DIR/resubmitted.mapping" > "$DIR/resubmitted.txt"
grep -q "^job 1 done (cached)$" "$DIR/resubmitted.txt"
grep "best mapping" "$DIR/resubmitted.txt" > "$DIR/resubmitted.line"
cmp "$DIR/resubmitted.line" "$DIR/oneshot.line"
cmp "$DIR/resubmitted.mapping" "$DIR/oneshot.mapping"
test "$(sim_runs)" = "0"

"$CLIENT" shutdown --socket "$SOCK" > /dev/null
wait "$SERVER_PID"
SERVER_PID=""

# --- Protocol fuzz + overload/deadline, on a daemon with a short frame
# deadline, no workers, and a one-job queue. ---------------------------
"$CLI" serve --socket "$SOCK" --store "$DIR/store3" \
      --workers 0 --max-queued-jobs 1 --io-timeout-ms 300 \
      > "$DIR/serve3.log" 2>&1 &
SERVER_PID=$!
wait_for_daemon

# The crash-point registry the chaos harness iterates is published.
test "$("$CLI" crash-points | wc -l)" = "30"

# Garbage length prefix, truncated frame, and a slow-loris stall: each
# costs exactly that connection — answered or reaped — never the daemon.
python3 - "$SOCK" << 'EOF'
import socket, struct, sys

def conn():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    return s

# A 4GB length prefix: a structured too_large error, then disconnect.
s = conn()
s.sendall(b"\xff\xff\xff\xff")
(n,) = struct.unpack(">I", s.recv(4, socket.MSG_WAITALL))
body = b""
while len(body) < n:
    chunk = s.recv(n - len(body))
    assert chunk, "server closed before finishing the error frame"
    body += chunk
assert b"too_large" in body, body
assert s.recv(1) == b"", "server should close after too_large"
s.close()

# A header promising 100 bytes, 10 delivered, then gone.
s = conn()
s.sendall(struct.pack(">I", 100) + b"0123456789")
s.close()

# Slow-loris: two header bytes, then silence. The frame deadline
# (--io-timeout-ms 300) must reap the connection, not park a thread.
s = conn()
s.sendall(b"\x00\x00")
s.settimeout(10)
assert s.recv(1) == b"", "stalled connection was not reaped"
s.close()
EOF
"$CLIENT" ping --socket "$SOCK" | grep -q "pong"
"$CLIENT" stats --socket "$SOCK" \
  | awk '$1 == "automap_service_io_timeouts_total" { v = $2 }
         END { exit !(v >= 1) }'

# Backpressure + request deadline: the queue holds one job (workers 0),
# so a second distinct submission is refused with the structured
# `overloaded` error; once the first job's deadline expires it frees the
# slot and the refused submission is accepted.
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 2 --repeats 3 --deadline-ms 400 \
      | grep -q "job 1 queued"
if "$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 3 --repeats 3 > /dev/null 2> "$DIR/overloaded.txt"; then
  echo "expected the second submit to be refused as overloaded" >&2
  exit 1
fi
grep -q "overloaded" "$DIR/overloaded.txt"
for _ in $(seq 1 300); do
  "$CLIENT" status 1 --socket "$SOCK" | grep -q "cancelled" && break
  sleep 0.02
done
"$CLIENT" status 1 --socket "$SOCK" | grep -q "cancelled (deadline)"
"$CLIENT" submit "$DIR/m.machine" "$DIR/g.graph" --socket "$SOCK" \
      --rotations 3 --repeats 3 > "$DIR/queued.txt"
grep -q "queued" "$DIR/queued.txt"
QUEUED_ID="$(awk '{ print $2 }' "$DIR/queued.txt")"

# A second daemon on the live socket *and the same store* is refused
# before it opens the store, whose recovery would run the live daemon's
# queued job: it exits at once, the job's dir still holds only its
# request, and the live daemon still reports the job queued.
if timeout 10 "$CLI" serve --socket "$SOCK" --store "$DIR/store3" \
      > "$DIR/hijack-store.txt" 2>&1; then
  echo "expected a second serve on a live socket and store to fail" >&2
  exit 1
fi
grep -q "in use by a running daemon" "$DIR/hijack-store.txt"
test "$(ls "$DIR/store3/jobs/$QUEUED_ID")" = "request.json"
"$CLIENT" status "$QUEUED_ID" --socket "$SOCK" | grep -q "queued"

"$CLIENT" shutdown --socket "$SOCK" > /dev/null
wait "$SERVER_PID"
SERVER_PID=""

# A reply whose integer field is out of range, from a broken or hostile
# peer: the client ends with a one-line error naming the field and a
# nonzero exit, instead of casting the double. A raw socket plays the
# daemon for one ping.
FAKE_SOCK="$DIR/fake.sock"
python3 - "$FAKE_SOCK" << 'EOF' &
import socket, struct, sys
srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
srv.bind(sys.argv[1])
srv.listen(1)
srv.settimeout(30)
conn, _ = srv.accept()
(n,) = struct.unpack(">I", conn.recv(4, socket.MSG_WAITALL))
conn.recv(n, socket.MSG_WAITALL)
reply = b'{"type":"pong","version":1e300}'
conn.sendall(struct.pack(">I", len(reply)) + reply)
conn.close()
EOF
FAKE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$FAKE_SOCK" ] && break
  sleep 0.05
done
if "$CLIENT" ping --socket "$FAKE_SOCK" > /dev/null 2> "$DIR/fake.err"; then
  echo "expected ping to refuse a reply with version 1e300" >&2
  exit 1
fi
wait "$FAKE_PID"
test "$(wc -l < "$DIR/fake.err")" = "1"
grep -q "'version'" "$DIR/fake.err"

# Daemon settings are checked before it listens: --eval-threads and the
# removed caps (--max-inflight; the entry budgets --max-result-cache and
# --max-eval-cache, which --max-store-bytes replaced) are not options, and
# a negative worker count is one error line (such a daemon would accept
# jobs and never run them). `timeout` bounds a daemon that would start
# anyway.
for flag in --eval-threads --max-inflight --max-result-cache \
      --max-eval-cache; do
  if timeout 10 "$CLI" serve --socket "$DIR/bad.sock" \
        --store "$DIR/store-bad" "$flag" 1 > "$DIR/bad-serve.out" 2>&1; then
    echo "expected serve $flag to be refused" >&2
    exit 1
  fi
  grep -q "unknown option: $flag" "$DIR/bad-serve.out"
done
if timeout 10 "$CLI" serve --socket "$DIR/bad.sock" --store "$DIR/store-bad" \
      --workers -1 > "$DIR/bad-workers.out" 2>&1; then
  echo "expected serve --workers -1 to be refused" >&2
  exit 1
fi
test "$(wc -l < "$DIR/bad-workers.out")" = "1"
grep -q "^error: .*--workers" "$DIR/bad-workers.out"

echo "service smoke test passed"

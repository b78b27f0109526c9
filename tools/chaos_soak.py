#!/usr/bin/env python3
"""Deterministic chaos soak for the mapping service's durable store.

Iterates the daemon's full crash-point matrix (`automap_cli crash-points`:
every store-write/fsync/rename instant in src/support/durable.cpp). For
each point it arms AUTOMAP_CRASH_POINT so the daemon `_exit(42)`s at that
exact instant, drives a scenario that reaches the instant, restarts the
daemon on the same store, resubmits the identical request, and asserts
the final answer is byte-identical (summary line and mapping bytes) to an
uninterrupted reference run. A crash at any persistence step must cost at
most recomputation — never a wrong answer, a wedged store, or a daemon
that refuses to start.

Scenarios by artifact kind:
  request / checkpoint / result  submit a small search; the crash fires
                                 while persisting the request, a
                                 task-boundary checkpoint, or the result.
  bucket                         same, submitted with --reuse so job
                                 completion writes an eval-cache bucket.
  tombstone                      queued-job cancel on a --workers 0
                                 daemon; the crash fires while writing
                                 the cancellation tombstone.

Usage: chaos_soak.py <path-to-automap_cli> <path-to-automap_client>
                     [--points save.result.renamed,...] [--keep]
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

CRASH_EXIT = 42
SEARCH_FLAGS = ["--rotations", "4", "--repeats", "2"]
STEP_TIMEOUT_S = 120


def log(message):
    print(message, flush=True)


def fail(message, *logs):
    sys.stderr.write("FAIL: %s\n" % message)
    for path in logs:
        if path and os.path.exists(path):
            sys.stderr.write("---- %s ----\n" % path)
            sys.stderr.write(open(path, errors="replace").read())
    sys.exit(1)


class Daemon:
    """One daemon process on a given socket/store, optionally armed."""

    def __init__(self, cli, sock, store, log_path, crash_point=None,
                 workers=1):
        self.sock = sock
        self.log_path = log_path
        env = dict(os.environ)
        env.pop("AUTOMAP_CRASH_POINT", None)
        if crash_point:
            env["AUTOMAP_CRASH_POINT"] = crash_point
        self.log_file = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [cli, "serve", "--socket", sock, "--store", store,
             "--workers", str(workers)],
            stdout=self.log_file, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self, client):
        deadline = time.time() + STEP_TIMEOUT_S
        while time.time() < deadline:
            if self.proc.poll() is not None:
                fail("daemon exited before becoming ready (rc %s)"
                     % self.proc.returncode, self.log_path)
            ping = subprocess.run(
                [client, "ping", "--socket", self.sock],
                capture_output=True)
            if ping.returncode == 0:
                return
            time.sleep(0.05)
        fail("daemon did not come up", self.log_path)

    def wait_exit(self, timeout_s):
        """Returns the exit code, or None if still running after timeout."""
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            rc = self.proc.poll()
            if rc is not None:
                self.log_file.close()
                return rc
            time.sleep(0.02)
        return None

    def shutdown(self, client):
        subprocess.run([client, "shutdown", "--socket", self.sock],
                       capture_output=True)
        rc = self.wait_exit(STEP_TIMEOUT_S)
        if rc is None:
            self.kill()
            fail("daemon ignored shutdown", self.log_path)
        if rc != 0:
            fail("daemon shutdown rc %d" % rc, self.log_path)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log_file.close()


def best_line(text_path):
    for line in open(text_path, errors="replace"):
        if "best mapping" in line:
            return line
    fail("no 'best mapping' line in %s" % text_path, text_path)


def submit_args(client, sock, machine, graph, reuse, wait_to=None):
    cmd = [client, "submit", machine, graph, "--socket", sock]
    cmd += SEARCH_FLAGS
    if reuse:
        cmd.append("--reuse")
    if wait_to:
        cmd += ["--wait", "-o", wait_to]
    return cmd


class Soak:
    def __init__(self, cli, client, workdir):
        self.cli = cli
        self.client = client
        self.workdir = workdir
        self.machine = os.path.join(workdir, "m.machine")
        self.graph = os.path.join(workdir, "g.graph")
        subprocess.run([cli, "export-machine", "shepard", "2", self.machine],
                       check=True, capture_output=True)
        subprocess.run([cli, "export-app", "stencil", "2", "1", self.graph],
                       check=True, capture_output=True)
        self.n_scenarios = 0

    def scenario_dir(self, name):
        path = os.path.join(self.workdir, name.replace(".", "_"))
        os.makedirs(path, exist_ok=True)
        return path

    def reference(self, reuse):
        """One uninterrupted daemon run — the byte-identity yardstick."""
        name = "ref-reuse" if reuse else "ref-plain"
        d = self.scenario_dir(name)
        sock = os.path.join(d, "s.sock")
        daemon = Daemon(self.cli, sock, os.path.join(d, "store"),
                        os.path.join(d, "serve.log"))
        daemon.wait_ready(self.client)
        mapping = os.path.join(d, "ref.mapping")
        out = os.path.join(d, "ref.txt")
        result = subprocess.run(
            submit_args(self.client, sock, self.machine, self.graph, reuse,
                        wait_to=mapping),
            stdout=open(out, "wb"), stderr=subprocess.STDOUT,
            timeout=STEP_TIMEOUT_S)
        if result.returncode != 0:
            fail("reference submit failed", out, daemon.log_path)
        daemon.shutdown(self.client)
        return {"line": best_line(out),
                "mapping": open(mapping, "rb").read()}

    def check_final(self, sock, ref, d, log_path):
        """Resubmits on the restarted daemon and compares to `ref`."""
        mapping = os.path.join(d, "final.mapping")
        out = os.path.join(d, "final.txt")
        reuse = ref is self.ref_reuse
        result = subprocess.run(
            submit_args(self.client, sock, self.machine, self.graph, reuse,
                        wait_to=mapping),
            stdout=open(out, "wb"), stderr=subprocess.STDOUT,
            timeout=STEP_TIMEOUT_S)
        if result.returncode != 0:
            fail("post-restart submit failed", out, log_path)
        if best_line(out) != ref["line"]:
            fail("summary line diverged after crash/restart:\n  got  %r\n"
                 "  want %r" % (best_line(out), ref["line"]), log_path)
        if open(mapping, "rb").read() != ref["mapping"]:
            fail("mapping bytes diverged after crash/restart", log_path)

    def run_submit_scenario(self, point, ref):
        """Crash while persisting request/checkpoint/result/bucket."""
        d = self.scenario_dir(point)
        sock = os.path.join(d, "s.sock")
        store = os.path.join(d, "store")
        log1 = os.path.join(d, "serve1.log")
        daemon = Daemon(self.cli, sock, store, log1, crash_point=point)
        daemon.wait_ready(self.client)
        reuse = ref is self.ref_reuse
        # The submit may die with the daemon (request-kind points fire
        # inside handle_submit) — any exit code is acceptable here.
        subprocess.run(
            submit_args(self.client, sock, self.machine, self.graph, reuse),
            capture_output=True, timeout=STEP_TIMEOUT_S)
        rc = daemon.wait_exit(STEP_TIMEOUT_S)
        if rc is None:
            daemon.kill()
            fail("%s never fired: daemon still alive after the job"
                 % point, log1)
        if rc != CRASH_EXIT:
            fail("%s: daemon exited rc %d, expected %d"
                 % (point, rc, CRASH_EXIT), log1)
        # Restart unarmed on the wounded store; recovery must accept it.
        daemon2 = Daemon(self.cli, sock, store,
                         os.path.join(d, "serve2.log"))
        daemon2.wait_ready(self.client)
        self.check_final(sock, ref, d, daemon2.log_path)
        daemon2.shutdown(self.client)
        self.n_scenarios += 1
        log("ok %s (killed at crash point, recovered byte-identical)"
            % point)

    def run_tombstone_scenario(self, point, ref):
        """Crash while writing a queued-job cancellation tombstone."""
        d = self.scenario_dir(point)
        sock = os.path.join(d, "s.sock")
        store = os.path.join(d, "store")
        log1 = os.path.join(d, "serve1.log")
        # --workers 0: the job stays queued, so the cancel settles it at
        # once and writes its "keep" tombstone deterministically.
        daemon = Daemon(self.cli, sock, store, log1, crash_point=point,
                        workers=0)
        daemon.wait_ready(self.client)
        submit = subprocess.run(
            submit_args(self.client, sock, self.machine, self.graph,
                        reuse=False),
            capture_output=True, timeout=STEP_TIMEOUT_S)
        if submit.returncode != 0:
            fail("%s: queued submit failed unexpectedly" % point, log1)
        # The cancel dies with the daemon; tolerate the client error.
        subprocess.run([self.client, "cancel", "1", "--socket", sock],
                       capture_output=True, timeout=STEP_TIMEOUT_S)
        rc = daemon.wait_exit(STEP_TIMEOUT_S)
        if rc is None:
            daemon.kill()
            fail("%s never fired during cancel" % point, log1)
        if rc != CRASH_EXIT:
            fail("%s: daemon exited rc %d, expected %d"
                 % (point, rc, CRASH_EXIT), log1)
        daemon2 = Daemon(self.cli, sock, store,
                         os.path.join(d, "serve2.log"))
        daemon2.wait_ready(self.client)
        self.check_final(sock, ref, d, daemon2.log_path)
        daemon2.shutdown(self.client)
        self.n_scenarios += 1
        log("ok %s (killed mid-cancel, recovered byte-identical)" % point)

    def run(self, points):
        log("building reference runs (uninterrupted)")
        self.ref_plain = self.reference(reuse=False)
        self.ref_reuse = self.reference(reuse=True)
        for point in points:
            kind = point.split(".")[1]
            if kind == "tombstone":
                self.run_tombstone_scenario(point, self.ref_plain)
            elif kind == "bucket":
                self.run_submit_scenario(point, self.ref_reuse)
            else:
                self.run_submit_scenario(point, self.ref_plain)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cli", help="path to automap_cli")
    parser.add_argument("client", help="path to automap_client")
    parser.add_argument("--points",
                        help="comma-separated subset of crash points "
                             "(default: the full matrix)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory")
    args = parser.parse_args()

    listed = subprocess.run([args.cli, "crash-points"], check=True,
                            capture_output=True, text=True)
    matrix = [p for p in listed.stdout.split() if p]
    if args.points:
        chosen = args.points.split(",")
        unknown = [p for p in chosen if p not in matrix]
        if unknown:
            fail("unknown crash points: %s" % ", ".join(unknown))
        matrix = chosen

    workdir = tempfile.mkdtemp(prefix="automap-chaos-")
    try:
        soak = Soak(os.path.abspath(args.cli), os.path.abspath(args.client),
                    workdir)
        soak.run(matrix)
        log("chaos soak passed: %d crash points, all recoveries "
            "byte-identical" % soak.n_scenarios)
    finally:
        if args.keep:
            log("scratch kept at %s" % workdir)
        else:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

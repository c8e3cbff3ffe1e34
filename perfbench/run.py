#!/usr/bin/env python3
"""Repository benchmark: front quality per second on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper-400 --seed 1 --seconds 10 --trace 0

builds the libraries, the solver_cli job server and the benchmark driver
from source (into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench),
runs the checker's own tests, runs the workload for --seconds, checks every
output and prints one JSON line with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1).  Workloads: paper-400 and pruned-1000,
run in-process by perfbench_driver.  After paper-400 a probe sends jobs
through `solver_cli --serve-jobs` and checks them.

    python3 perfbench/run.py --calibrate 101,102,...

regenerates perfbench/reference.json (hypervolume boxes and targets) from
reference runs at those seeds.  See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("paper-400", "pruned-1000")
# The job-plane probe runs with this workload: rounds of 12 jobs (seq and
# sync at 25k evaluations on the six 400-customer classes) through
# solver_cli --serve-jobs, one round untraced and eight traced.
JOB_PROBE_WORKLOAD = "paper-400"
JOB_PROBE_ROUNDS = (1, 8)
JOB_WORKERS = 2
POLL_S = 0.001


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    for need in ("src/CMakeLists.txt", "examples/solver_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no repository sources: %s is missing" % need)
    bd = build_dir()
    os.makedirs(bd, exist_ok=True)
    log_path = os.path.join(bd, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bd, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", bd,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bd, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    test = subprocess.run([os.path.join(bd, "perfbench_checker_test")],
                          capture_output=True, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        fail("checker tests failed")
    return bd


def last_json_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_driver(bd, args, timeout=170):
    proc = subprocess.run([os.path.join(bd, "perfbench_driver")] + args,
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("perfbench_driver exited with %d" % proc.returncode)
    return proc.stdout


# ---------------------------------------------------------------------------
# Job-plane probe: a closed loop of one client against the job server
# ---------------------------------------------------------------------------

class Server:
    """solver_cli --serve-jobs on an ephemeral port."""

    def __init__(self, bd):
        self.proc = subprocess.Popen(
            [os.path.join(bd, "solver_cli"), "--serve-jobs", "--serve", "0",
             "--job-workers", str(JOB_WORKERS), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                self.stop()
                fail("job server did not start")
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                fail("job server exited at start-up")
            m = re.search(r"job server on http://127\.0\.0\.1:(\d+)", line)
            if m:
                self.port = int(m.group(1))
        # Drain the rest of stdout so the server never blocks on it.
        self.drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self.drain.start()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def request(port, method, path, body=None):
    t0 = time.monotonic()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(data), time.monotonic() - t0


def run_job(port, body):
    """One job: submit, poll until terminal, fetch the result."""
    t0 = time.monotonic()
    code, sub, submit_s = request(port, "POST", "/jobs", body)
    if code != 202:
        raise RuntimeError("submit answered %d: %s" % (code, sub))
    status_s = []
    while True:
        code, status, dt = request(port, "GET", "/jobs/" + sub["id"])
        status_s.append(dt)
        if status.get("state") in ("done", "failed", "cancelled"):
            break
        time.sleep(POLL_S)
    result, result_s = {}, 0.0
    if status.get("state") == "done":
        code, result, result_s = request(port, "GET",
                                         "/jobs/%s/result" % sub["id"])
    return {"body": body, "latency_s": time.monotonic() - t0,
            "submit_s": submit_s, "status_s": status_s, "result_s": result_s,
            "status": status, "result": result}


def job_probe(bd, seed, rounds):
    """Runs `rounds` rounds of jobs and returns the result of `perfbench_driver check-jobs`."""
    bodies = []
    for variant in range(rounds):
        out = run_driver(bd, ["bodies", "--variant", str(variant)])
        round_bodies = [ln.split("\t", 1)[1] for ln in out.splitlines() if ln]
        # The seed orders each round's submissions.
        random.Random(seed * 1000 + variant).shuffle(round_bodies)
        bodies += round_bodies
    records = []
    server = Server(bd)
    try:
        for body in bodies:
            try:
                records.append(run_job(server.port, body))
            except Exception as e:  # recorded as a failed operation
                records.append({"body": body,
                                "status": {"state": "client error: %s" % e},
                                "result": {}})
    finally:
        server.stop()
    path = os.path.join(bd, "jobs-%d.json" % os.getpid())
    with open(path, "w") as f:
        json.dump({"jobs": records}, f)
    try:
        out = run_driver(bd, ["check-jobs", path, "--reference", REFERENCE])
    finally:
        os.remove(path)
    return last_json_line(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate", metavar="SEEDS",
                    help="comma-separated reference seeds; rewrites "
                         "perfbench/reference.json")
    args = ap.parse_args()
    if not args.calibrate and args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    bd = build()
    if args.calibrate:
        out = run_driver(bd, ["calibrate", "--seeds", args.calibrate],
                         timeout=3600)
        with open(REFERENCE, "w") as f:
            f.write(out)
        print("wrote " + REFERENCE)
        return
    result = last_json_line(run_driver(bd, [
        "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", REFERENCE]))
    if result is None:
        fail("perfbench_driver printed no result")
    if args.workload == JOB_PROBE_WORKLOAD:
        # Runs after the timed run, so it adds checks and per-layer
        # timings but no end-to-end sample.
        probe = job_probe(bd, args.seed, JOB_PROBE_ROUNDS[args.trace])
        if probe is None:
            fail("job probe printed no result")
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["correct"] = result["correct"] and probe["correct"]
        if args.trace:
            result["metrics"].update(probe["metrics"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

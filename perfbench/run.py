#!/usr/bin/env python3
"""End-to-end benchmark of gridbw.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The script builds bin/gridbw.exe and
perfbench/perfbench.exe with dune, runs one workload, checks its outputs,
prints every metric with its unit, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
same run is followed by an in-process traced replay (perfbench trace) and
the metrics are the per-layer ones.  perfbench/layers.json says which
end-to-end metric each layer should move, on which workload.

Workloads (see BENCHMARK.json for why each exists):
  durable-open   open-loop Poisson arrivals against `gridbw serve --store-dir`
  durable-burst  fixed windows of outstanding requests, same durable daemon
  memory-burst   the same windows against a daemon without a store
  batch-engines  WINDOW, GREEDY and MALLEABLE in-process, no serve or store
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join("perfbench", "_work")  # relative: Unix socket paths are short
GRIDBW = os.path.join("_build", "default", "bin", "gridbw.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SOCKET = os.path.join(WORK, "d.sock")

OPEN_RATE = 2000.0  # requests per second offered to durable-open
# durable-open first sends this head of its stream with full windows (not
# measured), past the store's first snapshot; its measured open-loop window
# then crosses the second and the third (at 57k and 85k admits).
PREFILL = 50_000
WINDOW = 64  # outstanding requests per connection on the burst workloads
# The burst workloads run identical trials (same seed, fresh daemon and
# store) until --seconds is spent, at least MIN_TRIALS of them.  Each trial
# sends a fixed number of operations (capped at a MIN_TRIALS-th of
# --seconds), so the journal, the snapshot count and the daemon's memory,
# all of which grow with the requests served, are the same size on every
# run.
DURABLE_BURST_OPS = 100_000
MEMORY_BURST_OPS = 100_000
MIN_TRIALS = 3
SETUP_SPAWNS = 21  # fresh-store daemon spawns timed for setup_s, besides the trials'
RESTARTS = 2  # restarts on each trial's journal timed for recover_s
TRACE_OPS = 120_000  # longest request-stream prefix the traced replay runs
BATCH_TRACE_OPS = 40_000  # batch-engines replays this much of its stream...
BATCH_ROUND = 64  # ...in rounds of the default group-commit batch
LATE_LIMIT_US = 5000.0  # an open loop later than this at p99 (a tenth of the SLO) is invalid

WORKLOADS = {
    "durable-open": {"store": True, "rate": OPEN_RATE, "prefill": PREFILL},
    "durable-burst": {"store": True, "window": WINDOW, "ops": DURABLE_BURST_OPS},
    "memory-burst": {"store": False, "window": WINDOW, "ops": MEMORY_BURST_OPS},
    "batch-engines": {},
}

E2E_UNITS = {
    "ack_p50_us": "us",
    "ack_p99_us": "us",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "recover_s": "s",
    "rss_mb": "MB",
    "store_bytes_per_req": "B",
    "slo_miss_ratio": "ratio",
    "fail_ratio": "ratio",
}

# Per-layer figures printed but not listed in BENCHMARK.json: they only
# move on the durable workloads, which BENCHMARK.json does not list.
LAYER_UNITS = {
    "serve.requests_per_flush": "count",
    "store.fsyncs_per_kreq": "count",
    "store.snapshots": "count",
    "e2e.store_bytes_per_req": "B",
    "e2e.fail_ratio": "ratio",
    "trace.ops": "count",
    "trace.replay_s": "s",
    "trace.snapshots": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    if not os.path.exists(os.path.join("bin", "gridbw.ml")) or shutil.which("dune") is None:
        raise BenchError("no gridbw source tree or no dune here: nothing to benchmark")
    # no shared dune cache: the build reads and writes inside the checkout only
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled", GRIDBW, PERFBENCH]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stderr[-4000:])


def run_json(args, timeout=170):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(args), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- the daemon ---------------------------------------------------------


class Daemon:
    """`gridbw serve` as a child process; `ready_s` is spawn to accepting."""

    def __init__(self, store_dir, tag):
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        args = [GRIDBW, "serve", "--socket", SOCKET]
        if store_dir:
            args += ["--store-dir", store_dir]
        self.err = open(os.path.join(WORK, "serve-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = t0 + 120
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(SOCKET)
                self.ready_s = time.perf_counter() - t0
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.kill()
                    raise BenchError("daemon did not start (%s)" % tag)
                time.sleep(0.0005)
            finally:
                s.close()

    def status(self, key):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        return 0

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.err.close()


def fresh(path):
    """Remove `path` and fsync its parent: the filesystem may discard the
    freed blocks at its next commit, which must not land inside the next
    measurement."""
    if os.path.exists(path):
        shutil.rmtree(path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return path


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


# --- workloads ----------------------------------------------------------


def serve_trial(spec, seed, seconds):
    """One daemon on a fresh store: drive it, SIGKILL it, restart it on its
    journal RESTARTS times, and check what came back."""
    store = fresh(os.path.join(WORK, "store")) if spec["store"] else None
    daemon = Daemon(store, "run")
    rss_start_kb = daemon.status("VmRSS")
    acks = os.path.join(WORK, "acks.txt")
    args = [PERFBENCH, "gen", "--socket", SOCKET, "--seed", str(seed), "--seconds", str(seconds), "--acks", acks]
    if "rate" in spec:
        args += ["--rate", str(spec["rate"]), "--prefill", str(spec["prefill"])]
    else:
        args += ["--window", str(spec["window"]), "--ops", str(spec["ops"])]
    if not store:
        args.append("--validate")
    try:
        gen = run_json(args)
        rss_kb = daemon.status("VmHWM")
        rss_end_kb = daemon.status("VmRSS")
        cpu = daemon.cpu_s()
    finally:
        daemon.kill()
    restarts = []
    for i in range(RESTARTS):
        d = Daemon(store, "restart%d" % i)
        restarts.append(d.ready_s)
        d.kill()
    failures = [gen["first_failure"]] if gen["first_failure"] else []
    failed = gen["failed"]
    store_bytes = 0
    if store:
        store_bytes = dir_bytes(store)
        check = run_json([PERFBENCH, "check", "--store", store, "--acks", acks])
        failed += check["failed"]
        if check["first_failure"]:
            failures.append(check["first_failure"])
        if check["admits"] != gen["admitted"] or check["cancels"] != gen["cancel_ok"]:
            failed += 1
            failures.append("acks journal does not match the generator's counts")
    if "rate" in spec and gen["late_p99_us"] > LATE_LIMIT_US:
        failed += 1
        failures.append("invalid run: the generator fell behind its schedule (late p99 %.0f us)"
                        % gen["late_p99_us"])
    sent = gen["sent"]
    daemon_requests = gen["daemon_requests"]
    flushes = gen["phase_flushes"]
    per_flush = gen["phase_requests"] / flushes if flushes else 0.0
    return {
        "sent": sent,
        "failed": failed,
        "failures": failures,
        "setup": daemon.ready_s,
        "restarts": restarts,
        "e2e": {
            "ack_p50_us": gen["ack_p50_us"],
            "ack_p99_us": gen["ack_p99_us"],
            "throughput_rps": gen["throughput_rps"],
            "rss_mb": rss_kb / 1024.0,
            "store_bytes_per_req": store_bytes / sent,
            "slo_miss_ratio": gen["slo_misses"] / gen["measured"],
        },
        "layer": {
            "serve.requests_per_flush": per_flush,
            "serve.errors": gen["daemon_protocol_errors"] + gen["errors"],
            "serve.cpu_ms_per_kreq": cpu * 1e3 / (daemon_requests / 1e3),
            "store.fsyncs_per_kreq": gen["daemon_fsyncs"] / (daemon_requests / 1e3),
            "store.snapshots": gen["daemon_snapshots"],
            "gen.late_p99_us": gen["late_p99_us"],
            "gen.late_max_us": gen["late_max_us"],
        },
        "info": {
            "sent": sent,
            "admitted": gen["admitted"],
            "rejected": gen["rejected"],
            "cancelled": gen["cancel_ok"],
            "queries": gen["queries"],
            "measured": gen["measured"],
            "wall_s": gen["wall_s"],
            "ack_max_us": gen["ack_max_us"],
            "late_p99_us": gen["late_p99_us"],
            "snapshots": gen["daemon_snapshots"],
            "rss_start_mb": rss_start_kb / 1024.0,
            "rss_end_mb": rss_end_kb / 1024.0,
            "round": per_flush or BATCH_ROUND,
        },
    }


def serve_workload(spec, seed, seconds):
    """durable-open: one trial of --seconds.  Burst workloads: identical
    trials (same seed) until --seconds is spent; every figure is the median
    over trials, so a slow stretch of the machine moves one trial, not the
    result."""
    if "rate" in spec:
        trials = [serve_trial(spec, seed, seconds)]
    else:
        trials, walls = [], []
        t0 = time.perf_counter()
        while len(trials) < MIN_TRIALS or time.perf_counter() - t0 + statistics.median(walls) <= seconds:
            t = time.perf_counter()
            trials.append(serve_trial(spec, seed, seconds / MIN_TRIALS))
            walls.append(time.perf_counter() - t)
            log("trial %d: %s" % (len(trials), " ".join("%s=%.4g" % kv for kv in trials[-1]["e2e"].items())))
    setups = [t["setup"] for t in trials]
    for i in range(SETUP_SPAWNS):
        d = Daemon(fresh(os.path.join(WORK, "setup-store")) if spec["store"] else None, "setup%d" % i)
        setups.append(d.ready_s)
        d.kill()
    attempted = sum(t["sent"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    failures = [f for t in trials for f in t["failures"]]

    def med(part, key):
        return statistics.median(t[part][key] for t in trials)

    e2e = {k: med("e2e", k) for k in trials[0]["e2e"]}
    e2e["setup_s"] = statistics.median(setups)
    e2e["recover_s"] = statistics.median(r for t in trials for r in t["restarts"])
    e2e["fail_ratio"] = failed / attempted
    layer = {k: med("layer", k) for k in trials[0]["layer"]}
    layer["gen.late_max_us"] = max(t["layer"]["gen.late_max_us"] for t in trials)
    info = {k: med("info", k) for k in trials[0]["info"]}
    info["trials"] = len(trials)
    return attempted, failed, failures, e2e, layer, info


def batch_workload(seed, seconds):
    out = run_json([PERFBENCH, "batch", "--seed", str(seed), "--seconds", str(seconds)])
    attempted = out["attempted"]
    e2e = {
        "ack_p50_us": out["ack_p50_us"],
        "ack_p99_us": out["ack_p99_us"],
        "throughput_rps": out["throughput_rps"],
        "setup_s": out["setup_s"],
        "recover_s": out["recover_s"],
        "rss_mb": out["rss_mb"],
        "store_bytes_per_req": 0.0,
        "slo_miss_ratio": out["slo_misses"] / attempted,
        "fail_ratio": out["failed"] / attempted,
    }
    layer = {
        "serve.requests_per_flush": 0.0,
        "serve.errors": 0.0,
        "serve.cpu_ms_per_kreq": out["cpu_ms_per_kreq"],
        "store.fsyncs_per_kreq": 0.0,
        "store.snapshots": 0.0,
        "gen.late_p99_us": out["late_p99_us"],
        "gen.late_max_us": out["late_max_us"],
    }
    info = {"passes": out["passes"], "segments": out["segments"], "pass_ms": out["pass_ms"],
            "accepted": out["accepted"], "round": BATCH_ROUND}
    return attempted, out["failed"], out["failures"], e2e, layer, info


def pin():
    """Run the rest of the benchmark, and every process it starts, on one
    CPU.  The generator and the daemon then take turns on it: no wakeup
    crosses CPUs, which on 2 shared virtual CPUs made memory-burst's
    throughput spread 2 to 7 times as much across identical trials.
    Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def metadata(seed, pinned_cpu):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip() or "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "pinned": "all processes on CPU %d" % pinned_cpu,
        "cpu": cpu,
        "store_fs": fs_type(WORK),
        "link": "Unix socket, no real link",
        "ocaml": ocaml,
        "python": platform.python_version(),
        "commit": git,
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    # on SIGTERM, unwind through the finally blocks that kill the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    try:
        build()
        cpu = pin()
        os.makedirs(WORK, exist_ok=True)
        for k, v in metadata(a.seed, cpu).items():
            print("meta %-8s %s" % (k, v))
        if a.workload == "batch-engines":
            attempted, failed, failures, e2e, layer, info = batch_workload(a.seed, a.seconds)
        else:
            attempted, failed, failures, e2e, layer, info = serve_workload(WORKLOADS[a.workload], a.seed, a.seconds)
        for k, v in info.items():
            print("info %-20s %s" % (k, v))
        for k in E2E_UNITS:
            print("e2e  %-20s %.6g %s" % (k, e2e[k], E2E_UNITS[k]))
        for f in failures:
            print("FAIL %s" % f)
        metrics = {}
        if a.trace == 0:
            for m in BENCH["end_to_end"]:
                metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
        else:
            ops = min(int(info["sent"]), TRACE_OPS) if a.workload != "batch-engines" else BATCH_TRACE_OPS
            trace_dir = fresh(os.path.join(WORK, "trace"))
            spans = os.path.join(WORK, "spans.tsv")
            traced = run_json([PERFBENCH, "trace", "--seed", str(a.seed),
                               "--ops", str(ops), "--round", str(max(1, round(info["round"]))),
                               "--dir", trace_dir, "--spans", spans])
            layer.update(traced)
            layer["e2e.slo_miss_ratio"] = e2e["slo_miss_ratio"]
            layer["e2e.fail_ratio"] = e2e["fail_ratio"]
            layer["e2e.store_bytes_per_req"] = e2e["store_bytes_per_req"]
            for k in sorted(traced):
                if k.startswith("trace.self_ms."):
                    print("self %-30s %10.1f ms" % (k[len("trace.self_ms."):], traced[k]))
            units = dict(LAYER_UNITS, **{m["name"]: m["unit"] for m in BENCH["per_layer"]})
            for k in sorted(layer):
                if not k.startswith("trace.self_ms."):
                    print("layer %-30s %.6g %s" % (k, layer[k], units[k]))
            for m in BENCH["per_layer"]:
                metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
    print(json.dumps(result))


with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

if __name__ == "__main__":
    main()

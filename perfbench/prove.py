#!/usr/bin/env python3
"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/prove.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Runs perfbench/run.py once per seed on each workload (untraced), then one
traced run per workload on the first seed.  For every end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles over the median, which must stay
within the metric's bound in BENCHMARK.json.  With --out, everything is
written as JSON (perfbench/baseline.json is such a file).  Takes about half
a minute per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
META = {}  # run metadata of the first run (machine, toolchain, commit)


def run(workload, seed, seconds, trace):
    t = time.perf_counter()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t
    if p.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            key, _, value = line[5:].strip().partition(" ")
            META.setdefault(key, value.strip())
        if line.startswith("FAIL"):
            print("%s seed %d: %s" % (workload, seed, line), flush=True)
        parts = line.split()
        if parts and parts[0] in ("info", "e2e") and len(parts) >= 3:
            try:
                info[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return json.loads(lines[-1]), info, wall


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": a.seeds, "workloads": {}}
    for w in a.workloads.split(","):
        rows, infos, walls, incorrect = [], [], [], []
        for s in seeds_of(a.seeds):
            result, info, wall = run(w, s, bench["run_seconds"], 0)
            if not result["correct"]:
                incorrect.append(s)
                print("%s seed %d: outputs failed their checks" % (w, s), flush=True)
            rows.append({k: v["value"] for k, v in result["metrics"].items()})
            infos.append(info)
            walls.append(wall)
            print("%s seed %d (%.0f s): %s" % (w, s, wall, " ".join(
                "%s=%.4g" % kv for kv in rows[-1].items())), flush=True)
        e2e = {}
        for k in rows[0]:
            vals = [r[k] for r in rows]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[k] = {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med,
                      "bound": bounds.get(k), "values": vals}
            print("  %-16s median %-12.5g spread %.3f (bound %s)" % (k, med, e2e[k]["spread"], bounds.get(k)))
        printed = {}
        for k in infos[0]:
            vals = [i[k] for i in infos if k in i]
            printed[k] = {"median": statistics.median(vals), "min": min(vals), "max": max(vals)}
        traced, _, twall = run(w, seeds_of(a.seeds)[0], bench["run_seconds"], 1)
        report["workloads"][w] = {
            "end_to_end": e2e,
            "printed": printed,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls), "traced": twall},
            "incorrect_seeds": incorrect,
        }
    report["machine"] = {k: v for k, v in META.items() if k != "seed"}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

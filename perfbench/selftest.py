#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

A short clean run of each workload must pass all of its checks and print
every metric BENCHMARK.json names; then each job's check must catch its
planted fault (a mutated optimized unit in the flow, one corrupted
reference lane in the frames, one co-simulation built on a mutated gate
netlist in the campaign) as a counted failure with a non-zero exit.
Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace=0, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    return p.returncode, result, p.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    for w in workloads:
        for trace in (0, 1):
            rc, r, out = run(w, trace)
            ok = (rc == 0 and r is not None and r["correct"]
                  and r["failed"] == 0 and set(r["metrics"]) == names[trace])
            print("%-8s trace %d: %s" % (w, trace, "ok" if ok else "FAILED"))
            if not ok:
                bad += 1
                sys.stdout.write(out[-2000:])
    # Every run executes all three jobs, so one workload serves every fault.
    for job in ("flow", "frames", "campaign"):
        rc, r, out = run(workloads[0], 0, fault=job)
        caught = (rc == 1 and r is not None and not r["correct"]
                  and r["failed"] >= 1)
        print("%-8s planted fault: %s" % (job, "caught" if caught else
                                           "NOT CAUGHT"))
        if not caught:
            bad += 1
            sys.stdout.write(out[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <flow|frames> --seed <n> \
        --seconds <s> --trace <0|1> [--fault <flow|frames|campaign>]

Configures and builds perfbench/ (with the library sources in src/) as a
Release build under $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary with a private temporary directory for the JIT, so every
file it writes stays in the checkout.  The binary's standard output is
passed through; its last line is the JSON result.  The exit code is the
binary's: 0 when every check passed, 1 when one failed, 2 on a usage,
environment or build error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take this long before it is stopped (the whole command must end
# within 180 s; the first run of a checkout also builds, which is allowed
# 900 s).
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then bring the Release build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["flow", "frames"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--fault", choices=["flow", "frames", "campaign"])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")
    if os.environ.get("OSSS_NO_JIT", "") not in ("", "0"):
        fail("OSSS_NO_JIT is set; the benchmark measures the native engines")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    binary = build(build_dir)

    # The JIT compiles in $TMPDIR: give it a fresh directory in the build
    # tree and no disk cache, so every set-up compiles cold.
    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OSSS_") or k == "OSSS_CC"}
    env["TMPDIR"] = tmp
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces")]
    if args.fault:
        cmd += ["--fault", args.fault]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    shutil.rmtree(tmp, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode not in (0, 1) or not ok:
        sys.stderr.write(out)
        fail("benchmark exited with %d without a result" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

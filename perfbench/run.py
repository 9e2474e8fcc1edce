#!/usr/bin/env python3
"""Build and run the Purity end-to-end benchmark.

    python3 perfbench/run.py --workload oltp-hot --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds
perfbench/perfbench.exe with dune (into the checkout's _build), runs it
once and passes its output through; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is the benchmark's: 0 when every read and
every post-failover read-back matched, 1 otherwise, 2 when the benchmark
could not be built or run (then no result is printed).

Extra arguments after the four above go to the benchmark itself
(--size tiny, --gc-concurrent); see perfbench/METRICS.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SPANS_DIR = os.path.join(HERE, "out")
TMP_DIR = os.path.join(SPANS_DIR, "tmp")  # keeps dune's temporary files in the checkout
RUN_TIMEOUT_S = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP_DIR)
    # --root pins the workspace to this checkout, whatever encloses it
    proc = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return False
    return os.path.exists(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    os.makedirs(TMP_DIR, exist_ok=True)
    if not build():
        return 2
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--nproc", str(os.cpu_count() or 0),
        "--spans-dir", SPANS_DIR,
    ] + extra
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode, file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny runs of every workload.

    python3 perfbench/selftest.py

Run from the root of a source checkout. For each workload it runs
perfbench/run.py at --size tiny twice untraced and twice traced, all
with one seed, and checks that:

  1. every run passes the correctness check (exit 0, "correct": true);
  2. the two runs of a kind print identical values for every metric the
     benchmark marks exact (simulated latencies and IOPS, data_reduction,
     flash_write_amp, failover_sim_ms, count-valued layer metrics);
  3. in the traced runs the per-layer self times sum to within 5% of the
     traced host total (trace.self_sum_frac).

It also runs mix-cold-gc at full size with --gc-concurrent (about 40 s),
which reproduces a known
defect: GC passes that run while clients write lose overwrites (see
METRICS.md). That line reads "xfail" while the defect stands and "xpass"
once it is fixed; it does not change the exit code.

It prints one line per check and exits 0 when all pass, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp-hot", "mix-cold-gc", "vdi-ingest"]
SEED = 5
METRIC_LINE = re.compile(r"^\s+metric (\S+)\s+(\S+)\s+(\S+)\s+(exact|host)\b")


def run(workload, trace, seed=SEED, seconds=2, size="tiny", extra=(), stderr=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--size", size] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True,
    )
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(4) == "exact")
    return proc.returncode, result, printed


def main():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
        if not ok:
            failures += 1

    for workload in WORKLOADS:
        for trace in (0, 1):
            kind = "%s trace=%d" % (workload, trace)
            runs = [run(workload, trace) for _ in range(2)]
            for i, (rc, result, _) in enumerate(runs):
                check(rc == 0 and result is not None and result["correct"],
                      "%s run %d correct (exit %d)" % (kind, i + 1, rc))
            (_, r1, p1), (_, r2, p2) = runs
            if r1 is None or r2 is None:
                continue
            exact = sorted(k for k, (_, e) in p1.items() if e)
            # JSON carries every digit of the declared metrics; the printed
            # table covers the rest (error_rate)
            same = [k for k in exact
                    if (r1["metrics"].get(k, {}).get("value"), p1[k][0])
                    == (r2["metrics"].get(k, {}).get("value"), p2.get(k, (None,))[0])]
            diff = sorted(set(exact) - set(same))
            check(not diff and exact,
                  "%s: %d exact metrics repeat%s" % (kind, len(exact),
                                                    "; differ: " + ", ".join(diff) if diff else ""))
            if trace == 1:
                frac = r1["metrics"]["trace.self_sum_frac"]["value"]
                check(abs(frac - 1.0) <= 0.05,
                      "%s: layer self times sum to %.4f of the host total" % (kind, frac))
    rc, result, _ = run("mix-cold-gc", 0, seed=1, seconds=10, size="full",
                        extra=["--gc-concurrent"], stderr=subprocess.DEVNULL)
    if rc == 1 and result is not None and result["failed"] > 0:
        print("xfail mix-cold-gc --gc-concurrent: %d ops lost overwrites or read stale data"
              % result["failed"])
    else:
        print("xpass mix-cold-gc --gc-concurrent: no mismatch (exit %d); GC may now run "
              "concurrently by default" % rc)
    print("selftest: %s" % ("all checks passed" if failures == 0 else "%d checks failed" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

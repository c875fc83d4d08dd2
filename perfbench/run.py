#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one
workload for a host-time budget, and print its metrics.

    python3 perfbench/run.py --workload sriov_rx --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the
metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 they are the per-layer ones ("per_layer"). --workload all runs
every workload in turn and prints one table of end-to-end metrics,
error_rate included.

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the repository root. Build output
goes to standard error. Engine modes are chosen per workload inside the
driver; SRIOV_* environment variables are removed so they cannot change
them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sriov_rx", "fluid_scale", "rack_sharded", "pv_tcp"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; return its path."""
    bdir = build_dir()
    generated = [os.path.join(bdir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_driver")


def run_driver(exe, workload, args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SRIOV_")}
    cmd = [exe, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--scale=%s" % args.scale, "--inject=" + args.inject]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: driver failed on %s (exit %d)"
                         % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit("perfbench: malformed result line: " + lines[-1])
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every simulated horizon (smoke tests)")
    ap.add_argument("--inject", default="none",
                    choices=["none", "conservation", "determinism"],
                    help="break one output check on purpose (tests)")
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit("perfbench: build failed: %s" % e)

    if args.workload != "all":
        lines, result = run_driver(exe, args.workload, args)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    # Every workload in turn: the drivers' own metric lines (with units,
    # error_rate included) and one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_driver(exe, w, args)
        for line in lines:
            if line.startswith(w + " ") or line.startswith("FAIL"):
                print(line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()

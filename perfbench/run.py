#!/usr/bin/env python3
"""Build and run the perfbench host-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload replay-broadband [--seed N]
        [--seconds S] [--trace 0|1]

builds the benchmark (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, and passes its report through; the
last line of standard output is the JSON result. `--workload all` runs
every workload in turn. `--write-oracle` re-records a workload's expected
outputs at the default seed into perfbench/oracle/. A traced run writes
its span log to <target>/perfbench-spans/<workload>-seed<N>.jsonl.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["replay-broadband", "replay-cellular-audited", "soak-openloop"]


def flag(args, name, default=None):
    """The value following `name` in `args`, or `default`."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run_one(exe, target, args, workload):
    args = list(args)
    if "--write-oracle" in args and flag(args, "--write-oracle", "--").startswith("--"):
        args.insert(args.index("--write-oracle") + 1, os.path.join(HERE, "oracle"))
    if flag(args, "--trace") == "1" and "--span-out" not in args:
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        seed = flag(args, "--seed", "2014")
        args += ["--span-out", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def main():
    args = sys.argv[1:]
    workload = flag(args, "--workload")
    if workload is None:
        print("usage: run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    if workload != "all":
        code, _ = run_one(exe, target, args, workload)
        return code
    # Every workload in turn; the last line merges their results.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    i = args.index("--workload")
    for w in WORKLOADS:
        code, last = run_one(exe, target, args[:i + 1] + [w] + args[i + 2:], w)
        if code != 0:
            return code
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build gpa-serve and the benchmark binary from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload zoo_mix --seed 1 --seconds 25 --trace 0

prints the run's ledger and, as the last line, its JSON result. With
``--repeat N`` the workload (or ``--workload all``) runs N times with
seeds seed, seed+1, ... and every metric's median and quartiles are
printed instead; the result of each run stays on stderr.

Builds go to $CARGO_TARGET_DIR (default ``.bench_build``); each run's
scratch files live under it and are removed when the run ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper_cases", "zoo_mix", "custom_kernels", "repeat_hits"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Build both binaries; return their paths, or None when a build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "gpa-server", "--bin", "gpa-serve"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for step in steps:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *step],
            stdout=sys.stderr,
            env=env,
            check=False,
        )
        if done.returncode != 0:
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "gpa-serve"), os.path.join(release, "gpa-perfbench")


def run_once(bench, serve, target_dir, workload, seed, seconds, trace, out):
    """One benchmark run; returns (exit code, parsed last stdout line or None)."""
    done = subprocess.run(
        [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--serve-bin", serve, "--work-dir", target_dir],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    out.write(done.stdout)
    out.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def repeat(bench, serve, target_dir, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        values = {}
        for k in range(args.repeat):
            code, result = run_once(bench, serve, target_dir, workload, args.seed + k,
                                    args.seconds, args.trace, sys.stderr)
            if code != 0 or result is None:
                print(f"{workload} seed {args.seed + k}: run failed (exit {code})")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        for name, (unit, vals) in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<30} median {med:12.4f} {unit:<6} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:7.2%}  n={len(vals)}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with consecutive seeds and print medians and quartiles")
    args = parser.parse_args()
    if args.workload == "all" and not args.repeat:
        parser.error("--workload all needs --repeat")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binaries = build(target_dir)
    if binaries is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    serve, bench = binaries
    if args.repeat:
        return repeat(bench, serve, target_dir, args)
    code, _ = run_once(bench, serve, target_dir, args.workload, args.seed, args.seconds,
                       args.trace, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

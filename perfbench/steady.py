#!/usr/bin/env python3
"""Steadiness mode: repeat each workload and print the spread of every metric.

Run from the repository root:

    python3 perfbench/steady.py

Every workload in BENCHMARK.json runs RUNS times, with seeds 1 to RUNS and
the file's run_seconds. For every end-to-end metric the script prints the
median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median, next
to the metric's bound, and flags every spread above a third of its bound,
setup_s's too. The bounds in BENCHMARK.json are set from this output.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    for workload in [w["name"] for w in bench["workloads"]]:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, RUNS + 1):
            out = run_once(bench["command"], workload, seed, seconds)
            if not out["correct"]:
                raise SystemExit(f"{workload} seed {seed}: checks failed")
            shares.add(out["failed"] / out["attempted"])
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {out['attempted']}, "
                  f"failed {out['failed']}", flush=True)
        print(f"\n{workload}: {RUNS} runs of {seconds} s, "
              f"failed shares seen: {sorted(shares)}")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:<24}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.3f}{bounds[name]:>8.2f} {units[name]}{flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
        print(flush=True)


if __name__ == "__main__":
    main()

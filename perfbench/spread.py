#!/usr/bin/env python3
"""Run the benchmark on one workload over several seeds and report, per
end-to-end metric, the median and the interquartile range as a share of
the median (quartiles as Python's statistics.quantiles(values, n=4) gives
them), next to the metric's bound.

    python3 perfbench/spread.py --workload real_dense --seeds 1-10

Run from the repository root; the first run builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / abs(q2)
        flag = "" if share <= bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:<28} {q2:>14.6g} {share:>11.4f} {bounds[name]:>6}{flag}")


if __name__ == "__main__":
    main()

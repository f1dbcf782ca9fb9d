"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload radius --seeds 1-10 [--trace 0]

Prints, per metric, the median of the per-seed values and the distance
between their first and third quartiles as a share of that median, as
``statistics.quantiles(values, n=4)`` gives them.  Runs go one after
another in this process's working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{args.workload:9s} {name:24s} median {med:.6g}  spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

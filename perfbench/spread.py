"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_queries --seeds 1-10 --seconds 10

For each metric this prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, which is how run-to-run spread is judged against the
bounds in BENCHMARK.json. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound")
              for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} | {lines[-2][:160]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            print(f"    {name} = {m['value']:.4f} {m['unit']}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
        print(f"{name}: median {med:.4f} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several input seeds.

    python3 perfbench/spread.py --workload er14-hash --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric its median and the distance between its first and
third quartile as a share of the median, next to the bound that
``BENCHMARK.json`` sets for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        argv = [sys.executable, *bench["command"][1:], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    print(f"\n{args.workload}: {'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>7s} {'spread/bound':>12s}")
    for key, vals in values.items():
        spread = quartile_spread(vals)
        bound = bounds.get(key)
        ratio = f"{spread / bound:12.2f}" if bound else f"{'-':>12s}"
        print(f"{'':{len(args.workload) + 2}s}{key:20s} {statistics.median(vals):12.6g} {spread:8.4f} {bound or '-':>7} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

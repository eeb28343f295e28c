"""Run the benchmark over several seeds and tabulate medians and spreads.

    python3 bench/summarize.py --seeds 1-10 [--seconds S] [--workload NAME ...]

Each run is a separate ``bench/run.py --trace 0`` process, one after another;
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  For every
workload and end-to-end metric the table gives the median, the quartiles and
the spread (interquartile distance over the median, as the acceptance rule
computes it with ``statistics.quantiles(values, n=4)``), plus the failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload or list(WORKLOADS):
        results = []
        for seed in seeds(args.seeds):
            res, wall = run(name, seed, args.seconds)
            res.update(workload=name, seed=seed, wall_s=wall)
            results.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed, {wall:.1f} s wall", file=sys.stderr)
        print(f"\n{name} ({len(results)} runs, {args.seconds} s each, "
              f"all correct: {all(r['correct'] for r in results)}, failed share: "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"max wall {max(r['wall_s'] for r in results):.1f} s)\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {key} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.2%} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

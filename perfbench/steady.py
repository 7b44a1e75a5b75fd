"""Steadiness check: run each workload repeatedly, one seed per run.

    python3 perfbench/steady.py --runs 10 [--workload NAME] [--first-seed 1]

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, and checks that share against the metric's ``bound`` in
BENCHMARK.json (``setup_s`` is reported but not gated: its spread
across processes is host noise; only its median is compared between
commits). It also requires every run to be correct and the share of
failed operations to be identical across runs. Exit status 1 if any
check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        results = [run_once(spec["command"], workload, seed,
                            spec["run_seconds"])
                   for seed in range(args.first_seed,
                                     args.first_seed + args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs, correct={correct}, "
              f"failed/attempted={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            gated = name != "setup_s"
            verdict = ("ok" if share <= bound else "OVER") if gated else "-"
            ok &= not gated or share <= bound
            print(f"   {name:<14} median {median:>12.4f}  q1 {q1:>12.4f}  "
                  f"q3 {q3:>12.4f}  iqr/median {share:6.3f}  "
                  f"bound {bound:.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Serving-path benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload craft_mesh_ramp --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass. Without ``--workload`` the
command runs every workload, each in its own process, and prints a
table. See perfbench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import time

# setup_s counts from here: before the program's imports.
_PROCESS_START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("craft_mesh_ramp", "raft_lan_rw", "fastraft_wan_churn")

#: Host seconds one round costs on the reference machine (2-core x86
#: container, CPython 3.11): ``--seconds`` buys that many rounds, a
#: fixed number for a given ``--seconds``, so simulated metrics repeat
#: exactly for a seed.
ROUND_SECONDS = {"craft_mesh_ramp": 3.3, "raft_lan_rw": 4.0,
                 "fastraft_wan_churn": 1.4}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ----------------------------------------------------------------------
# One round, reduced to what the metrics need
# ----------------------------------------------------------------------
def summarize(round_) -> dict:
    start, end = round_.window
    latencies = []
    completed_in_window = 0
    for op in round_.ops:
        done = round_.e2e_done(op)
        if done is None:
            continue
        if start <= done < end:
            completed_in_window += 1
        if op.kind == "write" and start <= op.due < end:
            latencies.append(done - op.due)
    failed = sum(1 for op in round_.ops if round_.e2e_done(op) is None)
    return {"latencies": latencies, "completed": completed_in_window,
            "window_s": end - start,
            "attempted": len(round_.ops), "failed": failed,
            "setup_s": sum(v for k, v in round_.host.items() if k != "run"),
            "run_s": round_.host["run"], "events": round_.events}


def run_round(workload: str, seed: int, trace: bool = False):
    import checks
    from workloads import WORKLOADS
    round_ = WORKLOADS[workload](seed, trace)
    problems = checks.violations(round_)
    return round_, problems


def probe(workload: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, check violations) of the workload's
    fixed-seed fault probe. Its writes applied out of session order are
    counted as failed (F3), so the session-order check does not gate it."""
    if workload != "craft_mesh_ramp":
        return 0, 0, []
    import checks
    from workloads import craft_probe
    round_ = craft_probe()
    problems = [f"probe: {p}" for p in checks.violations(round_)
                if not p.startswith("check_session_order")]
    failed = sum(1 for op in round_.ops if op.applied_at is None)
    return len(round_.ops), failed, problems


def sub_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def run_e2e(workload: str, seed: int, seconds: float,
            import_s: float) -> dict:
    from workloads import quantile
    problems: list[str] = []
    rounds = []
    attempted = failed = 0
    for index in range(rounds_for(workload, seconds)):
        round_, found = run_round(workload, sub_seed(seed, index))
        problems += found
        rounds.append(summarize(round_))
        del round_
        gc.collect()
        p_attempted, p_failed, found = probe(workload)
        problems += found
        attempted += rounds[-1]["attempted"] + p_attempted
        failed += rounds[-1]["failed"] + p_failed
    latencies = [x for r in rounds for x in r["latencies"]]
    run_s = sum(r["run_s"] for r in rounds)
    metrics = {
        "e2e_p50_ms": (quantile(latencies, 0.50) * 1e3, "ms"),
        "e2e_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms"),
        "goodput_rps": (sum(r["completed"] for r in rounds)
                        / sum(r["window_s"] for r in rounds), "req/s"),
        "setup_s": (import_s + statistics.median(
            r["setup_s"] for r in rounds), "s"),
        "run_s": (run_s, "s"),
        "events_per_s": (sum(r["events"] for r in rounds) / run_s,
                         "events/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems[:20], "metrics": metrics}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(workload: str, seed: int) -> dict:
    import layers
    import tracing

    plain, problems = run_round(workload, sub_seed(seed, 0))
    plain_summary = summarize(plain)
    setup = dict(plain.host)
    del plain
    gc.collect()
    tracer = tracing.LayerTracer()
    tracing.install(tracer)
    batches = layers.record_batches()
    round_, found = run_round(workload, sub_seed(seed, 0), trace=True)
    problems += found
    summary = summarize(round_)
    metrics = layers.per_layer(round_, tracer, batches)
    metrics["setup.build_s"] = (setup["build"], "s")
    metrics["setup.elect_s"] = (setup["elect"], "s")
    metrics["setup.warmup_s"] = (setup["warmup"], "s")
    metrics["bench.tracing_overhead"] = (
        summary["run_s"] / plain_summary["run_s"], "ratio")
    p_attempted, p_failed, found = probe(workload)
    problems += found
    if workload == "craft_mesh_ramp":
        metrics["craft.unapplied_at_end"] = (
            p_failed + summary["failed"], "count")
    return {"correct": not problems, "problems": problems[:20],
            "attempted": summary["attempted"] + p_attempted,
            "failed": summary["failed"] + p_failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def emit(result: dict) -> None:
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["metrics"].items()}}
    for problem in result.get("problems", ()):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out))


def run_all(args) -> int:
    """Every workload, each in its own process; a table, then one JSON
    object keyed by workload as the last line."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        result = results[name]
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:<28} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: F401  (the program's imports count as setup)
    import_s = time.process_time() - _PROCESS_START
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_e2e(args.workload, args.seed, args.seconds, import_s)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

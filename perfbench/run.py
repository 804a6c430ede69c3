"""culturesim benchmark: time ``culturesim.experiments.execute`` on preset
workloads, check its CSV outputs, and print every metric by name and unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when the outputs are correct, 1 when a check failed (the
result is still printed), 2 when the benchmark could not run.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, DESK_ITERATIONS, DESK_SIDE, WORKLOADS  # noqa: E402

GOLDEN_FILE = HERE / "golden.json"  # CSV sha256 per workload at DEFAULT_SEED, desk scale
WORK_DIR = HERE / "_work"  # execute() output directories, removed after each workload
SPANS_DIR = HERE / "results"  # span records of traced runs, kept

SETUP_SAMPLES = 11  # set-up-only interpreters per workload, besides the measuring ones
MIN_REPEATS = 5  # execute() calls in a measured run, at least
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_RUNS = TAIL_BEYOND + 2  # timed runs in a measured run, at least
CHILD_BUDGET_S = 170.0  # all processes of one workload must end within this


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank sample has at least
    TAIL_BEYOND samples beyond it; 0 when there are too few samples."""
    return max(0, 100 * (n - TAIL_BEYOND) // n) if n else 0


def nearest_rank(sorted_values, pct: int) -> float:
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def run_child(argv, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CULTURESIM_WORKERS", None)
    cmd = [sys.executable, str(HERE / "child.py")] + argv
    launch = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launch", repr(launch)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it left
        proc.communicate()
        raise BenchError(f"{' '.join(argv)}: did not finish within the time budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)}: exited with {proc.returncode}\n{err.strip()}")
    return json.loads(lines[-1])


def declared_metrics(trace: bool) -> list:
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]


def bench(name: str, seed: int, seconds: float, trace: bool,
          side: int = DESK_SIDE, iterations: int = DESK_ITERATIONS) -> dict:
    """Run one workload; return the contract result plus an "info" record."""
    workload = WORKLOADS[name]
    workers = workload.workers()
    other = (os.cpu_count() or 1) if workers == 1 else 1
    golden = None
    if (seed, side, iterations) == (DEFAULT_SEED, DESK_SIDE, DESK_ITERATIONS):
        golden = json.loads(GOLDEN_FILE.read_text())[name]
    deadline = time.monotonic() + CHILD_BUDGET_S
    WORK_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        def child(mode, n_workers, *extra):
            return run_child(["--mode", mode, "--workload", name, "--seed", str(seed),
                              "--workers", str(n_workers), "--out", str(Path(work) / mode),
                              "--side", str(side), "--iterations", str(iterations),
                              *extra], deadline)

        setups, traced = [], []
        spans_files = [str(SPANS_DIR / f"spans-{name}-seed{seed}-{i}.json") for i in (1, 2)]
        if trace:
            main = child("measure", workers)
            traced = [child("trace", 1, "--spans", path) for path in spans_files]
        else:
            setups = [child("setup", workers)["setup_s"] for _ in range(SETUP_SAMPLES)]
            main = child("measure", workers, "--seconds", str(seconds),
                         "--min-repeats", str(MIN_REPEATS),
                         "--min-runs", str(MIN_RUNS))
        cross = child("measure", other) if other != workers else None

    # Correctness: the CSVs of each process's first execute, which all
    # use the workload seed, equal the golden digests at the default seed
    # and otherwise each other (so workers=1 and workers=nproc agree byte
    # for byte).
    children = [c for c in (main, cross, *traced) if c is not None]
    checked = [c["executes"][0] for c in children if c["executes"]]
    errors = [c["error"] for c in children if "error" in c]
    reference = golden or (checked[0]["digests"] if checked else {})
    mismatched = sum(e["digests"][f] != reference.get(f) for e in checked for f in workload.csvs)
    runs_failed = sum(c.get("runs_failed", 0) for c in children)
    failed = mismatched + runs_failed
    attempted = (runs_failed + len(checked) * len(workload.csvs)
                 + sum(len(e["run_s"]) for c in children for e in c["executes"]))
    problems = [f"{mismatched} CSV file(s) differ from the reference digests"] if mismatched else []
    problems += errors

    info = {
        "workload": name, "seed": seed, "trace": int(trace), "nproc": os.cpu_count(),
        "python": platform.python_version(), "start_method": main["start_method"],
        "workers": workers, "cross_check_workers": other if cross else None,
        "lattice_side": side, "iterations": iterations,
        "failed_frac": failed / attempted if attempted else 1.0,
        "digests": checked[0]["digests"] if checked else {},
    }
    metrics = {}
    if not errors and trace:
        # Counts must repeat exactly between the two traced runs; times
        # are the median of the two.
        counts = {m["name"] for m in declared_metrics(True) if m["unit"] == "count"}
        per_run = [layer_metrics(t["stats"], t["counts"]) for t in traced]
        metrics = {k: per_run[0][k] if k in counts else statistics.median(p[k] for p in per_run)
                   for k in per_run[0]}
        (execute,) = main["executes"]
        metrics["experiments.pool.busy_frac"] = (
            sum(execute["run_s"]) / (workers * execute["run_jobs_s"]))
        unequal = sorted(k for k in counts if per_run[0][k] != per_run[1][k])
        if unequal:
            problems.append(f"counts differ between two traced runs of one seed: {unequal}")
        info["self_times_sum_to_root"] = all(t["self_sum_ok"] for t in traced)
        if not info["self_times_sum_to_root"]:
            problems.append("span self times do not sum to the root span's duration")
        untraced_serial = main if workers == 1 else cross
        traced_wall = statistics.median(t["executes"][0]["wall_s"] for t in traced)
        info["trace_overhead_s"] = traced_wall - untraced_serial["executes"][0]["wall_s"]
        info["spans_files"] = spans_files
    elif not errors:
        wall = statistics.median(e["wall_s"] for e in main["executes"])
        runs = sorted(r for e in main["executes"] for r in e["run_s"])
        pct = tail_percentile(len(runs))
        metrics = {
            "wall_s": wall,
            "agent_steps_per_s": main["agent_steps"] / wall,
            "run_s_p50": statistics.median(runs),
            "run_s_tail": nearest_rank(runs, pct),
            "setup_s": statistics.median(setups + [c["setup_s"] for c in (main, cross) if c]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        info.update(executes_timed=len(main["executes"]), run_s_samples=len(runs),
                    run_s_tail_percentile=pct, setup_samples=len(setups) + (2 if cross else 1))

    declared = declared_metrics(trace)
    if metrics and set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    info["problems"] = problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if metrics},
        "info": info,
    }


def report(result: dict) -> None:
    info = result["info"]
    print(f"== {info['workload']}  seed={info['seed']} trace={info['trace']} "
          f"nproc={info['nproc']} python={info['python']} "
          f"start_method={info['start_method']} workers={info['workers']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {info['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} failed)")
    if "trace_overhead_s" in info:
        print(f"  {'trace_overhead_s':36s} {info['trace_overhead_s']:>14.6g} s")
    for problem in info["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"info": info}))


def main(argv=None) -> int:
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "culturesim" / "__init__.py").is_file():
        print(f"error: no culturesim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            results[name] = bench(name, args.seed, args.seconds, bool(args.trace))
            report(results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

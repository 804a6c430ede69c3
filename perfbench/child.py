"""One benchmark process: set a workload up as a user would, then time
``culturesim.experiments.execute``.

run.py starts this script in a fresh interpreter with ``src`` on
PYTHONPATH. It prints one JSON object on its last stdout line.

Modes:
  setup    stop once execute would be entered (set-up time only);
  measure  call execute repeatedly, untraced, for at least --seconds,
           at least --min-repeats times and until --min-runs runs were
           timed; repeat i uses base_seed repeat_seed(seed, i);
  trace    call execute once at workers=1 with every layer wrapped in
           spans (see spans.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

RUN_S_ATTR = "_perfbench_run_s"


def install_run_timer() -> None:
    """Time every ``run_world`` call that ``experiments`` makes with one
    timer, and attach the time to the returned series so it travels back
    from pool workers with the result."""
    from culturesim import experiments

    run_world = experiments.run_world

    def timed_run_world(cfg, run_index):
        t0 = time.perf_counter()
        series = run_world(cfg, run_index)
        setattr(series, RUN_S_ATTR, time.perf_counter() - t0)
        return series

    experiments.run_world = timed_run_world


if __name__ == "__mp_main__":
    # Pool workers started by spawn or forkserver import this script under
    # this name; they need the same per-run timer as the parent.
    install_run_timer()


def csv_digests(out_dir: str, names) -> dict:
    digests = {}
    for name in names:
        path = Path(out_dir) / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return digests


def measure(spec0, workload, workers: int, seconds: float, min_repeats: int,
            min_runs: int) -> dict:
    from culturesim import experiments
    from workloads import repeat_seed

    install_run_timer()
    calls = []  # one entry per run_jobs call: jobs, wall and per-run seconds
    run_jobs = experiments.run_jobs

    def timed_run_jobs(jobs, workers=None):
        call = {"jobs": len(jobs)}
        calls.append(call)
        t0 = time.perf_counter()
        results = run_jobs(jobs, workers)
        call["wall_s"] = time.perf_counter() - t0
        call["run_s"] = [getattr(r, RUN_S_ATTR, None) for r in results]
        return results

    experiments.run_jobs = timed_run_jobs
    executes = []
    runs = 0
    deadline = time.perf_counter() + seconds
    while len(executes) < min_repeats or runs < min_runs or time.perf_counter() < deadline:
        seed = repeat_seed(spec0.world.base_seed, len(executes))
        spec = replace(spec0, world=replace(spec0.world, base_seed=seed))
        t0 = time.perf_counter()
        try:
            experiments.execute(spec, workers)
        except Exception:
            return {"executes": executes, "error": traceback.format_exc(),
                    "runs_failed": calls[-1]["jobs"] if calls else 1}
        wall = time.perf_counter() - t0
        (call,) = calls
        calls.clear()
        if None in call["run_s"]:
            raise RuntimeError("run_world was not timed; experiments no longer calls "
                               "experiments.run_world from its jobs")
        runs += len(call["run_s"])
        executes.append({
            "wall_s": wall,
            "run_jobs_s": call["wall_s"],
            "run_s": call["run_s"],
            "digests": csv_digests(spec.output_dir, workload.csvs),
        })
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "executes": executes,
        "agent_steps": len(executes[0]["run_s"]) * spec0.world.n_agents * spec0.world.iterations,
        "peak_rss_mb": peak_kb / 1024,
    }


def trace(spec, workload, spans_path: str) -> dict:
    from culturesim import experiments
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    execute = tracer.wrap("experiments.execute", experiments.execute)
    try:
        execute(spec, 1)
    except Exception:
        return {"executes": [], "error": traceback.format_exc(),
                "runs_failed": tracer.stats["world.run_world"][0] or 1}
    calls, total_ns, _ = tracer.stats["experiments.execute"]
    self_sum_ns = sum(stat[2] for stat in tracer.stats.values())
    Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
    Path(spans_path).write_text(json.dumps(
        {"stats": tracer.stats, "counts": tracer.counts, "spans": tracer.spans}) + "\n")
    return {
        "executes": [{
            "wall_s": total_ns / 1e9,
            "run_s": [(end - start) / 1e9 for name, start, end, _ in tracer.spans
                      if name == "world.run_world"],
            "digests": csv_digests(spec.output_dir, workload.csvs),
        }],
        "self_sum_ok": calls == 1 and self_sum_ns == total_ns,
        "stats": tracer.stats,
        "counts": tracer.counts,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--side", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-repeats", type=int, default=1)
    parser.add_argument("--min-runs", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    import culturesim
    from workloads import WORKLOADS, build_spec, load_templates

    workload = WORKLOADS[args.workload]
    spec = build_spec(workload, args.seed, args.out, args.side, args.iterations)
    load_templates(spec)
    setup_s = time.monotonic() - args.launch

    expected = Path(__file__).resolve().parent.parent / "src" / "culturesim"
    if Path(culturesim.__file__).resolve().parent != expected:
        print(f"error: imported culturesim from {culturesim.__file__}, not {expected}",
              file=sys.stderr)
        return 2

    result = {"setup_s": setup_s, "start_method": multiprocessing.get_start_method()}
    if args.mode == "measure":
        result.update(measure(spec, workload, args.workers, args.seconds,
                              args.min_repeats, args.min_runs))
    elif args.mode == "trace":
        result.update(trace(spec, workload, args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

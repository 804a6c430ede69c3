"""Span tracer that wraps culturesim's functions from the outside.

Nothing in the package is edited: ``install`` replaces module and class
attributes with timing wrappers before a run. Spans nest on one stack;
a span's self time is its duration minus the durations of its direct
children, so the self times of all spans sum exactly (in integer
nanoseconds) to the root span's duration. Hot per-agent spans are
aggregated only; coarse spans are also kept as (name, start, end,
parent) records.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

# Spans rare enough to keep one record per call.
KEPT_SPANS = frozenset({
    "experiments.execute",
    "experiments.run_jobs",
    "experiments.write",
    "world.run_world",
    "world.init",
    "world.step",
    "analysis.average_series",
    "analysis.summarize_cell",
})


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.stats: Dict[str, List[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Dict[str, int] = {}
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: List[list] = []  # open spans: [child_ns, nearest kept span index]
        self._clock = clock

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name: str, fn: Callable, observe: Callable = None) -> Callable:
        """Return ``fn`` timed as span ``name``; ``observe(args, result)``
        runs after the span closes, to update counters."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, clock = self._stack, self.spans, self._clock
        keep = name in KEPT_SPANS

        def traced(*args, **kwargs):
            kept = stack[-1][1] if stack else -1
            if keep:
                spans.append([name, 0, 0, kept])
                kept = len(spans) - 1
            frame = [0, kept]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[kept][1] = start
                    spans[kept][2] = end
            if observe is not None:
                observe(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; counters go to ``tracer.counts``."""
    from culturesim import agent, experiments, world
    from culturesim.fitness import max_fitness_single
    from culturesim.network import AutoAssociator

    wrap, count = tracer.wrap, tracer.count

    experiments.run_jobs = wrap("experiments.run_jobs", experiments.run_jobs)
    experiments.run_world = wrap("world.run_world", experiments.run_world)
    experiments.atomic_write = wrap(
        "experiments.write", experiments.atomic_write,
        lambda a, r: count("experiments.bytes_written", len(a[1].encode())))
    experiments.average_series = wrap("analysis.average_series", experiments.average_series)
    experiments.summarize_cell = wrap("analysis.summarize_cell", experiments.summarize_cell)

    world.derive_seed = wrap("world.init.derive_seed", world.derive_seed)
    world.p_create_histogram = wrap("analysis.p_create_histogram", world.p_create_histogram)

    init = world.World.__init__

    def init_and_wrap_evaluate(self, cfg, run_index):
        init(self, cfg, run_index)
        self.evaluate = wrap(
            "fitness.evaluate", self.evaluate,
            lambda a, r: count("fitness.evaluate.steps_scored", len(a[0])))

    world.World.__init__ = wrap("world.init", init_and_wrap_evaluate)

    # Single-step fitness peaks at a unique maximum; once the society's
    # mean sits there, no later iteration can change anything.
    top = max_fitness_single()
    step = world.World.step

    def step_counting_absorbed(self):
        means = self.series.mean_fitness
        if self.cfg.fitness_regime == world.REGIME_SINGLE_STEP and means and means[-1] >= top:
            count("world.absorbed_steps")
        step(self)

    world.World.step = wrap("world.step", step_counting_absorbed)

    agent.invent = wrap(
        "agent.invent", agent.invent,
        lambda a, r: count("agent.invent.collisions", r is a[0].chain))
    agent.extend_chain = wrap(
        "agent.extend_chain", agent.extend_chain,
        lambda a, r: count("agent.extend_chain.steps_appended", len(r) - len(a[0])))
    agent.adopt_if_fitter = wrap(
        "agent.adopt_if_fitter", agent.adopt_if_fitter,
        lambda a, r: count("agent.adopt_if_fitter.adopted", r))
    agent.imitate = wrap(
        "agent.imitate", agent.imitate,
        lambda a, r: count("agent.imitate.found", r is not None))
    agent.adopt = wrap("agent.adopt", agent.adopt)
    agent.update_p_create = wrap("agent.update_p_create", agent.update_p_create)

    AutoAssociator.__init__ = wrap("network.init", AutoAssociator.__init__)
    AutoAssociator.train = wrap(
        "network.train", AutoAssociator.train,
        lambda a, r: count("network.train.nonconverged", not r))
    AutoAssociator.invention_bias = wrap("network.invention_bias", AutoAssociator.invention_bias)


def layer_metrics(stats: Dict[str, List[int]], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metric values (seconds, counts, ratios) of one traced execute."""
    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total_s(name):
        return stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return stats.get(name, (0, 0, 0))[2] / 1e9

    def counted(name):
        return counts.get(name, 0)

    invents = calls("agent.invent")
    return {
        "network.train.s": total_s("network.train"),
        "network.train.calls": calls("network.train"),
        "network.train.nonconverged": counted("network.train.nonconverged"),
        "network.init.s": total_s("network.init"),
        "network.invention_bias.s": total_s("network.invention_bias"),
        "fitness.evaluate.s": total_s("fitness.evaluate"),
        "fitness.evaluate.calls": calls("fitness.evaluate"),
        "fitness.evaluate.steps_scored": counted("fitness.evaluate.steps_scored"),
        "world.absorbed_steps": counted("world.absorbed_steps"),
        "world.init.s": total_s("world.init"),
        "world.init.derive_seed.s": total_s("world.init.derive_seed"),
        "world.step.self_s": self_s("world.step"),
        "agent.invent.calls": invents,
        "agent.invent.s": total_s("agent.invent"),
        "agent.invent.self_s": self_s("agent.invent"),
        "agent.invent.collisions": counted("agent.invent.collisions"),
        "agent.invent.adopt_ratio": (
            counted("agent.adopt_if_fitter.adopted") / invents if invents else 0.0),
        "agent.extend_chain.calls": calls("agent.extend_chain"),
        "agent.extend_chain.steps_appended": counted("agent.extend_chain.steps_appended"),
        "agent.adopt_if_fitter.calls": calls("agent.adopt_if_fitter"),
        "agent.adopt_if_fitter.adopted": counted("agent.adopt_if_fitter.adopted"),
        "agent.adopt_if_fitter.self_s": self_s("agent.adopt_if_fitter"),
        "agent.imitate.calls": calls("agent.imitate"),
        "agent.imitate.found": counted("agent.imitate.found"),
        "agent.imitate.s": total_s("agent.imitate"),
        "agent.update_p_create.calls": calls("agent.update_p_create"),
        "experiments.run_jobs.s": total_s("experiments.run_jobs"),
        "experiments.write.s": total_s("experiments.write"),
        "experiments.bytes_written": counted("experiments.bytes_written"),
        "analysis.p_create_histogram.s": total_s("analysis.p_create_histogram"),
        "analysis.postprocess.s": (
            total_s("analysis.average_series") + total_s("analysis.summarize_cell")),
    }


"""The benchmark's workloads: which preset, which runs, at how many workers.

Every workload is a desk-scale preset (32x32 lattice, 100 iterations)
with the workload seed as ``base_seed``. Why each one exists is in
README.md next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

DESK_SIDE = 32
DESK_ITERATIONS = 100
DEFAULT_SEED = 0
REPEAT_SEED_STRIDE = 1_000_000


def repeat_seed(seed: int, repeat: int) -> int:
    """``base_seed`` of the repeat-th execute in a measured run.

    Repeat 0 uses the workload seed itself, so its outputs are the ones
    checked. Later repeats run different inputs, so the timed runs of one
    measurement are distinct runs rather than copies of a few.
    """
    return seed + REPEAT_SEED_STRIDE * repeat


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    runs_per_cell: int
    pooled: bool  # True: workers = nproc; False: workers = 1
    grid: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]]  # (grid_c, grid_p)
    csvs: Tuple[str, ...]

    def workers(self) -> int:
        return (os.cpu_count() or 1) if self.pooled else 1


WORKLOADS = {
    w.name: w
    for w in (
        # Nine cells holding the corner (1, 1), (0.4, 0.6) and (0.2, 0.2).
        Workload("exp1-grid", "exp1_sweep", 1, True,
                 ((0.2, 0.4, 1.0), (0.2, 0.6, 1.0)), ("surface.csv",)),
        # Two runs per arm, pooled: on a shared host the speed of each core
        # varies with its neighbours, and spreading runs over every core
        # averages that out.
        Workload("exp3-chain", "exp3_chaining", 2, True, None,
                 ("series_nosr.csv", "series_sr.csv")),
    )
}


def build_spec(workload: Workload, seed: int, out: str,
               side: int = DESK_SIDE, iterations: int = DESK_ITERATIONS):
    """The validated ExperimentSpec a user would build for this workload."""
    from culturesim.experiments import apply_preset, preset_spec

    spec = preset_spec(workload.preset, runs=workload.runs_per_cell, seed=seed, out=out)
    spec = replace(spec, world=replace(spec.world, lattice_side=side, iterations=iterations))
    if workload.grid is not None:
        spec = replace(spec, grid_c=workload.grid[0], grid_p=workload.grid[1])
    return apply_preset(spec).validate()


def load_templates(spec) -> None:
    """Parse the template set a template-regime spec will score against."""
    from culturesim.fitness import TemplateSet
    from culturesim.world import REGIME_TEMPLATE

    if spec.world.fitness_regime != REGIME_TEMPLATE:
        return
    if spec.world.template_file:
        TemplateSet.from_file(spec.world.template_file)
    else:
        TemplateSet.default()

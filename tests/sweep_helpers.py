"""Stand-ins for sweep tests that a child interpreter can import too.

This module imports no pytest, so the child that
``test_experiments.test_a_dead_worker_fails_the_sweep_instead_of_hanging_it``
starts runs on an interpreter without it, as under ``tools/run_tests.py``.
"""

import os

from culturesim.world import WorldConfig


def tiny_world(**kw):
    base = dict(lattice_side=6, iterations=8)
    base.update(kw)
    return WorldConfig(**base)


class DyingConfig:
    """Stands in for a WorldConfig whose worker process dies mid-run, as an
    OOM kill would end it."""

    def validate(self):
        os._exit(1)

"""Replaying the creators of creativity 1 from one log per run index.

In fixed roles a creator with p = 1 never imitates, so its adoptions are
the same in every (C, 1) run of one run index.  ``run_jobs`` runs those
runs as one bundle inside a creator log scope: the first run to compute a
creator logs its adoptions, and the later ones replay them.  These tests
show that a replaying world steps exactly as a plain one, and that no log
outlives its bundle.
"""

from dataclasses import replace

import pytest

from culturesim import agent as agent_ops
from culturesim import experiments
from culturesim import world as world_module
from culturesim.network import DECODE_SAFE_CALLS
from culturesim.world import (
    MODE_SHARED_P,
    REGIME_TEMPLATE,
    World,
    WorldConfig,
    creator_log_scope,
    run_world,
)

CASES = {
    "single_step_c0.2": dict(creator_fraction=0.2),
    "single_step_c0.4": dict(creator_fraction=0.4),
    "single_step_c0.6": dict(creator_fraction=0.6),
    "template_chaining": dict(creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                              chaining_enabled=True),
    "autoassociator": dict(lattice_side=6, iterations=DECODE_SAFE_CALLS + 20,
                           creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                           chaining_enabled=True),
    "no_trend_learning": dict(creator_fraction=0.4, trend_learning=False),
}


def p1_world(**kw):
    base = dict(lattice_side=10, iterations=100, creator_creativity=1.0)
    base.update(kw)
    return WorldConfig(**base)


@pytest.mark.parametrize("run_index", [0, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_replaying_world_steps_as_a_plain_one(case, run_index):
    cfg = p1_world(**CASES[case])
    plain = World(cfg, run_index)
    with creator_log_scope():
        World(replace(cfg, creator_fraction=1.0), run_index).run()
        world = World(cfg, run_index)
    creators = sum(a.p_create == 1.0 for a in plain.agents)
    assert creators > 0
    assert len(world.replayed) == creators and not world._record
    assert all(a.rng is None and a.net is None for a in world.replayed)
    for _ in range(cfg.iterations):
        plain.step()
        world.step()
        assert world.snapshot == plain.snapshot
        assert world.series == plain.series
        assert sorted(a.id for a in world.active + world.replayed) == [
            a.id for a in plain.active]
    with creator_log_scope():
        run_world(replace(cfg, creator_fraction=1.0), run_index)
        assert run_world(cfg, run_index) == run_world(cfg, run_index) == plain.series


def test_a_world_built_outside_a_bundle_replays_nothing():
    cfg = p1_world(creator_fraction=0.4)
    experiments.run_jobs([(replace(cfg, creator_fraction=1.0), 0), (cfg, 0)], 1)
    assert world_module._creator_logs is None
    world = World(cfg, 0)
    assert all(a.rng is not None and a.net is not None for a in world.agents)
    assert world.replayed == [] and world._record is None


def test_a_bundle_that_raises_leaves_no_log_scope(monkeypatch):
    cfg = p1_world()
    logged = []
    real_run_world = experiments.run_world

    def spy(cfg, run_index):
        logged.append(sum(len(log) for log in world_module._creator_logs.values()))
        return real_run_world(cfg, run_index)

    monkeypatch.setattr(experiments, "run_world", spy)
    # C = -0.5 shares the corner's replay key and sorts after it; its World
    # fails validation once the corner has logged every creator.
    jobs = [(replace(cfg, creator_fraction=-0.5), 0), (cfg, 0)]
    with pytest.raises(world_module.ConfigError, match="creator_fraction"):
        experiments.run_jobs(jobs, 1)
    assert logged == [0, cfg.n_agents]
    assert world_module._creator_logs is None


def sweep_jobs():
    """Interleaved jobs: the p = 1 column of three runs with each corner
    last, as in a grid-order sweep, mixed with jobs that bundle alone."""
    jobs = []
    for r in (0, 1, 2):
        for c in (0.2, 0.6, 1.0):
            jobs.append((p1_world(creator_fraction=c), r))
        jobs.append((p1_world(creator_fraction=0.6, creator_creativity=0.4), r))
    jobs.append((p1_world(mode=MODE_SHARED_P, creator_fraction=0.2), 1))
    jobs.append((p1_world(creator_fraction=0.2, base_seed=5), 1))
    return jobs


@pytest.mark.parametrize("workers", [1, 2])
def test_run_jobs_equals_per_job_runs_in_job_order(workers):
    jobs = sweep_jobs()
    assert experiments.run_jobs(jobs, workers) == [run_world(cfg, r) for cfg, r in jobs]


def test_a_bundle_runs_its_corner_first_and_replays_every_creator(monkeypatch):
    jobs = sweep_jobs()
    calls, inventing = [], set()
    real_run_world, real_invent = experiments.run_world, agent_ops.invent

    def spy(cfg, run_index):
        calls.append(jobs.index((cfg, run_index)))
        return real_run_world(cfg, run_index)

    def counted_invent(agent, *args):
        inventing.add(calls[-1])
        return real_invent(agent, *args)

    monkeypatch.setattr(experiments, "run_world", spy)
    monkeypatch.setattr(agent_ops, "invent", counted_invent)
    experiments.run_jobs(jobs, 1)
    # Each p = 1 bundle runs at its first job's place, in descending C.
    assert calls == [2, 1, 0, 3, 6, 5, 4, 7, 10, 9, 8, 11, 12, 13]
    # Imitators (p = 0) never invent, so once its corner has run, no other
    # run of a bundle invents at all.
    assert inventing == {2, 3, 6, 7, 10, 11, 12, 13}

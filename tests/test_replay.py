"""Computing each creator of creativity 1 once per bundle and replaying it.

In fixed roles a creator with p = 1 never imitates, so its adoptions are
the same in every (C, 1) run of one run index.  ``run_jobs`` runs those
runs as one bundle inside a creator log scope: each world computes the
creators the log lacks with ``creator_adoptions``, one creator at a time,
and replays every creator from the log.  These tests show that a
replaying world steps exactly as a plain one, whatever ran before it in
its bundle, that a bundle computes each creator once, and that no log
outlives its bundle.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from culturesim import agent as agent_ops
from culturesim import experiments
from culturesim import world as world_module
from culturesim.actions import CODES, NEUTRAL
from culturesim.fitness import SINGLE_STEP_SCORES, TemplateSet
from culturesim.network import DECODE_SAFE_CALLS
from culturesim.world import (
    MODE_SHARED_P,
    REGIME_TEMPLATE,
    World,
    WorldConfig,
    creator_adoptions,
    creator_log_scope,
    replay_key,
    run_world,
)
from test_agent import BIAS_GRID, CountingRandom, PinnedNet


def neutral_best_templates(tmp_path):
    """A template file under which the neutral step scores best, so every
    agent starts absorbed."""
    path = tmp_path / "neutral.json"
    path.write_text(json.dumps(["000000", "1*****"]))
    return str(path)


# Case -> (world settings, creator fractions of the runs that go before it
# in its bundle).
CASES = {
    "single_step_c0.2": (dict(creator_fraction=0.2), (1.0,)),
    "single_step_c0.4": (dict(creator_fraction=0.4), (1.0,)),
    "single_step_c0.6": (dict(creator_fraction=0.6), (1.0,)),
    "template_chaining": (dict(creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                               chaining_enabled=True), (1.0,)),
    "autoassociator": (dict(lattice_side=6, iterations=DECODE_SAFE_CALLS + 20,
                            creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                            chaining_enabled=True), (1.0,)),
    "no_trend_learning": (dict(creator_fraction=0.4, trend_learning=False), (1.0,)),
    "neutral_best": (dict(creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                          template_file=neutral_best_templates), (1.0,)),
    "c0.0_member": (dict(creator_fraction=0.0), (0.4,)),
    "corner_last": (dict(creator_fraction=1.0), (0.2, 0.0, 0.6)),
}


def p1_world(**kw):
    base = dict(lattice_side=10, iterations=100, creator_creativity=1.0)
    base.update(kw)
    return WorldConfig(**base)


def spy_on_the_kernel(monkeypatch):
    """The agents ``creator_adoptions`` is called with, in call order."""
    computed = []
    real = world_module.creator_adoptions

    def spy(agent, *args):
        computed.append(agent)
        return real(agent, *args)

    monkeypatch.setattr(world_module, "creator_adoptions", spy)
    return computed


@pytest.mark.parametrize("run_index", [0, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_replaying_world_steps_as_a_plain_one(case, run_index, tmp_path, monkeypatch):
    kw, before = CASES[case]
    if callable(kw.get("template_file")):
        kw = dict(kw, template_file=kw["template_file"](tmp_path))
    cfg = p1_world(**kw)
    plain = World(cfg, run_index)
    computed = spy_on_the_kernel(monkeypatch)
    with creator_log_scope():
        for c in before:
            World(replace(cfg, creator_fraction=c), run_index).run()
        world = World(cfg, run_index)
    creators = [a.id for a in plain.agents if a.p_create == 1.0]
    assert [a.id for a in world.agents if a.rng is None and a.net is None] == creators
    for _ in range(cfg.iterations):
        plain.step()
        world.step()
        assert world.snapshot == plain.snapshot
        assert world.series == plain.series
        assert [a.id for a in world.active] == [
            a.id for a in plain.active if a.id not in creators]
        assert world.holders == Counter(a.chain for a in world.agents)
    # The kernel leaves each creator's RNG and bias where its steps left
    # them, so it makes the same draws and stops where the step does.
    by_id = {a.id: a for a in computed}
    assert set(creators) <= set(by_id) or case == "neutral_best"
    for i in set(creators) & set(by_id):
        ours, theirs = by_id[i], plain.agents[i]
        assert ours.rng.getstate() == theirs.rng.getstate()
        assert ours.net.invention_bias() == theirs.net.invention_bias()
    with creator_log_scope():
        for c in before:
            run_world(replace(cfg, creator_fraction=c), run_index)
        assert run_world(cfg, run_index) == run_world(cfg, run_index) == plain.series


def test_a_world_that_starts_absorbed_computes_no_creator(tmp_path, monkeypatch):
    cfg = p1_world(creator_fraction=0.4, fitness_regime=REGIME_TEMPLATE,
                   template_file=neutral_best_templates(tmp_path))
    computed = spy_on_the_kernel(monkeypatch)
    with creator_log_scope():
        world = World(cfg, 0)
        assert world.active == [] and world.replay == {}
        assert world.run() == run_world(cfg, 0)
    assert computed == []


def test_a_world_built_outside_a_bundle_replays_nothing(monkeypatch):
    cfg = p1_world(creator_fraction=0.4)
    experiments.run_jobs([(replace(cfg, creator_fraction=1.0), 0), (cfg, 0)], 1)
    assert world_module._creator_logs is None
    computed = spy_on_the_kernel(monkeypatch)
    world = World(cfg, 0)
    assert all(a.rng is not None and a.net is not None for a in world.agents)
    assert world.replay == {} and computed == []


def test_a_bundle_that_raises_leaves_no_log_scope(monkeypatch):
    cfg = p1_world()
    logged = []
    real_run_world = experiments.run_world

    def spy(cfg, run_index):
        logged.append(sum(len(log) for log in world_module._creator_logs.values()))
        return real_run_world(cfg, run_index)

    monkeypatch.setattr(experiments, "run_world", spy)
    # C = -0.5 shares the corner's replay key; its World fails validation
    # once the corner has logged every creator.
    jobs = [(cfg, 0), (replace(cfg, creator_fraction=-0.5), 0)]
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


def with_bundles_reversed(jobs):
    """``jobs`` with the members of each bundle in reverse order, so each
    corner of ``sweep_jobs`` runs first."""
    out = list(jobs)
    for bundle in experiments._bundles(jobs):
        for i, j in zip(bundle, reversed(bundle)):
            out[i] = jobs[j]
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_run_jobs_equals_per_job_runs_in_job_order(workers):
    jobs = sweep_jobs()
    assert experiments.run_jobs(jobs, workers) == [run_world(cfg, r) for cfg, r in jobs]


@pytest.mark.parametrize("order", ["as_given", "bundles_reversed"])
def test_a_bundle_computes_each_creator_once(order, monkeypatch):
    jobs = sweep_jobs()
    if order == "bundles_reversed":
        jobs = with_bundles_reversed(jobs)
        assert jobs != sweep_jobs()
    creators = {
        (replay_key(cfg, r), a.id)
        for cfg, r in jobs for a in World(cfg, r).agents if a.p_create == 1.0
    }
    per_job = [run_world(cfg, r) for cfg, r in jobs]

    key, computed, stepped = [None], [], []
    real_run_world = experiments.run_world
    real_kernel, real_init = world_module.creator_adoptions, World.__init__

    def spy(cfg, run_index):
        key[0] = replay_key(cfg, run_index)
        return real_run_world(cfg, run_index)

    def keyed_kernel(agent, *args):
        computed.append((key[0], agent.id))
        return real_kernel(agent, *args)

    def recorded_init(self, cfg, run_index):
        real_init(self, cfg, run_index)
        stepped.append((cfg, [a.p_create for a in self.active]))

    monkeypatch.setattr(experiments, "run_world", spy)
    monkeypatch.setattr(world_module, "creator_adoptions", keyed_kernel)
    monkeypatch.setattr(World, "__init__", recorded_init)
    assert experiments.run_jobs(jobs, 1) == per_job
    # Each bundle computes each of its creators exactly once, whatever the
    # order of its members.
    assert len(computed) == len(set(computed)) and set(computed) == creators
    # No creator of creativity 1 steps through World.step inside a bundle;
    # the p = 0.4 and shared_p runs still have active inventing agents.
    assert len(stepped) == len(jobs)
    assert all(1.0 not in ps for cfg, ps in stepped)
    others = [ps for cfg, ps in stepped if replay_key(cfg, 0) is None]
    assert len(others) == 4 and all(any(p > 0.0 for p in ps) for ps in others)


def plain_creator_adoptions(agent, cfg, score, top):
    """``creator_adoptions`` as the reference kernels run it: the create
    draw, ``invent``, and ``adopt_if_fitter`` unless the candidate is the
    chain itself, until the creator reaches ``top``."""
    events = []
    for t in range(cfg.iterations):
        agent.rng.random()
        candidate = agent_ops.invent(agent, cfg.chaining_enabled, cfg.max_chain_length)
        if candidate is not agent.chain and agent_ops.adopt_if_fitter(
                agent, candidate, score):
            events += (t, agent.chain, agent.fitness)
            if top is not None and agent.fitness >= top:
                break
    return events


# Regime -> (world settings, step scores).
KERNEL_REGIMES = {
    "single_step": (dict(), SINGLE_STEP_SCORES),
    "chain_max1": (dict(fitness_regime=REGIME_TEMPLATE, chaining_enabled=True,
                        max_chain_length=1), TemplateSet.default().scores),
    "chain_max3": (dict(fitness_regime=REGIME_TEMPLATE, chaining_enabled=True,
                        max_chain_length=3), TemplateSet.default().scores),
    "chain_max50": (dict(fitness_regime=REGIME_TEMPLATE, chaining_enabled=True,
                         max_chain_length=50), TemplateSet.default().scores),
}


@pytest.mark.parametrize("bounded", [False, True], ids=["top_none", "top_best"])
@pytest.mark.parametrize("regime", sorted(KERNEL_REGIMES))
def test_the_creator_kernel_invents_and_adopts_as_the_reference_kernels(regime, bounded):
    kw, scores = KERNEL_REGIMES[regime]
    cfg = WorldConfig(iterations=200, **kw)
    top = scores.best() if bounded else None
    for bias in BIAS_GRID:
        fallbacks = 0
        for seed in range(4):
            ours, theirs = (
                agent_ops.Agent(0, 1.0, (CODES[NEUTRAL],), scores.by_code[CODES[NEUTRAL]],
                                PinnedNet(bias), CountingRandom(seed))
                for _ in range(2)
            )
            got = creator_adoptions(ours, cfg, scores.by_code, top)
            want = plain_creator_adoptions(theirs, cfg, scores.by_code.__getitem__, top)
            assert got == want
            assert ours.rng.getstate() == theirs.rng.getstate()
            assert ours.rng.fallbacks == theirs.rng.fallbacks
            fallbacks += ours.rng.fallbacks
        if bias == (1.0, 1.0):
            # The kernel's written-out fallback ran.
            assert fallbacks > 0

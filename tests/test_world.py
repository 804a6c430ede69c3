"""World construction, lattice topology, determinism, and run dynamics."""

import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from importlib import resources

import pytest

from culturesim import agent as agent_ops
from culturesim import experiments, fitness
from culturesim import world as world_module
from culturesim.fitness import TemplateSet
from culturesim.network import AutoAssociator
from culturesim.analysis import p_create_histogram
from culturesim.world import (
    ConfigError,
    MODE_SHARED_P,
    REGIME_TEMPLATE,
    World,
    WorldConfig,
    derive_seed,
    derive_seeds,
    neighbor_table,
    run_world,
)


def small(**kw):
    base = dict(lattice_side=8, iterations=15)
    base.update(kw)
    return WorldConfig(**base)


def test_neighbor_table_wraps_toroidally():
    side = 4
    table = neighbor_table(side)
    assert len(table) == 16
    # Cell 0 (row 0, col 0): up wraps to row 3, left wraps to col 3.
    up, down, left, right = table[0]
    assert (up, down, left, right) == (12, 4, 3, 1)
    # Bottom-right corner wraps both ways.
    up, down, left, right = table[15]
    assert (up, down, left, right) == (11, 3, 14, 12)


def test_neighbor_relation_is_symmetric():
    table = neighbor_table(5)
    for i, neigh in enumerate(table):
        for j in neigh:
            assert i in table[j]


def test_neighbor_table_is_built_once_per_side_and_immutable():
    table = neighbor_table(6)
    assert neighbor_table(6) is table
    assert World(small(lattice_side=6), 0).neighbors is table
    assert type(table) is tuple and all(type(n) is tuple for n in table)
    with pytest.raises(TypeError):
        table[0] = (0, 0, 0, 0)


def count_decisions(monkeypatch, cfg):
    """Step ``cfg`` in lockstep with ``reference_step``, which runs every
    agent's turn through ``reference_invent`` or ``reference_imitate``, and
    count the agents that chose to invent and to imitate there.  The world
    must stay equal to the reference at every step."""
    calls = {"invent": 0, "imitate": 0}
    module = sys.modules[__name__]
    for name in calls:
        real = getattr(module, "reference_" + name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, "reference_" + name, counted)
    world, ref = World(cfg, 0), World(cfg, 0)
    for _ in range(cfg.iterations):
        world.step()
        reference_step(ref)
        assert world.series == ref.series
        assert [(a.chain, a.fitness, a.p_create) for a in world.agents] == [
            (a.chain, a.fitness, a.p_create) for a in ref.agents
        ]
    return calls


@pytest.mark.parametrize(
    "p, low, high", [(0.0, 0.0, 0.0), (0.3, 0.28, 0.32), (1.0, 1.0, 1.0)],
    ids=["p0", "p0.3", "p1"],
)
def test_agents_invent_with_probability_p_create(monkeypatch, p, low, high):
    # Fixed roles with every agent a creator of creativity p: each agent
    # invents with probability p, and otherwise imitates.
    cfg = WorldConfig(lattice_side=16, iterations=30, creator_fraction=1.0,
                      creator_creativity=p)
    calls = count_decisions(monkeypatch, cfg)
    total = calls["invent"] + calls["imitate"]
    assert total >= cfg.n_agents
    assert low <= calls["invent"] / total <= high


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="creator_fraction"):
        WorldConfig(creator_fraction=1.5).validate()
    with pytest.raises(ConfigError, match="mode"):
        WorldConfig(mode="both").validate()
    with pytest.raises(ConfigError, match="shared_p"):
        WorldConfig(sr_enabled=True).validate()
    with pytest.raises(ConfigError, match="template"):
        WorldConfig(chaining_enabled=True).validate()
    with pytest.raises(ConfigError, match="tau"):
        WorldConfig(tau=0.0).validate()


def test_config_digest_is_stable_and_field_sensitive():
    a = WorldConfig()
    b = WorldConfig()
    assert a.digest() == b.digest()
    assert a.digest() != WorldConfig(base_seed=1).digest()


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seeds = {derive_seed(0, 0, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_runs_are_reproducible():
    cfg = small()
    a = run_world(cfg, run_index=3)
    b = run_world(cfg, run_index=3)
    assert a.mean_fitness == b.mean_fitness
    assert a.diversity == b.diversity
    assert a.p_create_hist == b.p_create_hist


def test_different_run_indices_differ():
    cfg = small()
    a = run_world(cfg, 0)
    b = run_world(cfg, 1)
    assert a.mean_fitness != b.mean_fitness


def test_initial_society_is_uniform():
    w = World(small(), 0)
    assert len({a.chain for a in w.agents}) == 1
    assert len({a.fitness for a in w.agents}) == 1


def test_mean_fitness_never_decreases_in_single_step_regime():
    # Adoption is strict improvement and nothing is ever forgotten.
    series = run_world(small(iterations=40), 0)
    for prev, cur in zip(series.mean_fitness, series.mean_fitness[1:]):
        assert cur >= prev


def test_all_imitators_society_never_moves():
    cfg = small(creator_fraction=0.0)
    series = run_world(cfg, 0)
    assert set(series.mean_fitness) == {series.mean_fitness[0]}
    assert set(series.diversity) == {1}


def test_creator_fraction_controls_role_split():
    cfg = small(creator_fraction=0.25, creator_creativity=0.8)
    w = World(cfg, 0)
    creators = [a for a in w.agents if a.p_create > 0]
    assert len(creators) == round(0.25 * cfg.n_agents)
    assert all(a.p_create == 0.8 for a in creators)


def test_shared_p_mode_starts_at_half():
    w = World(small(mode=MODE_SHARED_P), 0)
    assert all(a.p_create == 0.5 for a in w.agents)


def test_template_regime_uses_chain_evaluator():
    cfg = small(fitness_regime=REGIME_TEMPLATE, chaining_enabled=True)
    w = World(cfg, 0)
    assert w.agents[0].fitness == 6  # neutral single-step chain
    series = w.run()
    assert series.mean_fitness[-1] >= series.mean_fitness[0]


def test_series_lengths_match_iterations():
    cfg = small(iterations=12)
    series = run_world(cfg, 0)
    assert len(series) == 12
    assert len(series.diversity) == 12
    assert len(series.p_create_hist) == 12
    assert series.config_digest == cfg.digest()


@pytest.mark.parametrize(
    "kw",
    [
        dict(creator_fraction=0.5, creator_creativity=0.6),
        dict(mode=MODE_SHARED_P, sr_enabled=True),
        dict(mode=MODE_SHARED_P, fitness_regime=REGIME_TEMPLATE),
    ],
    ids=["fixed_roles", "shared_p_sr", "template_no_chaining"],
)
def test_absorbed_run_stops_early_with_the_stepped_series(kw, monkeypatch):
    cfg = WorldConfig(lattice_side=4, iterations=300, **kw)
    stepped = World(cfg, 0)
    top = stepped.absorbing_fitness
    absorbed_at = None
    for t in range(cfg.iterations):
        stepped.step()
        if absorbed_at is None and all(a.fitness == top for a in stepped.agents):
            absorbed_at = t + 1
    assert absorbed_at is not None and absorbed_at < cfg.iterations

    steps = 0
    step = World.step

    def counted_step(self):
        nonlocal steps
        steps += 1
        step(self)

    monkeypatch.setattr(World, "step", counted_step)
    series = World(cfg, 0).run()
    assert steps == absorbed_at
    assert series.mean_fitness == stepped.series.mean_fitness
    assert series.diversity == stepped.series.diversity
    assert series.p_create_hist == stepped.series.p_create_hist


# The agent kernels as they were before the step scored only the steps an
# invention changes, kept verbatim, for reference_step: invent returned the
# chain itself for a collision only, adopt_if_fitter summed the whole
# candidate chain, imitate took the four neighbour pairs, and
# update_p_create updated one agent.


def reference_invent(agent, chaining_enabled, max_chain_length):
    movement_bias, symmetry_bias = agent.net.invention_bias()
    new_final = agent_ops.mutate_subaction(
        agent.chain[-1], movement_bias, symmetry_bias, agent.rng)
    steps = agent.chain[:-1] + (new_final,)
    if len(steps) > 1 and steps[-1] == steps[-2]:
        return agent.chain  # mutation collided with the previous step
    if chaining_enabled and new_final in agent_ops.ACCEPTABLE_SUBACTIONS:
        steps = agent_ops.extend_chain(
            steps, max_chain_length, movement_bias, symmetry_bias, agent.rng
        )
    return steps


def reference_imitate(agent, neighbors):
    own = agent.fitness
    for idx in agent_ops._PERMUTATIONS_4[int(agent.rng.random() * 24)]:
        pair = neighbors[idx]
        if pair[1] > own:
            return pair
    return None


def reference_adopt_if_fitter(agent, candidate, evaluate):
    fit = evaluate(candidate)
    if fit <= agent.fitness:
        return False
    agent_ops.adopt(agent, candidate, fit)
    return True


def reference_update_p_create(agent, mean_fitness_prev):
    if mean_fitness_prev == 0:
        return
    p = agent.p_create * (agent.fitness / mean_fitness_prev)
    agent.p_create = 1.0 if p >= 1.0 else p if p > 0.0 else 0.0


def reference_step(self):
    """``World.step`` as it was before absorbed agents were skipped, kept
    verbatim (less a write of a field nothing read), with the reference
    kernels above: every agent acts, every invention is scored as a whole
    chain, and the p(C) histogram is rebuilt every iteration."""
    cfg = self.cfg
    snapshot = self.snapshot
    neighbors = self.neighbors
    for a in self.agents:
        if a.rng.random() < a.p_create:  # inlined decide()
            candidate = reference_invent(
                a, cfg.chaining_enabled, cfg.max_chain_length
            )
            if candidate is not a.chain:
                reference_adopt_if_fitter(a, candidate, self.evaluate)
        else:
            up, down, left, right = neighbors[a.id]
            found = reference_imitate(
                a, (snapshot[up], snapshot[down], snapshot[left], snapshot[right])
            )
            if found is not None:
                agent_ops.adopt(a, found[0], found[1])

    n = len(self.agents)
    mean_fit = sum(a.fitness for a in self.agents) / n
    if cfg.sr_enabled:
        for a in self.agents:
            reference_update_p_create(a, mean_fit)

    self.iteration += 1
    self.series.mean_fitness.append(mean_fit)
    self.series.diversity.append(len({a.chain for a in self.agents}))
    self.series.p_create_hist.append(
        p_create_histogram([a.p_create for a in self.agents])
    )
    self.snapshot = [(a.chain, a.fitness) for a in self.agents]


@pytest.mark.parametrize(
    "kw",
    [
        dict(creator_fraction=0.5, creator_creativity=0.6),
        dict(mode=MODE_SHARED_P, sr_enabled=True),
        dict(mode=MODE_SHARED_P, fitness_regime=REGIME_TEMPLATE),
        dict(mode=MODE_SHARED_P, sr_enabled=True, fitness_regime=REGIME_TEMPLATE,
             chaining_enabled=True),
    ],
    ids=["fixed_roles", "shared_p_sr", "template_no_chaining", "chaining_sr"],
)
@pytest.mark.parametrize("run_index", [0, 1])
def test_skipping_absorbed_agents_matches_the_reference_step(kw, run_index):
    cfg = WorldConfig(lattice_side=5, iterations=120, **kw)
    world, ref = World(cfg, run_index), World(cfg, run_index)
    skipped_at = None
    for t in range(cfg.iterations):
        world.step()
        reference_step(ref)
        assert world.series.mean_fitness == ref.series.mean_fitness
        assert world.series.diversity == ref.series.diversity
        assert world.series.p_create_hist == ref.series.p_create_hist
        assert [(a.chain, a.fitness, a.p_create) for a in world.agents] == [
            (a.chain, a.fitness, a.p_create) for a in ref.agents
        ]
        if skipped_at is None and len(world.active) < cfg.n_agents:
            skipped_at = t + 1
    if cfg.chaining_enabled:
        assert len(world.active) == cfg.n_agents
    else:
        assert skipped_at is not None and skipped_at < cfg.iterations


# The agent kernels the benchmark's tracer wraps from outside the package
# (perfbench/spans.py) that World.step still calls: it must keep reaching
# each through its module, or the tracer's counts and spans silently read 0.
# The rest of each agent's turn is written out in the step.
TRACED_AGENT_KERNELS = ("extend_chain", "update_p_create")


def test_a_step_calls_every_traced_kernel_through_its_module(monkeypatch):
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in TRACED_AGENT_KERNELS:
        count(agent_ops, name)
    count(world_module, "p_create_histogram")
    cfg = WorldConfig(lattice_side=8, iterations=30, mode=MODE_SHARED_P, sr_enabled=True,
                      fitness_regime=REGIME_TEMPLATE, chaining_enabled=True)
    run_world(cfg, 0)
    assert all(calls.values()), calls
    assert calls["update_p_create"] == calls["p_create_histogram"] == cfg.iterations


# The other package names the benchmark (perfbench/) imports, wraps or
# calls.  The tier-1 tests do not run the benchmark's own tests, so a
# deletion of one of these would otherwise break only the benchmark.
BENCHMARK_NAMES = (
    (experiments, ("apply_preset", "preset_spec", "execute", "run_jobs", "run_world",
                   "atomic_write", "average_series", "summarize_cell")),
    (world_module, ("derive_seed", "p_create_histogram")),
    (fitness, ("max_fitness_single",)),
    (AutoAssociator, ("train", "invention_bias")),
)


def test_every_name_the_benchmark_reads_exists():
    missing = [f"{owner.__name__}.{name}" for owner, names in BENCHMARK_NAMES
               for name in names if not callable(getattr(owner, name, None))]
    if not callable(getattr(World(small(), 0), "evaluate", None)):
        missing.append("World.evaluate")
    assert missing == []


def test_chaining_runs_are_never_cut_short():
    cfg = small(fitness_regime=REGIME_TEMPLATE, chaining_enabled=True)
    w = World(cfg, 0)
    assert w.absorbing_fitness is None
    w.run()
    assert w.iteration == cfg.iterations


def test_absorbing_fitness_is_the_best_single_step():
    assert World(small(), 0).absorbing_fitness == 39
    assert World(small(fitness_regime=REGIME_TEMPLATE), 0).absorbing_fitness == 31


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(sr_enabled="false", mode=MODE_SHARED_P), "sr_enabled must be a boolean"),
        (dict(trend_learning=1), "trend_learning must be a boolean"),
        (dict(iterations=1.5), "iterations must be an integer"),
        (dict(iterations=True), "iterations must be an integer"),
        (dict(lattice_side="4"), "lattice_side must be an integer"),
        (dict(tau=True), "tau must be a number"),
        (dict(creator_fraction="0.5"), "creator_fraction must be a number"),
        (dict(mode=3), "mode must be a string"),
        (dict(template_file=7), "template_file must be a string or null"),
    ],
)
def test_config_field_types_are_checked(kw, message):
    with pytest.raises(ConfigError, match=message):
        WorldConfig(**kw).validate()


def test_ints_are_accepted_as_floats():
    WorldConfig(tau=35, creator_fraction=1, creator_creativity=0).validate()


def test_derive_seed_keeps_its_rule():
    # sha256 of the parts joined by ':', first 8 bytes big-endian.
    def rule(*parts):
        text = ":".join(str(p) for p in parts)
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    for parts in [(0,), (0, 3), (7, 2, 1023), (2**70, -5, 12), ("a", 1.5)]:
        assert derive_seed(*parts) == rule(*parts)


@pytest.mark.parametrize(
    "base, run", [(0, 0), (0, 1), (7, 3), (-4, 2), (2**63 + 5, 10**20)]
)
def test_agent_seeds_are_derive_seed_of_base_run_and_id(base, run):
    n = 1024
    assert derive_seeds((base, run), range(n)) == [derive_seed(base, run, i) for i in range(n)]
    world = World(small(lattice_side=6, base_seed=base), run)
    for i, a in enumerate(world.agents):
        rng = random.Random(derive_seed(base, run, i))
        rng.getrandbits(72 * 32)  # the network's initial weight draws
        assert a.rng.getstate() == rng.getstate()


def test_agents_have_slots_and_no_dict():
    agent = World(small(), 0).agents[0]
    assert not hasattr(agent, "__dict__")
    with pytest.raises(AttributeError):
        agent.color = "red"


def test_snapshot_rewrites_only_the_agents_that_changed():
    world = World(small(lattice_side=10, iterations=100), 0)
    absorbed = {}
    for _ in range(40):
        before = list(world.snapshot)
        world.step()
        assert world.snapshot == [(a.chain, a.fitness) for a in world.agents]
        for i, pair in absorbed.items():
            assert world.snapshot[i] is pair
        for a in world.agents:
            if a.chain is before[a.id][0]:
                assert world.snapshot[a.id] is before[a.id]
        active = {a.id for a in world.active}
        absorbed = {i: world.snapshot[i] for i in range(world.cfg.n_agents) if i not in active}
    assert 0 < len(absorbed) < world.cfg.n_agents


def neutral_best_templates(tmp_path):
    """A template file under which the neutral step scores best."""
    path = tmp_path / "neutral.json"
    path.write_text(json.dumps(["000000", "1*****"]))
    return str(path)


def assert_interned(world):
    """Each distinct chain the agents hold is one object: ``holders`` has
    exactly one entry per distinct chain, counting its holders by id, and
    the intern table holds that object and no other chain."""
    chains = [a.chain for a in world.agents]
    assert world.holders == dict(Counter(map(id, chains)))
    assert len(world.holders) == len(set(chains))
    assert world.interned == {c: c for c in chains}
    assert all(world.interned[c] is c for c in chains)


@pytest.mark.parametrize(
    "kw",
    [
        dict(creator_fraction=0.5, creator_creativity=0.6),
        dict(mode=MODE_SHARED_P, sr_enabled=True),
        dict(mode=MODE_SHARED_P, fitness_regime=REGIME_TEMPLATE),
        dict(mode=MODE_SHARED_P, sr_enabled=True, fitness_regime=REGIME_TEMPLATE,
             chaining_enabled=True),
        dict(fitness_regime=REGIME_TEMPLATE, template_file=neutral_best_templates),
    ],
    ids=["fixed_roles", "shared_p_sr", "template_no_chaining", "chaining_sr",
         "neutral_best"],
)
@pytest.mark.parametrize("side", [7, 12])
def test_active_bookkeeping_matches_the_reference_step(kw, side, tmp_path):
    # 49 and 144 agents: means of sums that are not powers of two.
    if callable(kw.get("template_file")):
        kw = dict(kw, template_file=kw["template_file"](tmp_path))
    cfg = WorldConfig(lattice_side=side, iterations=100, **kw)
    world, ref = World(cfg, 0), World(cfg, 0)
    for _ in range(cfg.iterations):
        world.step()
        reference_step(ref)
        assert world.series == ref.series
        assert world.snapshot == ref.snapshot
        assert [(a.chain, a.fitness, a.p_create) for a in world.agents] == [
            (a.chain, a.fitness, a.p_create) for a in ref.agents
        ]
        top = world.absorbing_fitness
        assert world.active == [
            a for a in world.agents if top is None or a.fitness < top
        ]
        assert_interned(world)
    assert World(cfg, 0).run() == ref.series


def test_a_template_file_is_parsed_once_per_process(tmp_path, monkeypatch):
    templates = json.loads(
        resources.files("culturesim.data").joinpath("default_templates.json").read_text()
    )
    # Contents no other test writes, so this process has not parsed them.
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(templates, indent=3))
    parsed, scored = [], []
    real_parse, real_score = fitness.parse_template, TemplateSet._score

    def counted_parse(text):
        parsed.append(text)
        return real_parse(text)

    def counted_score(self, sub):
        scored.append(sub)
        return real_score(self, sub)

    monkeypatch.setattr(fitness, "parse_template", counted_parse)
    monkeypatch.setattr(TemplateSet, "_score", counted_score)
    cfg = small(fitness_regime=REGIME_TEMPLATE, template_file=str(path))
    default = replace(cfg, template_file=None)
    for run in range(4):
        series = run_world(cfg, run)
        assert series.config_digest == cfg.digest()
        expected = run_world(default, run)
        assert (series.mean_fitness, series.diversity) == (
            expected.mean_fitness, expected.diversity)
    assert parsed == templates
    assert len(scored) <= 729

"""The bound behind ``LastPattern``: a fresh ``AutoAssociator``'s first
DECODE_SAFE_CALLS training calls decode to their input (see the
``culturesim.network`` module docstring), so worlds whose horizon is at
most DECODE_SAFE_CALLS run exactly as they would with the network.

The constants are recomputed here from the 1-D map that each output's net
input follows within one call, on grids of start net inputs, with C
inflated, R deflated and an allowance for float rounding.
"""

import functools
import math
import random

import pytest

from culturesim import world as world_mod
from culturesim.actions import all_subactions
from culturesim.network import (
    BETA,
    CONVERGENCE_TOL,
    DECODE_SAFE_CALLS,
    INIT_WEIGHT_SCALE,
    LEARNING_RATE,
    MAX_EPOCHS,
    TARGET_ACTIVATION,
    THETA,
    AutoAssociator,
    LastPattern,
    decode_activation,
)
from culturesim.world import World, WorldConfig

F = math.log(9) / BETA  # the net input where the sigmoid is 0.9
GRID_STEP = 0.02  # spacing of the start net inputs searched
GRID_SPAN = 60.0  # starts searched, as a distance from mu
C_INFLATE = 1.1
R_DEFLATE = 0.98
# Far above the float rounding of 51 epochs (about 1e-14 per epoch).
ROUNDING = 1e-9
# (k active inputs, output trit).  An output with target 0.5 has a neutral
# input, so at most five inputs are active.
CASES = [(k, 0) for k in range(1, 6)] + [(k, x) for x in (-1, 1) for k in range(1, 7)]


def _sigmoid(n):
    return 1.0 / (1.0 + math.exp(-BETA * n))


def _step(n, k, t):
    """One update of an output's net input, in 1-D form."""
    o = _sigmoid(n)
    return n + k * LEARNING_RATE * (t - o) * o * (1.0 - o)


def _trajectory(n, k, t):
    """Net inputs after 0..MAX_EPOCHS updates, and the first epoch at which
    the output is within CONVERGENCE_TOL of ``t`` (None if it never is)."""
    ns = [n]
    first = None
    for epoch in range(MAX_EPOCHS + 1):
        if first is None and abs(t - _sigmoid(n)) < CONVERGENCE_TOL:
            first = epoch
        if epoch < MAX_EPOCHS:
            n = _step(n, k, t)
            ns.append(n)
    return ns, first


@functools.cache
def _case_bounds(k, x):
    """(the largest potential change of one call, the start it comes from,
    the largest start distance within which every start decodes to ``x``)
    for one case, over the grid of starts."""
    t = TARGET_ACTIVATION[x]
    mu = THETA + F * x
    worst, worst_n = -math.inf, None
    safe = GRID_SPAN
    steps = round(GRID_SPAN / GRID_STEP)
    for i in range(-steps, steps + 1):
        n = mu + i * GRID_STEP
        ns, first = _trajectory(n, k, t)
        # The call stops at some epoch from this output's first epoch in
        # the band (or MAX_EPOCHS) to MAX_EPOCHS.
        stop = MAX_EPOCHS if first is None else first
        change = (max((m - mu) ** 2 for m in ns[stop:]) - (n - mu) ** 2) / k
        if change > worst:
            worst, worst_n = change, n
        # A call that does not converge decodes the last forward pass.
        if decode_activation(_sigmoid(ns[-1])) != x:
            safe = min(safe, (abs(i) - 1) * GRID_STEP)
    return worst, worst_n, safe


def _constants():
    """(C, R, the worst case for C, the worst case for R) on the grid."""
    c_case = max(CASES, key=lambda case: _case_bounds(*case)[0])
    r_case = min(CASES, key=lambda case: _case_bounds(*case)[2] / math.sqrt(case[0]))
    c = _case_bounds(*c_case)[0]
    r = _case_bounds(*r_case)[2] / math.sqrt(r_case[0])
    return c, r, c_case, r_case


START = (F + INIT_WEIGHT_SCALE) ** 2 + 5 * INIT_WEIGHT_SCALE ** 2


def test_the_bound_covers_decode_safe_calls_with_slack():
    c, r, c_case, r_case = _constants()
    # The values the module docstring quotes, and where they arise:
    # target 0.5 with five active inputs, for both.
    assert c_case == r_case == (5, 0)
    assert 0.43 < c < 0.4366
    assert 19.2 < r < 19.3
    assert START == pytest.approx(217.56, abs=0.005)
    c_slack = c * C_INFLATE + ROUNDING
    r_slack = r * R_DEFLATE - ROUNDING
    assert START + DECODE_SAFE_CALLS * c_slack <= r_slack ** 2
    assert math.floor((r ** 2 - START) / c) + 1 > DECODE_SAFE_CALLS
    # Every preset runs 100 iterations.
    assert WorldConfig().iterations <= DECODE_SAFE_CALLS


@pytest.mark.parametrize("k, x", CASES)
def test_an_output_within_tolerance_stays_there(k, x):
    """Band invariance, checked on 2001 points with a Lipschitz bound on
    the gaps between them."""
    t = TARGET_ACTIVATION[x]
    lo, hi = (math.log(o / (1.0 - o)) / BETA for o in (t - CONVERGENCE_TOL, t + CONVERGENCE_TOL))
    points = 2000
    margin = min(
        CONVERGENCE_TOL - abs(t - _sigmoid(_step(lo + (hi - lo) * i / points, k, t)))
        for i in range(points + 1)
    )
    # |d/dn sigmoid(step(n))| <= BETA/4 * |step'(n)|, and inside the band
    # |step'(n)| <= 1 + k * LEARNING_RATE * BETA/4 * (CONVERGENCE_TOL + 1/4).
    lipschitz = BETA / 4 * (1 + k * LEARNING_RATE * BETA / 4 * (CONVERGENCE_TOL + 0.25))
    assert margin > lipschitz * (hi - lo) / points / 2


def _net_inputs(net, sub):
    return [THETA + sum(x * row[j] for x, row in zip(sub, net.weights)) for j in range(6)]


def _potentials(net):
    return [
        sum((row[j] - (F if i == j else 0.0)) ** 2 for i, row in enumerate(net.weights))
        for j in range(6)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_real_calls_follow_the_potential_and_decode_their_input(seed):
    """DECODE_SAFE_CALLS calls on random patterns: each column's potential
    changes as the 1-D formula says and by at most C, every call decodes
    to its input, and a LastPattern beside the network reports its bias."""
    c_slack = _constants()[0] * C_INFLATE + ROUNDING
    patterns = tuple(all_subactions())
    pick = random.Random(seed)
    net = AutoAssociator(random.Random(seed))
    last = LastPattern(random.Random(seed))
    assert max(_potentials(net)) <= START
    for _ in range(DECODE_SAFE_CALLS):
        sub = pick.choice(patterns)
        k = sum(1 for x in sub if x)
        before, starts = _potentials(net), _net_inputs(net, sub)
        net.train(sub)
        last.train(sub)
        after, ends = _potentials(net), _net_inputs(net, sub)
        for j in range(6):
            change = after[j] - before[j]
            assert change <= c_slack
            if k:
                mu = THETA + F * sub[j]
                assert change == pytest.approx(
                    ((ends[j] - mu) ** 2 - (starts[j] - mu) ** 2) / k, abs=1e-9
                )
        assert net.decoded == sub
        assert last.invention_bias() == net.invention_bias()


def test_a_real_call_reaches_the_potential_bound():
    """The worst case on the grid is a real call: output 0 (target 0.5)
    starts at the worst net input and the other five sit at their targets."""
    c, _, (k, x), _ = _constants()
    worst_n = _case_bounds(k, x)[1]
    sub = (0, 1, 1, 1, 1, 1)
    net = AutoAssociator(random.Random(0))
    net.weights = [[F if i == j else 0.0 for j in range(6)] for i in range(6)]
    for i in range(1, 6):
        net.weights[i][0] = (worst_n - THETA) / k
    before = _potentials(net)[0]
    assert net.train(sub)
    assert _potentials(net)[0] - before == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("trend_learning", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_last_pattern_consumes_the_network_draws(seed, trend_learning):
    net_rng, last_rng = random.Random(seed), random.Random(seed)
    net = AutoAssociator(net_rng, trend_learning=trend_learning)
    last = LastPattern(last_rng, trend_learning=trend_learning)
    assert last_rng.getstate() == net_rng.getstate()
    assert last.trend_learning == net.trend_learning
    assert last.invention_bias() == net.invention_bias()
    sub = (0, 1, 1, -1, 1, 0)
    net.train(sub)
    last.train(sub)
    assert last.invention_bias() == net.invention_bias()


@pytest.mark.parametrize(
    "iterations, net_class",
    [(DECODE_SAFE_CALLS, LastPattern), (DECODE_SAFE_CALLS + 1, AutoAssociator)],
)
def test_the_horizon_selects_the_network(iterations, net_class):
    world = World(WorldConfig(lattice_side=2, iterations=iterations), 0)
    assert all(type(a.net) is net_class for a in world.agents)


LOCKSTEP_WORLDS = {
    "exp1_corner": dict(mode="fixed_roles", creator_fraction=1.0, creator_creativity=1.0),
    "exp2_sr": dict(mode="shared_p", sr_enabled=True),
    "exp3_chaining_sr": dict(
        mode="shared_p", sr_enabled=True, chaining_enabled=True, fitness_regime="template"
    ),
    "template_no_chaining": dict(
        mode="fixed_roles", creator_fraction=0.6, creator_creativity=0.6,
        fitness_regime="template",
    ),
}


def _state(world):
    return (
        world.series,
        [(a.chain, a.fitness, a.p_create, a.rng.getstate(), a.net.invention_bias())
         for a in world.agents],
    )


@pytest.mark.parametrize("overrides", LOCKSTEP_WORLDS.values(), ids=LOCKSTEP_WORLDS)
def test_worlds_run_the_same_as_with_the_network(monkeypatch, overrides):
    """The same world twice, once as it runs and once with the reference
    network in place of LastPattern, stepped in lockstep to the horizon."""
    calls = []

    class CheckedNet(AutoAssociator):
        __slots__ = ()

        def train(self, sub):
            converged = super().train(sub)
            assert self.decoded == sub
            calls.append(converged)
            return converged

    cfg = WorldConfig(lattice_side=8, iterations=100, **overrides)
    fast = World(cfg, 0)
    monkeypatch.setattr(world_mod, "LastPattern", CheckedNet)
    ref = World(cfg, 0)
    assert all(type(a.net) is LastPattern for a in fast.agents)
    assert all(type(a.net) is CheckedNet for a in ref.agents)
    assert _state(fast) == _state(ref)
    for _ in range(cfg.iterations):
        fast.step()
        ref.step()
        assert _state(fast) == _state(ref)
    assert len(calls) > 100

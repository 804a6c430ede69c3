"""Per-agent behavior: biased mutation, chain extension, imitation,
adoption, and the social-regulation update."""

import math
import random
import struct

import pytest

from culturesim.actions import all_subactions
from culturesim.agent import (
    Agent,
    FLIP_PROBABILITY,
    _PERMUTATIONS_4,
    adopt,
    adopt_if_fitter,
    draw_position,
    extend_chain,
    imitate,
    invent,
    mutate_subaction,
    update_p_create,
)
from culturesim.fitness import (
    ACCEPTABLE_SUBACTIONS,
    SINGLE_STEP_SCORES,
    TemplateSet,
    fitness_single,
    fitness_single_chain,
)
from culturesim.network import AutoAssociator

NEUTRAL = (0, 0, 0, 0, 0, 0)

# The acceptable sub-actions in a fixed order, for tests that index or
# draw from them.
ACCEPTABLE = (
    (0, 1, -1, 1, -1, 1),
    (0, 1, -1, 1, -1, -1),
    (0, -1, 1, -1, 1, 1),
    (0, -1, 1, -1, 1, -1),
)

# Symmetric limb pairs (index -> partner index); HEAD and HIPS have none.
SYMMETRIC_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}


def make_agent(p_create=0.5, chain=(NEUTRAL,), fitness=0.0, seed=0):
    rng = random.Random(seed)
    return Agent(
        id=0,
        p_create=p_create,
        chain=chain,
        fitness=fitness,
        net=AutoAssociator(rng),
        rng=rng,
    )


def test_the_ordered_copy_holds_the_acceptable_subactions():
    assert ACCEPTABLE_SUBACTIONS == frozenset(ACCEPTABLE)
    assert len(ACCEPTABLE) == 4


def test_mutation_changes_one_component_on_average():
    rng = random.Random(5)
    base = (0, 1, -1, 0, 1, -1)
    n = 20000
    total_changes = 0
    for _ in range(n):
        cand = mutate_subaction(base, 0.5, 0.5, rng)
        total_changes += sum(1 for a, b in zip(base, cand) if a != b)
    assert total_changes / n == pytest.approx(1.0, abs=0.03)


def test_flipped_component_always_changes():
    rng = random.Random(9)
    for current in (-1, 0, 1):
        for _ in range(500):
            assert draw_position(current, 0, 0.5, 0.5, rng) != current


def test_movement_bias_one_never_draws_neutral():
    rng = random.Random(11)
    for _ in range(2000):
        assert draw_position(1, 0, 1.0, 0.5, rng) != 0
        assert draw_position(-1, 1, 1.0, 0.9, rng) != 0


def test_movement_bias_half_is_uniform_over_remaining_positions():
    rng = random.Random(13)
    counts = {-1: 0, 0: 0}
    n = 30000
    for _ in range(n):
        counts[draw_position(1, 0, 0.5, 0.5, rng)] += 1
    assert counts[0] / n == pytest.approx(0.5, abs=0.02)


def test_symmetry_bias_copies_active_partner_direction():
    rng = random.Random(17)
    n = 20000
    copied = sum(
        1 for _ in range(n) if draw_position(0, 1, 1.0, 0.8, rng) == 1
    )
    assert copied / n == pytest.approx(0.8, abs=0.02)


def test_extend_chain_appends_acceptable_novel_steps():
    a = ACCEPTABLE[0]
    rng = random.Random(21)
    for _ in range(200):
        chain = extend_chain([a], 50, 0.7, 0.5, rng)
        for k in range(1, len(chain)):
            assert chain[k] != chain[k - 1]
            assert chain[k] in ACCEPTABLE_SUBACTIONS
        assert len(chain) <= 50


def test_extend_chain_stops_at_unacceptable_final_step():
    rng = random.Random(23)
    chain = extend_chain([(1, 1, 1, 1, 1, 0)], 50, 0.7, 0.5, rng)
    assert chain == ((1, 1, 1, 1, 1, 0),)


def test_invent_mutates_only_the_final_step():
    a, b = ACCEPTABLE[0], ACCEPTABLE[1]
    agent = make_agent(chain=(a, b), seed=31)
    for _ in range(100):
        candidate = invent(agent, chaining_enabled=False, max_chain_length=50)
        assert candidate[0] == a
        assert len(candidate) == 2 or candidate is agent.chain


def test_invent_rejects_collision_with_previous_step():
    # If mutating the final step reproduces the step before it, the
    # candidate would violate the novelty rule and is withdrawn.
    a, b = ACCEPTABLE[0], ACCEPTABLE[1]
    agent = make_agent(chain=(a, b), seed=37)
    saw_collision = False
    for _ in range(3000):
        candidate = invent(agent, chaining_enabled=False, max_chain_length=50)
        if candidate is agent.chain:
            saw_collision = True
        else:
            assert candidate[-1] != candidate[-2]
    assert saw_collision


def test_imitate_lazy_scan_returns_strictly_fitter_neighbor():
    agent = make_agent(fitness=10.0, seed=41)
    neighbors = [((NEUTRAL,), 4.0), ((NEUTRAL,), 10.0), ((NEUTRAL,), 9.0), ((NEUTRAL,), 2.0)]
    assert imitate(agent, neighbors, (0, 1, 2, 3)) is None

    fit_chain = ((0, 1, 1, 1, 1, 1),)
    neighbors[2] = (fit_chain, 39.0)
    found = imitate(agent, neighbors, (0, 1, 2, 3))
    assert found == (fit_chain, 39.0)


def test_imitate_never_adopts_equal_fitness():
    agent = make_agent(fitness=39.0, seed=43)
    neighbors = [(((0, 1, 1, 1, 1, 1),), 39.0)] * 4
    assert imitate(agent, neighbors, (0, 1, 2, 3)) is None


def test_adopt_if_fitter_is_strict_and_trains_network():
    agent = make_agent(chain=(NEUTRAL,), fitness=0.0, seed=47)
    candidate = ((0, 1, 1, 1, 1, 1),)
    assert adopt_if_fitter(agent, candidate, lambda s: float(fitness_single(s)))
    assert agent.chain == candidate
    assert agent.fitness == 39.0
    assert agent.net.recall(candidate[-1]) == candidate[-1]

    same = ((0, -1, -1, -1, -1, -1),)
    assert not adopt_if_fitter(agent, same, lambda s: 39.0)
    assert agent.chain == candidate


def test_update_p_create_multiplies_by_relative_fitness():
    agent = make_agent(p_create=0.4, fitness=6.0)
    update_p_create([agent], 12.0)
    assert agent.p_create == pytest.approx(0.2)


def test_update_p_create_clamps_to_unit_interval():
    agent = make_agent(p_create=0.8, fitness=30.0)
    update_p_create([agent], 10.0)
    assert agent.p_create == 1.0
    agent.fitness = 0.0
    update_p_create([agent], 10.0)
    assert agent.p_create == 0.0


def test_update_p_create_ignores_zero_mean():
    # The initial immobile society has mean fitness 0; relative fitness
    # carries no signal there.
    agent = make_agent(p_create=0.5, fitness=0.0)
    update_p_create([agent], 0.0)
    assert agent.p_create == 0.5


def test_symmetric_training_raises_symmetric_candidate_frequency():
    rng = random.Random(53)
    untrained = AutoAssociator(random.Random(1))
    trained = AutoAssociator(random.Random(1))
    for _ in range(3):
        trained.train((0, 1, 1, 1, 1, 0))

    def symmetric_rate(net):
        mb, sb = net.invention_bias()
        hits = 0
        n = 20000
        for _ in range(n):
            cand = mutate_subaction((0, 1, 0, 0, 0, 0), mb, sb, rng)
            if cand[1] != 0 and cand[1] == cand[2]:
                hits += 1
        return hits / n

    assert symmetric_rate(trained) > symmetric_rate(untrained)


@pytest.mark.parametrize(
    "p_create, trend_learning", [(0.0, True), (0.5, False)],
    ids=["never_invents", "no_trend_learning"],
)
def test_adopt_skips_training_no_output_can_read(p_create, trend_learning):
    agent = make_agent(p_create=p_create, seed=59)
    agent.net.trend_learning = trend_learning
    before = [row[:] for row in agent.net.weights]
    chain = ((0, 1, 1, 1, 1, 1),)
    adopt(agent, chain, 39.0)
    assert agent.chain == chain
    assert agent.fitness == 39.0
    assert agent.net.weights == before
    assert agent.net.decoded == NEUTRAL


# --- the rewritten kernels against their earlier forms -------------------
#
# Each reference below is the kernel as it was before it was rewritten for
# speed, kept verbatim.  The rewrites must return equal values and leave the
# agent's RNG in the same state, so every run draws the same numbers.


def reference_mutate_subaction(base, movement_bias, symmetry_bias, rng):
    parts = list(base)
    changed = False
    for j in range(6):
        if rng.random() < FLIP_PROBABILITY:
            partner_idx = SYMMETRIC_PARTNER.get(j)
            partner = base[partner_idx] if partner_idx is not None else 0
            parts[j] = draw_position(base[j], partner, movement_bias, symmetry_bias, rng)
            changed = True
    return tuple(parts) if changed else base


def reference_extend_chain(steps, max_chain_length, movement_bias, symmetry_bias, rng):
    steps = list(steps)
    while len(steps) < max_chain_length:
        if steps[-1] not in ACCEPTABLE:
            break
        candidate = reference_mutate_subaction(steps[-1], movement_bias, symmetry_bias, rng)
        if candidate == steps[-1] or candidate not in ACCEPTABLE:
            break
        steps.append(candidate)
    return tuple(steps)


def reference_invent(agent, chaining_enabled, max_chain_length):
    movement_bias, symmetry_bias = agent.net.invention_bias()
    new_final = reference_mutate_subaction(
        agent.chain[-1], movement_bias, symmetry_bias, agent.rng)
    steps = agent.chain[:-1] + (new_final,)
    if len(steps) > 1 and steps[-1] == steps[-2]:
        return agent.chain
    if chaining_enabled:
        steps = reference_extend_chain(
            steps, max_chain_length, movement_bias, symmetry_bias, agent.rng)
    return steps


def reference_imitate(agent, neighbors):
    if len(neighbors) == 4:
        order = _PERMUTATIONS_4[int(agent.rng.random() * 24)]
    else:
        order = agent.rng.sample(range(len(neighbors)), len(neighbors))
    own = agent.fitness
    for idx in order:
        chain, fit = neighbors[idx]
        if fit > own:
            return chain, fit
    return None


class CountingRandom(random.Random):
    """Counts ``choice`` calls: ``draw_position`` makes one only in its
    fallback, after 16 draws that all equal the current position."""

    fallbacks = 0

    def choice(self, seq):
        self.fallbacks += 1
        return super().choice(seq)


# (1, 1) pins every flipped limb whose partner equals it onto its own
# position, so draw_position's fallback fires there.
BIAS_GRID = [(0.0, 0.0), (0.5, 0.5), (0.2, 0.9), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def test_unrolled_mutation_matches_the_loop_form_on_every_base():
    for movement_bias, symmetry_bias in BIAS_GRID:
        rng, ref_rng = CountingRandom(61), CountingRandom(61)
        for base in all_subactions():
            for _ in range(6):
                got = mutate_subaction(base, movement_bias, symmetry_bias, rng)
                want = reference_mutate_subaction(
                    base, movement_bias, symmetry_bias, ref_rng)
                assert got == want
                assert (got is base) == (want is base)
            assert rng.getstate() == ref_rng.getstate()
        assert rng.fallbacks == ref_rng.fallbacks
        if (movement_bias, symmetry_bias) == (1.0, 1.0):
            assert rng.fallbacks > 0


def random_chain(rng, length):
    """A chain of acceptable steps, each differing from the one before;
    half the time its last step is any sub-action instead."""
    steps = [rng.choice(ACCEPTABLE)]
    while len(steps) < length:
        steps.append(rng.choice([s for s in ACCEPTABLE if s != steps[-1]]))
    if rng.random() < 0.5:
        subs = list(all_subactions())
        steps[-1] = rng.choice([s for s in subs if len(steps) == 1 or s != steps[-2]])
    return tuple(steps)


@pytest.mark.parametrize("max_chain_length", [1, 6, 50])
def test_invent_and_extend_chain_match_their_copying_forms(max_chain_length):
    chain_rng = random.Random(max_chain_length)
    appended = at_max = 0
    for seed in range(150):
        chain = random_chain(chain_rng, chain_rng.randint(1, max_chain_length))
        agent = make_agent(chain=chain, seed=seed)
        ref = make_agent(chain=chain, seed=seed)
        for _ in range(20):
            got = invent(agent, True, max_chain_length)
            want = reference_invent(ref, True, max_chain_length)
            assert got == want
            # The chain itself comes back for a collision, as before, and
            # now also for a no-op: an unchanged final step, nothing appended.
            assert (got is agent.chain) == (want is ref.chain or want == ref.chain)
            appended += len(got) > len(chain)
            at_max += len(got) == max_chain_length
        assert agent.rng.getstate() == ref.rng.getstate()

        steps = list(chain)
        mb, sb = agent.net.invention_bias()
        got = extend_chain(steps, max_chain_length, mb, sb, agent.rng)
        want = reference_extend_chain(steps, max_chain_length, mb, sb, ref.rng)
        assert type(got) is tuple and got == want
        assert extend_chain(chain, max_chain_length, mb, sb, agent.rng) == (
            reference_extend_chain(chain, max_chain_length, mb, sb, ref.rng))
        assert agent.rng.getstate() == ref.rng.getstate()
    assert at_max > 0
    if max_chain_length > 1:
        assert appended > 0


SCORERS = {
    "templates": (TemplateSet.default().scores.__getitem__, TemplateSet.default().fitness_chain),
    "single_step": (SINGLE_STEP_SCORES.__getitem__, fitness_single_chain),
}


@pytest.mark.parametrize("max_chain_length", [1, 6, 50])
@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_adopt_if_fitter_scores_inventions_as_the_whole_chain_does(scorer, max_chain_length):
    # On invent's outputs, the incremental sum decides and adopts exactly
    # what the whole-chain fitness would: the same verdict, the same value.
    score, evaluate = SCORERS[scorer]
    chain_rng = random.Random(79 + max_chain_length)
    seen = dict(collision=0, no_op=0, appended=0, at_max=0, adopted=0, rejected=0)
    for seed in range(150):
        chain = random_chain(chain_rng, chain_rng.randint(1, max_chain_length))
        agent = make_agent(chain=chain, fitness=evaluate(chain), seed=seed)
        for _ in range(20):
            before_chain, before_fit = agent.chain, agent.fitness
            state = agent.rng.getstate()
            candidate = invent(agent, seed % 3 != 0, max_chain_length)
            if candidate is before_chain:
                # Replay the mutation to tell a collision from a no-op.
                after = agent.rng.getstate()
                agent.rng.setstate(state)
                mb, sb = agent.net.invention_bias()
                new_final = mutate_subaction(before_chain[-1], mb, sb, agent.rng)
                agent.rng.setstate(after)
                if new_final is before_chain[-1]:
                    seen["no_op"] += 1
                else:
                    assert new_final == before_chain[-2]
                    seen["collision"] += 1
                continue
            # Anything else is scored, so a no-op never comes back as a copy.
            assert candidate != before_chain
            seen["appended"] += len(candidate) > len(before_chain)
            seen["at_max"] += len(candidate) == max_chain_length
            want = evaluate(candidate)
            adopted = adopt_if_fitter(agent, candidate, score)
            assert adopted == (want > before_fit)
            if adopted:
                seen["adopted"] += 1
                assert agent.chain is candidate
                assert type(agent.fitness) is int and agent.fitness == want
            else:
                seen["rejected"] += 1
                assert agent.chain is before_chain and agent.fitness == before_fit
    assert seen["no_op"] > 0 and seen["at_max"] > 0
    assert seen["adopted"] > 0 and seen["rejected"] > 0
    if max_chain_length > 1:
        assert seen["collision"] > 0 and seen["appended"] > 0


def test_imitate_matches_its_earlier_form_and_returns_the_pair_itself():
    pairs_rng = random.Random(67)
    agent, ref = make_agent(seed=71), make_agent(seed=71)
    found = 0
    for _ in range(2000):
        own = pairs_rng.randint(0, 4)
        agent.fitness = ref.fitness = own
        snapshot = [((NEUTRAL,), pairs_rng.randint(0, 4)) for _ in range(9)]
        cells = tuple(pairs_rng.randrange(9) for _ in range(4))
        neighbors = tuple(snapshot[c] for c in cells)
        got = imitate(agent, snapshot, cells)
        assert got == reference_imitate(ref, neighbors)
        if got is not None:
            found += 1
            assert any(got is pair for pair in neighbors)
        assert agent.rng.getstate() == ref.rng.getstate()
    assert found > 0


def bits(x):
    return struct.pack("<d", x)


CLAMP_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.5, 1e308,
    -0.25, -1e308, math.inf, -math.inf, math.nan,
]


@pytest.mark.parametrize("x", CLAMP_VALUES, ids=repr)
def test_update_p_create_clamp_is_bit_identical_to_min_max(x):
    agent = make_agent(p_create=x, fitness=1.0)
    update_p_create([agent], 1.0)  # relative fitness 1.0: the clamp sees x itself
    want = min(1.0, max(0.0, x))
    assert type(agent.p_create) is float
    assert bits(agent.p_create) == bits(want)


def test_update_p_create_matches_min_max_on_random_products():
    rng = random.Random(73)
    for _ in range(5000):
        p, fit, mean = rng.random(), rng.randint(0, 60), rng.uniform(0.5, 40.0)
        agent = make_agent(p_create=p, fitness=fit)
        update_p_create([agent], mean)
        assert bits(agent.p_create) == bits(min(1.0, max(0.0, p * (fit / mean))))

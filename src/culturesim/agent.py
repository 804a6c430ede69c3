"""One agent's per-iteration behavior: biased invention, chain extension,
lazy imitation, and the social-regulation update of the personal creation
probability.  ``World.step`` writes out each agent's turn (the
create-or-imitate draw, ``mutate_subaction``, ``invent``,
``adopt_if_fitter``, ``imitate`` and ``adopt``) in its own loop, and calls
``draw_position``, ``extend_chain`` and ``update_p_create`` from here."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from .actions import ActionChain, SubAction
from .fitness import ACCEPTABLE_SUBACTIONS
from .network import AutoAssociator, LastPattern

FLIP_PROBABILITY = 1.0 / 6.0
_MAX_DRAW_TRIES = 16


@dataclass(slots=True)
class Agent:
    id: int
    p_create: float
    chain: ActionChain
    fitness: float
    net: Union[AutoAssociator, LastPattern, None]  # None: a replayed creator
    rng: Optional[random.Random]


def draw_position(
    current: int, partner: int, movement_bias: float, symmetry_bias: float,
    rng: random.Random,
) -> int:
    """Draw a new position for a flipped component, guaranteed != current.

    Active-vs-neutral is biased by the MOVEMENT activation (uniform over
    the three positions at bias 0.5, never neutral at bias 1).  When the
    symmetric partner limb is active, its direction is copied with
    probability equal to the SYMMETRY activation.
    """
    p_active = (1.0 + 2.0 * movement_bias) / 3.0
    for _ in range(_MAX_DRAW_TRIES):
        if rng.random() >= p_active:
            value = 0
        elif partner != 0:
            value = partner if rng.random() < symmetry_bias else -partner
        else:
            value = 1 if rng.random() < 0.5 else -1
        if value != current:
            return value
    # Biases pinned an impossible draw; fall back to uniform over the rest.
    return rng.choice([v for v in (-1, 0, 1) if v != current])


def mutate_subaction(
    base: SubAction, movement_bias: float, symmetry_bias: float, rng: random.Random
) -> SubAction:
    """Flip each component with probability 1/6 (one change on average).

    The six components are written out in order.  A flipped limb copies
    its symmetric partner as it stands in ``base`` (arms 1 and 2, legs 3
    and 4); head (0) and hips (5) have partner 0.  With no flip, ``base``
    itself is returned.
    """
    random_ = rng.random
    head, l_arm, r_arm, l_leg, r_leg, hips = base
    changed = False
    if random_() < FLIP_PROBABILITY:
        head = draw_position(head, 0, movement_bias, symmetry_bias, rng)
        changed = True
    if random_() < FLIP_PROBABILITY:
        l_arm = draw_position(l_arm, r_arm, movement_bias, symmetry_bias, rng)
        changed = True
    if random_() < FLIP_PROBABILITY:
        r_arm = draw_position(r_arm, base[1], movement_bias, symmetry_bias, rng)
        changed = True
    if random_() < FLIP_PROBABILITY:
        l_leg = draw_position(l_leg, r_leg, movement_bias, symmetry_bias, rng)
        changed = True
    if random_() < FLIP_PROBABILITY:
        r_leg = draw_position(r_leg, base[3], movement_bias, symmetry_bias, rng)
        changed = True
    if random_() < FLIP_PROBABILITY:
        hips = draw_position(hips, 0, movement_bias, symmetry_bias, rng)
        changed = True
    if changed:
        return (head, l_arm, r_arm, l_leg, r_leg, hips)
    return base


def extend_chain(
    steps: Sequence[SubAction],
    max_chain_length: int,
    movement_bias: float,
    symmetry_bias: float,
    rng: random.Random,
) -> ActionChain:
    """Append novel, acceptable sub-actions until the first failed candidate.

    Appends are rare, so the chain grows by tuple concatenation and a call
    that appends nothing copies nothing: ``tuple(steps)`` is ``steps``
    itself for a tuple.
    """
    chain = tuple(steps)
    while len(chain) < max_chain_length and chain[-1] in ACCEPTABLE_SUBACTIONS:
        candidate = mutate_subaction(chain[-1], movement_bias, symmetry_bias, rng)
        if candidate == chain[-1] or candidate not in ACCEPTABLE_SUBACTIONS:
            break
        chain += (candidate,)
    return chain


def invent(agent: Agent, chaining_enabled: bool, max_chain_length: int) -> ActionChain:
    """Produce a candidate chain by mutating the final step of the current one.

    Earlier steps are immutable; in chaining mode the extension loop may
    append further acceptable steps.  It is entered only when the new
    final step is acceptable, which is its own first test.

    ``agent.chain`` itself is returned when there is nothing to score: the
    new final step collides with the step before it, or the mutation
    changed nothing and nothing was appended.  An unchanged final step
    keeps the chain object, and ``extend_chain`` returns what it is given
    when it appends nothing.

    ``World.step`` inlines this; it is kept as the reference form for the
    benchmark's tracer (perfbench/spans.py) and the tests.
    """
    chain = agent.chain
    movement_bias, symmetry_bias = agent.net.invention_bias()
    new_final = mutate_subaction(chain[-1], movement_bias, symmetry_bias, agent.rng)
    if len(chain) > 1 and new_final == chain[-2]:
        return chain  # mutation collided with the previous step
    steps = chain if new_final is chain[-1] else chain[:-1] + (new_final,)
    if chaining_enabled and new_final in ACCEPTABLE_SUBACTIONS:
        steps = extend_chain(
            steps, max_chain_length, movement_bias, symmetry_bias, agent.rng
        )
    return steps


_PERMUTATIONS_4 = tuple(itertools.permutations(range(4)))


def imitate(
    agent: Agent, snapshot: Sequence[Tuple[ActionChain, float]], cells: Sequence[int]
) -> Optional[Tuple[ActionChain, float]]:
    """Lazy scan: the four neighbour cells in a random order drawn with one
    ``random()``; the first strictly fitter ``snapshot[cell]`` wins, and
    that ``(chain, fitness)`` pair is returned as it stands.

    ``World.step`` inlines this; it is kept as the reference form for the
    benchmark's tracer (perfbench/spans.py) and the tests."""
    own = agent.fitness
    for idx in _PERMUTATIONS_4[int(agent.rng.random() * 24)]:
        pair = snapshot[cells[idx]]
        if pair[1] > own:
            return pair
    return None


def adopt_if_fitter(
    agent: Agent, candidate: ActionChain, score: Callable[[SubAction], float]
) -> bool:
    """Adopt a strictly fitter candidate and train the network on its final step.

    ``score`` is the world's step scorer.  The candidate must come from
    ``invent(agent, ...)``: it then shares every step of ``agent.chain``
    but the last, so only that step and the ones after it are scored.
    Step scores are ints and ``agent.fitness`` is the sum over its chain,
    so the result is exactly the candidate's whole-chain fitness.

    ``World.step`` inlines this; it is kept as the reference form for the
    benchmark's tracer (perfbench/spans.py) and the tests.
    """
    chain = agent.chain
    k = len(chain) - 1
    fit = agent.fitness - score(chain[k])
    for step in candidate[k:]:
        fit += score(step)
    if fit <= agent.fitness:
        return False
    adopt(agent, candidate, fit)
    return True


def adopt(agent: Agent, chain: ActionChain, fit: float) -> None:
    """Take over ``chain`` and train the network on its final step.

    The network is read only through the invention bias.  An agent with
    p(C) = 0 never invents again (fixed roles never change p, and the SR
    update keeps 0 at 0), and without trend learning the bias is a
    constant, so in either case training could not change any output and
    is skipped.

    ``World.step`` inlines this; it is kept as the reference form for the
    benchmark's tracer (perfbench/spans.py) and the tests.
    """
    agent.chain = chain
    agent.fitness = fit
    if agent.p_create != 0.0 and agent.net.trend_learning:
        agent.net.train(chain[-1])


def update_p_create(agents: Iterable[Agent], mean_fitness_prev: float) -> None:
    """Multiplicative social-regulation update of every agent, clamped to
    [0, 1].

    A zero previous mean (the initial immobile society) carries no signal,
    so the relative fitness is taken as 1.
    """
    if mean_fitness_prev == 0:
        return
    for agent in agents:
        p = agent.p_create * (agent.fitness / mean_fitness_prev)
        # min(1.0, max(0.0, p)) without the calls, bit for bit: NaN and -0.0
        # fail ``p > 0.0`` and give 0.0, as max(0.0, p) does.
        agent.p_create = 1.0 if p >= 1.0 else p if p > 0.0 else 0.0

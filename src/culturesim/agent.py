"""One agent's per-iteration behavior: biased invention, chain extension,
lazy imitation, and the social-regulation update of the personal creation
probability.  A chain is a tuple of sub-action codes (see ``actions``).
``mutate_subaction`` is the one written form of invention's flip-and-draw
rule: it reads a code's parts from ``SUBACTIONS`` and moves the code.  A
network is trained on the parts, ``SUBACTIONS[code]``.  ``World.step``
writes out each agent's turn (the create-or-imitate draw, the
``mutate_subaction`` loop, ``invent``, ``adopt_if_fitter``, ``imitate``
and ``adopt``) in its own loop, and calls ``extend_chain`` and
``update_p_create`` from here.  ``world.creator_adoptions``, the kernel of
a fixed-role creator of creativity 1, writes out the same loop and scores
as the step does; it calls ``extend_chain`` from here."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from .actions import PLACES, SUBACTIONS, ActionChain
from .fitness import ACCEPTABLE_BY_CODE
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


# The six parts of a sub-action, and each part's symmetric partner, or
# None for partner 0: arms 1 and 2, legs 3 and 4; head (0) and hips (5)
# have none.
_PARTS = (0, 1, 2, 3, 4, 5)
_PARTNERS = (None, 2, 1, 4, 3, None)


def mutate_subaction(
    code: int, movement_bias: float, symmetry_bias: float, rng: random.Random
) -> int:
    """Flip each part with probability 1/6 (one change on average), and
    draw a new position for each flipped part, never its current one.

    Active-vs-neutral is biased by the MOVEMENT activation (uniform over
    the three positions at bias 0.5, never neutral at bias 1).  A flipped
    limb whose symmetric partner is active in the old step copies its
    direction with probability equal to the SYMMETRY activation.  After
    ``_MAX_DRAW_TRIES`` draws that all equal the current position (biases
    that pin an impossible draw), the position is drawn uniformly from
    the other two.  The parts are read from ``SUBACTIONS[code]``, and the
    new code is returned: with no flip, ``code`` itself.

    A flip moves the code by ``(value - current) * PLACES[i]``.  Each flip
    changes its part, so the code differs from ``code`` as soon as one
    part has flipped, and ``new == code`` means none has.

    This loop is the one written form of the flip-and-draw rule:
    ``World.step`` and ``world.creator_adoptions`` write it out inline,
    with the same text up to local aliases.
    """
    random_ = rng.random
    base = SUBACTIONS[code]
    new = code
    for i in _PARTS:
        if random_() < FLIP_PROBABILITY:
            if new == code:
                p_active = (1.0 + 2.0 * movement_bias) / 3.0
            current, j = base[i], _PARTNERS[i]
            partner = 0 if j is None else base[j]
            for _ in range(_MAX_DRAW_TRIES):
                if random_() >= p_active:
                    value = 0
                elif partner != 0:
                    value = partner if random_() < symmetry_bias else -partner
                else:
                    value = 1 if random_() < 0.5 else -1
                if value != current:
                    break
            else:
                # Biases pinned an impossible draw.
                value = rng.choice([v for v in (-1, 0, 1) if v != current])
            new += (value - current) * PLACES[i]
    return new


def extend_chain(
    steps: Sequence[int],
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
    while len(chain) < max_chain_length and ACCEPTABLE_BY_CODE[chain[-1]]:
        candidate = mutate_subaction(chain[-1], movement_bias, symmetry_bias, rng)
        if candidate == chain[-1] or not ACCEPTABLE_BY_CODE[candidate]:
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
    steps = chain if new_final == chain[-1] else chain[:-1] + (new_final,)
    if chaining_enabled and ACCEPTABLE_BY_CODE[new_final]:
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
    agent: Agent, candidate: ActionChain, score: Callable[[int], float]
) -> bool:
    """Adopt a strictly fitter candidate and train the network on its final step.

    ``score`` is the world's step scorer, by code.  The candidate must
    come from ``invent(agent, ...)``: it then shares every step of
    ``agent.chain`` but the last, so only that step and the ones after it
    are scored.
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
        agent.net.train(SUBACTIONS[chain[-1]])


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

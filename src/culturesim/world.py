"""The artificial world: toroidal lattice, creator placement, synchronous
iteration, and deterministic per-agent RNG streams."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import agent as agent_ops
from .actions import ActionChain, NEUTRAL, SubAction
from .agent import _PERMUTATIONS_4, FLIP_PROBABILITY, Agent
from .analysis import RunSeries, p_create_histogram
from .fitness import (
    ACCEPTABLE_SUBACTIONS,
    SINGLE_STEP_SCORES,
    TemplateSet,
    fitness_single_chain,
)
from .network import DECODE_SAFE_CALLS, AutoAssociator, LastPattern

MODE_FIXED_ROLES = "fixed_roles"
MODE_SHARED_P = "shared_p"
REGIME_SINGLE_STEP = "single_step"
REGIME_TEMPLATE = "template"

INITIAL_P_CREATE = 0.5


class ConfigError(ValueError):
    """A world or experiment configuration field is invalid."""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Field annotation -> (what the error calls it, check).  bool is a
# subclass of int, so it is excluded from the numeric types by hand.
_FIELD_TYPES = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "Optional[str]": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "Tuple[float, ...]": (
        "a list of numbers",
        lambda v: isinstance(v, tuple) and all(_is_number(x) for x in v),
    ),
    "WorldConfig": ("an object of world settings", lambda v: isinstance(v, WorldConfig)),
}


def _is_finite(value) -> bool:
    """False for a NaN or infinite float, alone or in a grid.  ``nan <= 0``
    is false, so range checks would let one through to the run and to a
    non-standard ``NaN`` in ``config.json``."""
    values = value if isinstance(value, tuple) else (value,)
    return not any(isinstance(v, float) and not math.isfinite(v) for v in values)


def check_field_types(config) -> None:
    """Raise ConfigError for the first dataclass field whose value does not
    have its declared type or is not finite, so no comparison or run ever
    sees it."""
    for f in fields(config):
        kind, ok = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if not ok(value):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if not _is_finite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class WorldConfig:
    lattice_side: int = 32
    iterations: int = 100
    mode: str = MODE_FIXED_ROLES
    creator_fraction: float = 1.0
    creator_creativity: float = 1.0
    sr_enabled: bool = False
    chaining_enabled: bool = False
    fitness_regime: str = REGIME_SINGLE_STEP
    trend_learning: bool = True
    tau: float = 9.0
    max_chain_length: int = 50
    base_seed: int = 0
    template_file: Optional[str] = None

    @property
    def n_agents(self) -> int:
        return self.lattice_side ** 2

    def validate(self) -> "WorldConfig":
        check_field_types(self)
        if self.lattice_side < 2:
            raise ConfigError(f"lattice_side must be >= 2, got {self.lattice_side}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.mode not in (MODE_FIXED_ROLES, MODE_SHARED_P):
            raise ConfigError(f"mode must be fixed_roles or shared_p, got {self.mode!r}")
        if self.sr_enabled and self.mode == MODE_FIXED_ROLES:
            raise ConfigError("sr_enabled requires shared_p mode; fixed roles exclude SR")
        if not 0.0 <= self.creator_fraction <= 1.0:
            raise ConfigError(
                f"creator_fraction must be in [0, 1], got {self.creator_fraction}"
            )
        if not 0.0 <= self.creator_creativity <= 1.0:
            raise ConfigError(
                f"creator_creativity must be in [0, 1], got {self.creator_creativity}"
            )
        if self.fitness_regime not in (REGIME_SINGLE_STEP, REGIME_TEMPLATE):
            raise ConfigError(
                f"fitness_regime must be single_step or template, got {self.fitness_regime!r}"
            )
        if self.chaining_enabled and self.fitness_regime != REGIME_TEMPLATE:
            raise ConfigError("chaining_enabled requires the template fitness regime")
        if self.template_file and self.fitness_regime != REGIME_TEMPLATE:
            # It would never be read, so the run would not be the one named.
            raise ConfigError("template_file requires the template fitness regime")
        if self.max_chain_length < 1:
            raise ConfigError(f"max_chain_length must be >= 1, got {self.max_chain_length}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        return self

    def digest_fields(self, template_sha256: Optional[str] = None) -> dict:
        """The fields a digest covers.  A template file the run reads is
        named by the sha256 of its contents, not by its path, so an edited
        file changes the digest and a moved one does not.  A caller that
        has read the file already passes that sha256 (``TemplateSet.sha256``)
        and the file is not read again."""
        d = asdict(self)
        if self.template_file and self.fitness_regime == REGIME_TEMPLATE:
            if template_sha256 is None:
                contents = Path(self.template_file).read_bytes()
                template_sha256 = hashlib.sha256(contents).hexdigest()
            d["template_file"] = "sha256:" + template_sha256
        return d

    def digest(self, template_sha256: Optional[str] = None) -> str:
        payload = json.dumps(self.digest_fields(template_sha256), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def derive_seeds(parts: tuple, lasts) -> List[int]:
    """``[derive_seed(*parts, last) for last in lasts]``, with the shared
    ``"part:part:"`` prefix joined once."""
    prefix = "".join(str(p) + ":" for p in parts)
    sha256 = hashlib.sha256
    return [
        int.from_bytes(sha256((prefix + str(last)).encode()).digest()[:8], "big")
        for last in lasts
    ]


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from (base_seed, run_index, agent_id, ...): the
    first 8 bytes, big-endian, of the sha256 of the parts joined by ':'."""
    return derive_seeds(parts[:-1], parts[-1:])[0]


def replay_key(cfg: WorldConfig, run_index: int) -> Optional[tuple]:
    """The key of the runs that share their creators' adoptions, or None.

    In fixed roles a creator of creativity 1 passes every create draw
    (``random() < 1.0``), so it never imitates and never reads another
    agent, and its seed is ``derive_seed(base_seed, run_index, id)`` in
    every cell.  Its adoptions are therefore the same in every run of one
    (cfg without C, run_index)."""
    if cfg.mode == MODE_FIXED_ROLES and cfg.creator_creativity == 1.0:
        return replace(cfg, creator_fraction=1.0), run_index
    return None


# The creator log of the bundle being run, or None outside one: replay
# key -> {agent id: [iteration, chain, fitness, ...] of its adoptions}.
# A scope rather than an argument, because ``World(cfg, run_index)`` and
# ``run_world(cfg, run_index)`` keep the two-argument form that
# perfbench/ wraps; creator_log_scope() restores it on exit.
_creator_logs: Optional[Dict[tuple, Dict[int, list]]] = None


@contextlib.contextmanager
def creator_log_scope():
    """Let the worlds built inside share their creators' adoptions: each
    world of a replay key computes the creators the log does not hold yet
    (``creator_adoptions``) and replays every creator from it.  The log is
    dropped on exit, even if a run raises."""
    global _creator_logs
    saved, _creator_logs = _creator_logs, {}
    try:
        yield
    finally:
        _creator_logs = saved


def creator_adoptions(
    agent: Agent, cfg: WorldConfig, score: Callable[[SubAction], float],
    top: Optional[float],
) -> list:
    """The adoptions of a fixed-role creator of creativity 1, run alone
    through every iteration, as flat ``[iteration, chain, fitness, ...]``.

    Such a creator reads no other agent, so this is the sequence of
    adoptions ``World.step`` gives it, with the same draws: the create
    draw, then ``invent`` (its collision and no-op rules included), then
    ``adopt_if_fitter`` with its incremental int sum, and training on
    adoption under trend learning.  The bias changes only when the network
    trains, so it is read again only then.  The loop stops once the
    creator reaches ``top``, the absorbing fitness, as ``step`` stops
    moving it.  ``agent`` starts in the world's initial state with its own
    RNG and network, which nothing reads once this returns.
    """
    mutate_subaction = agent_ops.mutate_subaction
    extend_chain = agent_ops.extend_chain
    chaining_enabled, max_chain_length = cfg.chaining_enabled, cfg.max_chain_length
    rng, net = agent.rng, agent.net
    random_ = rng.random
    chain, fitness = agent.chain, agent.fitness
    train = net.train if net.trend_learning else None
    movement_bias, symmetry_bias = net.invention_bias()
    events: list = []
    for t in range(cfg.iterations):
        random_()  # the create draw, which p = 1 always passes
        new_final = mutate_subaction(chain[-1], movement_bias, symmetry_bias, rng)
        if len(chain) > 1 and new_final == chain[-2]:
            continue  # collided with the step before
        candidate = chain if new_final is chain[-1] else chain[:-1] + (new_final,)
        if chaining_enabled and new_final in ACCEPTABLE_SUBACTIONS:
            candidate = extend_chain(
                candidate, max_chain_length, movement_bias, symmetry_bias, rng
            )
        if candidate is chain:
            continue  # nothing changed
        k = len(chain) - 1
        fit = fitness - score(chain[k])
        for step in candidate[k:]:
            fit += score(step)
        if fit <= fitness:
            continue
        chain, fitness = candidate, fit
        if train is not None:
            train(chain[-1])
            movement_bias, symmetry_bias = net.invention_bias()
        events += (t, chain, fit)
        if top is not None and fit >= top:
            break
    return events


@functools.lru_cache(maxsize=None)
def neighbor_table(side: int) -> Tuple[Tuple[int, int, int, int], ...]:
    """Von Neumann neighborhoods with toroidal wraparound, row-major cells.
    Built once per side per process, and a tuple, so no run can alter it."""
    table = []
    for r in range(side):
        for c in range(side):
            up = ((r - 1) % side) * side + c
            down = ((r + 1) % side) * side + c
            left = r * side + (c - 1) % side
            right = r * side + (c + 1) % side
            table.append((up, down, left, right))
    return tuple(table)


class World:
    """One run's mutable state: agents on the lattice plus the frozen
    previous-iteration snapshot that imitation reads."""

    def __init__(self, cfg: WorldConfig, run_index: int):
        cfg.validate()
        self.cfg = cfg
        self.run_index = run_index
        self.iteration = 0

        template_sha256 = None
        if cfg.fitness_regime == REGIME_TEMPLATE:
            ts = (
                TemplateSet.from_file(cfg.template_file)
                if cfg.template_file
                else TemplateSet.default()
            )
            self.evaluate: Callable[[ActionChain], float] = ts.fitness_chain
            scores = ts.scores
            template_sha256 = ts.sha256
        else:
            self.evaluate = fitness_single_chain
            scores = SINGLE_STEP_SCORES
        # A chain's fitness is the sum of its steps' scores; step() scores
        # only the steps an invention changes.
        self.score: Callable[[SubAction], float] = scores.__getitem__

        # Without chaining every chain is a single step, so no agent can
        # score above the best single step.  Once every agent scores it,
        # adoption (strictly fitter only) can change no chain and the SR
        # ratio is exactly 1, so no later iteration can change anything.
        self.absorbing_fitness: Optional[float] = (
            None if cfg.chaining_enabled else scores.best()
        )

        n = cfg.n_agents
        self.neighbors = neighbor_table(cfg.lattice_side)
        p_create = [INITIAL_P_CREATE] * n
        if cfg.mode == MODE_FIXED_ROLES:
            placement_rng = random.Random(derive_seed(cfg.base_seed, run_index))
            p_create = [0.0] * n
            for i in placement_rng.sample(range(n), round(cfg.creator_fraction * n)):
                p_create[i] = cfg.creator_creativity

        initial_chain: ActionChain = (NEUTRAL,)
        initial_fitness = self.evaluate(initial_chain)
        # Under a template set whose best step is the neutral one, every
        # agent starts absorbed.
        top = self.absorbing_fitness
        starts_absorbed = top is not None and initial_fitness >= top
        # An agent trains at most once per step, so within a horizon of at
        # most DECODE_SAFE_CALLS its network decodes every pattern it is
        # trained on (network.py), and only the last one is ever read.
        net_class = (
            LastPattern if cfg.iterations <= DECODE_SAFE_CALLS else AutoAssociator
        )
        trend_learning = cfg.trend_learning
        Random = random.Random
        seed_parts = (cfg.base_seed, run_index)

        # Inside a creator log scope every creator of a replay key is
        # replayed: it gets no RNG and no network, and step() applies its
        # logged adoptions.  Each one the log does not hold yet is computed
        # first, alone, and dropped with its RNG and network once logged.
        # The log lasts as long as its bundle, so equal chains are logged
        # as one object.
        log: Dict[int, list] = {}
        replayed = set()
        if _creator_logs is not None:
            key = replay_key(cfg, run_index)
            if key is not None:
                log = _creator_logs.setdefault(key, {})
                replayed = {i for i in range(n) if p_create[i] == 1.0}
        new = [] if starts_absorbed else sorted(replayed.difference(log))
        chains: Dict[ActionChain, ActionChain] = {}
        for i, seed in zip(new, derive_seeds(seed_parts, new)):
            rng = Random(seed)
            creator = Agent(i, 1.0, initial_chain, initial_fitness,
                            net_class(rng, trend_learning), rng)
            events = creator_adoptions(creator, cfg, self.score, top)
            events[1::3] = [chains.setdefault(c, c) for c in events[1::3]]
            log[i] = events

        self.agents: List[Agent] = []
        append = self.agents.append
        stepped = [i for i in range(n) if i not in replayed]
        seeds = iter(derive_seeds(seed_parts, stepped))
        for i in range(n):
            if i in replayed:
                append(Agent(i, p_create[i], initial_chain, initial_fitness, None, None))
            else:
                rng = Random(next(seeds))
                append(Agent(i, p_create[i], initial_chain, initial_fitness,
                             net_class(rng, trend_learning), rng))

        # The (chain, fitness) pair of every agent at the end of the last
        # step, which imitation reads; see step().
        self.snapshot: List[Tuple[ActionChain, float]] = [
            (initial_chain, initial_fitness)
        ] * n
        self.fitness_total = initial_fitness * n
        # The one object of each chain an agent holds, and the number of
        # agents holding each, by id; see step().
        self.interned: Dict[ActionChain, ActionChain] = {initial_chain: initial_chain}
        self.holders: Dict[int, int] = {id(initial_chain): n}
        # The stepped and the replayed agents that can still change their
        # chain; see step().
        self.replay: Dict[int, List[Tuple[Agent, ActionChain, float]]] = {}
        if starts_absorbed:
            self.active, self.replayed = [], []
        else:
            self.active = [a for a in self.agents if a.rng is not None]
            self.replayed = [a for a in self.agents if a.rng is None]
            for a in self.replayed:
                events = log[a.id]
                for t, chain, fit in zip(events[::3], events[1::3], events[2::3]):
                    self.replay.setdefault(t, []).append((a, chain, fit))
        self.series = RunSeries(
            mean_fitness=[],
            diversity=[],
            p_create_hist=[],
            config_digest=cfg.digest(template_sha256),
            run_index=run_index,
        )

    def step(self) -> None:
        """One synchronous iteration: every active agent acts against the
        frozen t-1 snapshot, then the SR update runs against the t-1 society
        mean.

        An agent at ``absorbing_fitness`` is no longer active.  Acting could
        not change its chain: no invention or neighbour is strictly fitter,
        and adoption is strict.  The only other effect of acting is on its
        own RNG stream, which nothing else reads.

        Each active agent's turn is written out here, in one loop, and takes
        the draws of ``agent.mutate_subaction``, ``agent.invent``,
        ``agent.adopt_if_fitter``, ``agent.imitate`` and ``agent.adopt``, in
        their order: the create draw, then either the six flip draws (a
        flipped part still draws through ``agent.draw_position``), the
        collision and no-op rules, ``agent.extend_chain`` when chaining,
        the incremental int score and adoption if strictly fitter; or one
        draw for the order of the neighbour scan, which takes the first
        strictly fitter snapshot pair.  An adopter trains its network on
        its new final step, as ``agent.adopt`` does.  Extension is given
        the new final step alone, with the room the whole chain has left,
        so a candidate chain is built only when it is adopted.

        A replayed creator does not act: its logged adoption of this
        iteration, if any, is applied as the agent's own would have been.

        Only an adopting agent changes its chain or fitness, so without SR
        the bookkeeping costs O(adopters), not O(active agents):

        * the snapshot entry of each adopter is rewritten in place; every
          other entry still holds its agent's pair;
        * ``fitness_total`` moves by each adopter's gain.  Scores are ints,
          so it is exact, and the mean is the one a full sum gives;
        * each adopted invention and replayed chain is interned, so equal
          chains held by agents are one object, and ``holders`` counts the
          agents that hold each object by its id.  Diversity is the number
          of objects held; a chain whose last holder leaves is dropped.

        The SR update and the p(C) histogram still cover every agent.
        """
        cfg = self.cfg
        chaining_enabled, max_chain_length = cfg.chaining_enabled, cfg.max_chain_length
        trend_learning = cfg.trend_learning
        snapshot = self.snapshot
        neighbors = self.neighbors
        score = self.score
        interned = self.interned
        intern = interned.setdefault
        # Looked up once per step, so a patched or traced kernel installed
        # before the step still sees every call the step makes.
        draw_position = agent_ops.draw_position
        extend_chain = agent_ops.extend_chain
        flip = FLIP_PROBABILITY
        acceptable = ACCEPTABLE_SUBACTIONS
        orders = _PERMUTATIONS_4
        adopters = []
        for a in self.active:
            rng = a.rng
            if rng.random() < a.p_create:  # create, else imitate
                random_ = rng.random
                # Invent: mutate the final step, each part flipped with
                # probability 1/6; a limb copies its partner as it stands in
                # the old step.
                chain = a.chain
                base = chain[-1]
                movement_bias, symmetry_bias = a.net.invention_bias()
                head, l_arm, r_arm, l_leg, r_leg, hips = base
                changed = False
                if random_() < flip:
                    head = draw_position(head, 0, movement_bias, symmetry_bias, rng)
                    changed = True
                if random_() < flip:
                    l_arm = draw_position(l_arm, r_arm, movement_bias, symmetry_bias, rng)
                    changed = True
                if random_() < flip:
                    r_arm = draw_position(r_arm, base[1], movement_bias, symmetry_bias, rng)
                    changed = True
                if random_() < flip:
                    l_leg = draw_position(l_leg, r_leg, movement_bias, symmetry_bias, rng)
                    changed = True
                if random_() < flip:
                    r_leg = draw_position(r_leg, base[3], movement_bias, symmetry_bias, rng)
                    changed = True
                if random_() < flip:
                    hips = draw_position(hips, 0, movement_bias, symmetry_bias, rng)
                    changed = True
                if changed:
                    new_final = (head, l_arm, r_arm, l_leg, r_leg, hips)
                    if len(chain) > 1 and new_final == chain[-2]:
                        continue  # collided with the step before
                    # Only the final step changed.  Scores are ints, so
                    # the sum is exact in any order.
                    fit = a.fitness - score(base) + score(new_final)
                else:
                    new_final, fit = base, a.fitness
                steps = (new_final,)
                if chaining_enabled and new_final in acceptable:
                    # Extended alone, with the room the kept steps leave,
                    # it appends what the whole candidate would.
                    steps = extend_chain(
                        steps, max_chain_length - len(chain) + 1,
                        movement_bias, symmetry_bias, rng,
                    )
                    for step in steps[1:]:
                        fit += score(step)
                # Nothing changed (fit is the agent's own) or not fitter.
                if fit <= a.fitness:
                    continue
                candidate = chain[:-1] + steps
                a.chain = chain = intern(candidate, candidate)
                a.fitness = fit
                # An inventing agent has p(C) > 0.
                if trend_learning:
                    a.net.train(chain[-1])
                adopters.append(a)
            else:
                # Imitate: the first strictly fitter neighbour in a random
                # order of the four.
                own = a.fitness
                cells = neighbors[a.id]
                for idx in orders[int(rng.random() * 24)]:
                    pair = snapshot[cells[idx]]
                    if pair[1] > own:
                        a.chain, a.fitness = pair
                        # p(C) = 0 never invents again, and without trend
                        # learning the bias is constant: no need to train.
                        if trend_learning and a.p_create != 0.0:
                            a.net.train(pair[0][-1])
                        adopters.append(a)
                        break
        if self.replay:
            for a, chain, fit in self.replay.pop(self.iteration, ()):
                a.chain, a.fitness = intern(chain, chain), fit
                adopters.append(a)

        top = self.absorbing_fitness
        total = self.fitness_total
        holders = self.holders
        absorbed = False
        left = []
        for a in adopters:
            old_chain, old_fit = snapshot[a.id]
            chain, fit = a.chain, a.fitness
            total += fit - old_fit
            snapshot[a.id] = (chain, fit)
            key = id(chain)
            holders[key] = holders.get(key, 0) + 1
            left.append(old_chain)
            if top is not None and fit >= top:
                absorbed = True
        # Every adopter is counted in before any leaves, so a chain that
        # changes hands within the step is never dropped.
        for chain in left:
            key = id(chain)
            count = holders[key] - 1
            if count:
                holders[key] = count
            else:
                del holders[key], interned[chain]
        self.fitness_total = total
        if absorbed:
            self.active = [a for a in self.active if a.fitness < top]
            if self.replayed:
                self.replayed = [a for a in self.replayed if a.fitness < top]

        mean_fit = total / len(self.agents)
        if cfg.sr_enabled:
            # Relative fitness compares an agent's implemented action with
            # the society mean of the same actions; both become "the
            # previous iteration" by the time the next decisions are drawn.
            agent_ops.update_p_create(self.agents, mean_fit)

        self.iteration += 1
        self.series.mean_fitness.append(mean_fit)
        self.series.diversity.append(len(holders))
        hist = self.series.p_create_hist
        if cfg.sr_enabled or not hist:
            hist.append(p_create_histogram([a.p_create for a in self.agents]))
        else:
            # Only the SR update changes p(C) after __init__.
            hist.append(hist[-1])

    def run(self) -> RunSeries:
        """Iterate to the horizon.  A run with no active and no replayed
        agent left below ``absorbing_fitness`` is absorbed: it stops early
        and repeats its last series values, which is what the remaining
        iterations would have recorded."""
        while self.iteration < self.cfg.iterations:
            self.step()
            if not self.active and not self.replayed:
                self._pad_to_horizon()
        return self.series

    def _pad_to_horizon(self) -> None:
        left = self.cfg.iterations - self.iteration
        for values in (
            self.series.mean_fitness,
            self.series.diversity,
            self.series.p_create_hist,
        ):
            values.extend([values[-1]] * left)
        self.iteration = self.cfg.iterations


def run_world(cfg: WorldConfig, run_index: int) -> RunSeries:
    """Execute one full run; a pure function of (cfg, run_index)."""
    return World(cfg, run_index).run()

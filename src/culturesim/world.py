"""The artificial world: toroidal lattice, creator placement, synchronous
iteration, and deterministic per-agent RNG streams."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import agent as agent_ops
from .actions import ActionChain, NEUTRAL
from .agent import Agent
from .analysis import RunSeries, p_create_histogram
from .fitness import SINGLE_STEP_SCORES, TemplateSet, fitness_single_chain
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

    def digest_fields(self) -> dict:
        """The fields a digest covers.  A template file the run reads is
        named by the sha256 of its contents, not by its path, so an edited
        file changes the digest and a moved one does not."""
        d = asdict(self)
        if self.template_file and self.fitness_regime == REGIME_TEMPLATE:
            contents = Path(self.template_file).read_bytes()
            d["template_file"] = "sha256:" + hashlib.sha256(contents).hexdigest()
        return d

    def digest(self) -> str:
        payload = json.dumps(self.digest_fields(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from (base_seed, run_index, agent_id, ...)."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


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

        if cfg.fitness_regime == REGIME_TEMPLATE:
            ts = (
                TemplateSet.from_file(cfg.template_file)
                if cfg.template_file
                else TemplateSet.default()
            )
            self.evaluate: Callable[[ActionChain], float] = ts.fitness_chain
            scores = ts.scores
        else:
            self.evaluate = fitness_single_chain
            scores = SINGLE_STEP_SCORES

        # Without chaining every chain is a single step, so no agent can
        # score above the best single step.  Once every agent scores it,
        # adoption (strictly fitter only) can change no chain and the SR
        # ratio is exactly 1, so no later iteration can change anything.
        self.absorbing_fitness: Optional[float] = (
            None if cfg.chaining_enabled else scores.best()
        )

        n = cfg.n_agents
        self.neighbors = neighbor_table(cfg.lattice_side)
        placement_rng = random.Random(derive_seed(cfg.base_seed, run_index))
        creator_cells = frozenset(
            placement_rng.sample(range(n), round(cfg.creator_fraction * n))
        ) if cfg.mode == MODE_FIXED_ROLES else frozenset()

        initial_chain: ActionChain = (NEUTRAL,)
        initial_fitness = self.evaluate(initial_chain)
        # An agent trains at most once per step, so within a horizon of at
        # most DECODE_SAFE_CALLS its network decodes every pattern it is
        # trained on (network.py), and only the last one is ever read.
        net_class = (
            LastPattern if cfg.iterations <= DECODE_SAFE_CALLS else AutoAssociator
        )
        self.agents: List[Agent] = []
        for i in range(n):
            rng = random.Random(derive_seed(cfg.base_seed, run_index, i))
            net = net_class(rng, trend_learning=cfg.trend_learning)
            if cfg.mode == MODE_FIXED_ROLES:
                p_create = cfg.creator_creativity if i in creator_cells else 0.0
            else:
                p_create = INITIAL_P_CREATE
            self.agents.append(
                Agent(
                    id=i,
                    p_create=p_create,
                    chain=initial_chain,
                    fitness=initial_fitness,
                    net=net,
                    rng=rng,
                )
            )

        self.snapshot: List[Tuple[ActionChain, float]] = [
            (a.chain, a.fitness) for a in self.agents
        ]
        # The agents that can still change their chain; see step().
        self.active: List[Agent] = list(self.agents)
        self.series = RunSeries(
            mean_fitness=[],
            diversity=[],
            p_create_hist=[],
            config_digest=cfg.digest(),
            run_index=run_index,
        )

    def step(self) -> None:
        """One synchronous iteration: every active agent acts against the
        frozen t-1 snapshot, then the SR update runs against the t-1 society
        mean.

        An agent at ``absorbing_fitness`` is no longer active.  Acting could
        not change its chain: no invention or neighbour is strictly fitter,
        and adoption is strict.  The only other effect of acting is on its
        own RNG stream, which nothing else reads.  The SR update, the
        snapshot and the statistics still cover every agent.
        """
        cfg = self.cfg
        snapshot = self.snapshot
        neighbors = self.neighbors
        for a in self.active:
            if a.rng.random() < a.p_create:  # create, else imitate
                candidate = agent_ops.invent(a, cfg.chaining_enabled, cfg.max_chain_length)
                if candidate is not a.chain:
                    agent_ops.adopt_if_fitter(a, candidate, self.evaluate)
            else:
                up, down, left, right = neighbors[a.id]
                found = agent_ops.imitate(
                    a, (snapshot[up], snapshot[down], snapshot[left], snapshot[right])
                )
                if found is not None:
                    agent_ops.adopt(a, found[0], found[1])

        top = self.absorbing_fitness
        if top is not None:
            self.active = [a for a in self.active if a.fitness < top]

        n = len(self.agents)
        mean_fit = sum(a.fitness for a in self.agents) / n
        if cfg.sr_enabled:
            # Relative fitness compares an agent's implemented action with
            # the society mean of the same actions; both become "the
            # previous iteration" by the time the next decisions are drawn.
            for a in self.agents:
                agent_ops.update_p_create(a, mean_fit)

        self.iteration += 1
        self.snapshot = [(a.chain, a.fitness) for a in self.agents]
        self.series.mean_fitness.append(mean_fit)
        # Imitation shares chain objects, so each distinct object is hashed
        # once.  Ids are unique among live objects, and the agents hold
        # every chain alive while it is counted.
        chains = {id(c): c for c, _ in self.snapshot}
        self.series.diversity.append(len(set(chains.values())))
        hist = self.series.p_create_hist
        if cfg.sr_enabled or not hist:
            hist.append(p_create_histogram([a.p_create for a in self.agents]))
        else:
            # Only the SR update changes p(C) after __init__.
            hist.append(hist[-1])

    def run(self) -> RunSeries:
        """Iterate to the horizon.  A run with no active agent left is
        absorbed: it stops early and repeats its last series values, which
        is what the remaining iterations would have recorded."""
        while self.iteration < self.cfg.iterations:
            self.step()
            if not self.active:
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

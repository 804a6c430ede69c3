"""Fitness evaluation for actions.

Two regimes are supported:

* single-step: rewards overall movement, a stationary head, and
  symmetric/upward limb movement;
* template-based: a sub-action scores the summed order of every template
  it matches, and chains of acceptable sub-actions accumulate fitness
  step by step, making the output space open-ended.

Either way a step's score is a pure function of the sub-action, kept in
a ``ScoreTable`` of the 729 scores by code (see ``actions``), filled
once when it is built: one per process for single-step fitness, one per
``TemplateSet``.  Acceptability is a pure function too, kept by code in
``ACCEPTABLE_BY_CODE``.  Chains are tuples of codes, so every kernel
indexes these tables with a chain's steps as they stand; only
``TemplateSet.fitness_subaction``, for the CLI, takes a sub-action's
tuple.  A chain scores the sum of its steps' entries; the scores are
ints, so the sum is exact on every Python version.
"""

from __future__ import annotations

import functools
import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .actions import (
    CODES,
    PLACES,
    SUBACTIONS,
    ActionChain,
    ActionFormatError,
    SubAction,
    Template,
    parse_template,
)

# The only sub-actions allowed to chain, whatever the templates.
ACCEPTABLE_SUBACTIONS: FrozenSet[SubAction] = frozenset((
    (0, 1, -1, 1, -1, 1),
    (0, 1, -1, 1, -1, -1),
    (0, -1, 1, -1, 1, 1),
    (0, -1, 1, -1, 1, -1),
))
# Whether each sub-action is acceptable, by code.
ACCEPTABLE_BY_CODE: Tuple[bool, ...] = tuple(s in ACCEPTABLE_SUBACTIONS for s in SUBACTIONS)

# Indices of the parts single-step fitness reads (see ``actions``).
_HD, _LA, _RA, _LL, _RL = 0, 1, 2, 3, 4


def fitness_single(sub: SubAction) -> int:
    """Single-step fitness.

    Immobility convention: the all-neutral action scores 0 even though a
    stationary head would otherwise contribute.
    """
    m = sum(1 for v in sub if v != 0)
    if m == 0:
        return 0
    m_u = sum(1 for v in sub if v == 1)
    m_h = 1 if sub[_HD] == 0 else 0
    s_a = 1 if sub[_LA] != 0 and sub[_LA] == sub[_RA] else 0
    s_l = 1 if sub[_LL] != 0 and sub[_LL] == sub[_RL] else 0
    p_a = 1 if sub[_LA] == 1 and sub[_RA] == 1 else 0
    p_l = 1 if sub[_LL] == 1 and sub[_RL] == 1 else 0
    return m + 2 * m_u + 10 * m_h + 5 * (s_a + s_l) + 2 * (p_a + p_l)


class ScoreTable:
    """The scores of the 729 sub-actions, filled when the table is built.
    ``by_code`` is the tuple of scores in code order, which the kernels
    index."""

    __slots__ = ("by_code", "_best")

    def __init__(self, scores: Iterable[int]):
        self.by_code: Tuple[int, ...] = tuple(scores)
        self._best = max(self.by_code)

    def best(self) -> int:
        """The best score over all 729 sub-actions."""
        return self._best

    def chain_sum(self, chain: ActionChain) -> int:
        """The summed score of a chain's steps.  Without chaining every
        chain has one step, where this loop is cheaper than setting up
        ``sum(map(...))``."""
        by_code = self.by_code
        total = 0
        for code in chain:
            total += by_code[code]
        return total


SINGLE_STEP_SCORES = ScoreTable(map(fitness_single, SUBACTIONS))


def max_fitness_single() -> int:
    return SINGLE_STEP_SCORES.best()


def template_order(template: Template) -> int:
    """Number of specified (non-wildcard) components."""
    return sum(1 for t in template if t is not None)


def template_scores(templates: Sequence[Template]) -> List[int]:
    """Each sub-action's summed order of the templates it matches, by code.

    A template's matches are listed, not searched for: a specified part
    fixes its digit of the code, and a wildcard takes all three, so each
    template adds its order at the codes of its matches and nowhere else.
    """
    totals = [0] * len(SUBACTIONS)
    for template in templates:
        order = template_order(template)
        matches = [0]
        for t, place in zip(template, PLACES):
            digits = (0, place, 2 * place) if t is None else ((t + 1) * place,)
            matches = [code + d for code in matches for d in digits]
        for code in matches:
            totals[code] += order
    return totals


class TemplateSet:
    """An ordered collection of templates defining the chained-fitness landscape."""

    def __init__(self, templates: Iterable[Template]):
        self.templates = tuple(templates)
        if not self.templates:
            raise ValueError("template set is empty")
        self.scores = ScoreTable(template_scores(self.templates))

    @classmethod
    def from_file(cls, path) -> "TemplateSet":
        """The set a JSON array of template strings defines.  It is parsed
        once per process for each distinct file contents (keyed by their
        sha256), and then shared with its score table."""
        path = Path(path)
        data = path.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in _FROM_CONTENTS:
            _FROM_CONTENTS[key] = cls._parse(data, path)
        return _FROM_CONTENTS[key]

    @classmethod
    def _parse(cls, data: bytes, path: Path) -> "TemplateSet":
        try:
            raw = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser can follow.
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise ValueError(f"{path}: expected a JSON array of template strings")
        if not raw:
            raise ValueError(f"{path}: template set is empty")
        templates = []
        for i, text in enumerate(raw):
            try:
                templates.append(parse_template(text))
            except ActionFormatError as exc:
                raise ValueError(f"{path}: template {i}: {exc}") from exc
        return cls(templates)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default(cls) -> "TemplateSet":
        """The shipped set, parsed once per process: it is package data."""
        with resources.as_file(
            resources.files("culturesim.data") / "default_templates.json"
        ) as path:
            return cls.from_file(path)

    def fitness_subaction(self, sub: SubAction) -> int:
        """Summed order of every template the tuple ``sub`` matches."""
        return self.scores.by_code[CODES[sub]]


# sha256 of a template file's contents -> the set they define.
_FROM_CONTENTS: Dict[str, TemplateSet] = {}

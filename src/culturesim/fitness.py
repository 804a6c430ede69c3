"""Fitness evaluation for actions.

Two regimes are supported:

* single-step: rewards overall movement, a stationary head, and
  symmetric/upward limb movement;
* template-based: a sub-action scores the summed order of every template
  it matches, and chains of acceptable sub-actions accumulate fitness
  step by step, making the output space open-ended.

Either way a step's score is a pure function of the sub-action, kept in
a ``ScoreTable``: one per process for single-step fitness, one per
``TemplateSet``.  A chain scores the sum of its steps' table entries;
the scores are ints, so the sum is exact on every Python version.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Tuple

from .actions import (
    ActionChain,
    ActionFormatError,
    BodyPart,
    SubAction,
    Template,
    all_subactions,
    parse_template,
)

# The only fully-specified sub-actions allowed to chain.
ACCEPTABLE_SUBACTIONS: Tuple[SubAction, ...] = (
    (0, 1, -1, 1, -1, 1),
    (0, 1, -1, 1, -1, -1),
    (0, -1, 1, -1, 1, 1),
    (0, -1, 1, -1, 1, -1),
)

_HD = BodyPart.HEAD.value
_LA = BodyPart.LEFT_ARM.value
_RA = BodyPart.RIGHT_ARM.value
_LL = BodyPart.LEFT_LEG.value
_RL = BodyPart.RIGHT_LEG.value


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


def max_fitness_single() -> int:
    return max(fitness_single(s) for s in all_subactions())


class ScoreTable(dict):
    """Sub-action -> score of a pure scoring function.  A sub-action is
    scored on its first lookup and stored, so the table fills lazily: a
    run meets far fewer than the 729 sub-actions."""

    def __init__(self, score: Callable[[SubAction], int]):
        super().__init__()
        self.score = score

    def __missing__(self, sub: SubAction) -> int:
        value = self[sub] = self.score(sub)
        return value


_single_step_score = ScoreTable(fitness_single).__getitem__


def fitness_single_chain(chain: ActionChain) -> int:
    """Single-step fitness summed over a chain's steps.  Without chaining
    every chain has one step, where this loop is cheaper than setting up
    ``sum(map(...))``."""
    total = 0
    for step in chain:
        total += _single_step_score(step)
    return total


def template_weight(template: Template, sub: SubAction) -> int:
    """1 if every specified template component equals the sub-action's."""
    for t, d in zip(template, sub):
        if t is not None and t != d:
            return 0
    return 1


def template_order(template: Template) -> int:
    """Number of specified (non-wildcard) components."""
    return sum(1 for t in template if t is not None)


class TemplateSet:
    """An ordered collection of templates defining the chained-fitness landscape."""

    def __init__(self, templates: Iterable[Template]):
        self.templates = tuple(templates)
        if not self.templates:
            raise ValueError("template set is empty")
        self.acceptable = ACCEPTABLE_SUBACTIONS
        self._orders = tuple(template_order(t) for t in self.templates)
        self._cache = ScoreTable(self._score)
        self._acceptable_set = frozenset(self.acceptable)

    @classmethod
    def from_file(cls, path) -> "TemplateSet":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise ValueError(f"{path}: expected a JSON array of template strings")
        templates = []
        for i, text in enumerate(raw):
            try:
                templates.append(parse_template(text))
            except ActionFormatError as exc:
                raise ValueError(f"{path}: template {i}: {exc}") from exc
        return cls(templates)

    @classmethod
    def default(cls) -> "TemplateSet":
        with resources.as_file(
            resources.files("culturesim.data") / "default_templates.json"
        ) as path:
            return cls.from_file(path)

    def _score(self, sub: SubAction) -> int:
        total = 0
        for template, order in zip(self.templates, self._orders):
            if template_weight(template, sub):
                total += order
        return total

    def fitness_subaction(self, sub: SubAction) -> int:
        """Summed order of every matching template."""
        return self._cache[sub]

    def is_successful(self, sub: SubAction) -> bool:
        return sub in self._acceptable_set

    def fitness_chain(self, chain: ActionChain) -> int:
        return sum(map(self._cache.__getitem__, chain))


def fitness_subaction(sub: SubAction, ts: TemplateSet) -> int:
    return ts.fitness_subaction(sub)


def is_successful(sub: SubAction, ts: TemplateSet) -> bool:
    return ts.is_successful(sub)


def fitness_chain(chain: ActionChain, ts: TemplateSet) -> int:
    return ts.fitness_chain(chain)

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

import functools
import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, Optional

from .actions import (
    ActionChain,
    ActionFormatError,
    BodyPart,
    SubAction,
    Template,
    all_subactions,
    parse_template,
)

# The only sub-actions allowed to chain, whatever the templates.
ACCEPTABLE_SUBACTIONS: FrozenSet[SubAction] = frozenset((
    (0, 1, -1, 1, -1, 1),
    (0, 1, -1, 1, -1, -1),
    (0, -1, 1, -1, 1, 1),
    (0, -1, 1, -1, 1, -1),
))

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


class ScoreTable(dict):
    """Sub-action -> score of a pure scoring function.  A sub-action is
    scored on its first lookup and stored, so the table fills lazily: a
    run meets far fewer than the 729 sub-actions."""

    def __init__(self, score: Callable[[SubAction], int]):
        super().__init__()
        self.score = score
        self._best = None

    def __missing__(self, sub: SubAction) -> int:
        value = self[sub] = self.score(sub)
        return value

    def best(self) -> int:
        """The best score over all 729 sub-actions, computed once per table."""
        if self._best is None:
            self._best = max(self[s] for s in all_subactions())
        return self._best


SINGLE_STEP_SCORES = ScoreTable(fitness_single)
_single_step_score = SINGLE_STEP_SCORES.__getitem__


def max_fitness_single() -> int:
    return SINGLE_STEP_SCORES.best()


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
        self._orders = tuple(template_order(t) for t in self.templates)
        self.scores = ScoreTable(self._score)
        # The sha256 of the file contents the set was parsed from, if any.
        self.sha256: Optional[str] = None

    @classmethod
    def from_file(cls, path) -> "TemplateSet":
        """The set a JSON array of template strings defines.  It is parsed
        once per process for each distinct file contents (keyed by their
        sha256, kept as ``sha256``), and then shared with its score table,
        which fills once."""
        path = Path(path)
        data = path.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in _FROM_CONTENTS:
            ts = _FROM_CONTENTS[key] = cls._parse(data, path)
            ts.sha256 = key
        return _FROM_CONTENTS[key]

    @classmethod
    def _parse(cls, data: bytes, path: Path) -> "TemplateSet":
        try:
            raw = json.loads(data)
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
    @functools.lru_cache(maxsize=None)
    def default(cls) -> "TemplateSet":
        """The shipped set, parsed once per process: it is package data."""
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
        return self.scores[sub]

    def fitness_chain(self, chain: ActionChain) -> int:
        return sum(map(self.scores.__getitem__, chain))


# sha256 of a template file's contents -> the set they define.
_FROM_CONTENTS: Dict[str, TemplateSet] = {}

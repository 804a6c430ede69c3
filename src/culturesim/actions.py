"""Domain vocabulary: body parts, sub-actions, action chains, templates.

Everything here is an immutable value (tuples of small ints), so these
objects can be shared freely between agents, processes, and caches.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional, Sequence, Tuple

SubAction = Tuple[int, int, int, int, int, int]
ActionChain = Tuple[SubAction, ...]
# A template component is -1, 0, +1, or None for "unspecified".
Template = Tuple[Optional[int], ...]


class BodyPart(IntEnum):
    """The six body parts, in the canonical order used everywhere."""

    HEAD = 0
    LEFT_ARM = 1
    RIGHT_ARM = 2
    LEFT_LEG = 3
    RIGHT_LEG = 4
    HIPS = 5


NUM_PARTS = 6
POSITIONS = (-1, 0, 1)

NEUTRAL: SubAction = (0, 0, 0, 0, 0, 0)


class ActionFormatError(ValueError):
    """Raised when a compact trit string cannot be parsed."""


def _tokenize(text: str, allow_wildcard: bool) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "-":
            if i + 1 >= len(text) or text[i + 1] != "1":
                raise ActionFormatError(
                    f"malformed token at component {len(tokens)}: {text[i:i + 2]!r}"
                )
            tokens.append(-1)
            i += 2
        elif ch == "0":
            tokens.append(0)
            i += 1
        elif ch == "1":
            tokens.append(1)
            i += 1
        elif ch == "*" and allow_wildcard:
            tokens.append(None)
            i += 1
        else:
            raise ActionFormatError(
                f"malformed token at component {len(tokens)}: {ch!r}"
            )
    return tokens


def parse_subaction(text: str) -> SubAction:
    """Parse a compact trit string like ``01-110-1`` into a SubAction.

    Components appear in canonical body-part order; ``-1`` is a
    two-character token.
    """
    tokens = _tokenize(text, allow_wildcard=False)
    if len(tokens) != NUM_PARTS:
        raise ActionFormatError(
            f"expected {NUM_PARTS} components, got {len(tokens)} in {text!r}"
        )
    return tuple(tokens)


def format_subaction(sub: SubAction) -> str:
    return "".join(str(v) for v in sub)


def make_subaction(values: Sequence[int]) -> SubAction:
    values = tuple(values)
    if len(values) != NUM_PARTS:
        raise ValueError(f"sub-action needs {NUM_PARTS} components, got {len(values)}")
    for i, v in enumerate(values):
        if v not in POSITIONS:
            raise ValueError(f"component {i} is {v!r}; must be one of {POSITIONS}")
    return values


def make_chain(steps: Sequence[SubAction]) -> ActionChain:
    """Validate and build an action chain.

    Consecutive steps must differ in at least one component (the novelty
    rule); a chain is never empty.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("action chain must contain at least one sub-action")
    for k in range(1, len(steps)):
        if steps[k] == steps[k - 1]:
            raise ValueError(f"steps {k - 1} and {k} are identical (novelty rule)")
    return steps


def parse_template(text: str) -> Template:
    """Parse a compact template string like ``01-1***`` (``*`` = unspecified)."""
    tokens = _tokenize(text, allow_wildcard=True)
    if len(tokens) != NUM_PARTS:
        raise ActionFormatError(
            f"expected {NUM_PARTS} components, got {len(tokens)} in {text!r}"
        )
    template = tuple(tokens)
    if all(v is None for v in template):
        raise ActionFormatError(f"template {text!r} specifies no components")
    return template


def format_template(t: Template) -> str:
    return "".join("*" if v is None else str(v) for v in t)


def all_subactions():
    """Yield all 3^6 = 729 sub-actions in lexicographic order."""
    from itertools import product

    yield from product(POSITIONS, repeat=NUM_PARTS)

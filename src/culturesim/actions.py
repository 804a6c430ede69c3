"""Domain vocabulary: body parts, sub-actions, action chains, templates.

Everything here is an immutable value (small ints and tuples of them), so
these objects can be shared freely between agents, processes, and caches.

Each of the 3^6 = 729 sub-actions has a code: the base-3 number whose
digits are its positions plus one, the head most significant, so
``code = sum((v + 1) * 3 ** (5 - i))``.  That is its index in
``all_subactions()``.  ``SUBACTIONS`` holds the tuple of each code, in
code order, ``CODES`` maps a tuple to its code, and ``PLACES`` holds the
weight of each part's digit: changing part ``i`` from ``v`` to ``w``
moves the code by ``(w - v) * PLACES[i]``.  These tables are built once
per process, at import.

An action chain is a tuple of codes, the one form a sub-action takes in
a run; its parts are read from ``SUBACTIONS`` only to mutate a step or to
train a network on it.  Templates and network patterns are tuples.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, Optional, Tuple

SubAction = Tuple[int, int, int, int, int, int]
# A chain of sub-action codes (0-728), first step first.
ActionChain = Tuple[int, ...]
# A template component is -1, 0, +1, or None for "unspecified".
Template = Tuple[Optional[int], ...]


# The six body parts, in the canonical order used everywhere: head, left
# arm, right arm, left leg, right leg, hips.
NUM_PARTS = 6
POSITIONS = (-1, 0, 1)

NEUTRAL: SubAction = (0, 0, 0, 0, 0, 0)

# The weight of each part's digit in a code.
PLACES = (243, 81, 27, 9, 3, 1)
# Every sub-action in code order, and the code of each.
SUBACTIONS: Tuple[SubAction, ...] = tuple(product(POSITIONS, repeat=NUM_PARTS))
CODES: Dict[SubAction, int] = {sub: code for code, sub in enumerate(SUBACTIONS)}


class ActionFormatError(ValueError):
    """Raised when a compact trit string cannot be parsed."""


def _tokenize(text: str) -> list:
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
        elif ch == "*":
            tokens.append(None)
            i += 1
        else:
            raise ActionFormatError(
                f"malformed token at component {len(tokens)}: {ch!r}"
            )
    return tokens


def parse_template(text: str) -> Template:
    """Parse a compact template string like ``01-1***`` (``*`` = unspecified)."""
    tokens = _tokenize(text)
    if len(tokens) != NUM_PARTS:
        raise ActionFormatError(
            f"expected {NUM_PARTS} components, got {len(tokens)} in {text!r}"
        )
    template = tuple(tokens)
    if all(v is None for v in template):
        raise ActionFormatError(f"template {text!r} specifies no components")
    return template


def all_subactions() -> Iterator[SubAction]:
    """An iterator over all 3^6 = 729 sub-actions in lexicographic order,
    which is code order."""
    return iter(SUBACTIONS)

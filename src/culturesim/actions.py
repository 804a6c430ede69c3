"""Domain vocabulary: body parts, sub-actions, action chains, templates.

Everything here is an immutable value (tuples of small ints), so these
objects can be shared freely between agents, processes, and caches.
"""

from __future__ import annotations

from typing import Optional, Tuple

SubAction = Tuple[int, int, int, int, int, int]
ActionChain = Tuple[SubAction, ...]
# A template component is -1, 0, +1, or None for "unspecified".
Template = Tuple[Optional[int], ...]


# The six body parts, in the canonical order used everywhere: head, left
# arm, right arm, left leg, right leg, hips.
NUM_PARTS = 6
POSITIONS = (-1, 0, 1)

NEUTRAL: SubAction = (0, 0, 0, 0, 0, 0)


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


def all_subactions():
    """Yield all 3^6 = 729 sub-actions in lexicographic order."""
    from itertools import product

    yield from product(POSITIONS, repeat=NUM_PARTS)

"""Per-agent auto-associative network.

Six input nodes feed six output nodes through a trainable 6x6 weight
matrix; seven hidden nodes (LEFT, RIGHT, ARM, LEG, SYMMETRY, OPPOSITE,
MOVEMENT) read the decoded output pattern through fixed +/-1 weights.
The SYMMETRY and MOVEMENT activations bias invention toward the kinds of
action the agent has been learning.

The matrices are tiny, so the arithmetic is written out in plain Python;
at 6x6 this is several times faster than vectorized array calls, and the
training loop sits on the simulation's hot path.

``train`` unrolls the six outputs into locals and adds or subtracts a
weight for a +1 or -1 input instead of multiplying by it.  Every float it
produces is bit-identical to what ``_forward`` and a per-element
``w += x * delta`` update produce, for three reasons:

* multiplying by +/-1 is exact, and ``a + (-b) == a - b`` in IEEE 754;
* each output's net input is summed left to right over the rows in index
  order, the same order as ``_forward``;
* the sigmoid and ``LEARNING_RATE * err * o * (1.0 - o)`` keep their
  operand order.

Built-in ``sum`` is avoided on purpose: from Python 3.12 it sums floats
with compensation, which rounds differently.  ``_forward``, ``activate``
and ``recall`` keep the plain per-element form as the reference model.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Dict, List, Tuple

from .actions import NUM_PARTS, SubAction

BETA = 0.15
THETA = 0.5
MAX_EPOCHS = 50
CONVERGENCE_TOL = 0.05
LEARNING_RATE = 40.0
INIT_WEIGHT_SCALE = 0.1

# Targets for training: trit -> desired output activation.
TARGET_ACTIVATION = {-1: 0.1, 0: 0.5, 1: 0.9}
# Decoding an output activation back to a trit.
DECODE_HIGH = 0.67
DECODE_LOW = 0.33

HIDDEN_NODES = ("LEFT", "RIGHT", "ARM", "LEG", "SYMMETRY", "OPPOSITE", "MOVEMENT")

# Fixed hidden wiring (never trained): rows follow HIDDEN_NODES, columns
# follow canonical body-part order.  A part connects to the hidden nodes
# of which it is an instance; MOVEMENT connects to every part and reads
# absolute values, since negative movement is not possible.
FIXED_HIDDEN_WEIGHTS: Tuple[Tuple[int, ...], ...] = (
    (0, 1, 0, 1, 0, 0),    # LEFT
    (0, 0, 1, 0, 1, 0),    # RIGHT
    (0, 1, 1, 0, 0, 0),    # ARM
    (0, 0, 0, 1, 1, 0),    # LEG
    (0, 1, 1, 1, 1, 0),    # SYMMETRY
    (0, 1, -1, 1, -1, 0),  # OPPOSITE
    (1, 1, 1, 1, 1, 1),    # MOVEMENT
)
_MOVEMENT_ROW = HIDDEN_NODES.index("MOVEMENT")
_SYMMETRY_ROW = HIDDEN_NODES.index("SYMMETRY")


def sigmoid(net: float) -> float:
    return 1.0 / (1.0 + math.exp(-BETA * (net + THETA)))


def decode_activation(a: float) -> int:
    if a > DECODE_HIGH:
        return 1
    if a < DECODE_LOW:
        return -1
    return 0


def hidden_activations(decoded: SubAction) -> Dict[str, float]:
    """Hidden-node activations for a decoded output pattern."""
    hidden = {}
    for row, name in zip(FIXED_HIDDEN_WEIGHTS, HIDDEN_NODES):
        if name == "MOVEMENT":
            net = sum(w * abs(v) for w, v in zip(row, decoded))
        else:
            net = sum(w * v for w, v in zip(row, decoded))
        hidden[name] = sigmoid(net)
    return hidden


@functools.cache
def _bias_of(decoded: SubAction) -> Tuple[float, float]:
    """(movement, symmetry) bias of a decoded pattern.  The hidden layer
    reads only the decoded trits, so this is a table of at most 729
    entries, filled as patterns first occur."""
    hidden = hidden_activations(decoded)
    return hidden["MOVEMENT"], hidden["SYMMETRY"]


class AutoAssociator:
    """Fixed-topology auto-associator trained with the generalized delta rule."""

    __slots__ = (
        "weights",
        "trend_learning",
        "converged",
        "output_activations",
        "decoded",
        "_bias",
    )

    def __init__(self, rng: random.Random, trend_learning: bool = True):
        self.weights: List[List[float]] = [
            [rng.uniform(-INIT_WEIGHT_SCALE, INIT_WEIGHT_SCALE) for _ in range(NUM_PARTS)]
            for _ in range(NUM_PARTS)
        ]
        self.trend_learning = trend_learning
        self.converged = True
        self.output_activations: List[float] = [sigmoid(0.0)] * NUM_PARTS
        self.decoded: SubAction = (0,) * NUM_PARTS
        self._bias = _bias_of(self.decoded)

    @property
    def hidden(self) -> Dict[str, float]:
        """Hidden activations, which read the decoded output pattern."""
        return hidden_activations(self.decoded)

    def _forward(self, x: SubAction) -> List[float]:
        w = self.weights
        out = []
        for j in range(NUM_PARTS):
            net = THETA
            for i in range(NUM_PARTS):
                xi = x[i]
                if xi:
                    net += xi * w[i][j]
            out.append(1.0 / (1.0 + math.exp(-BETA * net)))
        return out

    def _set_output(self, out: List[float]) -> None:
        self.output_activations = out
        self.decoded = tuple(decode_activation(a) for a in out)
        self._bias = _bias_of(self.decoded)

    def activate(self, sub: SubAction) -> List[float]:
        """Run the pattern through the network and refresh hidden activations.

        The output pattern is decoded and fed back to the hidden layer, so
        a trained network reports trends about what it has learned rather
        than about the raw stimulus.
        """
        out = self._forward(sub)
        self._set_output(out)
        return out

    def train(self, sub: SubAction) -> bool:
        """Learn the identity mapping for ``sub``; returns True on convergence.

        Runs the delta rule for at most MAX_EPOCHS epochs or until every
        output is within CONVERGENCE_TOL of its target.  Non-convergence is
        reported, not fatal: the agent's explicit action stays the ground
        truth and the network only biases invention.  Afterwards the
        network is left as ``activate(sub)`` would leave it: the last
        forward pass ran on the final weights, so its output is reused.

        The six outputs are unrolled into locals (see the module docstring
        for why every value is bit-identical to ``_forward``'s).  Neutral
        inputs add nothing to a net input and receive no update, so only
        the active rows are visited, in index order.
        """
        t0, t1, t2, t3, t4, t5 = [TARGET_ACTIVATION[v] for v in sub]
        weights = self.weights
        rows = [(sub[i] > 0, weights[i]) for i in range(NUM_PARTS) if sub[i]]
        tol = CONVERGENCE_TOL
        converged = False
        # MAX_EPOCHS updates, each after a forward pass, plus one final
        # forward pass to judge the last update.
        for epoch in range(MAX_EPOCHS + 1):
            n0 = n1 = n2 = n3 = n4 = n5 = THETA
            for up, w in rows:
                if up:
                    n0 += w[0]
                    n1 += w[1]
                    n2 += w[2]
                    n3 += w[3]
                    n4 += w[4]
                    n5 += w[5]
                else:
                    n0 -= w[0]
                    n1 -= w[1]
                    n2 -= w[2]
                    n3 -= w[3]
                    n4 -= w[4]
                    n5 -= w[5]
            o0 = 1.0 / (1.0 + math.exp(-BETA * n0))
            o1 = 1.0 / (1.0 + math.exp(-BETA * n1))
            o2 = 1.0 / (1.0 + math.exp(-BETA * n2))
            o3 = 1.0 / (1.0 + math.exp(-BETA * n3))
            o4 = 1.0 / (1.0 + math.exp(-BETA * n4))
            o5 = 1.0 / (1.0 + math.exp(-BETA * n5))
            e0 = t0 - o0
            e1 = t1 - o1
            e2 = t2 - o2
            e3 = t3 - o3
            e4 = t4 - o4
            e5 = t5 - o5
            if (-tol < e0 < tol and -tol < e1 < tol and -tol < e2 < tol
                    and -tol < e3 < tol and -tol < e4 < tol and -tol < e5 < tol):
                converged = True
                break
            if epoch == MAX_EPOCHS:
                break
            d0 = LEARNING_RATE * e0 * o0 * (1.0 - o0)
            d1 = LEARNING_RATE * e1 * o1 * (1.0 - o1)
            d2 = LEARNING_RATE * e2 * o2 * (1.0 - o2)
            d3 = LEARNING_RATE * e3 * o3 * (1.0 - o3)
            d4 = LEARNING_RATE * e4 * o4 * (1.0 - o4)
            d5 = LEARNING_RATE * e5 * o5 * (1.0 - o5)
            for up, w in rows:
                if up:
                    w[0] += d0
                    w[1] += d1
                    w[2] += d2
                    w[3] += d3
                    w[4] += d4
                    w[5] += d5
                else:
                    w[0] -= d0
                    w[1] -= d1
                    w[2] -= d2
                    w[3] -= d3
                    w[4] -= d4
                    w[5] -= d5
        self.converged = converged
        self._set_output([o0, o1, o2, o3, o4, o5])
        return converged

    def recall(self, sub: SubAction) -> SubAction:
        """Thresholded output pattern for ``sub``."""
        return tuple(decode_activation(a) for a in self._forward(sub))

    def invention_bias(self) -> Tuple[float, float]:
        """(movement_bias, symmetry_bias) in [0, 1] from the last activation."""
        if not self.trend_learning:
            return 0.5, 0.5
        return self._bias

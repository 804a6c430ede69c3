"""Per-agent auto-associative network.

Six input nodes feed six output nodes through a trainable 6x6 weight
matrix; seven hidden nodes (LEFT, RIGHT, ARM, LEG, SYMMETRY, OPPOSITE,
MOVEMENT) read the decoded output pattern through fixed +/-1 weights.
The SYMMETRY and MOVEMENT activations bias invention toward the kinds of
action the agent has been learning.

The matrices are tiny, so the arithmetic is written out in plain Python;
at 6x6 this is several times faster than vectorized array calls, and the
training loop sits on the simulation's hot path.
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
        """
        targets = [TARGET_ACTIVATION[v] for v in sub]
        # Neutral inputs add nothing to a net input and receive no update,
        # so only the active rows are visited, in index order as _forward
        # visits them, which keeps every sum bit-identical.
        rows = [(sub[i], self.weights[i]) for i in range(NUM_PARTS) if sub[i]]
        converged = False
        # MAX_EPOCHS updates, each after a forward pass, plus one final
        # forward pass to judge the last update.
        for epoch in range(MAX_EPOCHS + 1):
            out = []
            for j in range(NUM_PARTS):
                net = THETA
                for xi, wi in rows:
                    net += xi * wi[j]
                out.append(1.0 / (1.0 + math.exp(-BETA * net)))
            worst = 0.0
            for t, o in zip(targets, out):
                err = t - o
                if err > worst:
                    worst = err
                elif -err > worst:
                    worst = -err
            if worst < CONVERGENCE_TOL:
                converged = True
                break
            if epoch == MAX_EPOCHS:
                break
            deltas = [
                LEARNING_RATE * (t - o) * o * (1.0 - o) for t, o in zip(targets, out)
            ]
            for xi, wi in rows:
                for j in range(NUM_PARTS):
                    wi[j] += xi * deltas[j]
        self.converged = converged
        self._set_output(out)
        return converged

    def recall(self, sub: SubAction) -> SubAction:
        """Thresholded output pattern for ``sub``."""
        return tuple(decode_activation(a) for a in self._forward(sub))

    def invention_bias(self) -> Tuple[float, float]:
        """(movement_bias, symmetry_bias) in [0, 1] from the last activation."""
        if not self.trend_learning:
            return 0.5, 0.5
        return self._bias

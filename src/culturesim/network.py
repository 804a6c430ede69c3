"""Per-agent auto-associative network.

Six input nodes feed six output nodes through a trainable 6x6 weight
matrix.  Of the seven hidden nodes of the model (LEFT, RIGHT, ARM, LEG,
SYMMETRY, OPPOSITE, MOVEMENT), which read the decoded output pattern
through fixed weights, only two feed anything: MOVEMENT, with weight 1
on the absolute value of every part, and SYMMETRY, with weight 1 on each
of the four limbs.  Their activations bias invention toward the kinds
of action the agent has been learning, so ``_bias_of`` computes just
those two.

The matrices are tiny, so the arithmetic is written out in plain Python;
at 6x6 this is several times faster than vectorized array calls.  Net
inputs are summed left to right over the rows in index order, never with
built-in ``sum``: from Python 3.12 it sums floats with compensation,
which rounds differently.

Convergence means every ``|t - o| < CONVERGENCE_TOL = 0.05`` with a
target ``t`` of 0.1, 0.5 or 0.9, which puts ``o`` in (0.05, 0.15),
(0.45, 0.55) or (0.85, 0.95).  Against the DECODE_LOW = 0.33 and
DECODE_HIGH = 0.67 thresholds these intervals decode to -1, 0 and +1
with a margin of at least 0.12, far above any rounding error, so a
converged call always decodes to its input.  A call that exhausts
MAX_EPOCHS can decode to its input too, and within a fresh network's
first DECODE_SAFE_CALLS calls it always does, as shown next.

Training can fail to converge: ``tests/test_network.py`` holds ten calls
on a fresh network whose tenth exhausts the epoch budget.  But the
simulation reads a network only through ``invention_bias``, a function
of the decoded pattern, and a fresh network's first DECODE_SAFE_CALLS
calls always decode to the pattern they were trained on:

* *1-D reduction.*  Output j's weights (column ``w[.][j]``) change only
  by +/-d_j on the active rows, that is by d_j times the pattern x.  So,
  in exact arithmetic, each output's net input follows
  ``n <- n + k * LEARNING_RATE * (t - o) * o * (1 - o)`` with
  ``o = 1 / (1 + exp(-BETA * n))``, where k is the number of active
  inputs.  The outputs are coupled only through the shared epoch count
  E: the call stops once all six are within CONVERGENCE_TOL of target,
  or after MAX_EPOCHS updates, so E is at least the output's own first
  epoch inside that band.
* *Potential.*  Let ``f = ln 9 / BETA``, about 14.648, the net input
  where the sigmoid is 0.9, and ``Phi_j = |w[.][j] - f e_j|^2``.  Let
  ``mu = THETA + f x_j``, the output's fixed point plus THETA for every
  target.  A call moves column j along x, so it changes Phi_j by
  ``[(m - mu)^2 - (n - mu)^2] / k``, where n and m are the net inputs at
  the start and the end of the call.  Over every start n and every stop
  epoch E that the call allows, this is at most C, about 0.4365.  The
  worst case is k = 5 with target 0.5 and one overshooting update; real
  calls reach it, so the bound is tight.
* *Decode safety.*  Once an output is within CONVERGENCE_TOL of target
  the 1-D map keeps it there, so an output decodes wrongly only if it
  never reaches that band within MAX_EPOCHS updates.  That needs
  ``|n - mu| > sqrt(k) * R`` with R about 19.28: with k = 5 and target
  0.5, a start with |n| >= 43.6 still lies on the wrong side of
  DECODE_LOW or DECODE_HIGH after 50 updates.  As ``n - mu`` is x
  dotted with ``w[.][j] - f e_j``, Cauchy-Schwarz gives
  ``|n - mu| <= sqrt(k * Phi_j)``, so a call decodes to its input when
  every ``Phi_j <= R^2``, about 371.8.
* *Start and budget.*  Init weights lie in [-0.1, 0.1], so a fresh
  network has ``Phi_j <= (f + 0.1)^2 + 5 * 0.1^2``, about 217.56.  Each
  call adds at most C, so each of the first
  ``floor((R^2 - 217.56) / C) + 1``, about 354, calls decodes to its
  input, whether it converges or not.

These constants come from 1-D grids.  ``tests/test_network_bound.py``
recomputes them with C inflated, R deflated and an allowance for float
rounding, and checks that DECODE_SAFE_CALLS fits the budget.  An agent
trains at most once per ``World.step``, so in a run of at most
DECODE_SAFE_CALLS iterations ``World`` gives each agent a
``LastPattern``, which keeps only the bias of the last trained pattern.
``AutoAssociator`` stays the reference model and the network of longer
runs.
"""

from __future__ import annotations

import functools
import math
import random
from typing import List, Tuple

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

# Training calls on a fresh network that provably decode to their input
# (see the module docstring); at most the proven budget of about 354.
DECODE_SAFE_CALLS = 250


def sigmoid(net: float) -> float:
    return 1.0 / (1.0 + math.exp(-BETA * (net + THETA)))


def decode_activation(a: float) -> int:
    if a > DECODE_HIGH:
        return 1
    if a < DECODE_LOW:
        return -1
    return 0


@functools.cache
def _bias_of(decoded: SubAction) -> Tuple[float, float]:
    """(MOVEMENT, SYMMETRY) activations of a decoded pattern: the number of
    active parts, and the sum of the four limbs.  The hidden layer reads
    only the decoded trits, so this is a table of at most 729 entries,
    filled as patterns first occur."""
    return (
        sigmoid(sum(map(abs, decoded))),
        sigmoid(decoded[1] + decoded[2] + decoded[3] + decoded[4]),
    )


class AutoAssociator:
    """Fixed-topology auto-associator trained with the generalized delta rule."""

    __slots__ = (
        "weights",
        "trend_learning",
        "converged",
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
        self.decoded: SubAction = (0,) * NUM_PARTS
        self._bias = _bias_of(self.decoded)

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

    def train(self, sub: SubAction) -> bool:
        """Learn the identity mapping for ``sub``; returns True on convergence.

        Runs the delta rule for at most MAX_EPOCHS epochs or until every
        output is within CONVERGENCE_TOL of its target.  Non-convergence is
        reported, not fatal: the agent's explicit action stays the ground
        truth and the network only biases invention.  Afterwards
        ``decoded`` is the decoded output of the last forward pass, which
        ran on the final weights.  Neutral inputs receive no update.
        """
        targets = [TARGET_ACTIVATION[v] for v in sub]
        active = [i for i in range(NUM_PARTS) if sub[i]]
        w = self.weights
        converged = False
        # MAX_EPOCHS updates, each after a forward pass, plus one final
        # forward pass to judge the last update.
        for epoch in range(MAX_EPOCHS + 1):
            out = self._forward(sub)
            if all(abs(t - o) < CONVERGENCE_TOL for t, o in zip(targets, out)):
                converged = True
                break
            if epoch == MAX_EPOCHS:
                break
            deltas = [LEARNING_RATE * (t - o) * o * (1.0 - o) for t, o in zip(targets, out)]
            for i in active:
                for j in range(NUM_PARTS):
                    w[i][j] += sub[i] * deltas[j]
        self.converged = converged
        self.decoded = tuple(decode_activation(o) for o in out)
        self._bias = _bias_of(self.decoded)
        return converged

    def recall(self, sub: SubAction) -> SubAction:
        """Thresholded output pattern for ``sub``."""
        return tuple(decode_activation(a) for a in self._forward(sub))

    def invention_bias(self) -> Tuple[float, float]:
        """(movement_bias, symmetry_bias) in [0, 1] from the last activation."""
        if not self.trend_learning:
            return 0.5, 0.5
        return self._bias


class LastPattern:
    """All that the simulation reads of an ``AutoAssociator`` during its
    first DECODE_SAFE_CALLS training calls: the invention bias of the last
    trained pattern, which is what each of those calls decodes to."""

    __slots__ = ("trend_learning", "_bias")

    def __init__(self, rng: random.Random, trend_learning: bool = True):
        # AutoAssociator draws 36 random() values, two 32-bit Mersenne
        # Twister words each; consuming the 72 words leaves the same state.
        rng.getrandbits(72 * 32)
        self.trend_learning = trend_learning
        self._bias = _bias_of((0,) * NUM_PARTS)

    def train(self, sub: SubAction) -> None:
        self._bias = _bias_of(sub)

    invention_bias = AutoAssociator.invention_bias

"""Auto-associator behavior: activation values, training convergence,
gradient direction, and the invention biases."""

import math
import random

import pytest

from culturesim.actions import NEUTRAL, all_subactions
from culturesim.network import (
    BETA,
    CONVERGENCE_TOL,
    DECODE_HIGH,
    DECODE_LOW,
    INIT_WEIGHT_SCALE,
    LEARNING_RATE,
    MAX_EPOCHS,
    NUM_PARTS,
    TARGET_ACTIVATION,
    THETA,
    AutoAssociator,
    _bias_of,
    decode_activation,
    sigmoid,
)

# The model's seven hidden nodes and their fixed wiring: rows follow
# HIDDEN_NODES, columns follow canonical body-part order.  A part connects
# to the hidden nodes of which it is an instance; MOVEMENT connects to
# every part and reads absolute values, since negative movement is not
# possible.  The simulation reads only MOVEMENT and SYMMETRY.
HIDDEN_NODES = ("LEFT", "RIGHT", "ARM", "LEG", "SYMMETRY", "OPPOSITE", "MOVEMENT")
FIXED_HIDDEN_WEIGHTS = (
    (0, 1, 0, 1, 0, 0),    # LEFT
    (0, 0, 1, 0, 1, 0),    # RIGHT
    (0, 1, 1, 0, 0, 0),    # ARM
    (0, 0, 0, 1, 1, 0),    # LEG
    (0, 1, 1, 1, 1, 0),    # SYMMETRY
    (0, 1, -1, 1, -1, 0),  # OPPOSITE
    (1, 1, 1, 1, 1, 1),    # MOVEMENT
)


def reference_hidden(decoded):
    """All seven hidden activations of a decoded output pattern."""
    hidden = {}
    for row, name in zip(FIXED_HIDDEN_WEIGHTS, HIDDEN_NODES):
        if name == "MOVEMENT":
            net = sum(w * abs(v) for w, v in zip(row, decoded))
        else:
            net = sum(w * v for w, v in zip(row, decoded))
        hidden[name] = sigmoid(net)
    return hidden


def reference_bias(decoded):
    hidden = reference_hidden(decoded)
    return hidden["MOVEMENT"], hidden["SYMMETRY"]


def fresh_net(seed=0, trend_learning=True):
    return AutoAssociator(random.Random(seed), trend_learning=trend_learning)


def test_zero_net_input_activation_value():
    # a = 1/(1 + e^(-beta * (0 + theta)))
    expected = 1.0 / (1.0 + math.exp(-0.15 * 0.5))
    assert sigmoid(0.0) == pytest.approx(expected)
    assert sigmoid(0.0) == pytest.approx(0.5187, abs=5e-4)


def test_neutral_pattern_outputs_sit_at_midpoint():
    net = fresh_net()
    out = net._forward((0, 0, 0, 0, 0, 0))
    # Zero inputs bypass the weights entirely, leaving only the bias term.
    for a in out:
        assert a == pytest.approx(sigmoid(0.0))
    assert net.recall((0, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0)
    assert net.decoded == (0, 0, 0, 0, 0, 0)


def test_decode_thresholds():
    assert decode_activation(DECODE_HIGH + 1e-9) == 1
    assert decode_activation(DECODE_LOW - 1e-9) == -1
    assert decode_activation(0.5) == 0
    assert decode_activation(DECODE_HIGH) == 0
    assert decode_activation(DECODE_LOW) == 0


def test_identity_recall_after_training_all_729():
    rng = random.Random(42)
    worst_epochs = 0
    for sub in all_subactions():
        net = AutoAssociator(rng)
        assert net.train(sub), f"no convergence for {sub}"
        targets = [TARGET_ACTIVATION[v] for v in sub]
        out = net._forward(sub)
        for t, a in zip(targets, out):
            assert abs(t - a) < CONVERGENCE_TOL
        assert net.recall(sub) == sub


def test_training_moves_weights_down_the_error_gradient():
    # The delta-rule step for each weight must agree in sign with the
    # negative finite-difference gradient of the squared output error.
    rng = random.Random(7)
    for _ in range(20):
        net = fresh_net(rng.randrange(10 ** 6))
        sub = tuple(rng.choice((-1, 0, 1)) for _ in range(6))
        targets = [TARGET_ACTIVATION[v] for v in sub]

        def sq_error():
            out = net._forward(sub)
            return sum((t - a) ** 2 for t, a in zip(targets, out))

        before = [row[:] for row in net.weights]
        out0 = net._forward(sub)
        if max(abs(t - a) for t, a in zip(targets, out0)) < CONVERGENCE_TOL:
            continue
        # One epoch only: cap the loop by training a copy manually.
        eps = 1e-6
        for i in range(6):
            if sub[i] == 0:
                continue
            for j in range(6):
                base = sq_error()
                net.weights[i][j] += eps
                bumped = sq_error()
                net.weights[i][j] -= eps
                fd_grad = (bumped - base) / eps
                delta_step = sub[i] * (targets[j] - out0[j]) * out0[j] * (1 - out0[j])
                if abs(fd_grad) > 1e-9 and abs(delta_step) > 1e-12:
                    assert (delta_step > 0) == (fd_grad < 0), (i, j, sub)
        net.weights = before


def test_zero_components_leave_their_weights_untrained():
    net = fresh_net(3)
    before = [row[:] for row in net.weights]
    net.train((0, 1, 0, 0, 0, 0))
    # Input rows for neutral components carry x_i = 0 and cannot change.
    for i in (0, 2, 3, 4, 5):
        assert net.weights[i] == before[i]


def test_hidden_wiring_is_fixed_and_reads_decoded_outputs():
    net = fresh_net(5)
    assert net.invention_bias() == reference_bias(NEUTRAL)
    net.train((0, 1, 1, 1, 1, 1))
    # A converged net decodes back to its trained pattern, so the hidden
    # layer is reporting on that pattern.
    assert net.decoded == (0, 1, 1, 1, 1, 1)
    assert net.invention_bias() == reference_bias(net.decoded)


def test_bias_is_the_movement_and_symmetry_nodes_of_the_seven_node_table():
    # Exact equality on every decoded pattern: the two written-out sums
    # are the same ints as the table's rows, so the sigmoids agree bit
    # for bit.
    for decoded in all_subactions():
        assert _bias_of(decoded) == reference_bias(decoded)


def test_training_raises_movement_and_symmetry_bias():
    untrained = fresh_net(11)
    mb0, sb0 = untrained.invention_bias()
    trained = fresh_net(11)
    trained.train((0, 1, 1, 1, 1, 1))  # all limbs active, symmetric
    mb1, sb1 = trained.invention_bias()
    assert mb1 > mb0
    assert sb1 > sb0


def test_downward_pattern_lowers_symmetry_bias():
    net = fresh_net(13)
    net.train((0, -1, -1, -1, -1, 0))
    _, sb = net.invention_bias()
    assert sb < sigmoid(0.0)
    # An antisymmetric pattern balances out to the resting activation.
    anti = fresh_net(13)
    anti.train((0, 1, -1, 1, -1, 0))
    _, sb_anti = anti.invention_bias()
    assert sb_anti == pytest.approx(sigmoid(0.0))


def test_trend_learning_off_pins_biases():
    net = fresh_net(17, trend_learning=False)
    net.train((0, 1, 1, 1, 1, 1))
    assert net.invention_bias() == (0.5, 0.5)


def test_same_seed_gives_identical_networks():
    a, b = fresh_net(99), fresh_net(99)
    assert a.weights == b.weights
    a.train((1, 0, -1, 0, 1, -1))
    b.train((1, 0, -1, 0, 1, -1))
    assert a.weights == b.weights
    assert a.invention_bias() == b.invention_bias()


def test_training_respects_epoch_budget():
    assert MAX_EPOCHS == 50
    rng = random.Random(1)
    # Sample a spread of patterns and count epochs indirectly: training a
    # trained net again must converge in zero update epochs.
    for _ in range(25):
        sub = tuple(rng.choice((-1, 0, 1)) for _ in range(6))
        net = fresh_net(rng.randrange(10 ** 6))
        net.train(sub)
        before = [row[:] for row in net.weights]
        net.train(sub)
        assert net.weights == before


class ReferenceNet:
    """The two-pass training loop the network used to run, kept verbatim:
    the epoch loop, then a fresh ``activate`` on the final weights."""

    def __init__(self, rng):
        self.weights = [
            [rng.uniform(-INIT_WEIGHT_SCALE, INIT_WEIGHT_SCALE) for _ in range(NUM_PARTS)]
            for _ in range(NUM_PARTS)
        ]
        self.converged = True
        base = sigmoid(0.0)
        self.decoded = (0,) * NUM_PARTS
        self._movement_bias = base
        self._symmetry_bias = base

    def _forward(self, x):
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

    def activate(self, sub):
        out = self._forward(sub)
        decoded = tuple(decode_activation(a) for a in out)
        self.decoded = decoded
        hidden = reference_hidden(decoded)
        self.hidden = hidden
        self._movement_bias = hidden["MOVEMENT"]
        self._symmetry_bias = hidden["SYMMETRY"]
        return out

    def train(self, sub):
        targets = [TARGET_ACTIVATION[v] for v in sub]
        active = [i for i in range(NUM_PARTS) if sub[i]]
        w = self.weights
        converged = False
        for _ in range(MAX_EPOCHS):
            out = self._forward(sub)
            worst = 0.0
            deltas = []
            for j in range(NUM_PARTS):
                err = targets[j] - out[j]
                if err > worst:
                    worst = err
                elif -err > worst:
                    worst = -err
                deltas.append(LEARNING_RATE * err * out[j] * (1.0 - out[j]))
            if worst < CONVERGENCE_TOL:
                converged = True
                break
            for i in active:
                xi = sub[i]
                wi = w[i]
                for j in range(NUM_PARTS):
                    wi[j] += xi * deltas[j]
        else:
            out = self._forward(sub)
            converged = max(abs(t - o) for t, o in zip(targets, out)) < CONVERGENCE_TOL
        self.converged = converged
        self.activate(sub)
        return converged

    def invention_bias(self):
        return self._movement_bias, self._symmetry_bias


def assert_same_state(net, ref):
    assert net.weights == ref.weights
    assert net.converged == ref.converged
    assert net.decoded == ref.decoded
    assert net.invention_bias() == ref.invention_bias()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_single_pass_training_is_bit_identical_to_the_reference(seed):
    net = fresh_net(seed)
    ref = ReferenceNet(random.Random(seed))
    assert_same_state(net, ref)
    subs = list(all_subactions())
    rng = random.Random(1000 + seed)
    for _ in range(2000):
        # Repeats happen in real runs (imitation copies a neighbour's
        # action), so draw from a small pool half the time.
        sub = rng.choice(subs[:40] if rng.random() < 0.5 else subs)
        assert net.train(sub) == ref.train(sub)
        assert_same_state(net, ref)
    assert net.invention_bias() == (ref.hidden["MOVEMENT"], ref.hidden["SYMMETRY"])


def test_single_pass_training_matches_the_reference_without_convergence():
    # Saturated weights flatten the sigmoid's slope, so 50 epochs cannot
    # reach the targets and the epoch budget runs out.
    net = fresh_net(0)
    ref = ReferenceNet(random.Random(0))
    for i in range(6):
        for j in range(6):
            net.weights[i][j] = ref.weights[i][j] = 100.0
    for sub in ((-1, -1, -1, -1, -1, -1), (0, 1, -1, 1, 0, 1), (1, 1, 0, 1, 1, 1)):
        assert net.train(sub) == ref.train(sub)
        assert not ref.converged
        assert_same_state(net, ref)


def test_training_a_fresh_net_on_neutral_changes_nothing():
    net = fresh_net(21)
    before = ([row[:] for row in net.weights], net.decoded, net.converged,
              net.invention_bias())
    assert net.train(NEUTRAL)
    after = (net.weights, net.decoded, net.converged, net.invention_bias())
    assert after == before


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_converged_training_decodes_to_the_trained_pattern(seed):
    # train() takes ``decoded`` from ``sub`` when it converges instead of
    # decoding its outputs; recall() decodes the outputs explicitly.
    subs = list(all_subactions())
    for sub in subs:
        net = fresh_net(seed)
        assert net.train(sub)
        assert net.decoded == sub == net.recall(sub)
    net = fresh_net(seed)
    rng = random.Random(2000 + seed)
    for _ in range(2000):
        sub = rng.choice(subs[:40] if rng.random() < 0.5 else subs)
        assert net.train(sub)
        assert net.decoded == sub == net.recall(sub)


def test_training_alone_can_exhaust_the_epoch_budget_and_still_decode():
    # Ten calls on a fresh network whose tenth does not converge: the
    # first non-convergence reached by training alone (the saturated test
    # above sets its weights by hand).  Within a fresh network's first
    # DECODE_SAFE_CALLS calls, such a call still decodes to its input.
    patterns = [
        (0, 0, 0, -1, 0, 0), (0, -1, 0, -1, 0, 0), (-1, -1, -1, 1, 1, 1),
        (-1, 0, 0, 0, 0, 0), (-1, 0, -1, 1, -1, -1), (-1, -1, 1, -1, 0, 1),
        (0, 1, -1, -1, -1, -1), (-1, 1, -1, 0, 1, 1), (1, 1, -1, -1, -1, 0),
        (1, -1, 1, -1, 1, 1),
    ]
    net = AutoAssociator(random.Random(1))
    converged = []
    for sub in patterns:
        converged.append(net.train(sub))
        assert net.decoded == sub
    assert converged == [True] * 9 + [False]
    assert not net.converged
    assert net.recall(patterns[-1]) == patterns[-1]

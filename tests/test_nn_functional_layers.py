"""Tests for differentiable functions, layers and optimisers."""

import numpy as np
import pytest

from repro.nn.functional import (
    binary_cross_entropy,
    categorical_cross_entropy,
    log_softmax,
    mse,
    softmax,
    softplus,
)
from repro.nn.layers import BiLSTM, Dense, LSTM, LSTMCell, Sequential
from repro.nn.optim import Adam, Sgd
from repro.nn.tensor import Tensor
from tests.gradcheck_util import gradcheck


def param(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        x = param((4, 5), 1)
        out = softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4))
        assert np.all(out > 0)

    def test_softmax_stability_with_large_logits(self):
        x = Tensor([[1000.0, 1000.0]])
        np.testing.assert_allclose(softmax(x).data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = param((3, 4), 2)
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )

    def test_softplus_positive_and_correct(self):
        x = Tensor([[-30.0, -1.0, 0.0, 1.0, 30.0]])
        expected = np.log1p(np.exp(np.clip(x.data, None, 30))) + np.maximum(
            x.data - 30.0, 0.0
        )
        np.testing.assert_allclose(softplus(x).data, expected, atol=1e-9)
        assert np.all(softplus(x).data >= 0)

    def test_bce_known_value(self):
        probs = Tensor([[0.9, 0.1]])
        loss = binary_cross_entropy(probs, np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(-np.log(0.9), rel=1e-6)

    def test_bce_rejects_bad_targets(self):
        probs = Tensor([[0.5]])
        with pytest.raises(ValueError):
            binary_cross_entropy(probs, np.array([[0.3]]))
        with pytest.raises(ValueError):
            binary_cross_entropy(probs, np.array([0.0, 1.0]))

    def test_cce_known_value(self):
        logits = Tensor([[0.0, 0.0, 0.0]])
        loss = categorical_cross_entropy(logits, np.array([[1.0, 0.0, 0.0]]))
        assert loss.item() == pytest.approx(np.log(3.0), rel=1e-6)

    def test_cce_rejects_non_one_hot(self):
        logits = Tensor([[0.0, 0.0]])
        with pytest.raises(ValueError):
            categorical_cross_entropy(logits, np.array([[0.5, 0.4]]))

    def test_mse_known_value(self):
        pred = Tensor([[1.0, 2.0]])
        assert mse(pred, np.array([[0.0, 0.0]])).item() == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(Tensor([[1.0]]), np.array([1.0, 2.0]))


class TestFunctionalGradients:
    def test_softmax_grad(self):
        x = param((2, 4), 3)
        gradcheck(lambda: (softmax(x) ** 2).sum(), [x])

    def test_log_softmax_grad(self):
        x = param((2, 4), 4)
        gradcheck(lambda: (log_softmax(x) * 0.5).sum(), [x])

    def test_softplus_grad(self):
        x = param((3, 3), 5)
        gradcheck(lambda: softplus(x).sum(), [x])

    def test_bce_grad(self):
        x = param((2, 3), 6)
        targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        gradcheck(lambda: binary_cross_entropy(x.sigmoid(), targets), [x])

    def test_cce_grad(self):
        x = param((2, 3), 7)
        targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        gradcheck(lambda: categorical_cross_entropy(x, targets), [x])

    def test_mse_grad(self):
        x = param((2, 3), 8)
        targets = np.zeros((2, 3))
        gradcheck(lambda: mse(x, targets), [x])


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 3, np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_activations(self):
        rng = np.random.default_rng(0)
        for activation, bound in [("sigmoid", (0, 1)), ("tanh", (-1, 1))]:
            layer = Dense(4, 3, rng, activation=activation)
            out = layer(Tensor(np.random.default_rng(1).normal(size=(5, 4)))).data
            assert np.all(out >= bound[0]) and np.all(out <= bound[1])

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            Dense(2, 2, np.random.default_rng(0), activation="gelu")

    def test_input_shape_checked(self):
        layer = Dense(4, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((5, 2))))

    def test_parameters_discovered(self):
        layer = Dense(4, 3, np.random.default_rng(0))
        assert len(layer.parameters()) == 2
        assert layer.n_parameters == 4 * 3 + 3

    def test_gradcheck(self):
        layer = Dense(3, 2, np.random.default_rng(1), activation="tanh")
        x = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        gradcheck(lambda: (layer(x) ** 2).sum(), layer.parameters())


class TestLSTM:
    def test_cell_shapes(self):
        cell = LSTMCell(3, 5, np.random.default_rng(0))
        h, c = cell.initial_state(batch=2)
        h2, c2 = cell(Tensor(np.ones((2, 3))), (h, c))
        assert h2.shape == (2, 5) and c2.shape == (2, 5)

    def test_cell_forget_bias_initialised(self):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        bias = cell.bias.data[0]
        np.testing.assert_array_equal(bias[4:8], np.ones(4))
        np.testing.assert_array_equal(bias[:4], np.zeros(4))

    def test_cell_input_shape_checked(self):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
        state = cell.initial_state(2)
        with pytest.raises(ValueError):
            cell(Tensor(np.ones((2, 5))), state)

    def test_lstm_output_shape(self):
        lstm = LSTM(3, 6, np.random.default_rng(0), num_layers=2)
        out = lstm(Tensor(np.random.default_rng(1).normal(size=(7, 2, 3))))
        assert out.shape == (7, 2, 6)

    def test_lstm_sequence_shape_checked(self):
        lstm = LSTM(3, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm(Tensor(np.ones((7, 2, 5))))

    def test_lstm_is_causal(self):
        """Changing a later input must not affect earlier outputs."""
        lstm = LSTM(2, 4, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 1, 2))
        changed = base.copy()
        changed[4] += 10.0
        out_base = lstm(Tensor(base)).data
        out_changed = lstm(Tensor(changed)).data
        np.testing.assert_allclose(out_base[:4], out_changed[:4])
        assert not np.allclose(out_base[4], out_changed[4])

    def test_lstm_gradcheck(self):
        lstm = LSTM(2, 3, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(4, 2, 2)))
        gradcheck(lambda: (lstm(x) ** 2).sum(), lstm.parameters(), rtol=1e-3)

    def test_cell_gradcheck(self):
        cell = LSTMCell(2, 3, np.random.default_rng(4))
        x = Tensor(np.random.default_rng(5).normal(size=(2, 2)))

        def f():
            h, c = cell(x, cell.initial_state(2))
            return (h * h).sum() + c.sum()

        gradcheck(f, cell.parameters(), rtol=1e-3)


class TestBiLSTM:
    def test_output_shape(self):
        bilstm = BiLSTM(3, 4, np.random.default_rng(0), num_layers=2)
        out = bilstm(Tensor(np.random.default_rng(1).normal(size=(6, 2, 3))))
        assert out.shape == (6, 2, 8)
        assert bilstm.output_size == 8

    def test_sees_both_directions(self):
        """Changing the last input must affect the *first* output (backward
        direction) — the property the paper needs from the Bi-LSTM."""
        bilstm = BiLSTM(2, 4, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 1, 2))
        changed = base.copy()
        changed[4] += 10.0
        out_base = bilstm(Tensor(base)).data
        out_changed = bilstm(Tensor(changed)).data
        assert not np.allclose(out_base[0], out_changed[0])

    def test_gradcheck(self):
        bilstm = BiLSTM(2, 2, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(3, 1, 2)))
        gradcheck(lambda: (bilstm(x) ** 2).sum(), bilstm.parameters(), rtol=1e-3)


class TestSequential:
    def test_chains_modules(self):
        rng = np.random.default_rng(0)
        net = Sequential(Dense(3, 5, rng, activation="tanh"), Dense(5, 1, rng))
        out = net(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 1)

    def test_parameters_from_all_modules(self):
        rng = np.random.default_rng(0)
        net = Sequential(Dense(3, 5, rng), Dense(5, 1, rng))
        assert len(net.parameters()) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential()


class TestOptimizers:
    def test_sgd_minimises_quadratic(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = Sgd([x], lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            optimizer.step()
        assert abs(x.data[0]) < 1e-3

    def test_sgd_momentum_faster_on_ravine(self):
        def run(momentum):
            x = Tensor(np.array([5.0, 5.0]), requires_grad=True)
            optimizer = Sgd([x], lr=0.02, momentum=momentum)
            for _ in range(60):
                optimizer.zero_grad()
                ((x * x) * Tensor(np.array([1.0, 10.0]))).sum().backward()
                optimizer.step()
            return float(np.abs(x.data).sum())

        assert run(0.9) < run(0.0)

    def test_adam_minimises_quadratic(self):
        x = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            (x * x).sum().backward()
            optimizer.step()
        assert np.all(np.abs(x.data) < 1e-2)

    def test_optimizer_skips_untouched_params(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Sgd([x, y], lr=0.1)
        optimizer.zero_grad()
        (x * 2).sum().backward()
        optimizer.step()
        assert y.data[0] == 1.0  # untouched
        assert x.data[0] != 1.0

    def test_optimizer_rejects_non_grad_tensors(self):
        with pytest.raises(ValueError):
            Sgd([Tensor([1.0])], lr=0.1)

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_xor_training_end_to_end(self):
        """A two-layer net must learn XOR — full framework integration."""
        rng = np.random.default_rng(42)
        net = Sequential(
            Dense(2, 8, rng, activation="tanh"), Dense(8, 1, rng, activation="sigmoid")
        )
        inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        targets = np.array([[0.0], [1.0], [1.0], [0.0]])
        optimizer = Adam(net.parameters(), lr=0.05)
        from repro.nn.functional import binary_cross_entropy

        for _ in range(400):
            optimizer.zero_grad()
            loss = binary_cross_entropy(net(Tensor(inputs)), targets)
            loss.backward()
            optimizer.step()
        predictions = net(Tensor(inputs)).data
        assert np.all((predictions > 0.5) == (targets > 0.5))

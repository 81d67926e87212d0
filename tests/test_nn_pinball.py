"""Tests for the pinball (quantile) loss and its use in the GAN anchor."""

import numpy as np
import pytest

from repro.gan import InfoRnnGan
from repro.nn.functional import pinball
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from tests.gradcheck_util import gradcheck


class TestPinball:
    def test_symmetric_at_half(self):
        """tau=0.5 gives half the mean absolute error."""
        pred = Tensor([[1.0, 4.0]])
        targets = np.array([[3.0, 2.0]])
        loss = pinball(pred, targets, quantile=0.5)
        assert loss.item() == pytest.approx(0.5 * np.mean([2.0, 2.0]))

    def test_asymmetry(self):
        """tau=0.8 punishes under-prediction 4x harder than over."""
        under = pinball(Tensor([[0.0]]), np.array([[1.0]]), quantile=0.8)
        over = pinball(Tensor([[2.0]]), np.array([[1.0]]), quantile=0.8)
        assert under.item() == pytest.approx(0.8)
        assert over.item() == pytest.approx(0.2)

    def test_zero_at_perfect_prediction(self):
        loss = pinball(Tensor([[1.0, 2.0]]), np.array([[1.0, 2.0]]), quantile=0.7)
        assert loss.item() == 0.0

    def test_quantile_validation(self):
        pred = Tensor([[1.0]])
        with pytest.raises(ValueError):
            pinball(pred, np.array([[1.0]]), quantile=0.0)
        with pytest.raises(ValueError):
            pinball(pred, np.array([[1.0]]), quantile=1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pinball(Tensor([[1.0]]), np.array([1.0, 2.0]), quantile=0.5)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        # Targets away from predictions so the relu kinks are not hit.
        targets = x.data + np.where(rng.uniform(size=(3, 4)) > 0.5, 1.0, -1.0)
        gradcheck(lambda: pinball(x, targets, quantile=0.7), [x])

    def test_minimiser_converges_to_quantile(self):
        """Minimising pinball over data recovers the empirical quantile."""
        rng = np.random.default_rng(1)
        samples = rng.exponential(2.0, size=(400, 1))
        theta = Tensor(np.array([[0.1]]), requires_grad=True)
        optimizer = Adam([theta], lr=0.05)
        for _ in range(600):
            optimizer.zero_grad()
            broadcast = theta * Tensor(np.ones_like(samples))
            pinball(broadcast, samples, quantile=0.8).backward()
            optimizer.step()
        target = np.quantile(samples, 0.8)
        assert theta.data[0, 0] == pytest.approx(target, rel=0.15)


class TestGanQuantileAnchor:
    def _batch(self, seed=0):
        rng = np.random.default_rng(seed)
        real = np.abs(rng.normal(2.0, 1.0, size=(5, 6, 1)))
        cond = np.abs(rng.normal(2.0, 1.0, size=(5, 6, 1)))
        codes = np.eye(3)[rng.integers(0, 3, size=6)]
        return real, cond, codes

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            InfoRnnGan(code_dim=3, rng=np.random.default_rng(0),
                       supervised_quantile=0.0)
        with pytest.raises(ValueError):
            InfoRnnGan(code_dim=3, rng=np.random.default_rng(0),
                       supervised_quantile=1.0)

    def test_high_quantile_biases_predictions_up(self):
        """Training at tau=0.9 should leave a higher mean forecast than
        tau=0.5 on the same data."""
        real, cond, codes = self._batch()

        def train(quantile, seed=3):
            gan = InfoRnnGan(
                code_dim=3,
                rng=np.random.default_rng(seed),
                hidden_size=8,
                supervised_quantile=quantile,
                supervised_weight=10.0,
            )
            for _ in range(60):
                gan.train_step(real, cond, codes)
            return gan.generate(codes, cond, n_samples=4).mean()

        assert train(0.9) > train(0.5)

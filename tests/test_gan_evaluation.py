"""Tests for the GAN's latent-code recovery metric."""

import numpy as np
import pytest

from repro.gan import InfoRnnGan
from repro.gan.evaluation import latent_recovery_accuracy


class TestLatentRecovery:
    def _trained_gan(self, steps=150):
        """Train on data where the code strongly determines the level."""
        rng = np.random.default_rng(5)
        gan = InfoRnnGan(
            code_dim=3, rng=rng, hidden_size=8, info_lambda=1.0,
            supervised_weight=5.0,
        )
        window, batch = 5, 12
        for _ in range(steps):
            labels = rng.integers(0, 3, size=batch)
            codes = np.eye(3)[labels]
            levels = np.array([1.0, 4.0, 8.0])[labels]
            real = np.abs(
                levels[None, :, None]
                + rng.normal(0, 0.2, size=(window, batch, 1))
            )
            cond = real  # simple self-conditioning for the test
            gan.train_step(real, cond, codes)
        return gan, rng

    def test_accuracy_above_chance_after_training(self):
        gan, rng = self._trained_gan()
        labels = rng.integers(0, 3, size=12)
        codes = np.eye(3)[labels]
        levels = np.array([1.0, 4.0, 8.0])[labels]
        cond = np.abs(
            levels[None, :, None] + rng.normal(0, 0.2, size=(5, 12, 1))
        )
        accuracy = latent_recovery_accuracy(gan, cond, codes, n_samples=3)
        assert accuracy > 1.0 / 3.0 + 0.15  # clearly above chance

    def test_accuracy_in_unit_interval(self):
        gan, rng = self._trained_gan(steps=2)
        codes = np.eye(3)[rng.integers(0, 3, size=6)]
        cond = np.abs(rng.normal(2, 1, size=(5, 6, 1)))
        accuracy = latent_recovery_accuracy(gan, cond, codes)
        assert 0.0 <= accuracy <= 1.0

    def test_n_samples_validated(self):
        gan, rng = self._trained_gan(steps=1)
        codes = np.eye(3)[[0]]
        cond = np.abs(rng.normal(2, 1, size=(5, 1, 1)))
        with pytest.raises(ValueError):
            latent_recovery_accuracy(gan, cond, codes, n_samples=0)

"""GAN sample-quality evaluation: does `G(z, c)` match the real demand?

Forecast error (the `abl-pred` benchmark) measures only the conditional
mean; a *generative* model should match the whole distribution and keep
its latent code recoverable (the InfoGAN promise).  These metrics quantify
both:

* :func:`marginal_ks_statistic` — two-sample Kolmogorov-Smirnov distance
  between real and generated per-slot volumes (0 = identical marginals);
* :func:`autocorrelation_gap` — |lag-1 autocorrelation(real) - (fake)|,
  the temporal-structure match a per-slot marginal cannot see;
* :func:`latent_recovery_accuracy` — how often the trained Q head
  recovers the code a series was generated with (the practical readout of
  the mutual-information term `I(c; G(z, c))` of Eq. 24).

:func:`marginal_ks_statistic` imports ``scipy.stats`` where it runs: this
module is loaded with the GAN by every process, which would otherwise
all carry ``scipy.stats`` (``tests/test_import_budget.py``).
"""

from __future__ import annotations

import numpy as np

from repro.gan.infogan import InfoRnnGan
from repro.nn.tensor import Tensor, no_grad
from repro.workload.stats import autocorrelation

__all__ = [
    "marginal_ks_statistic",
    "autocorrelation_gap",
    "latent_recovery_accuracy",
]


def _flatten_series(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 3 or series.shape[2] != 1:
        raise ValueError(f"series must have shape (W, B, 1), got {series.shape}")
    return series.reshape(-1)


def marginal_ks_statistic(real: np.ndarray, generated: np.ndarray) -> float:
    """Two-sample KS distance between per-slot volume marginals (in [0, 1])."""
    from scipy import stats as scipy_stats

    real_flat = _flatten_series(real)
    fake_flat = _flatten_series(generated)
    statistic, _ = scipy_stats.ks_2samp(real_flat, fake_flat)
    return float(statistic)


def autocorrelation_gap(real: np.ndarray, generated: np.ndarray) -> float:
    """|lag-1 autocorrelation difference|, averaged over the batch."""
    real = np.asarray(real, dtype=float)
    generated = np.asarray(generated, dtype=float)
    if real.shape != generated.shape:
        raise ValueError(
            f"real {real.shape} and generated {generated.shape} must match"
        )
    if real.shape[0] < 3:
        raise ValueError("need windows of at least 3 slots for autocorrelation")
    gaps = []
    for b in range(real.shape[1]):
        r = autocorrelation(real[:, b, 0] + 1e-9, lag=1)
        f = autocorrelation(generated[:, b, 0] + 1e-9, lag=1)
        gaps.append(abs(r - f))
    return float(np.mean(gaps))


def latent_recovery_accuracy(
    gan: InfoRnnGan,
    conditioning: np.ndarray,
    codes: np.ndarray,
    n_samples: int = 1,
) -> float:
    """Fraction of generated series whose code the Q head recovers.

    Generates from each (conditioning, code) pair and asks `Q(c' | G)`;
    chance level is `1 / code_dim`, a trained InfoGAN should sit well
    above it.
    """
    conditioning = np.asarray(conditioning, dtype=float)
    codes = np.asarray(codes, dtype=float)
    if n_samples <= 0:
        raise ValueError(f"n_samples must be > 0, got {n_samples}")
    correct, total = 0, 0
    for _ in range(n_samples):
        generated = gan.generate(codes, conditioning, n_samples=1)
        # Discriminator-only evaluation: no training follows, so record
        # no graph.
        with no_grad():
            _, pooled = gan.discriminator(Tensor(generated))
            logits = gan.q_head(pooled).data
        predicted = logits.argmax(axis=1)
        actual = codes.argmax(axis=1)
        correct += int((predicted == actual).sum())
        total += codes.shape[0]
    return correct / total

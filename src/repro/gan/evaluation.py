"""GAN sample-quality evaluation: is the latent code recoverable?

Forecast error (the `abl-pred` benchmark) measures only the conditional
mean; a trained InfoGAN should also keep its latent code recoverable.
:func:`latent_recovery_accuracy` measures how often the trained Q head
recovers the code a series was generated with (the practical readout of
the mutual-information term `I(c; G(z, c))` of Eq. 24).
"""

from __future__ import annotations

import numpy as np

from repro.gan.infogan import InfoRnnGan
from repro.nn.tensor import Tensor, no_grad

__all__ = ["latent_recovery_accuracy"]


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

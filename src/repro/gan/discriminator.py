"""The Info-RNN-GAN discriminator: two-layer Bi-LSTM + real/fake head.

"Discriminator D(G(z^t, c^t)) uses a two-layer Bi-LSTM to judge how close
the fake data is from the true data" (§V-B).  The Bi-LSTM trunk is shared
with the :class:`repro.gan.qhead.QHead`, which is the InfoGAN construction
(Q reuses the discriminator body, adding only a light head).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers import BiLSTM, Dense, Module
from repro.nn.tensor import Tensor
from repro.utils.validation import require_positive

__all__ = ["Discriminator"]


class Discriminator(Module):
    """`D(x)`: probability that a demand series is real.

    :meth:`forward` returns both the probability and the pooled trunk
    features so the Q head can reuse them without recomputing the Bi-LSTM.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        hidden_size: int = 16,
        num_layers: int = 2,
    ):
        require_positive("hidden_size", hidden_size)
        self.bilstm = BiLSTM(1, hidden_size, rng, num_layers=num_layers)
        self.head = Dense(self.bilstm.output_size, 1, rng, activation="sigmoid")

    @property
    def feature_size(self) -> int:
        """Width of the pooled trunk features handed to the Q head."""
        return self.bilstm.output_size

    def forward(self, series: Tensor) -> Tuple[Tensor, Tensor]:
        """Judge a batch of series.

        ``series`` has shape ``(W, B, 1)``; returns ``(probabilities (B, 1),
        pooled_features (B, 2 * hidden))``.  Pooling is a mean over time —
        every slot of the window contributes to the verdict.
        """
        if series.ndim != 3 or series.shape[2] != 1:
            raise ValueError(f"series must have shape (W, B, 1), got {series.shape}")
        features = self.bilstm(series)  # (W, B, 2H)
        pooled = features.mean(axis=0)  # (B, 2H)
        probabilities = self.head(pooled)
        return probabilities, pooled

"""The Info-RNN-GAN generator: Bi-LSTM + softplus demand head.

Per-slot input is the concatenation of the noise vector `z^t`, the latent
code `c` (constant over the window: a user's location does not change
within a monitoring window) and the previous observed demand `x_{t-1}`
(teacher forcing).  The paper's generator "adopts a Bi-LSTM to learn the
features of user features" and predicts the data volume per slot; demand
volumes are non-negative, so the head is softplus rather than the paper's
softmax-over-levels (documented substitution: continuous volumes need a
continuous head, and softplus preserves the positivity the softmax
discretisation provided).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softplus
from repro.nn.layers import BiLSTM, Dense, Module
from repro.nn.tensor import Tensor, concat, no_grad, stack
from repro.utils.validation import require_positive

__all__ = ["Generator"]


class Generator(Module):
    """`G(z^t, c^t)`: generates/forecasts a demand series.

    Parameters
    ----------
    noise_dim:
        Dimension of the per-slot noise vector `z^t`.
    code_dim:
        Dimension of the one-hot latent code `c` (hotspots + 1).
    cond_channels:
        Number of conditioning channels per slot.  Channel 0 is always the
        request's own previous demand `x_{t-1}`; the demand predictor adds
        a second channel carrying the *hotspot-aggregate* previous demand
        ("users in the same location may have similar distributions of
        their data volumes", §V-A — the aggregate is the cleaner burst
        signal that motivates the location latent in the first place).
    hidden_size:
        Bi-LSTM hidden width per direction (the paper stresses *small
        samples*, so small widths are the intended regime).
    num_layers:
        Bi-LSTM depth (the paper uses a "bidirectional two-layer loop RNN").
    """

    def __init__(
        self,
        noise_dim: int,
        code_dim: int,
        rng: np.random.Generator,
        cond_channels: int = 1,
        hidden_size: int = 16,
        num_layers: int = 2,
    ):
        require_positive("noise_dim", noise_dim)
        require_positive("code_dim", code_dim)
        require_positive("cond_channels", cond_channels)
        require_positive("hidden_size", hidden_size)
        self.noise_dim = int(noise_dim)
        self.code_dim = int(code_dim)
        self.cond_channels = int(cond_channels)
        input_size = noise_dim + code_dim + cond_channels  # [z, c, conditioning]
        self.bilstm = BiLSTM(input_size, hidden_size, rng, num_layers=num_layers)
        self.head = Dense(self.bilstm.output_size, 1, rng)

    def forward(self, noise: Tensor, codes: Tensor, conditioning: Tensor) -> Tensor:
        """Generate one demand value per slot.

        Shapes: ``noise (W, B, noise_dim)``, ``codes (B, code_dim)``,
        ``conditioning (W, B, cond_channels)`` (channel 0: the demand
        observed one slot earlier); returns ``(W, B, 1)`` of
        strictly-positive predicted volumes.
        """
        if noise.ndim != 3 or noise.shape[2] != self.noise_dim:
            raise ValueError(
                f"noise must have shape (W, B, {self.noise_dim}), got {noise.shape}"
            )
        if codes.ndim != 2 or codes.shape[1] != self.code_dim:
            raise ValueError(
                f"codes must have shape (B, {self.code_dim}), got {codes.shape}"
            )
        if conditioning.shape != (noise.shape[0], noise.shape[1], self.cond_channels):
            raise ValueError(
                f"conditioning must have shape ({noise.shape[0]}, "
                f"{noise.shape[1]}, {self.cond_channels}), got {conditioning.shape}"
            )
        window = noise.shape[0]
        if not (noise.requires_grad or codes.requires_grad or conditioning.requires_grad):
            # The usual case: all three inputs are constants (noise, one-hot
            # codes, observed demands), so the per-slot [z_t, c, x_{t-1}]
            # assembly needs no graph — one numpy concatenate replaces
            # W concat nodes + a stack node, bit-identically.
            batch = noise.shape[1]
            with no_grad():
                # Raw-buffer reads are safe here: the branch guard above
                # proved none of the inputs requires a gradient, so there
                # is no graph to detach from.
                sequence = Tensor(
                    np.concatenate(
                        [
                            noise.data,
                            np.broadcast_to(
                                codes.data[np.newaxis],
                                (window, batch, self.code_dim),
                            ),
                            conditioning.data,
                        ],
                        axis=2,
                    )
                )
        else:
            # Broadcast the constant code across time by re-stacking.
            steps = [
                concat([noise[t], codes, conditioning[t]], axis=-1)
                for t in range(window)
            ]
            sequence = stack(steps, axis=0)
        features = self.bilstm(sequence)
        flat = features.reshape(window * noise.shape[1], self.bilstm.output_size)
        raw = self.head(flat).reshape(window, noise.shape[1], 1)
        return softplus(raw)

    def sample_noise(
        self, window: int, batch: int, rng: np.random.Generator, draws: int = 1
    ) -> Tensor:
        """Draw `z^t` for a window: standard normal, shape ``(W, B, nz)``.

        Drawn in float64 (so the stream matches seeded expectations) and
        cast to the generator's parameter dtype.  ``draws > 1`` draws
        ``(draws, W, B, nz)`` at once, the stream of ``draws`` calls in
        turn, and lays it out draw-major as ``(W, draws * B, nz)``.
        """
        require_positive("window", window)
        require_positive("batch", batch)
        require_positive("draws", draws)
        draw = rng.normal(0.0, 1.0, size=(draws, window, batch, self.noise_dim))
        draw = draw.transpose(1, 0, 2, 3).reshape(window, draws * batch, self.noise_dim)
        return Tensor(draw, dtype=self.head.weight.data.dtype)

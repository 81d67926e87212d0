"""Info-RNN-GAN training: the min-max objective of Eqs. (23)-(26).

One :meth:`InfoRnnGan.train_step` performs

1. a **discriminator** update on `V'(D, G)` (Eq. 23): maximise
   `log D(rho) + log(1 - D(G(z, c)))` — implemented as BCE with labels
   real=1 / fake=0, generator detached;
2. a **generator + Q** update on Eq. (26): the non-saturating adversarial
   term `-log D(G(z, c))`, plus `lambda * CE(Q(G), c)` (the negative
   mutual-information bound `-L1(G, Q)`), plus a small supervised anchor
   `MSE(G(z, c), rho)`.

The supervised anchor is a documented addition (DESIGN.md §5): the paper's
discriminator "evaluates the quality of the prediction and feeds the
information to the generator"; a direct prediction-error term is the
stable realisation of that feedback loop at the tiny model/data sizes the
paper targets, while the adversarial and mutual-information terms shape
the distribution (burst sharpness) that plain regression smooths away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.gan.discriminator import Discriminator
from repro.gan.generator import Generator
from repro.gan.qhead import QHead
from repro.nn.functional import binary_cross_entropy, mse, pinball
from repro.nn.optim import Adam
from repro.nn.serialize import load_module_state_dict, module_state_dict
from repro.nn.tensor import Tensor, no_grad
from repro.state.snapshot import rng_state, set_rng_state
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["GanLosses", "InfoRnnGan"]


@dataclass(frozen=True)
class GanLosses:
    """Scalar losses of one training step."""

    discriminator: float
    adversarial: float
    mutual_information: float
    supervised: float

    @property
    def generator_total(self) -> float:
        return self.adversarial + self.mutual_information + self.supervised


class InfoRnnGan:
    """The full model: G, D, Q and their optimisers.

    Parameters
    ----------
    noise_dim, code_dim, hidden_size, num_layers:
        Architecture knobs (see :class:`Generator` / :class:`Discriminator`).
    info_lambda:
        The `lambda` of Eq. (24) weighting the mutual-information bound.
    supervised_weight:
        Weight of the prediction-error anchor (0 disables it, giving the
        pure InfoGAN objective).
    supervised_quantile:
        Quantile targeted by the anchor.  0.5 uses plain MSE; anything
        else uses the pinball loss — values above 0.5 bias the generator
        toward *over*-forecasting, which is the safe direction when the
        forecast drives capacity-constrained assignment (an under-forecast
        overloads a station; an over-forecast only wastes head-room).
    lr:
        Adam learning rate for the generator and discriminator updates.
    q_lr:
        Learning rate of the auxiliary Q head (defaults to ``10 * lr``):
        Q is a light linear probe chasing the generator's moving features,
        so it trains faster than the recurrent trunks.
    dtype:
        ``"float64"`` (default, exact gradcheck regime) or ``"float32"``
        (opt-in fast path: parameters, inputs and all intermediate
        activations run in single precision).  Float32 shifts every
        trained value — treat pinned expectations as holding only to
        float32 tolerance (see README "Performance").
    """

    def __init__(
        self,
        code_dim: int,
        rng: np.random.Generator,
        noise_dim: int = 4,
        cond_channels: int = 1,
        hidden_size: int = 16,
        num_layers: int = 2,
        info_lambda: float = 0.5,
        supervised_weight: float = 5.0,
        supervised_quantile: float = 0.5,
        lr: float = 2e-3,
        q_lr: Optional[float] = None,
        dtype: str = "float64",
    ):
        require_non_negative("info_lambda", info_lambda)
        require_non_negative("supervised_weight", supervised_weight)
        if not 0.0 < supervised_quantile < 1.0:
            raise ValueError(
                f"supervised_quantile must be in (0, 1), got {supervised_quantile}"
            )
        require_positive("lr", lr)
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
        self.dtype = np.dtype(dtype)
        self._rng = rng
        self.info_lambda = float(info_lambda)
        self.supervised_weight = float(supervised_weight)
        self.supervised_quantile = float(supervised_quantile)
        self.cond_channels = int(cond_channels)
        self.generator = Generator(
            noise_dim,
            code_dim,
            rng,
            cond_channels=cond_channels,
            hidden_size=hidden_size,
            num_layers=num_layers,
        )
        self.discriminator = Discriminator(
            rng, hidden_size=hidden_size, num_layers=num_layers
        )
        self.q_head = QHead(self.discriminator.feature_size, code_dim, rng)
        if self.dtype != np.float64:
            # Convert before the optimizers snapshot parameter shapes so
            # the Adam moment buffers come out in the same dtype.
            self.generator.astype(self.dtype)
            self.discriminator.astype(self.dtype)
            self.q_head.astype(self.dtype)
        if q_lr is None:
            q_lr = 10.0 * lr
        require_positive("q_lr", q_lr)
        self._d_optimizer = Adam(self.discriminator.parameters(), lr=lr)
        self._g_optimizer = Adam(self.generator.parameters(), lr=lr)
        self._q_optimizer = Adam(self.q_head.parameters(), lr=q_lr)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def train_step(
        self,
        real_series: np.ndarray,
        conditioning: np.ndarray,
        codes: np.ndarray,
    ) -> GanLosses:
        """One D update followed by one G+Q update.

        Shapes: ``real_series (W, B, 1)`` — the true demand windows
        `rho_l(t)`; ``conditioning (W, B, cond_channels)`` — channel 0 is
        the demand shifted one slot back; ``codes (B, code_dim)`` —
        one-hot latents.
        """
        real_series = np.asarray(real_series, dtype=self.dtype)
        conditioning = np.asarray(conditioning, dtype=self.dtype)
        codes = np.asarray(codes, dtype=self.dtype)
        if real_series.ndim != 3 or real_series.shape[2] != 1:
            raise ValueError(
                f"real_series must have shape (W, B, 1), got {real_series.shape}"
            )
        expected_cond = (real_series.shape[0], real_series.shape[1], self.cond_channels)
        if conditioning.shape != expected_cond:
            raise ValueError(
                f"conditioning shape {conditioning.shape} must be {expected_cond}"
            )
        window, batch = real_series.shape[0], real_series.shape[1]
        if codes.shape[0] != batch:
            raise ValueError(
                f"codes batch {codes.shape[0]} must match series batch {batch}"
            )

        prev_tensor = Tensor(conditioning)
        codes_tensor = Tensor(codes)

        # --- Discriminator step (Eq. 23) --------------------------------
        noise = self.generator.sample_noise(window, batch, self._rng)
        with no_grad():  # no gradient flows into G here: record no graph
            fake = self.generator(noise, codes_tensor, prev_tensor)

        self._d_optimizer.zero_grad()
        real_probs, _ = self.discriminator(Tensor(real_series))
        fake_probs, _ = self.discriminator(fake)
        d_loss = binary_cross_entropy(
            real_probs, np.ones((batch, 1))
        ) + binary_cross_entropy(fake_probs, np.zeros((batch, 1)))
        d_loss.backward()
        self._d_optimizer.step()

        # --- Generator + Q step (Eq. 26) ---------------------------------
        self._g_optimizer.zero_grad()
        self._q_optimizer.zero_grad()
        self.discriminator.zero_grad()  # trunk is reused, not updated here
        noise = self.generator.sample_noise(window, batch, self._rng)
        fake = self.generator(noise, codes_tensor, prev_tensor)
        fake_probs, pooled = self.discriminator(fake)
        adversarial = binary_cross_entropy(fake_probs, np.ones((batch, 1)))
        info = self.q_head.info_loss(pooled, codes) * self.info_lambda
        if self.supervised_quantile == 0.5:
            anchor = mse(fake, real_series)
        else:
            anchor = pinball(fake, real_series, self.supervised_quantile)
        supervised = anchor * self.supervised_weight
        g_loss = adversarial + info + supervised
        g_loss.backward()
        self._g_optimizer.step()
        self._q_optimizer.step()

        return GanLosses(
            discriminator=d_loss.item(),
            adversarial=adversarial.item(),
            mutual_information=info.item(),
            supervised=supervised.item(),
        )

    def fit(
        self,
        windows: np.ndarray,
        conditioning: np.ndarray,
        codes: np.ndarray,
        epochs: int = 30,
        batch_size: int = 16,
    ) -> list:
        """Train over a dataset of windows; returns per-epoch mean losses.

        ``windows``: ``(N, W, 1)``; ``conditioning``:
        ``(N, W, cond_channels)``; ``codes``: ``(N, code_dim)``.
        """
        require_positive("epochs", epochs)
        require_positive("batch_size", batch_size)
        windows = np.asarray(windows, dtype=float)
        previous = np.asarray(conditioning, dtype=float)
        codes = np.asarray(codes, dtype=float)
        if windows.ndim != 3:
            raise ValueError(f"windows must be (N, W, 1), got {windows.shape}")
        n = windows.shape[0]
        history = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch_idx = order[start : start + batch_size]
                # (N, W, 1) -> (W, B, 1)
                batch_windows = windows[batch_idx].transpose(1, 0, 2)
                batch_previous = previous[batch_idx].transpose(1, 0, 2)
                losses = self.train_step(batch_windows, batch_previous, codes[batch_idx])
                epoch_losses.append(losses)
            history.append(
                GanLosses(
                    discriminator=float(np.mean([l.discriminator for l in epoch_losses])),
                    adversarial=float(np.mean([l.adversarial for l in epoch_losses])),
                    mutual_information=float(
                        np.mean([l.mutual_information for l in epoch_losses])
                    ),
                    supervised=float(np.mean([l.supervised for l in epoch_losses])),
                )
            )
        return history

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable state: all module weights, optimizer slots and
        the training RNG position (see :mod:`repro.state`)."""
        return {
            "generator": module_state_dict(self.generator),
            "discriminator": module_state_dict(self.discriminator),
            "q_head": module_state_dict(self.q_head),
            "d_optimizer": self._d_optimizer.state_dict(),
            "g_optimizer": self._g_optimizer.state_dict(),
            "q_optimizer": self._q_optimizer.state_dict(),
            "rng": rng_state(self._rng),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into a same-architecture
        model, in place."""
        load_module_state_dict(self.generator, state["generator"])
        load_module_state_dict(self.discriminator, state["discriminator"])
        load_module_state_dict(self.q_head, state["q_head"])
        self._d_optimizer.load_state_dict(state["d_optimizer"])
        self._g_optimizer.load_state_dict(state["g_optimizer"])
        self._q_optimizer.load_state_dict(state["q_optimizer"])
        set_rng_state(self._rng, state["rng"])

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def generate(
        self,
        codes: np.ndarray,
        conditioning: np.ndarray,
        n_samples: int = 4,
    ) -> np.ndarray:
        """Expected demand series per request: mean over ``n_samples`` draws.

        ``conditioning (W, B, cond_channels)``, ``codes (B, code_dim)``;
        returns ``(W, B, 1)``.  Runs under :class:`~repro.nn.tensor.no_grad`
        — inference records no autograd graph at all (this is the path
        behind ``GanDemandPredictor.predict_next``).  The draws run as one
        forward at batch ``n_samples * B``; their noise is one draw laid
        out draw-major, the same numbers ``n_samples`` draws of
        ``(W, B, nz)`` in turn would give.
        """
        require_positive("n_samples", n_samples)
        previous = np.asarray(conditioning, dtype=self.dtype)
        codes = np.asarray(codes, dtype=self.dtype)
        window, batch = previous.shape[0], previous.shape[1]
        noise = self.generator.sample_noise(window, batch, self._rng, draws=n_samples)
        with no_grad():
            out = self.generator(
                noise,
                Tensor(np.tile(codes, (n_samples, 1))),
                Tensor(np.tile(previous, (1, n_samples, 1))),
            ).data
        return np.mean(
            out.reshape(window, n_samples, batch, 1).transpose(1, 0, 2, 3), axis=0
        )

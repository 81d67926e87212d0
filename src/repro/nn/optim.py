"""Optimisers: SGD (with momentum) and Adam.

GAN training uses Adam (the de-facto choice for adversarial training);
SGD is kept for the simpler regression fits and ablations.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.validation import require_positive, require_probability

__all__ = ["Optimizer", "Sgd", "Adam"]


class Optimizer(abc.ABC):
    """Updates a fixed list of parameters in place from their gradients."""

    def __init__(self, parameters: Sequence[Tensor]):
        params = list(parameters)
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        for p in params:
            if not p.requires_grad:
                raise ValueError("all optimised tensors must require gradients")
        self._params: List[Tensor] = params

    @property
    def parameters(self) -> List[Tensor]:
        return list(self._params)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient (call before each backward).

        This only drops the ``grad`` reference; each tensor keeps its
        owned gradient buffer and the next backward overwrites it in
        place (see ``Tensor.zero_grad``), so the zero/accumulate cycle
        allocates nothing.
        """
        for p in self._params:
            p.zero_grad()

    @abc.abstractmethod
    def step(self) -> None:
        """Apply one update from the currently-accumulated gradients.

        Parameters with ``grad is None`` (not touched by the last backward)
        are skipped.
        """

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable slot state (see :mod:`repro.state`).

        Hyper-parameters (lr, betas, momentum) are construction config,
        not state — the caller rebuilds the optimizer and restores only
        the accumulated slots.
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot, in place."""

    def _load_slots(self, slots: Sequence[Any], label: str) -> List[np.ndarray]:
        """Copies of checkpointed slot buffers, each in its parameter's dtype.

        A float32 model resumed with float64 moments would no longer step
        like the uninterrupted run.
        """
        slots = [np.asarray(slot) for slot in slots]
        self._check_slot_shapes(slots, label)
        return [
            slot.astype(p.data.dtype)
            for slot, p in zip(slots, self._params, strict=True)
        ]

    def _check_slot_shapes(self, slots: Sequence[np.ndarray], label: str) -> None:
        if len(slots) != len(self._params):
            raise ValueError(
                f"checkpoint holds {len(slots)} {label} buffers, optimizer "
                f"has {len(self._params)} parameters"
            )
        for index, (slot, p) in enumerate(zip(slots, self._params, strict=True)):
            if slot.shape != p.data.shape:
                raise ValueError(
                    f"{label} buffer {index} shape {slot.shape} does not "
                    f"match parameter shape {p.data.shape}"
                )


class Sgd(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 0.01, momentum: float = 0.0):
        super().__init__(parameters)
        require_positive("lr", lr)
        require_probability("momentum", momentum)
        self._lr = float(lr)
        self._momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self._params]

    def step(self) -> None:
        for p, velocity in zip(self._params, self._velocity, strict=True):
            if p.grad is None:
                continue
            velocity *= self._momentum
            velocity -= self._lr * p.grad
            p.data += velocity

    def state_dict(self) -> Dict[str, Any]:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._velocity = self._load_slots(state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(parameters)
        require_positive("lr", lr)
        require_probability("beta1", beta1)
        require_probability("beta2", beta2)
        require_positive("eps", eps)
        self._lr = float(lr)
        self._beta1 = float(beta1)
        self._beta2 = float(beta2)
        self._eps = float(eps)
        self._m = [np.zeros_like(p.data) for p in self._params]
        self._v = [np.zeros_like(p.data) for p in self._params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        correction1 = 1.0 - self._beta1**self._t
        correction2 = 1.0 - self._beta2**self._t
        for p, m, v in zip(self._params, self._m, self._v, strict=True):
            if p.grad is None:
                continue
            m *= self._beta1
            m += (1.0 - self._beta1) * p.grad
            v *= self._beta2
            v += (1.0 - self._beta2) * (p.grad**2)
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self._lr * m_hat / (np.sqrt(v_hat) + self._eps)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        m = self._load_slots(state["m"], "first-moment")
        v = self._load_slots(state["v"], "second-moment")
        self._t = int(state["t"])
        self._m, self._v = m, v

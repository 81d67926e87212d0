"""Neural-network layers: Dense, LSTM, Bi-LSTM (§V-B building blocks).

The Info-RNN-GAN uses "a bidirectional two-layer loop RNN (Bi-LSTM)" for
both generator and discriminator; :class:`BiLSTM` composes two
:class:`LSTM` stacks run in opposite time directions with concatenated
outputs, exactly that architecture.

Sequence convention: time-major tensors of shape ``(T, B, features)``.

Execution paths: :class:`LSTM` and :class:`BiLSTM` run through the fused
sequence kernel of :mod:`repro.nn.fused` — one autograd node per layer,
covering both directions of a Bi-LSTM layer.  ``forward_stepwise`` keeps
the per-step cell loop as the reference the tests compare against.  Both
paths evaluate the cell expression ``(x_t @ W_x + b) + h @ W_h`` in the
same floating-point order, so their outputs are bit-identical in float64
(asserted in the test suite).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.nn.fused import lstm_sequence, merge_directions
from repro.nn.tensor import Tensor, concat, stack
from repro.utils.validation import require_positive

__all__ = ["Module", "Dense", "LSTMCell", "LSTM", "BiLSTM", "Sequential"]


class Module:
    """Base class with recursive parameter discovery.

    Any :class:`Tensor` attribute with ``requires_grad=True``, any nested
    :class:`Module`, and any list/tuple of either is collected by
    :meth:`parameters` — mirroring the framework convention users expect.
    """

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        seen = set()

        def collect(value) -> None:
            if isinstance(value, Tensor):
                if value.requires_grad and id(value) not in seen:
                    seen.add(id(value))
                    params.append(value)
            elif isinstance(value, Module):
                for p in value.parameters():
                    if id(p) not in seen:
                        seen.add(id(p))
                        params.append(p)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    collect(item)

        for value in self.__dict__.values():
            collect(value)
        return params

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    @property
    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (modules are homogeneous by construction)."""
        params = self.parameters()
        if not params:
            raise ValueError("module has no parameters")
        return params[0].data.dtype

    def astype(self, dtype) -> "Module":
        """Convert every parameter to ``dtype`` in place; returns ``self``.

        The float32 switch: convert **before** creating optimizers so
        their moment buffers match.  Gradient buffers are dropped (they
        are lazily re-allocated in the new dtype).  Gradient *checking*
        stays a float64 affair — see :func:`repro.nn.gradcheck.gradcheck`,
        which rejects non-float64 parameters.
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
            p._grad_buffer = None
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform initialisation."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Dense(Module):
    """Affine layer ``y = activation(x @ W + b)`` over ``(B, in)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: Optional[str] = None,
    ):
        require_positive("in_features", in_features)
        require_positive("out_features", out_features)
        valid = {None, "tanh", "sigmoid", "relu"}
        if activation not in valid:
            raise ValueError(f"activation must be one of {valid}, got {activation!r}")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation = activation
        self.weight = Tensor(_xavier(rng, in_features, out_features), requires_grad=True)
        self.bias = Tensor(np.zeros((1, out_features)), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight + self.bias
        if self.activation == "tanh":
            return out.tanh()
        if self.activation == "sigmoid":
            return out.sigmoid()
        if self.activation == "relu":
            return out.relu()
        return out


class LSTMCell(Module):
    """One LSTM step: ``(x_t, h, c) -> (h', c')``.

    Gates are computed from a single fused weight matrix over
    ``[x_t, h]``; the forget-gate bias is initialised to 1 (standard
    remedy against early vanishing memory).  The forward evaluates the
    split form ``(x @ W[:in] + b) + h @ W[in:]`` — the same expression,
    in the same order, as the fused sequence kernel, which is what makes
    the two execution paths bit-identical.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        require_positive("input_size", input_size)
        require_positive("hidden_size", hidden_size)
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        fused_in = input_size + hidden_size
        self.weight = Tensor(
            _xavier(rng, fused_in, 4 * hidden_size), requires_grad=True
        )
        bias = np.zeros((1, 4 * hidden_size))
        bias[0, hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        """Zero (h, c) state for a batch (in the cell's dtype)."""
        require_positive("batch", batch)
        zeros = np.zeros((batch, self.hidden_size), dtype=self.weight.data.dtype)
        return Tensor(zeros), Tensor(zeros.copy())

    def _step(
        self, x: Tensor, h: Tensor, c: Tensor, w_x: Tensor, w_h: Tensor
    ) -> Tuple[Tensor, Tensor]:
        """Gate math given pre-sliced weights (hoisted by the LSTM loop)."""
        fused = x @ w_x + self.bias + h @ w_h
        H = self.hidden_size
        i_gate = fused[:, 0 * H : 1 * H].sigmoid()
        f_gate = fused[:, 1 * H : 2 * H].sigmoid()
        g_gate = fused[:, 2 * H : 3 * H].tanh()
        o_gate = fused[:, 3 * H : 4 * H].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        if x.ndim != 2 or x.shape[1] != self.input_size:
            raise ValueError(
                f"expected input of shape (batch, {self.input_size}), got {x.shape}"
            )
        In = self.input_size
        return self._step(x, h, c, self.weight[:In], self.weight[In:])


class LSTM(Module):
    """A (possibly multi-layer) unidirectional LSTM over ``(T, B, in)``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        num_layers: int = 1,
    ):
        require_positive("num_layers", num_layers)
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        self.cells = [
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            for layer in range(num_layers)
        ]

    def _validate(self, sequence: Tensor) -> None:
        if sequence.ndim != 3 or sequence.shape[2] != self.input_size:
            raise ValueError(
                f"expected sequence of shape (T, batch, {self.input_size}), "
                f"got {sequence.shape}"
            )

    def forward(self, sequence: Tensor) -> Tensor:
        """Run the stack; returns hidden outputs of the top layer, (T, B, H).

        One fused kernel node per layer (a single direction).
        """
        self._validate(sequence)
        with obs.span("nn.forward"):
            out = sequence
            for cell in self.cells:
                out = lstm_sequence(out, [cell.weight], [cell.bias], cell.hidden_size)
            return out.reshape(*sequence.shape[:2], self.hidden_size)

    def forward_stepwise(self, sequence: Tensor) -> Tensor:
        """Per-step reference path: one graph node per op per timestep."""
        self._validate(sequence)
        horizon, batch = sequence.shape[0], sequence.shape[1]
        with obs.span("nn.forward"):
            layer_inputs = [sequence[t] for t in range(horizon)]
            for cell in self.cells:
                In = cell.input_size
                # Hoist the weight split out of the time loop: one getitem
                # node per layer instead of two per step.
                w_x, w_h = cell.weight[:In], cell.weight[In:]
                h, c = cell.initial_state(batch)
                outputs: List[Tensor] = []
                for x_t in layer_inputs:
                    h, c = cell._step(x_t, h, c, w_x, w_h)
                    outputs.append(h)
                layer_inputs = outputs
            return stack(layer_inputs, axis=0)


class BiLSTM(Module):
    """Bidirectional LSTM: forward + time-reversed stacks, concatenated.

    Output shape is ``(T, B, 2 * hidden)`` — the decision at slot `t` sees
    "historical and future features in the data sample" (§V-B).  The two
    stacks keep their own cells (so parameter order and checkpoints are
    those of two :class:`LSTM` modules), but :meth:`forward` runs layer
    `l` of both as one two-direction kernel node.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        num_layers: int = 1,
    ):
        self.forward_lstm = LSTM(input_size, hidden_size, rng, num_layers)
        self.backward_lstm = LSTM(input_size, hidden_size, rng, num_layers)
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)

    @property
    def output_size(self) -> int:
        """Feature size of the concatenated output (2 * hidden)."""
        return 2 * self.hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        """Both directions per layer in one kernel node, then one merge node."""
        self.forward_lstm._validate(sequence)
        with obs.span("nn.forward"):
            out = sequence
            for forward_cell, backward_cell in zip(
                self.forward_lstm.cells, self.backward_lstm.cells, strict=True
            ):
                out = lstm_sequence(
                    out,
                    [forward_cell.weight, backward_cell.weight],
                    [forward_cell.bias, backward_cell.bias],
                    self.hidden_size,
                )
            return merge_directions(out)

    def forward_stepwise(self, sequence: Tensor) -> Tensor:
        """Per-step reference path: two stepwise stacks, flips and a concat."""
        forward_out = self.forward_lstm.forward_stepwise(sequence)
        backward_out = self.backward_lstm.forward_stepwise(sequence.flip(0)).flip(0)
        return concat([forward_out, backward_out], axis=-1)


class Sequential(Module):
    """Chain of modules applied in order (used for the dense heads)."""

    def __init__(self, *modules: Module):
        if not modules:
            raise ValueError("Sequential needs at least one module")
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

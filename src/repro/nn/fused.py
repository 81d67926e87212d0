"""Fused LSTM sequence kernel: one autograd node per layer pass.

The stepwise recurrent path builds ~15 graph nodes per timestep (slices,
matmuls, gate nonlinearities, state updates); at the GAN's scale the
Python/closure overhead of those nodes dominates the arithmetic.  The
kernel here runs a whole ``(T, B, in)`` sequence as **one** graph node,
for ``D`` stacked directions at once (``D = 1`` for :class:`LSTM`,
``D = 2`` for one :class:`BiLSTM` layer):

* the input-to-hidden projection is hoisted out of the time loop and
  computed for the entire sequence in one batched GEMM over the
  direction axis (it does not depend on the recurrent state);
* the per-step recurrence runs in plain numpy on ``(D, B, 4H)`` gates —
  one batched ``np.matmul`` per step for all directions — caching the
  activations needed by the hand-written BPTT backward (skipped entirely
  under :class:`~repro.nn.tensor.no_grad`);
* the backward pass is fully vectorised: the per-step gate deltas are
  accumulated into ``(D, T, B, ·)`` arrays and the weight/bias/input
  gradients fall out of three batched GEMMs.

**Bit-identity contract**: with the weights held in the cells' fused
layout, the kernel evaluates exactly the expression the (split-form)
stepwise cells evaluate, in the same floating-point order —
``(x_t @ W_x + b) + h @ W_h`` with the shared
:func:`~repro.nn.tensor._stable_sigmoid` — so fused and stepwise forward
outputs are identical in float64 (asserted in the test suite), not merely
close.  A GEMM over ``(T*B, in)`` rows equals per-step GEMMs over
``(B, in)`` rows because row-partitioned GEMMs do not change the BLAS
reduction order, and a matmul over a leading direction axis equals one
2-D GEMM per direction; both are tested, not assumed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor, _make_node, _stable_sigmoid, is_grad_enabled

__all__ = ["lstm_sequence", "merge_directions"]


def lstm_sequence(
    sequence: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    hidden_size: int,
) -> Tensor:
    """Run ``D`` stacked LSTM directions over a sequence as one autograd node.

    ``weights``/``biases`` hold one pair per direction in
    :class:`~repro.nn.layers.LSTMCell`'s fused layout — ``weight (in+H,
    4H)`` over ``[x, h]``, gate order ``i, f, g, o`` — and every direction
    starts from ``LSTMCell.initial_state``'s zero state.

    ``sequence`` is either ``(T, B, in)``, shared by the directions —
    direction 0 reads it in time order and direction 1 (``D = 2``)
    reversed — or ``(D, T, B, in)``, one input per direction, as this
    kernel returns it.  Returns the hidden outputs ``(D, T, B, H)``, each
    direction in the time order it read.
    """
    weights, biases = tuple(weights), tuple(biases)
    D = len(weights)
    X = sequence.data
    shared = X.ndim == 3
    if shared:
        if D not in (1, 2):
            raise ValueError(f"a shared input feeds 1 or 2 directions, got {D}")
        X = np.stack((X, X[::-1])[:D])
    elif X.shape[0] != D:
        raise ValueError(f"input holds {X.shape[0]} directions, weights {D}")
    _, T, B, In = X.shape
    H = int(hidden_size)
    W = np.stack([w.data for w in weights])
    b = np.stack([bias.data for bias in biases])
    w_x, w_h = W[:, :In], W[:, In:]

    # Input-to-hidden projection for the whole sequence: one GEMM per
    # direction, with the bias folded in by one batched add (elementwise,
    # so every per-step value matches the stepwise `x @ w_x + bias`).
    x_flat = X.reshape(D, T * B, In)
    xw = (x_flat @ w_x).reshape(D, T, B, 4 * H)
    xw += b[:, np.newaxis]

    track = is_grad_enabled() and any(
        t.requires_grad for t in (sequence, *weights, *biases)
    )
    outputs = np.empty((D, T, B, H), dtype=xw.dtype)
    h = np.zeros((D, B, H), dtype=xw.dtype)
    c = np.zeros((D, B, H), dtype=xw.dtype)
    if track:
        sig_gates = np.empty((D, T, B, 4 * H), dtype=xw.dtype)
        gates_g = np.empty((D, T, B, H), dtype=xw.dtype)
        tanh_cs = np.empty((D, T, B, H), dtype=xw.dtype)
        c_prevs = np.empty((D, T, B, H), dtype=xw.dtype)
        h_prevs = np.empty((D, T, B, H), dtype=xw.dtype)

    for t in range(T):
        gates = xw[:, t] + h @ w_h
        # One sigmoid pass over the whole gate block — i, f and o are the
        # columns that matter; the g columns come out wrong-activation and
        # are simply never read (at this scale per-call ufunc overhead
        # outweighs H wasted columns).  Elementwise, so each used column
        # is bit-identical to a per-gate application.
        sig = _stable_sigmoid(gates)
        i = sig[..., 0 * H : 1 * H]
        f = sig[..., 1 * H : 2 * H]
        o = sig[..., 3 * H : 4 * H]
        g = np.tanh(gates[..., 2 * H : 3 * H])
        if track:
            sig_gates[:, t] = sig
            gates_g[:, t] = g
            c_prevs[:, t] = c
            h_prevs[:, t] = h
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if track:
            tanh_cs[:, t] = tanh_c
        outputs[:, t] = h

    if not track:
        return Tensor._node(outputs)

    def backward(grad: np.ndarray) -> None:
        # The activation derivatives carry no recurrence — batch them over
        # the whole sequence so the per-step loop only runs the chain
        # recursion (the g columns of sig_d are never read, like sig's).
        sig_d = sig_gates * (1.0 - sig_gates)
        g_d = 1.0 - gates_g**2
        tanh_c_d = 1.0 - tanh_cs**2
        w_h_t = np.swapaxes(w_h, -1, -2)
        dh_next = np.zeros((D, B, H), dtype=outputs.dtype)
        dc_next = np.zeros((D, B, H), dtype=outputs.dtype)
        d_gates = np.empty((D, T, B, 4 * H), dtype=outputs.dtype)
        for t in range(T - 1, -1, -1):
            dh = grad[:, t] + dh_next
            sig = sig_gates[:, t]
            sd = sig_d[:, t]
            dc = dh * sig[..., 3 * H : 4 * H] * tanh_c_d[:, t] + dc_next
            d_gates[:, t, :, 0 * H : 1 * H] = (dc * gates_g[:, t]) * sd[..., 0 * H : 1 * H]
            d_gates[:, t, :, 1 * H : 2 * H] = (dc * c_prevs[:, t]) * sd[..., 1 * H : 2 * H]
            d_gates[:, t, :, 2 * H : 3 * H] = (dc * sig[..., 0 * H : 1 * H]) * g_d[:, t]
            d_gates[:, t, :, 3 * H : 4 * H] = (dh * tanh_cs[:, t]) * sd[..., 3 * H : 4 * H]
            dc_next = dc * sig[..., 1 * H : 2 * H]
            dh_next = d_gates[:, t] @ w_h_t
        d_flat = d_gates.reshape(D, T * B, 4 * H)
        if any(w.requires_grad for w in weights):
            d_weight = np.concatenate(
                (
                    np.swapaxes(x_flat, -1, -2) @ d_flat,
                    np.swapaxes(h_prevs.reshape(D, T * B, H), -1, -2) @ d_flat,
                ),
                axis=1,
            )
            for weight, d_w in zip(weights, d_weight, strict=True):
                weight._accumulate(d_w)
        if any(bias.requires_grad for bias in biases):
            d_bias = d_flat.sum(axis=1, keepdims=True)
            for bias, d_b in zip(biases, d_bias, strict=True):
                bias._accumulate(d_b)
        if sequence.requires_grad:
            d_x = (d_flat @ np.swapaxes(w_x, -1, -2)).reshape(D, T, B, In)
            if not shared:
                sequence._accumulate(d_x)
                return
            # The reversed direction's gradient first: the order in which
            # a time flip node ahead of it would have fired, which shows
            # in the last bit when the input already holds a gradient.
            if D == 2:
                sequence._accumulate(d_x[1, ::-1])
            sequence._accumulate(d_x[0])

    return _make_node(outputs, (sequence, *weights, *biases), backward)


def merge_directions(stacked: Tensor) -> Tensor:
    """Turn a two-direction ``(2, T, B, H)`` kernel output into ``(T, B, 2H)``.

    Direction 1 ran in reversed time; it is flipped back and concatenated
    after direction 0 — the Bi-LSTM's output, in one graph node.
    """
    S = stacked.data
    H = S.shape[-1]
    out_data = np.concatenate((S[0], S[1, ::-1]), axis=-1)

    def backward(grad: np.ndarray) -> None:
        d_stacked = np.empty_like(S)
        d_stacked[0] = grad[..., :H]
        d_stacked[1] = grad[::-1, :, H:]
        stacked._accumulate(d_stacked)

    return _make_node(out_data, (stacked,), backward)

"""Reverse-mode autograd over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied
to it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order, accumulating gradients into every tensor created with
``requires_grad=True``.  Broadcasting is fully supported: gradients are
summed back over broadcast dimensions (:func:`_unbroadcast`).

The op set is the minimum closed set needed to express Dense layers, LSTM
cells, softmax heads and the GAN losses — everything else in
:mod:`repro.nn` is built from these primitives, which is what makes the
numerical gradient checks in the test suite meaningful.

Fast-execution machinery (the per-op semantics are unchanged):

* :class:`no_grad` — a context manager under which no graph is recorded
  at all: results carry no ``_parents``/``_backward``/tape, so inference
  costs exactly the numpy forward work.
* **Tape-ordered backward** — every graph-producing op appends its result
  to a creation-order tape shared through its parents (two tapes are
  merged when an op first connects them).  Creation order *is* a
  topological order, so :meth:`Tensor.backward` replays the tape in
  reverse instead of re-deriving the ordering with a graph search on
  every call.  The tape holds *weak* references: every node points at
  its tape, so strong entries would make each graph a reference cycle
  that lives until a full garbage collection.  With weak entries a graph
  is freed by reference count as soon as its last tensor is dropped; a
  node that a backward needs is an ancestor of the root, kept alive
  through its children's ``_parents``.
* **Gradient-buffer reuse** — each tensor owns one persistent gradient
  buffer; accumulation writes ``+=`` into it and :meth:`zero_grad` only
  drops the ``grad`` reference (the buffer is kept and overwritten by the
  first accumulation of the next backward), eliminating the per-step
  ``grad + grad`` allocations.

Dtype: construction coerces non-float data to ``float64``; ``float32``
and ``float64`` arrays keep their dtype so a converted module (see
``Module.astype``) runs end-to-end in ``float32``.  Python scalars are
lifted to the other operand's dtype, so ``x * 0.5`` never silently
promotes a ``float32`` graph.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs

__all__ = ["Tensor", "concat", "stack", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Module-level grad mode: flipped (only) by the `no_grad` context manager.
_GRAD_ENABLED = True

# Monotonic backward-pass counter; tensors stamp it on accumulation so one
# backward never re-fires nodes left over from an earlier backward on a
# shared tape (see Tensor.backward).
_EPOCH = [0]


def is_grad_enabled() -> bool:
    """Whether ops currently record the autograd graph."""
    return _GRAD_ENABLED


class no_grad:
    """Context manager disabling graph construction entirely.

    Inside the block every op returns a plain constant tensor: no
    parents, no backward closure, no tape membership.  Used by the
    GAN inference paths (``InfoRnnGan.generate``,
    ``GanDemandPredictor.predict_next``, discriminator-only evaluation),
    where the seed implementation recorded a full backward graph it never
    used.  Re-entrant; restores the previous mode on exit.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    # Sum leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic, shared by the op and the fused kernels.

    The fused sequence kernels (:mod:`repro.nn.fused`) must reproduce the
    stepwise activations *bit for bit*, so there is exactly one sigmoid
    implementation in the package.
    """
    # One exp over exp(-|x|) covers both branches exactly: for x >= 0 the
    # value is 1/(1+exp(-x)) and for x < 0 it is exp(x)/(1+exp(x)), with
    # -|x| equal to -x resp. x in each branch.  ex lies in [0, 1], so
    # max(ex, x >= 0) is the numerator of either branch (1 resp. ex) and
    # one division replaces two plus a select; NaN still propagates.
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0) / (1.0 + ex)


class Tensor:
    """An autograd-tracked numpy array.

    Only float data participates in differentiation; construction coerces
    non-float input to ``float64`` (small models, exact gradcheck beats
    speed here) while ``float32``/``float64`` arrays keep their dtype.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_buffer",
        "_tape",
        "_visit",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ):
        if dtype is not None:
            self.data = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._grad_buffer: Optional[np.ndarray] = None
        self._tape: Optional[List["weakref.ref[Tensor]"]] = None
        self._visit = 0

    @classmethod
    def _node(cls, data: np.ndarray) -> "Tensor":
        """Fast constructor for op results (already-validated float arrays)."""
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out._grad_buffer = None
        out._tape = None
        out._visit = 0
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The scalar value; raises for non-scalars."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error() -> float:
        raise ValueError("item() only works on single-element tensors")

    def numpy(self) -> np.ndarray:
        """A copy of the underlying array (detached)."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A new tensor outside the graph, **sharing** the same array.

        The share is unconditional: ``t.detach().data is t.data`` always
        holds (no dtype round-trip through ``np.asarray`` that could
        silently copy), so detaching activations on the no-grad path is
        free.  Mutating the data of either tensor is visible in both —
        call :meth:`numpy` for an independent copy.
        """
        return Tensor._node(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #

    def _lift(self, value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        if isinstance(value, (int, float)):
            # Match the operand's dtype: a strong float64 0-d array would
            # promote a float32 graph under NEP 50 semantics.
            return Tensor._node(np.asarray(value, dtype=self.data.dtype))
        return Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        return _make_node(data, parents, backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        self._visit = _EPOCH[0]
        buffer = self._grad_buffer
        if buffer is None or buffer.shape != self.data.shape or buffer.dtype != self.data.dtype:
            buffer = self._grad_buffer = np.empty_like(self.data)
        if self.grad is None:
            # First accumulation since zero_grad: overwrite the (stale)
            # buffer contents in place instead of allocating a copy.
            np.copyto(buffer, grad)
            self.grad = buffer
        elif self.grad is buffer:
            buffer += grad
        else:
            # The caller installed a foreign array as .grad; preserve the
            # old out-of-place semantics for it.
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1 for scalars; non-scalar roots require an
        explicit output gradient.  The walk replays the creation-order
        tape in reverse from this tensor's position — creation order is a
        topological order, so no per-call graph search is needed.  Nodes
        are only fired if they accumulated a gradient *during this call*
        (epoch stamp), which keeps repeated backwards over shared tapes
        exactly equivalent to the old reachability-based walk.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        _EPOCH[0] += 1
        epoch = _EPOCH[0]
        self._accumulate(grad)
        tape = self._tape
        if tape is None:
            return
        with obs.span("nn.backward"):
            position = len(tape) - 1
            while tape[position]() is not self:
                position -= 1
            for index in range(position, -1, -1):
                # A dead entry was unreachable from this root: it could not
                # have accumulated a gradient in this pass.
                node = tape[index]()
                if (
                    node is not None
                    and node._visit == epoch
                    and node._backward is not None
                    and node.grad is not None
                ):
                    node._backward(node.grad)

    def zero_grad(self) -> None:
        """Clear this tensor's accumulated gradient.

        Only the ``grad`` reference is dropped; the owned buffer is kept
        and overwritten by the next accumulation (optimizers rely on
        ``grad is None`` to skip untouched parameters).
        """
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError(
                "matmul requires operands with ndim >= 2 "
                "(reshape vectors to (1, n) / (n, 1) first)"
            )
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shaping
    # ------------------------------------------------------------------ #

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def flip(self, axis: int = 0) -> "Tensor":
        """Reverse along ``axis`` (time reversal of the backward RNN pass)."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(None, None, -1)
        index = tuple(index)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[index])

        return self._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def clip_min(self, low: float) -> "Tensor":
        """Clamp below at ``low`` (gradient passes only where unclipped)."""
        mask = self.data > low
        out_data = np.maximum(self.data, low)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)


def _make_node(
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Create an op-result node, wiring it into the graph and tape.

    Under :class:`no_grad` — or when no parent requires a gradient — the
    result is a plain constant tensor.  Otherwise the node joins the tape
    shared through its parents; two distinct tapes can have no cross
    edges (the op connecting them is by definition the first such edge),
    so merging by concatenation preserves topological order.  Merging
    drops the entries of nodes that are already dead.
    """
    out = Tensor._node(data)
    if not _GRAD_ENABLED or not any(p.requires_grad for p in parents):
        return out
    tape: Optional[List["weakref.ref[Tensor]"]] = None
    for parent in parents:
        parent_tape = parent._tape
        if parent_tape is None or parent_tape is tape:
            continue
        if tape is None:
            tape = parent_tape
            continue
        for entry in parent_tape:
            node = entry()
            if node is not None:
                node._tape = tape
                tape.append(entry)
    if tape is None:
        tape = []
    out.requires_grad = True
    out._parents = parents
    out._backward = backward
    out._tape = tape
    tape.append(weakref.ref(out))
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (used to merge Bi-LSTM directions)."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    tensors = tuple(tensors)
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:], strict=True):
            index: List[slice] = [slice(None)] * grad.ndim
            index[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(index)])

    return _make_node(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (used to collect LSTM timesteps)."""
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    tensors = tuple(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices, strict=True):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return _make_node(out_data, tensors, backward)

"""Property-based gradient checks over random shapes and expressions.

The per-op gradchecks in test_nn_tensor.py use fixed shapes; here
hypothesis drives random (small) shapes and random expression choices so
the autograd engine's broadcasting and graph handling are probed more
broadly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.functional import log_softmax, softmax, softplus
from repro.nn.tensor import Tensor, concat
from tests.gradcheck_util import gradcheck

dims = st.integers(min_value=1, max_value=4)


def make_param(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


class TestRandomShapes:
    @given(dims, dims, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_add_mul_broadcast_rows(self, rows, cols, seed):
        a = make_param((rows, cols), seed)
        b = make_param((1, cols), seed + 1)
        gradcheck(lambda: ((a + b) * (a - b)).sum(), [a, b])

    @given(dims, dims, dims, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_matmul_chain(self, i, j, k, seed):
        a = make_param((i, j), seed)
        b = make_param((j, k), seed + 1)
        gradcheck(lambda: ((a @ b).tanh() ** 2).sum(), [a, b])

    @given(dims, dims, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_softmax_composition(self, rows, cols, seed):
        x = make_param((rows, cols), seed)
        gradcheck(lambda: (softmax(x) * log_softmax(x)).sum(), [x], rtol=1e-3)

    @given(dims, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_concat_of_three(self, cols, seed):
        parts = [make_param((2, cols), seed + i) for i in range(3)]
        gradcheck(
            lambda: (concat(parts, axis=1).sigmoid() ** 2).sum(), parts
        )

    @given(dims, dims, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_softplus_mean_reduction(self, rows, cols, seed):
        x = make_param((rows, cols), seed)
        gradcheck(lambda: softplus(x).mean(axis=0).sum(), [x])

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_reused_node_grads_accumulate_correctly(self, n, seed):
        """A node feeding multiple consumers must sum its gradients."""
        x = make_param((n,), seed)
        gradcheck(lambda: (x * x + x.tanh() * x + x.exp()).sum(), [x], rtol=1e-3)

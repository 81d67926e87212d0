"""Tests for the autograd Tensor: op semantics and gradient correctness."""

import numpy as np
import pytest

from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import Tensor, _stable_sigmoid, concat, stack


def param(shape, seed=0, scale=1.0, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, scale, size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestForwardSemantics:
    def test_add_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        np.testing.assert_array_equal((a + b).data, [[11, 22], [13, 24]])

    def test_scalar_ops(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a * 3).data, [3, 6])
        np.testing.assert_array_equal((1 - a).data, [0, -1])
        np.testing.assert_array_equal((a / 2).data, [0.5, 1.0])
        np.testing.assert_array_equal((6 / a).data, [6.0, 3.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert (a @ b).data.item() == 11.0

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="ndim >= 2"):
            Tensor([1.0, 2.0]) @ Tensor([3.0, 4.0])

    def test_mean_and_sum(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10.0
        assert a.mean().item() == 2.5
        np.testing.assert_array_equal(a.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_array_equal(a.mean(axis=1).data, [1.5, 3.5])

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_backward_requires_scalar_or_grad(self):
        t = param((3,))
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_backward_grad_shape_checked(self):
        t = param((3,))
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones((2,)))

    def test_detach_stops_gradient(self):
        t = param((2,))
        out = (t.detach() * 3).sum()
        assert not out.requires_grad

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            param((2,)) ** param((2,))  # type: ignore[operator]

    def test_getitem(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(a[0].data, [1, 2, 3])
        np.testing.assert_array_equal(a[:, 1:].data, [[2, 3], [5, 6]])

    def test_concat_and_stack(self):
        a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(concat([a, b], axis=1).data, [[1, 3], [2, 4]])
        np.testing.assert_array_equal(stack([a, b], axis=0).data, [[[1], [2]], [[3], [4]]])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            concat([])
        with pytest.raises(ValueError):
            stack([])

    def test_zero_grad(self):
        t = param((2,))
        (t.sum()).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_gradient_accumulates_across_backwards(self):
        t = param((2,))
        t.sum().backward()
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0])


class TestStableSigmoid:
    """The one-division sigmoid reproduces the two-branch formula bit for bit."""

    @staticmethod
    def two_branch(x):
        ex = np.exp(-np.abs(x))
        denominator = 1.0 + ex
        return np.where(x >= 0, 1.0 / denominator, ex / denominator)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_match_the_two_branch_formula(self, dtype):
        info = np.finfo(dtype)
        edges = [
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
            info.smallest_subnormal, -info.smallest_subnormal,
            info.smallest_normal, -info.smallest_normal,
            info.max, -info.max, 1.0, -1.0, 36.0, -36.0, 104.0, -104.0,
            745.0, -745.0,
        ]
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [
                np.array(edges, dtype=dtype),
                (rng.standard_normal(20_000) * 30.0).astype(dtype),
                rng.uniform(-1e-6, 1e-6, 2_000).astype(dtype),
            ]
        ).reshape(2, -1)
        expected, got = self.two_branch(x), _stable_sigmoid(x)
        assert got.dtype == dtype
        bits = np.uint64 if dtype == np.float64 else np.uint32
        np.testing.assert_array_equal(got.view(bits), expected.view(bits))
        assert np.isnan(got[0, 4]) and np.isnan(got[0, 5])


class TestSimpleGradients:
    def test_add_same_tensor_twice(self):
        t = param((3,))
        (t + t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * np.ones(3))

    def test_chain_rule_value(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + 3.0 * x).sum()  # dy/dx = 2x + 3 = 7
        y.backward()
        assert x.grad.item() == pytest.approx(7.0)


class TestGradcheckOps:
    """Each primitive op checked against central differences."""

    def test_add(self):
        a, b = param((3, 2), 1), param((3, 2), 2)
        gradcheck(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast(self):
        a, b = param((3, 2), 1), param((2,), 2)
        gradcheck(lambda: (a + b).sum(), [a, b])

    def test_mul(self):
        a, b = param((2, 3), 1), param((2, 3), 2)
        gradcheck(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast(self):
        a, b = param((2, 3), 1), param((1, 3), 2)
        gradcheck(lambda: (a * b).sum(), [a, b])

    def test_div(self):
        a, b = param((2, 2), 1), param((2, 2), 2, positive=True)
        gradcheck(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        a = param((3,), 1, positive=True)
        gradcheck(lambda: (a**3).sum(), [a])

    def test_matmul(self):
        a, b = param((2, 3), 1), param((3, 4), 2)
        gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self):
        a, b = param((4, 2, 3), 1), param((4, 3, 2), 2)
        gradcheck(lambda: (a @ b).sum(), [a, b])

    def test_sum_axis(self):
        a = param((3, 4), 1)
        gradcheck(lambda: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean_axis(self):
        a = param((3, 4), 1)
        gradcheck(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_reshape(self):
        a = param((2, 6), 1)
        gradcheck(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose(self):
        a = param((2, 3, 4), 1)
        gradcheck(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_getitem_row(self):
        a = param((4, 3), 1)
        gradcheck(lambda: (a[1] ** 2).sum(), [a])

    def test_getitem_slice(self):
        a = param((4, 6), 1)
        gradcheck(lambda: (a[:, 2:5] ** 2).sum(), [a])

    def test_exp(self):
        a = param((3,), 1)
        gradcheck(lambda: a.exp().sum(), [a])

    def test_log(self):
        a = param((3,), 1, positive=True)
        gradcheck(lambda: a.log().sum(), [a])

    def test_tanh(self):
        a = param((3, 3), 1)
        gradcheck(lambda: (a.tanh() ** 2).sum(), [a])

    def test_sigmoid(self):
        a = param((3, 3), 1)
        gradcheck(lambda: (a.sigmoid() ** 2).sum(), [a])

    def test_relu(self):
        # Keep values away from the kink for finite differences.
        a = Tensor([[1.0, -2.0], [3.0, -0.5]], requires_grad=True)
        gradcheck(lambda: (a.relu() * 2).sum(), [a])

    def test_clip_min(self):
        a = Tensor([[1.0, -2.0], [3.0, -0.5]], requires_grad=True)
        gradcheck(lambda: (a.clip_min(0.1) ** 2).sum(), [a])

    def test_concat(self):
        a, b = param((2, 3), 1), param((2, 2), 2)
        gradcheck(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a, b = param((2, 3), 1), param((2, 3), 2)
        gradcheck(lambda: (stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_neg_sub(self):
        a, b = param((2, 2), 1), param((2, 2), 2)
        gradcheck(lambda: (a - b).sum(), [a, b])

    def test_deep_composition(self):
        """A multi-op expression exercising reuse of intermediate nodes."""
        a, b = param((2, 3), 1), param((3, 2), 2)
        def f():
            h = (a @ b).tanh()
            return ((h * h).sum(axis=1) + h.sigmoid().sum(axis=1)).sum()
        gradcheck(f, [a, b])

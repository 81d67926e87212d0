"""Tests for the fast NN execution path.

Covers the contracts the fused sequence kernels, the ``no_grad`` mode and
the gradient-buffer reuse must uphold:

* fused LSTM/Bi-LSTM forward outputs are **bit-identical**
  (``array_equal``, not ``allclose``) to the per-step cell path in
  float64, and a matmul over the kernel's leading direction axis gives
  the bits of one 2-D GEMM per direction;
* fused backward matches the per-step autograd gradients and numerical
  central differences (gradcheck);
* ``no_grad()`` produces graph-free tensors (no ``_parents`` /
  ``_backward`` / tape) and restores recording on exit, even on error;
* ``detach()`` shares the underlying array (explicit data-sharing
  contract) while cutting the graph;
* the creation-order tape fires each node at most once per backward and
  never re-fires nodes of an earlier backward sharing the same tape, and
  a graph is freed by reference count, without the garbage collector;
* the float32 opt-in propagates through modules (and through a
  checkpoint resume) while gradcheck stays float64-only.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import LSTM, BiLSTM, fused, is_grad_enabled, no_grad, tensor
from repro.nn.layers import LSTMCell
from repro.nn.tensor import Tensor
from tests.gradcheck_util import gradcheck


def _sequence(seed, shape=(7, 3, 4)):
    return np.random.default_rng(seed).normal(size=shape)


RNN_FACTORIES = {
    "lstm": lambda rng: LSTM(4, 5, rng, num_layers=2),
    "bilstm": lambda rng: BiLSTM(4, 5, rng, num_layers=2),
}


class TestFusedBitIdentity:
    @pytest.mark.parametrize("kind", sorted(RNN_FACTORIES))
    def test_forward_bit_identical_to_stepwise(self, kind):
        model = RNN_FACTORIES[kind](np.random.default_rng(0))
        x = _sequence(1)
        fused_out = model(Tensor(x))
        stepwise_out = model.forward_stepwise(Tensor(x))
        assert fused_out.data.dtype == np.float64
        assert np.array_equal(fused_out.data, stepwise_out.data)

    @pytest.mark.parametrize("kind", sorted(RNN_FACTORIES))
    def test_backward_matches_stepwise(self, kind):
        model = RNN_FACTORIES[kind](np.random.default_rng(2))
        x = _sequence(3)

        def grads(forward):
            for p in model.parameters():
                p.grad = None
            inp = Tensor(x, requires_grad=True)
            (forward(inp) ** 2).sum().backward()
            return [p.grad.copy() for p in model.parameters()] + [inp.grad.copy()]

        for fused_grad, step_grad in zip(
            grads(model), grads(model.forward_stepwise), strict=True
        ):
            np.testing.assert_allclose(fused_grad, step_grad, rtol=1e-9, atol=1e-12)

    def test_bilstm_layer_is_one_node(self):
        model = BiLSTM(4, 5, np.random.default_rng(22), num_layers=2)
        out = model(Tensor(_sequence(23), requires_grad=True))
        # One two-direction kernel node per layer, then the merge node.
        assert len(out._tape) == 3


class TestDirectionAxisMatmul:
    """A matmul over a leading axis of 2 equals two 2-D GEMMs, bit for bit.

    These are the products the kernel batches over its direction axis, at
    the GAN's shapes, including the transposed operands of the backward.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [16, 60])
    @pytest.mark.parametrize("features", [1, 8, 10, 20])
    def test_batched_products_equal_per_direction_gemms(self, dtype, batch, features):
        rng = np.random.default_rng(batch + features)
        window, hidden = 6, 10
        weight = rng.normal(size=(2, features + hidden, 4 * hidden)).astype(dtype)
        w_x, w_h = weight[:, :features], weight[:, features:]
        x = rng.normal(size=(2, window * batch, features)).astype(dtype)
        h = rng.normal(size=(2, batch, hidden)).astype(dtype)
        h_prevs = rng.normal(size=(2, window * batch, hidden)).astype(dtype)
        d_gates = rng.normal(size=(2, window, batch, 4 * hidden)).astype(dtype)
        d_flat = d_gates.reshape(2, window * batch, 4 * hidden)
        pairs = [
            (x, w_x),
            (h, w_h),
            (d_gates[:, 2], np.swapaxes(w_h, -1, -2)),
            (d_flat, np.swapaxes(w_x, -1, -2)),
            (np.swapaxes(x, -1, -2), d_flat),
            (np.swapaxes(h_prevs, -1, -2), d_flat),
        ]
        for left, right in pairs:
            batched = left @ right
            for direction in range(2):
                assert np.array_equal(batched[direction], left[direction] @ right[direction])


class TestFusedGradcheck:
    def test_lstm_sequence_gradcheck(self):
        model = LSTM(3, 4, np.random.default_rng(4))
        x = Tensor(_sequence(5, (5, 2, 3)))

        def f():
            return (model(x) ** 2).sum()

        gradcheck(f, model.parameters(), rtol=1e-3)

    def test_bilstm_gradcheck_with_input(self):
        model = BiLSTM(3, 4, np.random.default_rng(6), num_layers=2)
        x = Tensor(_sequence(7, (5, 2, 3)), requires_grad=True)

        def f():
            return (model(x) ** 2).sum()

        gradcheck(f, model.parameters() + [x], rtol=1e-3)

    def test_gradient_flows_to_input_sequence(self):
        model = LSTM(3, 4, np.random.default_rng(8))
        x = Tensor(_sequence(9, (4, 2, 3)), requires_grad=True)
        (model(x) ** 2).sum().backward()
        assert x.grad is not None
        assert x.grad.shape == x.data.shape
        assert np.any(x.grad != 0)


class TestNoGrad:
    def test_no_graph_recorded(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = (a * 3.0).sum()
        assert out._parents == ()
        assert out._backward is None
        assert out._tape is None
        assert not out.requires_grad

    def test_rnn_inference_graph_free(self):
        model = LSTM(4, 5, np.random.default_rng(10))
        with no_grad():
            out = model(Tensor(_sequence(11)))
        assert out._parents == ()
        assert out._backward is None

    def test_mode_restored_on_exit_and_error(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_matches_recorded_forward(self):
        model = LSTM(4, 5, np.random.default_rng(12))
        x = _sequence(13)
        recorded = model(Tensor(x))
        with no_grad():
            plain = model(Tensor(x))
        assert np.array_equal(recorded.data, plain.data)


class TestDetach:
    def test_shares_data(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        d = (t * 2.0).detach()
        assert d.data is not t.data  # detached from the *product* tensor
        product = t * 2.0
        assert product.detach().data is product.data

    def test_cuts_gradient_flow(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.detach() * 5.0).sum().backward()
        assert t.grad is None
        ((t * 1.0).detach() + t).sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones(3))


class TestTapeSemantics:
    def test_repeated_backward_accumulates(self):
        t = Tensor(np.ones(4), requires_grad=True)
        t.sum().backward()
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, 2.0 * np.ones(4))

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a * b).backward()  # d/dt (12 t^2) = 24 t = 48
        np.testing.assert_allclose(t.grad, [48.0])

    def test_shared_tape_does_not_refire_stale_nodes(self):
        # Two independent losses recorded on the same creation-order tape:
        # backward through the second must not re-fire the first loss's
        # nodes (which still hold their accumulated grads).
        x = Tensor(np.ones(3), requires_grad=True)
        first = (x * 2.0).sum()
        second = (x * 3.0).sum()
        first.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))
        second.backward()
        # 2 + 3, not 2 + 2 + 3 (a re-fire of `first` would add 2 again).
        np.testing.assert_array_equal(x.grad, 5.0 * np.ones(3))

    def test_grad_buffer_reused_across_zero_grad(self):
        from repro.nn import Sgd

        t = Tensor(np.ones(4), requires_grad=True)
        opt = Sgd([t], lr=0.1)
        t.sum().backward()
        buffer = t._grad_buffer
        assert t.grad is buffer
        opt.zero_grad()
        assert t.grad is None  # optimizer skip semantics preserved
        (t * 2.0).sum().backward()
        assert t.grad is buffer  # same storage, no reallocation
        np.testing.assert_array_equal(t.grad, 2.0 * np.ones(4))


class TestGraphLifetime:
    def test_train_step_graph_freed_without_gc(self, monkeypatch):
        from repro.gan import InfoRnnGan

        gan = InfoRnnGan(code_dim=2, rng=np.random.default_rng(24), hidden_size=5)
        rng = np.random.default_rng(25)
        real = rng.uniform(1.0, 2.0, size=(6, 4, 1))
        conditioning = rng.uniform(1.0, 2.0, size=(6, 4, 1))
        codes = np.eye(2)[rng.integers(0, 2, size=4)]
        nodes = []
        make_node = tensor._make_node

        def recording(*args):
            out = make_node(*args)
            if out.requires_grad:
                nodes.append(weakref.ref(out))
            return out

        monkeypatch.setattr(tensor, "_make_node", recording)
        monkeypatch.setattr(fused, "_make_node", recording)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gan.train_step(real, conditioning, codes)
            live = sum(ref() is not None for ref in nodes)
        finally:
            if was_enabled:
                gc.enable()
        assert nodes
        assert live == 0


class TestFloat32Path:
    def test_module_astype_converts_parameters(self):
        model = LSTM(4, 5, np.random.default_rng(14)).astype(np.float32)
        assert model.dtype == np.float32
        out = model(Tensor(_sequence(15), dtype=np.float32))
        assert out.data.dtype == np.float32

    def test_cells_preserve_float32(self):
        lstm_cell = LSTMCell(3, 4, np.random.default_rng(16)).astype(np.float32)
        state = lstm_cell.initial_state(2)
        h2, c2 = lstm_cell(Tensor(np.ones((2, 3), dtype=np.float32)), state)
        assert h2.data.dtype == np.float32 and c2.data.dtype == np.float32

    def test_scalar_arithmetic_stays_float32(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert ((t * 2.0 + 1.0) / 3.0).data.dtype == np.float32

    def test_gan_trains_in_float32(self):
        from repro.gan import InfoRnnGan

        gan = InfoRnnGan(code_dim=2, rng=np.random.default_rng(18), dtype="float32")
        rng = np.random.default_rng(19)
        real = rng.uniform(1.0, 2.0, size=(6, 3, 1))
        conditioning = rng.uniform(1.0, 2.0, size=(6, 3, 1))
        codes = np.eye(2)[rng.integers(0, 2, size=3)]
        losses = gan.train_step(real, conditioning, codes)
        assert np.isfinite(losses.generator_total)
        assert np.isfinite(losses.discriminator)
        assert gan.generator.dtype == np.float32
        sample = gan.generate(codes, conditioning, n_samples=2)
        assert sample.dtype == np.float32

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        from repro.gan import InfoRnnGan
        from repro.state import load_checkpoint, save_checkpoint

        def make():
            return InfoRnnGan(code_dim=2, rng=np.random.default_rng(26), dtype="float32")

        rng = np.random.default_rng(27)
        batches = [
            (
                rng.uniform(1.0, 2.0, size=(6, 3, 1)),
                rng.uniform(1.0, 2.0, size=(6, 3, 1)),
                np.eye(2)[rng.integers(0, 2, size=3)],
            )
            for _ in range(2)
        ]
        uninterrupted = make()
        uninterrupted.train_step(*batches[0])
        path = save_checkpoint(tmp_path / "gan.npz", uninterrupted.state_dict(), kind="gan")
        resumed = make()
        resumed.load_state_dict(load_checkpoint(path, kind="gan")[0])
        uninterrupted.train_step(*batches[1])
        resumed.train_step(*batches[1])
        for module in ("generator", "discriminator", "q_head"):
            for a, b in zip(
                getattr(uninterrupted, module).parameters(),
                getattr(resumed, module).parameters(),
                strict=True,
            ):
                assert b.data.dtype == np.float32
                assert np.array_equal(a.data, b.data)

    def test_optimizer_slots_load_in_parameter_dtype(self):
        from repro.nn import Adam, Sgd

        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        adam, sgd = Adam([t]), Sgd([t], momentum=0.5)
        adam.load_state_dict({"t": 1, "m": [np.ones(3)], "v": [np.ones(3)]})
        sgd.load_state_dict({"velocity": [np.ones(3)]})
        assert adam.state_dict()["m"][0].dtype == np.float32
        assert adam.state_dict()["v"][0].dtype == np.float32
        assert sgd.state_dict()["velocity"][0].dtype == np.float32

    def test_gradcheck_rejects_float32(self):
        model = LSTM(3, 4, np.random.default_rng(20)).astype(np.float32)
        x = Tensor(_sequence(21, (4, 2, 3)), dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            gradcheck(lambda: (model(x) ** 2).sum(), model.parameters())

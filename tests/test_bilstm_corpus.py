"""Differential test of the Bi-LSTM and the GAN against a recorded corpus.

``bilstm_corpus.npz`` was recorded by the Bi-LSTM that ran its two
directions as two separate LSTM stacks, with time flips and a concat
between them.  It holds, at the GAN's shapes (window 6, hidden 10, two
layers, batch 16 or 60, input width 1 or 8):

* the Bi-LSTM's output, every parameter gradient and the input gradient
  of one backward pass.  The input also feeds a second term recorded
  after the Bi-LSTM, so its gradient arrives in three parts and the
  order in which they are summed shows in the last bit;
* every generator, discriminator and Q-head weight of a
  ``GanDemandPredictor`` after a short seeded pretraining and two online
  steps, and its next forecast.

The current code must reproduce every array bit for bit.  Running this
file as a script re-records the corpus from the current code.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.gan import GanDemandPredictor
from repro.nn import BiLSTM, Tensor

CORPUS = Path(__file__).resolve().parent / "bilstm_corpus.npz"
WINDOW = 6
HIDDEN = 10
SHAPES = [(batch, features) for batch in (16, 60) for features in (1, 8)]


def bilstm_case(batch, features):
    """One seeded forward/backward through a two-layer Bi-LSTM."""
    seed = 100 * batch + features
    model = BiLSTM(features, HIDDEN, np.random.default_rng(seed), num_layers=2)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.normal(size=(WINDOW, batch, features)), requires_grad=True)
    out = model(x)
    upstream = rng.normal(size=out.shape)
    ((out * upstream).sum() + (x * x).sum()).backward()
    arrays = {"output": out.data, "input_grad": x.grad}
    for index, p in enumerate(model.parameters()):
        arrays[f"grad{index}"] = p.grad
    return arrays


def predictor_case():
    """A short seeded pretraining plus two online steps of the GAN."""
    rng = np.random.default_rng(7)
    n_requests, n_hotspots = 24, 3
    codes = np.eye(n_hotspots)[rng.integers(0, n_hotspots, size=n_requests)]
    history = rng.gamma(2.0, 1.5, size=(16, n_requests))
    predictor = GanDemandPredictor(
        codes,
        np.random.default_rng(8),
        window=WINDOW,
        hidden_size=HIDDEN,
        warmup_history=history[:14],
        pretrain_epochs=2,
        online_steps=1,
        supervised_quantile=0.7,
    )
    for row in history[14:]:
        predictor.observe(row)
    model = predictor.model
    arrays = {"forecast": predictor.predict_next()}
    for name, module in (
        ("generator", model.generator),
        ("discriminator", model.discriminator),
        ("q_head", model.q_head),
    ):
        for index, p in enumerate(module.parameters()):
            arrays[f"{name}{index}"] = p.data
    return arrays


def all_cases():
    cases = {f"bilstm_b{b}_in{f}": bilstm_case(b, f) for b, f in SHAPES}
    cases["predictor"] = predictor_case()
    return cases


def record(path=CORPUS):
    arrays = {
        f"{case}/{name}": value
        for case, values in all_cases().items()
        for name, value in values.items()
    }
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def corpus():
    with np.load(CORPUS) as data:
        return {name: data[name] for name in data.files}


@pytest.mark.parametrize("batch, features", SHAPES)
def test_bilstm_matches_corpus(corpus, batch, features):
    case = f"bilstm_b{batch}_in{features}"
    arrays = bilstm_case(batch, features)
    assert sorted(arrays) == sorted(
        name.split("/", 1)[1] for name in corpus if name.startswith(case + "/")
    )
    for name, value in arrays.items():
        np.testing.assert_array_equal(value, corpus[f"{case}/{name}"], err_msg=name)


def test_predictor_matches_corpus(corpus):
    arrays = predictor_case()
    assert sorted(arrays) == sorted(
        name.split("/", 1)[1] for name in corpus if name.startswith("predictor/")
    )
    for name, value in arrays.items():
        np.testing.assert_array_equal(value, corpus[f"predictor/{name}"], err_msg=name)


if __name__ == "__main__":
    record()

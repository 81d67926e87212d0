"""A from-scratch numpy neural-network framework with reverse-mode autograd.

No deep-learning framework is available in this environment, so the
Info-RNN-GAN of paper §V is built on this package: a :class:`Tensor` with
reverse-mode automatic differentiation, Dense / LSTM / Bi-LSTM layers
(§V-B: "generator G adopts a Bi-LSTM", "discriminator uses a two-layer
Bi-LSTM") with a fused sequence kernel that runs both directions of a
Bi-LSTM layer as one graph node, SGD/Adam optimisers and the GAN losses.  Gradients are verified
against numerical differentiation in the test suite (see
:mod:`repro.nn.gradcheck`).
"""

from repro.nn.functional import (
    binary_cross_entropy,
    categorical_cross_entropy,
    log_softmax,
    mse,
    softmax,
    softplus,
)
from repro.nn.fused import lstm_sequence
from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.layers import BiLSTM, Dense, LSTM, LSTMCell, Module, Sequential
from repro.nn.optim import Adam, Optimizer, Sgd
from repro.nn.serialize import (
    load_module_state_dict,
    load_parameters,
    module_state_dict,
    parameters_equal,
    save_parameters,
)
from repro.nn.tensor import Tensor, concat, is_grad_enabled, no_grad, stack

__all__ = [
    "binary_cross_entropy",
    "categorical_cross_entropy",
    "log_softmax",
    "mse",
    "softmax",
    "softplus",
    "lstm_sequence",
    "gradcheck",
    "numerical_gradient",
    "BiLSTM",
    "Dense",
    "LSTM",
    "LSTMCell",
    "Module",
    "Sequential",
    "Adam",
    "Optimizer",
    "Sgd",
    "save_parameters",
    "load_parameters",
    "parameters_equal",
    "module_state_dict",
    "load_module_state_dict",
    "Tensor",
    "concat",
    "is_grad_enabled",
    "no_grad",
    "stack",
]

"""NumPy neural-network substrate (the CNTK stand-in, §7/§8.3)."""

from .layers import Conv2D, Dense, Flatten, Layer, ReLU
from .lstm import LSTMClassifier
from .network import Sequential, softmax_cross_entropy
from .training import (
    make_cnn_lite,
    make_eval_fn,
    make_grad_fn,
    make_lstm,
    make_mlp,
    make_sequence_eval_fn,
    make_sequence_grad_fn,
)

__all__ = [
    "Conv2D",
    "Dense",
    "Flatten",
    "Layer",
    "ReLU",
    "LSTMClassifier",
    "Sequential",
    "softmax_cross_entropy",
    "make_cnn_lite",
    "make_eval_fn",
    "make_grad_fn",
    "make_lstm",
    "make_mlp",
    "make_sequence_eval_fn",
    "make_sequence_grad_fn",
]

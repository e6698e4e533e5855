"""The ``out=`` buffer of ``batch_loss_and_gradient``.

Callers that replay many slices (the coded protocols' partial-gradient
pass) hand the batched kernels their own ``(j, num_parameters)`` matrix to
write into.  Every model's kernel — the stacked override and the generic
per-slice loop that ``force_generic_kernels`` pins — must then return that
very buffer, overwrite every element of it, and produce bit-identically
what the allocating call produces.  A buffer the kernels cannot write
through row views is rejected by name.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.learning.datasets import (
    make_blobs,
    make_image_classification,
    make_linear_regression,
)
from repro.learning.models import (
    LinearRegressionModel,
    MLPClassifier,
    SimpleCNN,
    SoftmaxClassifier,
    force_generic_kernels,
)
from repro.learning.models.base import ModelError

SLICES, CHUNK = 3, 8


def _stack(dataset):
    count = SLICES * CHUNK
    features = dataset.features[:count]
    labels = dataset.labels[:count]
    return (
        features.reshape(SLICES, CHUNK, *features.shape[1:]),
        labels.reshape(SLICES, CHUNK),
    )


def _blobs():
    return make_blobs(
        num_samples=SLICES * CHUNK, num_features=6, num_classes=3, rng=0
    )


def _softmax():
    return SoftmaxClassifier(6, 3, rng=1), _stack(_blobs())


def _mlp_no_hidden():
    return MLPClassifier(6, 3, hidden_sizes=(), rng=1), _stack(_blobs())


def _mlp_relu():
    return MLPClassifier(6, 3, hidden_sizes=(5,), rng=1), _stack(_blobs())


def _mlp_tanh_deep():
    model = MLPClassifier(6, 3, hidden_sizes=(5, 4), activation="tanh", rng=1)
    return model, _stack(_blobs())


def _cnn():
    dataset = make_image_classification(
        num_samples=SLICES * CHUNK, image_size=6, channels=2, num_classes=3, rng=0
    )
    model = SimpleCNN(image_size=6, channels=2, num_classes=3, num_filters=2, rng=1)
    return model, _stack(dataset)


def _linear():
    dataset = make_linear_regression(
        num_samples=SLICES * CHUNK, num_features=5, rng=0
    )
    return LinearRegressionModel(5, rng=1), _stack(dataset)


MODELS = [
    pytest.param(_softmax, id="softmax"),
    pytest.param(_mlp_no_hidden, id="mlp-hidden0"),
    pytest.param(_mlp_relu, id="mlp-relu"),
    pytest.param(_mlp_tanh_deep, id="mlp-tanh-hidden2"),
    pytest.param(_cnn, id="cnn"),
    pytest.param(_linear, id="linear"),
]

KERNELS = [
    pytest.param(contextlib.nullcontext, id="stacked"),
    pytest.param(force_generic_kernels, id="generic"),
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("make", MODELS)
def test_out_is_filled_and_returned(make, kernel):
    model, (features, labels) = make()
    with kernel():
        expected_losses, expected_gradients = model.batch_loss_and_gradient(
            features, labels
        )
        # NaN everywhere: any element the kernel skipped would survive.
        out = np.full((SLICES, model.num_parameters), np.nan)
        losses, gradients = model.batch_loss_and_gradient(features, labels, out=out)
    assert gradients is out
    assert np.array_equal(losses, expected_losses)
    assert np.array_equal(gradients, expected_gradients)


def _wrong_shape(num_parameters):
    return np.empty((SLICES + 1, num_parameters))


def _float32(num_parameters):
    return np.empty((SLICES, num_parameters), dtype=np.float32)


def _fortran_order(num_parameters):
    return np.empty((SLICES, num_parameters), order="F")


def _nested_list(num_parameters):
    return [[0.0] * num_parameters for _ in range(SLICES)]


@pytest.mark.parametrize(
    "make_out", [_wrong_shape, _float32, _fortran_order, _nested_list]
)
@pytest.mark.parametrize("make", MODELS)
def test_unwritable_out_is_rejected(make, make_out):
    model, (features, labels) = make()
    out = make_out(model.num_parameters)
    with pytest.raises(ModelError, match="out must be a C-contiguous float64"):
        model.batch_loss_and_gradient(features, labels, out=out)

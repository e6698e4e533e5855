"""Multinomial logistic regression (softmax classifier) on flat features.

This is the smallest classification model in the substrate and the default
for fast experiments: a single affine map followed by softmax cross-entropy.
"""

from __future__ import annotations

import numpy as np

from ..losses import cross_entropy_loss, softmax, stacked_cross_entropy_loss
from .base import Model, ModelError, NDArray, ParameterLayout, generic_kernels_forced

__all__ = ["SoftmaxClassifier"]


def _stacked_softmax_kernel(
    features: NDArray,
    labels: NDArray,
    weights: NDArray,
    bias: NDArray,
    out: NDArray | None = None,
) -> tuple[NDArray, NDArray]:
    """Shared stacked softmax cross-entropy kernel.

    ``features`` is ``(j, n, d)`` and ``labels`` ``(j, n)``; ``weights`` is
    either one shared ``(d, c)`` matrix (the many-slices/one-parameter-vector
    case, broadcast over the slice axis) or a ``(j, d, c)`` stack (one
    parameter vector per slice), with ``bias`` broadcast to match.  The cross-entropy math lives in
    :func:`repro.learning.losses.stacked_cross_entropy_loss` (shared with
    the MLP/CNN kernels) and the reductions run along the same axes as
    the per-slice ``loss_and_gradient`` path, so the results are
    **bit-identical** to looping it — both stacked entry points share this
    one kernel precisely so a numerical fix here cannot desynchronise them.

    The weight/bias gradient blocks are written straight into the flat
    ``(j, num_parameters)`` output (``out`` when given) through strided
    views, skipping the allocate-then-concatenate pass.
    """
    num_slices = features.shape[0]
    logits = np.matmul(features, weights) + bias  # (j, n, c)
    losses, dlogits = stacked_cross_entropy_loss(logits, labels)
    num_features, num_classes = weights.shape[-2], weights.shape[-1]
    split = num_features * num_classes
    gradients = (
        np.empty((num_slices, split + num_classes)) if out is None else out
    )
    weight_block = np.lib.stride_tricks.as_strided(
        gradients,
        shape=(num_slices, num_features, num_classes),
        strides=(gradients.strides[0], num_classes * gradients.itemsize,
                 gradients.itemsize),
    )
    np.matmul(np.swapaxes(features, 1, 2), dlogits, out=weight_block)
    dlogits.sum(axis=1, out=gradients[:, split:])
    return losses, gradients


class SoftmaxClassifier(Model):
    """Softmax classifier ``logits = X W + b``.

    Parameters
    ----------
    num_features:
        Dimension of the flattened input features.
    num_classes:
        Number of output classes.
    rng:
        Seed or generator for weight initialisation.
    init_scale:
        Standard deviation of the random weight initialisation.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        rng: np.random.Generator | int | None = None,
        init_scale: float = 0.01,
    ) -> None:
        if num_features <= 0:
            raise ModelError("num_features must be positive")
        if num_classes < 2:
            raise ModelError("num_classes must be at least 2")
        generator = np.random.default_rng(rng)
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.layout = ParameterLayout(
            [
                ("weights", (self.num_features, self.num_classes)),
                ("bias", (self.num_classes,)),
            ]
        )
        self._weights = generator.normal(
            0.0, init_scale, size=(self.num_features, self.num_classes)
        )
        self._bias = np.zeros(self.num_classes)

    def parameters(self) -> NDArray:
        return self.layout.pack({"weights": self._weights, "bias": self._bias})

    def set_parameters(self, flat: NDArray) -> None:
        # Zero-copy when possible, mirroring MLPClassifier: a C-contiguous
        # float64 vector is adopted as reshaped views; anything else falls
        # back to the copying unpack.
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1 and flat.flags.c_contiguous:
            arrays = self.layout.views_into(flat)
        else:
            arrays = self.layout.unpack(flat)
        self._weights = arrays["weights"]
        self._bias = arrays["bias"]

    def _logits(self, features: NDArray) -> NDArray:
        features = self._flatten_features(features)
        if features.shape[1] != self.num_features:
            raise ModelError(
                f"expected {self.num_features} features, got {features.shape[1]}"
            )
        return features @ self._weights + self._bias

    def predict(self, features: NDArray) -> NDArray:
        return np.argmax(self._logits(features), axis=1)

    def predict_proba(self, features: NDArray) -> NDArray:
        """Class probabilities of shape ``(n, num_classes)``."""
        return softmax(self._logits(features))

    def loss_and_gradient(
        self, features: NDArray, labels: NDArray
    ) -> tuple[float, NDArray]:
        features = self._flatten_features(features)
        logits = self._logits(features)
        loss, dlogits = cross_entropy_loss(logits, labels)
        grad_weights = features.T @ dlogits
        grad_bias = dlogits.sum(axis=0)
        flat_grad = self.layout.pack({"weights": grad_weights, "bias": grad_bias})
        return loss, flat_grad

    def loss(self, features: NDArray, labels: NDArray) -> float:
        """Summed loss via the forward pass only (no gradient work).

        Same forward arithmetic as :meth:`loss_and_gradient`, so the value
        is bit-identical — it just skips the backward matmul.
        """
        value, _ = cross_entropy_loss(self._logits(features), labels)
        return value

    def batch_loss_and_gradient(
        self, features: NDArray, labels: NDArray, out: NDArray | None = None
    ) -> tuple[NDArray, NDArray]:
        """Stacked kernel: all ``j`` slices in one set of matrix products.

        The reductions run along the same axes as the per-slice path, so the
        results are bit-identical to looping ``loss_and_gradient`` — the
        exactness tests assert this, not mere closeness.
        """
        if generic_kernels_forced():
            return super().batch_loss_and_gradient(features, labels, out)
        features = self._flatten_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
        num_slices, num_samples, num_features = features.shape
        if num_features != self.num_features:
            raise ModelError(
                f"expected {self.num_features} features, got {num_features}"
            )
        if labels.shape != (num_slices, num_samples):
            raise ModelError(
                f"stacked labels have shape {labels.shape}, expected "
                f"{(num_slices, num_samples)}"
            )
        return _stacked_softmax_kernel(
            features,
            labels,
            self._weights,
            self._bias,
            out=self._gradient_out(num_slices, out),
        )

    def multi_loss_and_gradient(
        self,
        features: NDArray,
        labels: NDArray,
        parameter_stack: NDArray,
    ) -> tuple[NDArray, NDArray]:
        """Stacked multi-parameter kernel: ``e`` (parameters, batch) pairs in
        one set of broadcast matrix products.

        Identical arithmetic to :meth:`batch_loss_and_gradient` with the
        weight matrix given a leading pair axis, so the results are
        bit-identical to looping :meth:`loss_and_gradient` over pairs after
        :meth:`set_parameters` — asserted in the exactness tests.
        """
        if generic_kernels_forced():
            return super().multi_loss_and_gradient(features, labels, parameter_stack)
        features = self._flatten_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
        parameter_stack = np.asarray(parameter_stack, dtype=np.float64)
        num_pairs, num_samples, num_features = features.shape
        if num_features != self.num_features:
            raise ModelError(
                f"expected {self.num_features} features, got {num_features}"
            )
        if labels.shape != (num_pairs, num_samples):
            raise ModelError(
                f"stacked labels have shape {labels.shape}, expected "
                f"{(num_pairs, num_samples)}"
            )
        if parameter_stack.shape != (num_pairs, self.num_parameters):
            raise ModelError(
                f"parameter_stack has shape {parameter_stack.shape}, expected "
                f"{(num_pairs, self.num_parameters)}"
            )
        split = self.num_features * self.num_classes
        weights = parameter_stack[:, :split].reshape(
            num_pairs, self.num_features, self.num_classes
        )
        bias = parameter_stack[:, np.newaxis, split:]  # (e, 1, c)
        return _stacked_softmax_kernel(features, labels, weights, bias)

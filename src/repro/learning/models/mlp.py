"""Multi-layer perceptron classifier (the AlexNet stand-in for dense inputs).

A configurable stack of fully connected layers with ReLU (or tanh)
activations and a softmax cross-entropy head.  This is the default model for
the paper's CIFAR-10/AlexNet workload in this reproduction: it has enough
parameters and compute per sample to make iteration times meaningful while
staying laptop-friendly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..losses import cross_entropy_loss, softmax, stacked_cross_entropy_loss
from .base import Model, ModelError, NDArray, ParameterLayout, generic_kernels_forced

__all__ = ["MLPClassifier"]

_ACTIVATIONS = ("relu", "tanh")


def _stacked_mlp_kernel(
    features: NDArray,
    labels: NDArray,
    weights: Sequence[NDArray],
    biases: Sequence[NDArray],
    activation: str,
    out: NDArray | None = None,
) -> tuple[NDArray, NDArray]:
    """Shared stacked MLP cross-entropy kernel.

    ``features`` is ``(s, n, d)`` and ``labels`` ``(s, n)``.  Each
    ``weights[layer]`` is either one shared ``(fan_in, fan_out)`` matrix
    (the many-slices/one-parameter-vector case) or an
    ``(s, fan_in, fan_out)`` stack (one parameter vector per slice), with
    ``biases[layer]`` broadcast to match (``(fan_out,)`` or
    ``(s, 1, fan_out)``).  Every product is a broadcast gemm that runs
    per slice with exactly the scalar path's dimensions (shared
    weights broadcast over the slice axis; folding the slices into one
    flat gemm is *not* bit-safe — BLAS picks different kernels at
    different row counts) and every reduction runs along the same axis,
    so the results are
    **bit-identical** to looping ``loss_and_gradient`` — both stacked
    entry points share this one kernel precisely so a numerical fix here
    cannot desynchronise them.

    The backward pass writes each layer's weight/bias gradient directly
    into its column block of the flat ``(s, num_parameters)`` output via
    strided views, skipping the allocate-then-concatenate pass over the
    (large) gradient matrix; ``out``, when given, supplies that output
    matrix so even the final allocation is the caller's.
    """
    num_layers = len(weights)
    num_slices = features.shape[0]
    layer_inputs: list[NDArray] = []
    pre_activations: list[NDArray] = []
    current = features
    for layer in range(num_layers):
        layer_inputs.append(current)
        pre = np.matmul(current, weights[layer]) + biases[layer]
        pre_activations.append(pre)
        if layer < num_layers - 1:
            current = np.maximum(pre, 0.0) if activation == "relu" else np.tanh(pre)
        else:
            current = pre
    losses, delta = stacked_cross_entropy_loss(current, labels)

    # Column offsets of each layer's (W, b) block in the flat layout.
    sizes = [(w.shape[-2], w.shape[-1]) for w in weights]
    offsets: list[tuple[int, int]] = []
    offset = 0
    for fan_in, fan_out in sizes:
        offsets.append((offset, offset + fan_in * fan_out))
        offset += fan_in * fan_out + fan_out
    gradients = np.empty((num_slices, offset)) if out is None else out
    row_stride = gradients.strides[0]
    itemsize = gradients.itemsize
    for layer in range(num_layers - 1, -1, -1):
        fan_in, fan_out = sizes[layer]
        weight_offset, bias_offset = offsets[layer]
        # Rows of `gradients` are contiguous, so each row's weight block
        # reshapes to (fan_in, fan_out) in place; the 3-D view just adds
        # the row stride on top.
        weight_block = np.lib.stride_tricks.as_strided(
            gradients[:, weight_offset:],
            shape=(num_slices, fan_in, fan_out),
            strides=(row_stride, fan_out * itemsize, itemsize),
        )
        np.matmul(np.swapaxes(layer_inputs[layer], 1, 2), delta, out=weight_block)
        delta.sum(axis=1, out=gradients[:, bias_offset : bias_offset + fan_out])
        if layer > 0:
            layer_w = weights[layer]
            pre = pre_activations[layer - 1]
            if activation == "relu":
                activation_grad = (pre > 0.0).astype(np.float64)
            else:
                activation_grad = 1.0 - np.tanh(pre) ** 2
            delta = (
                np.matmul(delta, np.swapaxes(layer_w, -2, -1)) * activation_grad
            )
    return losses, gradients


class MLPClassifier(Model):
    """Fully connected neural network classifier.

    Parameters
    ----------
    num_features:
        Dimension of the flattened input.
    num_classes:
        Number of output classes.
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(128, 64)``.  Empty means a
        plain softmax classifier.
    activation:
        ``"relu"`` (default) or ``"tanh"``.
    rng:
        Seed or generator for He/Xavier-style initialisation.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden_sizes: Sequence[int] = (128,),
        activation: str = "relu",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_features <= 0:
            raise ModelError("num_features must be positive")
        if num_classes < 2:
            raise ModelError("num_classes must be at least 2")
        if activation not in _ACTIVATIONS:
            raise ModelError(
                f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}"
            )
        hidden = [int(h) for h in hidden_sizes]
        if any(h <= 0 for h in hidden):
            raise ModelError("hidden layer sizes must be positive")

        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.hidden_sizes = tuple(hidden)
        self.activation = activation

        sizes = [self.num_features, *hidden, self.num_classes]
        self._num_layers = len(sizes) - 1
        generator = np.random.default_rng(rng)

        layout_entries: list[tuple[str, tuple[int, ...]]] = []
        self._weights: list[NDArray] = []
        self._biases: list[NDArray] = []
        for layer in range(self._num_layers):
            fan_in, fan_out = sizes[layer], sizes[layer + 1]
            scale = np.sqrt(2.0 / fan_in) if activation == "relu" else np.sqrt(1.0 / fan_in)
            self._weights.append(generator.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))
            layout_entries.append((f"W{layer}", (fan_in, fan_out)))
            layout_entries.append((f"b{layer}", (fan_out,)))
        self.layout = ParameterLayout(layout_entries)
        self._grad_scratch: dict[str, NDArray] | None = None

    # ------------------------------------------------------------------
    # parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> NDArray:
        arrays: dict[str, NDArray] = {}
        for layer in range(self._num_layers):
            arrays[f"W{layer}"] = self._weights[layer]
            arrays[f"b{layer}"] = self._biases[layer]
        return self.layout.pack(arrays)

    def set_parameters(self, flat: NDArray) -> None:
        # Zero-copy when possible: a C-contiguous float64 vector (including
        # a row of a 2-D parameter stack) is adopted as reshaped *views*,
        # so the generic multi-pair fallback loop stops copying the full
        # parameter vector per pair.  Every internal caller either hands
        # over ownership of the vector or re-syncs after mutating it;
        # anything else (dtype/layout mismatches) falls back to copies.
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1 and flat.flags.c_contiguous:
            arrays = self.layout.views_into(flat)
        else:
            arrays = self.layout.unpack(flat)
        for layer in range(self._num_layers):
            self._weights[layer] = arrays[f"W{layer}"]
            self._biases[layer] = arrays[f"b{layer}"]

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def _activate(self, values: NDArray) -> NDArray:
        if self.activation == "relu":
            return np.maximum(values, 0.0)
        return np.tanh(values)

    def _activate_grad(self, pre_activation: NDArray) -> NDArray:
        if self.activation == "relu":
            return (pre_activation > 0.0).astype(np.float64)
        return 1.0 - np.tanh(pre_activation) ** 2

    def _forward(self, features: NDArray) -> tuple[NDArray, list[NDArray], list[NDArray]]:
        """Return logits plus per-layer inputs and pre-activations."""
        features = self._flatten_features(features)
        if features.shape[1] != self.num_features:
            raise ModelError(
                f"expected {self.num_features} features, got {features.shape[1]}"
            )
        layer_inputs: list[NDArray] = []
        pre_activations: list[NDArray] = []
        current = features
        for layer in range(self._num_layers):
            layer_inputs.append(current)
            pre = current @ self._weights[layer] + self._biases[layer]
            pre_activations.append(pre)
            if layer < self._num_layers - 1:
                current = self._activate(pre)
            else:
                current = pre
        return current, layer_inputs, pre_activations

    def predict(self, features: NDArray) -> NDArray:
        logits, _, _ = self._forward(features)
        return np.argmax(logits, axis=1)

    def predict_proba(self, features: NDArray) -> NDArray:
        """Class probabilities of shape ``(n, num_classes)``."""
        logits, _, _ = self._forward(features)
        return softmax(logits)

    def _gradient_buffers(self) -> dict[str, NDArray]:
        """Reusable named scratch arrays the backward pass writes into.

        The buffers are private to the model instance and never returned to
        callers: :meth:`loss_and_gradient` copies them into a fresh flat
        vector via :meth:`ParameterLayout.pack_into`, so consecutive calls
        cannot alias each other's results.
        """
        if self._grad_scratch is None:
            self._grad_scratch = {
                name: np.empty(self.layout.shape(name), dtype=np.float64)
                for name in self.layout.names
            }
        return self._grad_scratch

    def loss_and_gradient(
        self, features: NDArray, labels: NDArray
    ) -> tuple[float, NDArray]:
        logits, layer_inputs, pre_activations = self._forward(features)
        loss, delta = cross_entropy_loss(logits, labels)

        grads = self._gradient_buffers()
        for layer in range(self._num_layers - 1, -1, -1):
            np.matmul(layer_inputs[layer].T, delta, out=grads[f"W{layer}"])
            delta.sum(axis=0, out=grads[f"b{layer}"])
            if layer > 0:
                delta = (delta @ self._weights[layer].T) * self._activate_grad(
                    pre_activations[layer - 1]
                )
        out = np.empty(self.num_parameters, dtype=np.float64)
        return loss, self.layout.pack_into(grads, out)

    def loss(self, features: NDArray, labels: NDArray) -> float:
        """Summed loss via the forward pass only (no gradient work).

        Same forward arithmetic as :meth:`loss_and_gradient`, so the value
        is bit-identical — it just skips the backward matmuls, which makes
        periodic loss evaluation on large eval sets several times cheaper.
        """
        logits, _, _ = self._forward(features)
        value, _ = cross_entropy_loss(logits, labels)
        return value

    def batch_loss_and_gradient(
        self, features: NDArray, labels: NDArray, out: NDArray | None = None
    ) -> tuple[NDArray, NDArray]:
        """Stacked kernel: all ``j`` slices in one set of matrix products.

        The products and reductions run along the same axes as the
        per-slice path, so the results are bit-identical to looping
        ``loss_and_gradient`` — the pairing property tests assert this,
        not mere closeness.
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
        return _stacked_mlp_kernel(
            features,
            labels,
            self._weights,
            self._biases,
            self.activation,
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

        The parameter stack is unpacked once into per-layer
        ``(e, fan_in, fan_out)`` weight cubes (reshaped views, no copies)
        and the same shared kernel runs with a leading pair axis, so the
        results are bit-identical to looping :meth:`loss_and_gradient`
        over pairs after :meth:`set_parameters` — asserted in the pairing
        property tests.
        """
        if generic_kernels_forced():
            return super().multi_loss_and_gradient(features, labels, parameter_stack)
        parameter_stack = np.asarray(parameter_stack, dtype=np.float64)
        if (
            parameter_stack.ndim != 2
            or parameter_stack.shape[1] != self.num_parameters
        ):
            raise ModelError(
                f"parameter_stack has shape {parameter_stack.shape}, expected "
                f"(e, {self.num_parameters})"
            )
        features = self._flatten_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
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
        if parameter_stack.shape[0] != num_pairs:
            raise ModelError(
                "features/labels must stack one batch per parameter vector"
            )
        weights: list[NDArray] = []
        biases: list[NDArray] = []
        offset = 0
        for layer in range(self._num_layers):
            fan_in, fan_out = self.layout.shape(f"W{layer}")
            size = fan_in * fan_out
            weights.append(
                parameter_stack[:, offset : offset + size].reshape(
                    num_pairs, fan_in, fan_out
                )
            )
            offset += size
            biases.append(parameter_stack[:, np.newaxis, offset : offset + fan_out])
            offset += fan_out
        return _stacked_mlp_kernel(
            features, labels, weights, biases, self.activation
        )

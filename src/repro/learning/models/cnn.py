"""Small convolutional network (the ResNet-34 stand-in).

Architecture: ``conv(3x3) -> ReLU -> 2x2 max-pool -> flatten -> dense ->
softmax``.  The convolution is implemented with im2col so the whole
forward/backward pass is dense matrix algebra in numpy.  The purpose of this
model in the reproduction is *not* ImageNet accuracy — it provides a second,
heavier workload whose per-sample gradient cost is substantially larger than
the MLP's, mirroring the paper's CIFAR-10-vs-ImageNet pairing.
"""

from __future__ import annotations

import numpy as np

from ..losses import cross_entropy_loss, softmax, stacked_cross_entropy_loss
from .base import Model, ModelError, NDArray, ParameterLayout, generic_kernels_forced

__all__ = ["SimpleCNN"]


def _im2col(
    images: NDArray, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[NDArray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(n, height, width, channels)``.
    kernel, stride, padding:
        Convolution geometry.

    Returns
    -------
    (columns, out_height, out_width):
        ``columns`` has shape ``(n * out_height * out_width,
        kernel * kernel * channels)``.
    """
    n, height, width, channels = images.shape
    if padding:
        images = np.pad(
            images,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            mode="constant",
        )
    out_height = (height + 2 * padding - kernel) // stride + 1
    out_width = (width + 2 * padding - kernel) // stride + 1
    if out_height <= 0 or out_width <= 0:
        raise ModelError("kernel larger than padded image")

    columns = np.empty(
        (n, out_height, out_width, kernel * kernel * channels), dtype=np.float64
    )
    for row in range(kernel):
        row_end = row + stride * out_height
        for col in range(kernel):
            col_end = col + stride * out_width
            patch = images[:, row:row_end:stride, col:col_end:stride, :]
            start = (row * kernel + col) * channels
            columns[:, :, :, start : start + channels] = patch
    return columns.reshape(n * out_height * out_width, -1), out_height, out_width


def _col2im(
    column_grads: NDArray,
    image_shape: tuple[int, int, int, int],
    kernel: int,
    out_height: int,
    out_width: int,
    stride: int = 1,
    padding: int = 0,
) -> NDArray:
    """Inverse of :func:`_im2col` for gradients (scatter-add of patches)."""
    n, height, width, channels = image_shape
    padded = np.zeros(
        (n, height + 2 * padding, width + 2 * padding, channels), dtype=np.float64
    )
    column_grads = column_grads.reshape(n, out_height, out_width, -1)
    for row in range(kernel):
        row_end = row + stride * out_height
        for col in range(kernel):
            col_end = col + stride * out_width
            start = (row * kernel + col) * channels
            padded[:, row:row_end:stride, col:col_end:stride, :] += column_grads[
                :, :, :, start : start + channels
            ]
    if padding:
        return padded[:, padding:-padding, padding:-padding, :]
    return padded


class SimpleCNN(Model):
    """Single-conv-layer CNN classifier for image datasets.

    Parameters
    ----------
    image_size:
        Height (= width) of the square input images.
    channels:
        Number of input channels.
    num_classes:
        Number of output classes.
    num_filters:
        Number of convolution filters.
    kernel_size:
        Side length of the square convolution kernel.
    rng:
        Seed or generator for weight initialisation.
    """

    def __init__(
        self,
        image_size: int,
        channels: int,
        num_classes: int,
        num_filters: int = 8,
        kernel_size: int = 3,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if image_size < kernel_size:
            raise ModelError("image_size must be at least kernel_size")
        if channels <= 0 or num_filters <= 0:
            raise ModelError("channels and num_filters must be positive")
        if num_classes < 2:
            raise ModelError("num_classes must be at least 2")
        self.image_size = int(image_size)
        self.channels = int(channels)
        self.num_classes = int(num_classes)
        self.num_filters = int(num_filters)
        self.kernel_size = int(kernel_size)

        self._conv_out = self.image_size - self.kernel_size + 1
        self._pool_out = self._conv_out // 2
        if self._pool_out <= 0:
            raise ModelError("image too small for conv + 2x2 pooling")
        dense_in = self._pool_out * self._pool_out * self.num_filters

        generator = np.random.default_rng(rng)
        kernel_fan_in = self.kernel_size * self.kernel_size * self.channels
        self._kernels = generator.normal(
            0.0, np.sqrt(2.0 / kernel_fan_in), size=(kernel_fan_in, self.num_filters)
        )
        self._kernel_bias = np.zeros(self.num_filters)
        self._dense = generator.normal(
            0.0, np.sqrt(2.0 / dense_in), size=(dense_in, self.num_classes)
        )
        self._dense_bias = np.zeros(self.num_classes)

        self.layout = ParameterLayout(
            [
                ("kernels", (kernel_fan_in, self.num_filters)),
                ("kernel_bias", (self.num_filters,)),
                ("dense", (dense_in, self.num_classes)),
                ("dense_bias", (self.num_classes,)),
            ]
        )
        self._grad_scratch: dict[str, NDArray] | None = None
        self._dactivated_scratch: NDArray | None = None

    # ------------------------------------------------------------------
    # parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> NDArray:
        return self.layout.pack(
            {
                "kernels": self._kernels,
                "kernel_bias": self._kernel_bias,
                "dense": self._dense,
                "dense_bias": self._dense_bias,
            }
        )

    def set_parameters(self, flat: NDArray) -> None:
        # Zero-copy when possible, mirroring MLPClassifier: a C-contiguous
        # float64 vector is adopted as reshaped views; anything else falls
        # back to the copying unpack.
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1 and flat.flags.c_contiguous:
            arrays = self.layout.views_into(flat)
        else:
            arrays = self.layout.unpack(flat)
        self._kernels = arrays["kernels"]
        self._kernel_bias = arrays["kernel_bias"]
        self._dense = arrays["dense"]
        self._dense_bias = arrays["dense_bias"]

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def _check_images(self, features: NDArray) -> NDArray:
        features = np.asarray(features, dtype=np.float64)
        expected = (self.image_size, self.image_size, self.channels)
        if features.ndim == 2 and features.shape[1] == int(np.prod(expected)):
            features = features.reshape(features.shape[0], *expected)
        if features.ndim != 4 or features.shape[1:] != expected:
            raise ModelError(
                f"expected images of shape (n, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {features.shape}"
            )
        return features

    def _forward(self, features: NDArray) -> tuple[NDArray, dict[str, NDArray]]:
        images = self._check_images(features)
        n = images.shape[0]
        columns, out_h, out_w = _im2col(images, self.kernel_size)
        conv = columns @ self._kernels + self._kernel_bias
        conv = conv.reshape(n, out_h, out_w, self.num_filters)
        relu_mask = conv > 0.0
        activated = conv * relu_mask

        # 2x2 max pooling with stride 2 (truncate ragged edge).
        pool_h = pool_w = self._pool_out
        cropped = activated[:, : 2 * pool_h, : 2 * pool_w, :]
        windows = cropped.reshape(n, pool_h, 2, pool_w, 2, self.num_filters)
        pooled = windows.max(axis=(2, 4))
        # argmax mask for backprop
        pooled_expanded = pooled[:, :, None, :, None, :]
        pool_mask = windows == pooled_expanded

        flat = pooled.reshape(n, -1)
        logits = flat @ self._dense + self._dense_bias
        cache = {
            "images": images,
            "columns": columns,
            "relu_mask": relu_mask,
            "pool_mask": pool_mask,
            "flat": flat,
            "out_h": np.asarray(out_h),
            "out_w": np.asarray(out_w),
        }
        return logits, cache

    def predict(self, features: NDArray) -> NDArray:
        logits, _ = self._forward(features)
        return np.argmax(logits, axis=1)

    def predict_proba(self, features: NDArray) -> NDArray:
        """Class probabilities of shape ``(n, num_classes)``."""
        logits, _ = self._forward(features)
        return softmax(logits)

    def _gradient_buffers(self) -> dict[str, NDArray]:
        """Reusable named scratch arrays the backward pass writes into.

        Never returned to callers: :meth:`loss_and_gradient` copies them
        into a fresh flat vector via :meth:`ParameterLayout.pack_into`, so
        consecutive calls cannot alias each other's results.
        """
        if self._grad_scratch is None:
            self._grad_scratch = {
                name: np.empty(self.layout.shape(name), dtype=np.float64)
                for name in self.layout.names
            }
        return self._grad_scratch

    def _dactivated_buffer(self, n: int, out_h: int, out_w: int) -> NDArray:
        """Reusable zeroed conv-gradient scratch.

        The pooled region ``[:, :2*pool_out, :2*pool_out, :]`` is fully
        overwritten on every call and the truncated ragged margin is never
        written by anyone, so the buffer stays valid without re-zeroing.
        """
        shape = (n, out_h, out_w, self.num_filters)
        scratch = self._dactivated_scratch
        if scratch is None or scratch.shape != shape:
            scratch = np.zeros(shape, dtype=np.float64)
            self._dactivated_scratch = scratch
        return scratch

    def loss_and_gradient(
        self, features: NDArray, labels: NDArray
    ) -> tuple[float, NDArray]:
        logits, cache = self._forward(features)
        loss, dlogits = cross_entropy_loss(logits, labels)

        grads = self._gradient_buffers()
        flat = cache["flat"]
        np.matmul(flat.T, dlogits, out=grads["dense"])
        dlogits.sum(axis=0, out=grads["dense_bias"])

        dflat = dlogits @ self._dense.T
        n = flat.shape[0]
        pool_h = pool_w = self._pool_out
        dpooled = dflat.reshape(n, pool_h, pool_w, self.num_filters)
        # Route gradients through the max locations (ties share the gradient).
        pool_mask = cache["pool_mask"]
        tie_counts = pool_mask.sum(axis=(2, 4), keepdims=True)
        dwindows = (
            pool_mask * dpooled[:, :, None, :, None, :] / np.maximum(tie_counts, 1)
        )
        out_h = int(cache["out_h"])
        out_w = int(cache["out_w"])
        dactivated = self._dactivated_buffer(n, out_h, out_w)
        dactivated[:, : 2 * pool_h, : 2 * pool_w, :] = dwindows.reshape(
            n, 2 * pool_h, 2 * pool_w, self.num_filters
        )

        dconv = dactivated * cache["relu_mask"]
        dconv_cols = dconv.reshape(-1, self.num_filters)
        np.matmul(cache["columns"].T, dconv_cols, out=grads["kernels"])
        dconv_cols.sum(axis=0, out=grads["kernel_bias"])

        out = np.empty(self.num_parameters, dtype=np.float64)
        return loss, self.layout.pack_into(grads, out)

    # ------------------------------------------------------------------
    # stacked kernels
    # ------------------------------------------------------------------
    def _check_images_batch(self, features: NDArray) -> NDArray:
        """Stacked variant of :meth:`_check_images`: ``(s, n, ...)`` images."""
        features = np.asarray(features, dtype=np.float64)
        expected = (self.image_size, self.image_size, self.channels)
        if features.ndim == 3 and features.shape[2] == int(np.prod(expected)):
            features = features.reshape(features.shape[0], features.shape[1], *expected)
        if features.ndim != 5 or features.shape[2:] != expected:
            raise ModelError(
                f"expected stacked images of shape (s, n, {expected[0]}, "
                f"{expected[1]}, {expected[2]}), got {features.shape}"
            )
        return features

    def _stacked_kernel(
        self,
        images: NDArray,
        labels: NDArray,
        kernels: NDArray,
        kernel_bias: NDArray,
        dense: NDArray,
        dense_bias: NDArray,
    ) -> tuple[NDArray, NDArray]:
        """Shared stacked CNN kernel: im2col hoisted over the stack axis.

        ``images`` is ``(s, n, H, W, C)`` and ``labels`` ``(s, n)``; the
        parameter arrays are either shared 1-/2-D (many slices, one
        parameter vector) or carry a leading ``s`` axis (one parameter
        vector per slice).  im2col is a pure gather, so running it once
        over the flattened ``s * n`` image stack reproduces the per-slice
        columns exactly; the dominant products are per-slice gemms of the
        scalar path's dimensions and every reduction keeps its axis, so the
        results are **bit-identical** to looping ``loss_and_gradient``
        (asserted by the pairing property tests).
        """
        num_slices, n = images.shape[:2]
        columns_flat, out_h, out_w = _im2col(
            images.reshape(num_slices * n, *images.shape[2:]), self.kernel_size
        )
        columns = columns_flat.reshape(num_slices, n * out_h * out_w, -1)
        conv = np.matmul(columns, kernels) + kernel_bias
        conv = conv.reshape(num_slices, n, out_h, out_w, self.num_filters)
        relu_mask = conv > 0.0
        activated = conv * relu_mask

        pool_h = pool_w = self._pool_out
        cropped = activated[:, :, : 2 * pool_h, : 2 * pool_w, :]
        windows = cropped.reshape(
            num_slices, n, pool_h, 2, pool_w, 2, self.num_filters
        )
        pooled = windows.max(axis=(3, 5))
        pool_mask = windows == pooled[:, :, :, None, :, None, :]

        flat = pooled.reshape(num_slices, n, -1)
        logits = np.matmul(flat, dense) + dense_bias
        losses, dlogits = stacked_cross_entropy_loss(logits, labels)

        grad_dense = np.matmul(np.swapaxes(flat, 1, 2), dlogits)
        grad_dense_bias = dlogits.sum(axis=1)

        dense_t = dense.T if dense.ndim == 2 else np.swapaxes(dense, 1, 2)
        dflat = np.matmul(dlogits, dense_t)
        dpooled = dflat.reshape(num_slices, n, pool_h, pool_w, self.num_filters)
        tie_counts = pool_mask.sum(axis=(3, 5), keepdims=True)
        dwindows = (
            pool_mask
            * dpooled[:, :, :, None, :, None, :]
            / np.maximum(tie_counts, 1)
        )
        dactivated = np.zeros(
            (num_slices, n, out_h, out_w, self.num_filters), dtype=np.float64
        )
        dactivated[:, :, : 2 * pool_h, : 2 * pool_w, :] = dwindows.reshape(
            num_slices, n, 2 * pool_h, 2 * pool_w, self.num_filters
        )

        dconv = dactivated * relu_mask
        dconv_cols = dconv.reshape(num_slices, n * out_h * out_w, self.num_filters)
        grad_kernels = np.matmul(np.swapaxes(columns, 1, 2), dconv_cols)
        grad_kernel_bias = dconv_cols.sum(axis=1)

        gradients = np.concatenate(
            [
                grad_kernels.reshape(num_slices, -1),
                grad_kernel_bias,
                grad_dense.reshape(num_slices, -1),
                grad_dense_bias,
            ],
            axis=1,
        )
        return losses, gradients

    def loss(self, features: NDArray, labels: NDArray) -> float:
        """Summed loss via the forward pass only (no gradient work).

        Same forward arithmetic as :meth:`loss_and_gradient`, so the value
        is bit-identical — it just skips the backward pass.
        """
        logits, _ = self._forward(features)
        value, _ = cross_entropy_loss(logits, labels)
        return value

    def batch_loss_and_gradient(
        self, features: NDArray, labels: NDArray, out: NDArray | None = None
    ) -> tuple[NDArray, NDArray]:
        """Stacked kernel: all ``j`` slices through one hoisted im2col pass.

        Bit-identical to looping ``loss_and_gradient`` — asserted by the
        pairing property tests, not mere closeness.
        """
        if generic_kernels_forced():
            return super().batch_loss_and_gradient(features, labels, out)
        images = self._check_images_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != images.shape[:2]:
            raise ModelError(
                f"stacked labels have shape {labels.shape}, expected "
                f"{images.shape[:2]}"
            )
        losses, gradients = self._stacked_kernel(
            images,
            labels,
            self._kernels,
            self._kernel_bias,
            self._dense,
            self._dense_bias,
        )
        if out is not None:
            checked = self._gradient_out(images.shape[0], out)
            checked[...] = gradients
            gradients = checked
        return losses, gradients

    def multi_loss_and_gradient(
        self,
        features: NDArray,
        labels: NDArray,
        parameter_stack: NDArray,
    ) -> tuple[NDArray, NDArray]:
        """Stacked multi-parameter kernel: ``e`` (parameters, batch) pairs
        through one hoisted im2col pass and broadcast matrix products.

        The parameter stack is sliced once into ``(e, ...)`` kernel/dense
        cubes (reshaped views); bit-identical to looping
        :meth:`loss_and_gradient` over pairs after :meth:`set_parameters`
        — asserted by the pairing property tests.
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
        images = self._check_images_batch(features)
        labels = np.asarray(labels, dtype=np.int64)
        num_pairs = images.shape[0]
        if labels.shape != images.shape[:2]:
            raise ModelError(
                f"stacked labels have shape {labels.shape}, expected "
                f"{images.shape[:2]}"
            )
        if parameter_stack.shape[0] != num_pairs:
            raise ModelError(
                "features/labels must stack one batch per parameter vector"
            )
        kernel_shape = self.layout.shape("kernels")
        dense_shape = self.layout.shape("dense")
        kernel_size = kernel_shape[0] * kernel_shape[1]
        dense_size = dense_shape[0] * dense_shape[1]
        offset = 0
        kernels = parameter_stack[:, :kernel_size].reshape(num_pairs, *kernel_shape)
        offset = kernel_size
        kernel_bias = parameter_stack[
            :, np.newaxis, offset : offset + self.num_filters
        ]
        offset += self.num_filters
        dense = parameter_stack[:, offset : offset + dense_size].reshape(
            num_pairs, *dense_shape
        )
        offset += dense_size
        dense_bias = parameter_stack[:, np.newaxis, offset:]
        return self._stacked_kernel(
            images, labels, kernels, kernel_bias, dense, dense_bias
        )

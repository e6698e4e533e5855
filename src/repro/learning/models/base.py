"""Model interface used by every training protocol.

A model exposes its parameters as a single flat vector so that gradient
coding — which operates on linear combinations of gradient *vectors* — works
uniformly regardless of the model's internal layer structure.  Every model
implements:

* ``parameters()`` / ``set_parameters(flat)`` — flat-vector access,
* ``loss(features, labels)`` — **summed** loss over the given samples,
* ``gradient(features, labels)`` — gradient of that summed loss, flat,
* ``loss_and_gradient(features, labels)`` — both in one pass,
* ``predict(features)`` — labels (classification) or values (regression).

Losses and gradients are summed (not averaged) so that partial results over
disjoint partitions are additive: ``g = sum_i g_i`` exactly as in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = [
    "Model",
    "NDArray",
    "ParameterLayout",
    "ModelError",
    "force_generic_kernels",
    "generic_kernels_forced",
]


#: Annotation alias for host numpy arrays.  The kernel code is
#: dtype-dynamic on purpose (float64 parameters, int64 labels, bool
#: pooling masks share signatures), so the scalar type stays open;
#: float64-ness of parameter vectors is a runtime contract enforced by
#: :class:`ParameterLayout`.
NDArray = npt.NDArray[Any]


class ModelError(ValueError):
    """Raised on shape mismatches or invalid model configuration."""


# Module-level switch the stacked kernel overrides consult: when True, the
# vectorized batch_/multi_ overrides delegate to the generic per-pair loops
# in :class:`Model`.  Exists for the bench baselines and the JSON-exact
# stacked-vs-looped bit-identity gates; not thread-safe by design (flip it
# only from single-threaded harness code, never inside protocols).
_FORCE_GENERIC_KERNELS = False


def generic_kernels_forced() -> bool:
    """True while :func:`force_generic_kernels` is active."""
    return _FORCE_GENERIC_KERNELS


@contextmanager
def force_generic_kernels() -> Iterator[None]:
    """Context manager: route stacked kernels through the generic loops.

    Inside the block every builtin ``batch_loss_and_gradient`` /
    ``multi_loss_and_gradient`` override falls back to the base-class
    per-slice / per-pair loop — the reference the stacked kernels are
    property-tested against.
    """
    global _FORCE_GENERIC_KERNELS
    previous = _FORCE_GENERIC_KERNELS
    _FORCE_GENERIC_KERNELS = True
    try:
        yield
    finally:
        _FORCE_GENERIC_KERNELS = previous


class ParameterLayout:
    """Bookkeeping for packing named arrays into one flat vector.

    Parameters
    ----------
    shapes:
        Ordered mapping-like iterable of ``(name, shape)`` pairs.
    """

    def __init__(self, shapes: Iterable[tuple[str, tuple[int, ...]]]) -> None:
        self._names: list[str] = []
        self._shapes: dict[str, tuple[int, ...]] = {}
        self._offsets: dict[str, int] = {}
        offset = 0
        for name, shape in shapes:
            if name in self._shapes:
                raise ModelError(f"duplicate parameter name {name!r}")
            size = int(np.prod(shape)) if shape else 1
            self._names.append(name)
            self._shapes[name] = tuple(int(d) for d in shape)
            self._offsets[name] = offset
            offset += size
        self._total = offset

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def total_size(self) -> int:
        """Length of the flat vector."""
        return self._total

    def shape(self, name: str) -> tuple[int, ...]:
        return self._shapes[name]

    def pack(self, arrays: dict[str, NDArray]) -> NDArray:
        """Flatten named arrays into one vector (in layout order)."""
        flat = np.empty(self._total, dtype=np.float64)
        for name in self._names:
            expected = self._shapes[name]
            array = np.asarray(arrays[name], dtype=np.float64)
            if array.shape != expected:
                raise ModelError(
                    f"parameter {name!r} has shape {array.shape}, expected {expected}"
                )
            start = self._offsets[name]
            size = int(np.prod(expected)) if expected else 1
            flat[start : start + size] = array.ravel()
        return flat

    def pack_into(
        self, arrays: dict[str, NDArray], out: NDArray
    ) -> NDArray:
        """:meth:`pack`, but writing into a caller-supplied flat buffer.

        ``out`` must be a contiguous float64 vector of :attr:`total_size`;
        it is returned for convenience.  Lets backward passes reuse one
        scratch vector instead of allocating per call — bit-identical to
        :meth:`pack` (same writes, same order).
        """
        if out.shape != (self._total,) or out.dtype != np.float64:
            raise ModelError(
                f"out buffer has shape {out.shape} dtype {out.dtype}, "
                f"expected ({self._total},) float64"
            )
        for name in self._names:
            expected = self._shapes[name]
            array = np.asarray(arrays[name], dtype=np.float64)
            if array.shape != expected:
                raise ModelError(
                    f"parameter {name!r} has shape {array.shape}, expected {expected}"
                )
            start = self._offsets[name]
            size = int(np.prod(expected)) if expected else 1
            out[start : start + size] = array.ravel()
        return out

    def views_into(self, flat: NDArray) -> dict[str, NDArray]:
        """:meth:`unpack` without the copies: reshaped *views* into ``flat``.

        ``flat`` must be a C-contiguous float64 vector of
        :attr:`total_size` (rows of a 2-D parameter stack qualify).  The
        returned arrays alias it — writing through them writes ``flat`` —
        which is exactly what zero-copy ``set_parameters`` and
        direct-write backward passes need.
        """
        flat = np.asarray(flat)
        if flat.shape != (self._total,):
            raise ModelError(
                f"flat vector has shape {flat.shape}, expected ({self._total},)"
            )
        if flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ModelError(
                "views_into requires a C-contiguous float64 vector; "
                "use unpack() for anything else"
            )
        arrays: dict[str, NDArray] = {}
        for name in self._names:
            shape = self._shapes[name]
            size = int(np.prod(shape)) if shape else 1
            start = self._offsets[name]
            arrays[name] = flat[start : start + size].reshape(shape)
        return arrays

    def unpack(self, flat: NDArray) -> dict[str, NDArray]:
        """Split a flat vector back into named, shaped arrays (copies)."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self._total,):
            raise ModelError(
                f"flat vector has shape {flat.shape}, expected ({self._total},)"
            )
        arrays: dict[str, NDArray] = {}
        for name in self._names:
            shape = self._shapes[name]
            size = int(np.prod(shape)) if shape else 1
            start = self._offsets[name]
            arrays[name] = flat[start : start + size].reshape(shape).copy()
        return arrays


class Model(ABC):
    """Abstract base class for all numpy models."""

    layout: ParameterLayout

    @property
    def num_parameters(self) -> int:
        """Dimension of the flat parameter vector."""
        return self.layout.total_size

    @abstractmethod
    def parameters(self) -> NDArray:
        """Return a *copy* of the current parameters as a flat vector."""

    @abstractmethod
    def set_parameters(self, flat: NDArray) -> None:
        """Overwrite the model parameters from a flat vector."""

    @abstractmethod
    def loss_and_gradient(
        self, features: NDArray, labels: NDArray
    ) -> tuple[float, NDArray]:
        """Summed loss and its flat gradient over the given samples."""

    def multi_loss_and_gradient(
        self,
        features: NDArray,
        labels: NDArray,
        parameter_stack: NDArray,
    ) -> tuple[NDArray, NDArray]:
        """Losses and gradients of ``e`` independent (parameters, batch) pairs.

        Unlike :meth:`batch_loss_and_gradient` (many sample slices, *one*
        parameter vector) every pair here carries its **own** parameter
        vector — the kernel the asynchronous protocols need, where each
        queued update was computed against a different (stale) snapshot.

        Parameters
        ----------
        features:
            Stacked sample batches of shape ``(e, n, ...)``.
        labels:
            Stacked labels of shape ``(e, n)``.
        parameter_stack:
            Parameter vectors of shape ``(e, num_parameters)``; row ``i``
            is evaluated against batch ``i``.

        Returns
        -------
        (losses, gradients):
            ``losses`` of shape ``(e,)`` and ``gradients`` of shape
            ``(e, num_parameters)``; row ``i`` equals
            ``loss_and_gradient(features[i], labels[i])`` at parameters
            ``parameter_stack[i]``.

        The generic fallback loops :meth:`loss_and_gradient`, restoring the
        model's live parameters afterwards; models with matrix-form kernels
        override it with stacked products (bit-identical results).
        """
        parameter_stack = np.asarray(parameter_stack, dtype=np.float64)
        if (
            parameter_stack.ndim != 2
            or parameter_stack.shape[1] != self.num_parameters
        ):
            raise ModelError(
                f"parameter_stack has shape {parameter_stack.shape}, expected "
                f"(e, {self.num_parameters})"
            )
        num_pairs = parameter_stack.shape[0]
        if len(features) != num_pairs or len(labels) != num_pairs:
            raise ModelError(
                "features/labels must stack one batch per parameter vector"
            )
        losses = np.empty(num_pairs)
        gradients = np.empty((num_pairs, self.num_parameters))
        saved = self.parameters()
        try:
            for index in range(num_pairs):
                self.set_parameters(parameter_stack[index])
                losses[index], gradients[index] = self.loss_and_gradient(
                    features[index], labels[index]
                )
        finally:
            self.set_parameters(saved)
        return losses, gradients

    def _gradient_out(self, num_slices: int, out: NDArray | None) -> NDArray:
        """Validate (or allocate) a ``(num_slices, num_parameters)`` gradient
        matrix for the stacked kernels to write into.

        A caller-supplied ``out`` must be a C-contiguous float64 matrix of
        exactly that shape — the kernels write each layer's block through
        reshaped row views, which requires contiguous rows.
        """
        if out is None:
            return np.empty((num_slices, self.num_parameters))
        if (
            not isinstance(out, np.ndarray)
            or out.shape != (num_slices, self.num_parameters)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ModelError(
                "out must be a C-contiguous float64 array of shape "
                f"{(num_slices, self.num_parameters)}"
            )
        return out

    def batch_loss_and_gradient(
        self, features: NDArray, labels: NDArray, out: NDArray | None = None
    ) -> tuple[NDArray, NDArray]:
        """Losses and gradients of ``j`` equal-sized sample slices at once.

        Parameters
        ----------
        features:
            Stacked slices of shape ``(j, n, ...)`` — e.g. the output of
            :meth:`PartitionedDataset.stacked_data`.
        labels:
            Stacked labels of shape ``(j, n)``.
        out:
            Optional C-contiguous float64 ``(j, num_parameters)`` matrix
            the gradients are written into (and returned); lets callers
            replaying many slices land results straight in their own
            buffer instead of paying an extra copy per slice.

        Returns
        -------
        (losses, gradients):
            ``losses`` of shape ``(j,)`` and ``gradients`` of shape
            ``(j, num_parameters)``; row ``i`` equals
            ``loss_and_gradient(features[i], labels[i])``.

        The base implementation loops over the slices, so every model
        supports the batched interface; models with vectorisable math
        (:class:`SoftmaxClassifier`, :class:`LinearRegressionModel`)
        override it with a single stacked kernel.
        """
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.shape[:1] != labels.shape[:1]:
            raise ModelError(
                f"stacked features have {features.shape[0]} slices but "
                f"labels have {labels.shape[0]}"
            )
        num_slices = features.shape[0]
        losses = np.empty(num_slices)
        gradients = self._gradient_out(num_slices, out)
        for index in range(num_slices):
            loss, grad = self.loss_and_gradient(features[index], labels[index])
            losses[index] = loss
            gradients[index] = grad
        return losses, gradients

    @staticmethod
    def _flatten_batch(features: NDArray) -> NDArray:
        """Reshape stacked ``(j, n, ...)`` features to ``(j, n, d)``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim < 2:
            raise ModelError(
                "stacked features must have at least two dimensions (j, n)"
            )
        if features.ndim == 2:
            return features[:, :, np.newaxis]
        if features.ndim > 3:
            return features.reshape(features.shape[0], features.shape[1], -1)
        return features

    def loss(self, features: NDArray, labels: NDArray) -> float:
        """Summed loss over the given samples."""
        value, _ = self.loss_and_gradient(features, labels)
        return value

    def gradient(self, features: NDArray, labels: NDArray) -> NDArray:
        """Flat gradient of the summed loss over the given samples."""
        _, grad = self.loss_and_gradient(features, labels)
        return grad

    @abstractmethod
    def predict(self, features: NDArray) -> NDArray:
        """Predicted labels (classification) or values (regression)."""

    def accuracy(self, features: NDArray, labels: NDArray) -> float:
        """Fraction of correct predictions (classification models only)."""
        predictions = self.predict(features)
        labels = np.asarray(labels)
        if predictions.shape != labels.shape:
            raise ModelError(
                "accuracy is only defined when predictions and labels share a shape"
            )
        return float(np.mean(predictions == labels))

    def clone(self) -> "Model":
        """Return a new model of the same architecture with copied parameters."""
        import copy

        return copy.deepcopy(self)

    @staticmethod
    def _flatten_features(features: NDArray) -> NDArray:
        """Reshape ``(n, ...)`` features to ``(n, d)`` for dense models."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            return features.reshape(-1, 1)
        if features.ndim > 2:
            return features.reshape(features.shape[0], -1)
        return features

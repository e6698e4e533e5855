"""Linear regression model (least squares) on flat features.

Included because much of the prior coded-computation literature the paper
discusses (Lee et al., Maity et al.) is restricted to linear models; having
one in the substrate lets the examples contrast "coding the data" versus
"coding the gradients".
"""

from __future__ import annotations

import numpy as np

from ..losses import mean_squared_error_loss
from .base import Model, ModelError, NDArray, ParameterLayout, generic_kernels_forced

__all__ = ["LinearRegressionModel"]


class LinearRegressionModel(Model):
    """Linear model ``y_hat = X w + b`` trained with summed squared error.

    Parameters
    ----------
    num_features:
        Dimension of the (flattened) input features.
    rng:
        Seed or generator for the initial weights.
    init_scale:
        Standard deviation of the random weight initialisation.
    """

    def __init__(
        self,
        num_features: int,
        rng: np.random.Generator | int | None = None,
        init_scale: float = 0.01,
    ) -> None:
        if num_features <= 0:
            raise ModelError("num_features must be positive")
        generator = np.random.default_rng(rng)
        self.num_features = int(num_features)
        self.layout = ParameterLayout(
            [("weights", (self.num_features,)), ("bias", ())]
        )
        self._weights = generator.normal(0.0, init_scale, size=self.num_features)
        self._bias = 0.0

    def parameters(self) -> NDArray:
        return self.layout.pack(
            {"weights": self._weights, "bias": np.asarray(self._bias)}
        )

    def set_parameters(self, flat: NDArray) -> None:
        # Zero-copy weights when possible (the bias is stored as a Python
        # float either way, so only the weight slice benefits).
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1 and flat.flags.c_contiguous:
            arrays = self.layout.views_into(flat)
        else:
            arrays = self.layout.unpack(flat)
        self._weights = arrays["weights"]
        self._bias = float(arrays["bias"])

    def _predict_values(self, features: NDArray) -> NDArray:
        features = self._flatten_features(features)
        if features.shape[1] != self.num_features:
            raise ModelError(
                f"expected {self.num_features} features, got {features.shape[1]}"
            )
        return features @ self._weights + self._bias

    def predict(self, features: NDArray) -> NDArray:
        return self._predict_values(features)

    def loss_and_gradient(
        self, features: NDArray, labels: NDArray
    ) -> tuple[float, NDArray]:
        features = self._flatten_features(features)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        predictions = self._predict_values(features)
        loss, dpred = mean_squared_error_loss(predictions, labels)
        grad_weights = features.T @ dpred
        grad_bias = dpred.sum()
        flat_grad = self.layout.pack(
            {"weights": grad_weights, "bias": np.asarray(grad_bias)}
        )
        return loss, flat_grad

    def batch_loss_and_gradient(
        self, features: NDArray, labels: NDArray, out: NDArray | None = None
    ) -> tuple[NDArray, NDArray]:
        """Stacked kernel: all ``j`` slices in one set of matrix products."""
        if generic_kernels_forced():
            return super().batch_loss_and_gradient(features, labels, out)
        features = self._flatten_batch(features)
        labels = np.asarray(labels, dtype=np.float64)
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
        predictions = features @ self._weights + self._bias  # (j, n)
        diff = predictions - labels
        losses = 0.5 * (diff * diff).sum(axis=1)
        grad_weights = np.swapaxes(features, 1, 2) @ diff[:, :, np.newaxis]
        grad_bias = diff.sum(axis=1)
        gradients = self._gradient_out(num_slices, out)
        gradients[:, :-1] = grad_weights.reshape(num_slices, -1)
        gradients[:, -1] = grad_bias
        return losses, gradients

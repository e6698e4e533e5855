"""Workload presets: dataset + model pairs used by the experiments.

The paper trains AlexNet on CIFAR-10 and ResNet-34 on ImageNet.  The
reproduction replaces them with synthetic datasets and numpy models (see
DESIGN.md §2) but keeps the pairing:

* ``cifar10_mlp`` — CIFAR-like 32x32x3 images, MLP classifier (the light
  workload; AlexNet stand-in);
* ``cifar10_softmax`` — same data, softmax classifier (fast variant used by
  tests);
* ``imagenet_cnn`` — ImageNet-like larger images and class count, small CNN
  (the heavy workload; ResNet stand-in).

A workload is a factory pair so every run gets fresh, identically-seeded
objects.  Workloads live in the shared plugin registry
(:data:`repro.api.registry.WORKLOADS`); new ones plug in with
:func:`register_workload` instead of editing this module::

    from repro.experiments.workloads import Workload, register_workload

    register_workload(Workload(name="my_workload", ...))
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .._registry import WORKLOADS as _WORKLOAD_REGISTRY
from .._registry import register_workload
from ..learning.datasets import (
    Dataset,
    make_blobs,
    make_cifar10_like,
    make_imagenet_like,
    make_linear_regression,
)
from ..learning.models import (
    LinearRegressionModel,
    MLPClassifier,
    Model,
    SimpleCNN,
    SoftmaxClassifier,
)

__all__ = [
    "Workload",
    "WORKLOADS",
    "get_workload",
    "register_workload",
    "registered_workloads",
]


@dataclass(frozen=True)
class Workload:
    """A named dataset + model pairing.

    Attributes
    ----------
    name:
        Workload identifier.
    dataset_factory:
        ``(num_samples, seed) -> Dataset``.
    model_factory:
        ``(dataset, seed) -> Model`` — the model is sized from the dataset.
    default_samples:
        Sample count used when the caller does not override it.
    description:
        What the workload stands in for.
    """

    name: str
    dataset_factory: Callable[[int, int], Dataset]
    model_factory: Callable[[Dataset, int], Model]
    default_samples: int
    description: str

    def make_dataset(self, num_samples: int | None = None, seed: int = 0) -> Dataset:
        """Build the dataset with ``num_samples`` samples (default preset size)."""
        return self.dataset_factory(num_samples or self.default_samples, seed)

    def make_model(self, dataset: Dataset, seed: int = 0) -> Model:
        """Build a fresh model sized for ``dataset``."""
        return self.model_factory(dataset, seed)


def _blobs_softmax_model(dataset: Dataset, seed: int) -> Model:
    return SoftmaxClassifier(dataset.num_features, dataset.num_classes, rng=seed)


def _cifar_mlp_model(dataset: Dataset, seed: int) -> Model:
    return MLPClassifier(
        dataset.num_features,
        dataset.num_classes,
        hidden_sizes=(64,),
        rng=seed,
    )


def _linear_regression_model(dataset: Dataset, seed: int) -> Model:
    return LinearRegressionModel(dataset.num_features, rng=seed)


def _imagenet_cnn_model(dataset: Dataset, seed: int) -> Model:
    image_size = dataset.feature_shape[0]
    channels = dataset.feature_shape[2]
    return SimpleCNN(
        image_size=image_size,
        channels=channels,
        num_classes=dataset.num_classes,
        num_filters=4,
        rng=seed,
    )


for _workload in (
    Workload(
        name="blobs_softmax",
        dataset_factory=lambda n, seed: make_blobs(
            num_samples=n, num_features=32, num_classes=10, rng=seed
        ),
        model_factory=_blobs_softmax_model,
        default_samples=1024,
        description="Gaussian blobs + softmax classifier (fast smoke workload)",
    ),
    Workload(
        name="cifar10_softmax",
        dataset_factory=lambda n, seed: make_cifar10_like(num_samples=n, rng=seed),
        model_factory=_blobs_softmax_model,
        default_samples=1024,
        description="CIFAR-10-like images + softmax classifier",
    ),
    Workload(
        name="nonseparable_blobs",
        dataset_factory=lambda n, seed: make_blobs(
            num_samples=n,
            num_features=16,
            num_classes=10,
            separation=1.0,
            noise=2.0,
            rng=seed,
        ),
        model_factory=_blobs_softmax_model,
        default_samples=1024,
        description=(
            "Low-dimensional overlapping Gaussian classes (non-zero Bayes "
            "error, more samples than features) + softmax classifier.  Used "
            "for loss-curve comparisons where gradient quality matters: the "
            "model cannot interpolate the data, so stale or noisy updates "
            "leave a visible loss gap."
        ),
    ),
    Workload(
        name="cifar10_hard",
        dataset_factory=lambda n, seed: make_cifar10_like(
            num_samples=n, separation=0.6, noise=2.0, rng=seed
        ),
        model_factory=_blobs_softmax_model,
        default_samples=1024,
        description=(
            "CIFAR-10-like images with overlapping classes (non-zero Bayes "
            "error) + softmax classifier; used for loss-curve comparisons "
            "where gradient quality matters"
        ),
    ),
    Workload(
        name="cifar10_mlp",
        dataset_factory=lambda n, seed: make_cifar10_like(num_samples=n, rng=seed),
        model_factory=_cifar_mlp_model,
        default_samples=2048,
        description="CIFAR-10-like images + MLP (AlexNet stand-in)",
    ),
    Workload(
        name="linear_regression",
        dataset_factory=lambda n, seed: make_linear_regression(
            num_samples=n, num_features=16, noise=0.1, rng=seed
        ),
        model_factory=_linear_regression_model,
        default_samples=1024,
        description=(
            "Synthetic y = Xw* + noise regression + least-squares linear "
            "model; the non-classification workload (convex, closed-form "
            "optimum) used to sanity-check protocols independently of "
            "softmax dynamics"
        ),
    ),
    Workload(
        name="imagenet_cnn",
        dataset_factory=lambda n, seed: make_imagenet_like(
            num_samples=n, num_classes=20, image_size=32, rng=seed
        ),
        model_factory=_imagenet_cnn_model,
        default_samples=1024,
        description="ImageNet-like images + small CNN (ResNet stand-in)",
    ),
):
    register_workload(_workload)

#: Live read-only view of every registered workload (builtins plus plugins).
WORKLOADS: Mapping[str, Workload] = _WORKLOAD_REGISTRY.as_mapping()


def registered_workloads() -> tuple[str, ...]:
    """Every workload currently registered (builtins plus plugins)."""
    return _WORKLOAD_REGISTRY.names()


def get_workload(name: str) -> Workload:
    """Look a workload up by name."""
    if name not in _WORKLOAD_REGISTRY:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        )
    return _WORKLOAD_REGISTRY.get(name)

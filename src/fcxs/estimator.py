"""Scikit-learn-style estimator facade over the segmentation stack.

``FCNSegmenter`` follows the estimator protocol (constructor arguments
stored verbatim, ``get_params``/``set_params``, learned state in
underscore-suffixed attributes) without depending on scikit-learn, so
it composes with tooling that clones and re-fits estimators.

X is a batch of square grayscale images, (n, H, W) or (n, 1, H, W);
y is the matching (n, 3, H, W) stack of binary organ masks in the order
lungs, clavicles, heart.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from .data import (
    CLASS_NAMES,
    DatasetSplit,
    NormStats,
    Sample,
    compute_norm_stats,
    normalize_image,
    normalize_samples,
    split_dataset,
)
from .errors import ConfigError
from .losses import LossConfig
from .metrics import dice, jaccard_from_dice
from .models import ArchConfig, build_network, ensemble_predict, organ_probabilities
from .training import train
from .validation import check_image_batch, check_is_fitted, check_mask_batch


class FCNSegmenter:
    """Multi-class organ segmentation with one of the four architectures.

    Parameters mirror the run configuration: ``arch`` picks the
    topology, ``loss`` the distance ('dice' pairs with a sigmoid head,
    'cross_entropy' with softmax), ``weighted`` toggles inverse
    class-frequency weights, and ``valid_fraction`` carves a monitoring
    split off the training data (0 monitors on the training images).
    """

    def __init__(
        self,
        arch: str = "invertednet",
        loss: str = "dice",
        weighted: bool = True,
        activation: str = "elu",
        drop_probability: float = 0.1,
        base_channels: Optional[int] = None,
        epochs: int = 100,
        batch_size: int = 2,
        lr: float = 1e-5,
        patience: int = 50,
        valid_fraction: float = 0.0,
        epsilon: float = 0.25,
        seed: int = 0,
    ):
        self.arch = arch
        self.loss = loss
        self.weighted = weighted
        self.activation = activation
        self.drop_probability = drop_probability
        self.base_channels = base_channels
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.patience = patience
        self.valid_fraction = valid_fraction
        self.epsilon = epsilon
        self.seed = seed
        self.net_ = None
        self.norm_stats_: Optional[NormStats] = None
        self.history_ = None

    # -- sklearn protocol ----------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "FCNSegmenter":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(
                    f"invalid parameter {key!r} for {type(self).__name__}; valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- estimator API ---------------------------------------------------------

    def fit(self, X, y) -> "FCNSegmenter":
        X = check_image_batch(X)
        y = check_mask_batch(y, X.shape[0], X.shape[2:])
        resolution = X.shape[2]
        loss_config = LossConfig(self.loss, weighted=self.weighted)
        config = ArchConfig(
            arch=self.arch,
            input_resolution=resolution,
            head=loss_config.head,
            activation=self.activation,
            drop_probability=self.drop_probability,
            base_channels=self.base_channels,
            init_seed=self.seed,
        )
        samples = [Sample(f"s{i:05d}", X[i], y[i]) for i in range(X.shape[0])]
        self.norm_stats_ = compute_norm_stats(samples)
        normed = normalize_samples(samples, self.norm_stats_)
        ids = [s.id for s in normed]
        if not 0.0 <= self.valid_fraction < 1.0:
            raise ConfigError(f"valid_fraction must be in [0, 1), got {self.valid_fraction}")
        if self.valid_fraction > 0.0 and len(ids) > 1:
            split = split_dataset(
                ids,
                fractions=(1.0 - self.valid_fraction, self.valid_fraction, 0.0),
                seed=self.seed,
            )
        else:
            split = DatasetSplit(ids, [], [], self.seed, "all-train")
        net = build_network(config)
        self.net_, self.history_ = train(
            net,
            normed,
            split,
            loss_config,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed,
            patience=self.patience,
            epsilon=self.epsilon,
        )
        self.classes_ = CLASS_NAMES
        return self

    def _normalized(self, X) -> np.ndarray:
        X = check_image_batch(X)
        if X.shape[2] != self.net_.config.input_resolution:
            raise ConfigError(
                f"X resolution {X.shape[2]} does not match the fitted model "
                f"({self.net_.config.input_resolution})"
            )
        return normalize_image(X, self.norm_stats_)

    def predict_proba(self, X) -> np.ndarray:
        """Per-organ probability maps, (n, 3, H, W) float32."""
        check_is_fitted(self)
        X = self._normalized(X)
        return np.stack([organ_probabilities(self.net_, x) for x in X])

    def predict(self, X) -> np.ndarray:
        """Thresholded per-organ masks, (n, 3, H, W) uint8."""
        check_is_fitted(self)
        return np.stack([ensemble_predict([self.net_], x, self.epsilon) for x in self._normalized(X)])

    def score(self, X, y) -> float:
        """Mean Jaccard over images and organ classes."""
        check_is_fitted(self)
        preds = self.predict(X)
        y = check_mask_batch(y, preds.shape[0], preds.shape[2:])
        scores = [
            jaccard_from_dice(dice(preds[i, c], y[i, c]))
            for i in range(preds.shape[0])
            for c in range(3)
        ]
        return float(np.mean(scores))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._param_names())
        return f"{type(self).__name__}({params})"

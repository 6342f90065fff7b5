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

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .config import ArchSection, DataConfig, EvalSection, RunConfig, TrainSection
from .data import CLASS_NAMES, DatasetSplit, Sample, normalize_image, split_dataset
from .errors import ConfigError, DataError
from .evaluation import evaluate
from .losses import LossConfig
from .models import ensemble_predict, organ_probabilities
from .training import train_run


def check_image_batch(X) -> np.ndarray:
    """Coerce to (n, 1, H, W) float32 square grayscale images."""
    arr = np.asarray(X)
    if arr.ndim == 3:
        arr = arr[:, None, :, :]
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise DataError(f"X must be (n, H, W) or (n, 1, H, W) grayscale images, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DataError("X is empty")
    if arr.shape[2] != arr.shape[3]:
        raise DataError(f"images must be square, got {arr.shape[2]}x{arr.shape[3]}")
    arr = arr.astype(np.float32)
    if not np.isfinite(arr).all():
        raise DataError("X contains non-finite values")
    return arr


def check_mask_batch(y, n: int, hw: tuple[int, int]) -> np.ndarray:
    """Coerce to (n, 3, H, W) binary uint8 organ masks matching X."""
    arr = np.asarray(y)
    if arr.ndim != 4 or arr.shape[1] != 3:
        raise DataError(f"y must be (n, 3, H, W) binary organ masks, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise DataError(f"y has {arr.shape[0]} samples but X has {n}")
    if arr.shape[2:] != hw:
        raise DataError(f"y spatial dims {arr.shape[2:]} do not match X {hw}")
    if not np.isin(arr, (0, 1)).all():
        raise DataError("y masks must be binary (0/1)")
    return arr.astype(np.uint8)


def _samples(X: np.ndarray, y) -> list[Sample]:
    """Checked (n, 1, H, W) images and their masks y as Samples in index order."""
    y = check_mask_batch(y, X.shape[0], X.shape[2:])
    return [Sample(f"s{i:05d}", X[i], y[i]) for i in range(X.shape[0])]


@dataclass(eq=False)
class FCNSegmenter:
    """Multi-class organ segmentation with one of the four architectures.

    Parameters mirror the run configuration and share its defaults:
    ``arch`` picks the topology, ``loss`` the distance ('dice' pairs with
    a sigmoid head, 'cross_entropy' with softmax), ``weighted`` toggles
    inverse class-frequency weights, and ``valid_fraction`` carves a
    monitoring split off the training data (0 monitors on the training
    images).  ``fit`` checks them against the run config's rules before
    the first epoch.
    """

    arch: str = ArchSection.arch
    loss: str = LossConfig.distance
    weighted: bool = LossConfig.weighted
    activation: str = ArchSection.activation
    drop_probability: float = ArchSection.drop_probability
    base_channels: Optional[int] = ArchSection.base_channels
    epochs: int = TrainSection.epochs
    batch_size: int = TrainSection.batch_size
    lr: float = TrainSection.lr
    patience: int = TrainSection.patience
    valid_fraction: float = 0.0
    epsilon: float = EvalSection.epsilon
    seed: int = TrainSection.seed

    # learned state: unannotated, so not constructor parameters
    net_ = None
    norm_stats_ = None
    history_ = None

    # -- sklearn protocol ----------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "FCNSegmenter":
        valid = {f.name for f in fields(self)}
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(
                    f"invalid parameter {key!r} for {type(self).__name__}; valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- estimator API ---------------------------------------------------------

    def fit(self, X, y) -> "FCNSegmenter":
        """Train on (X, y) through the same protocol as ``fcxs train``.

        With ``valid_fraction > 0`` a seeded share of the images becomes
        the monitoring split; otherwise every image trains and is
        monitored.  The normalization statistics (``norm_stats_``) come
        from the training split's pixels alone.
        """
        X = check_image_batch(X)
        samples = _samples(X, y)
        if not 0.0 <= self.valid_fraction < 1.0:
            raise ConfigError(f"valid_fraction must be in [0, 1), got {self.valid_fraction}")
        ids = [s.id for s in samples]
        if self.valid_fraction > 0.0 and len(ids) > 1:
            fractions = (1.0 - self.valid_fraction, self.valid_fraction, 0.0)
            split = split_dataset(ids, fractions=fractions, seed=self.seed)
        else:
            split = DatasetSplit(ids, [], [], self.seed, "all-train")
        cfg = RunConfig(
            data=DataConfig(resolution=X.shape[2]),
            arch=ArchSection(self.arch, self.activation, self.drop_probability, self.base_channels, self.seed),
            loss=LossConfig(self.loss, self.weighted),
            train=TrainSection(self.epochs, self.batch_size, self.lr, self.patience, self.seed),
            eval=EvalSection(epsilon=self.epsilon),
        )
        self.net_, self.history_, self.norm_stats_ = train_run(cfg, samples, split)
        self.classes_ = CLASS_NAMES
        return self

    def _normalized(self, X) -> np.ndarray:
        """X checked against the fitted model and normalized by ``norm_stats_``."""
        if self.net_ is None:
            raise ConfigError(f"{type(self).__name__} is not fitted yet; call fit first")
        X = check_image_batch(X)
        if X.shape[2] != self.net_.config.input_resolution:
            raise ConfigError(
                f"X resolution {X.shape[2]} does not match the fitted model "
                f"({self.net_.config.input_resolution})"
            )
        return normalize_image(X, self.norm_stats_)

    def predict_proba(self, X) -> np.ndarray:
        """Per-organ probability maps, (n, 3, H, W) float32."""
        return np.stack([organ_probabilities(self.net_, x) for x in self._normalized(X)])

    def predict(self, X) -> np.ndarray:
        """Thresholded per-organ masks, (n, 3, H, W) uint8."""
        return np.stack([ensemble_predict([self.net_], x, self.epsilon) for x in self._normalized(X)])

    def score(self, X, y) -> float:
        """Mean Jaccard over images and organ classes: the mean ``jaccard``
        of the ``evaluate`` records, so the targets follow the head as in
        ``fcxs eval`` (the stored masks for 'dice', the disjoint organ
        channels for 'cross_entropy')."""
        samples = _samples(self._normalized(X), y)
        records, _ = evaluate(self.net_, samples, self.epsilon, with_surface_distance=False)
        return float(np.mean([r.jaccard for r in records]))


"""Overlap and surface-distance metrics for binary segmentation masks.

A predicted mask is the "certain pixel" set: pixels whose class
probability is strictly above 1 - epsilon (epsilon defaults to 0.25).
Dice and Jaccard are the usual set-overlap coefficients, related by
J = D / (2 - D).  The symmetric mean absolute surface distance averages
nearest-boundary distances in both directions between the two mask
boundaries (4-connectivity; the image border counts as background).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

DEFAULT_EPSILON = 0.25


def certain_pixels(probabilities: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Pixels where |p - 1| < epsilon, i.e. strictly p > 1 - epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    p = np.asarray(probabilities)
    return (np.abs(p - 1.0) < epsilon).astype(np.uint8)


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|); defined as 1 when both masks are empty."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    total = int(pred.sum()) + int(gt.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((pred & gt).sum()) / total


def jaccard_from_dice(d: float) -> float:
    return d / (2.0 - d)


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with at least one non-mask 4-neighbor (border = non-mask)."""
    m = np.asarray(mask).astype(bool)
    padded = np.pad(m, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return m & ~interior


def _nearest_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """For each row of src (k,2), Euclidean distance to the nearest dst row."""
    out = np.empty(len(src))
    chunk = max(1, 2_000_000 // max(len(dst), 1))
    for start in range(0, len(src), chunk):
        block = src[start : start + chunk]
        d2 = ((block[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def surface_distance_symmetric(pred: np.ndarray, gt: np.ndarray, spacing: float = 1.0) -> float:
    """Symmetric mean absolute surface distance in pixel units (or mm via spacing).

    Undefined for an empty mask: returns NaN so callers can report a
    missing value.
    """
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    if not pred.any() or not gt.any():
        return float("nan")
    pb = np.argwhere(boundary_pixels(pred)).astype(np.float64)
    gb = np.argwhere(boundary_pixels(gt)).astype(np.float64)
    forward = _nearest_distances(pb, gb).mean()
    backward = _nearest_distances(gb, pb).mean()
    return float(0.5 * (forward + backward) * spacing)

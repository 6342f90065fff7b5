"""Class-frequency-weighted training objectives.

Given a minibatch with total pixel count c and per-class pixel counts
c_l, the weight ratios are r_l = c_l / c and the loss multiplies each
class distance by 1/r_l, so scarce classes (clavicles) contribute on
par with dominant ones (lungs).

Two distance functions are supported, each tied to an output head and
the ``data.build_groundtruth`` target channels it names:

* cross entropy -- softmax head, background plus disjoint organs (4 channels);
  the per-class distance is the masked mean log probability
  (1/c) * sum_x chi_l(x) * log p_l(x), with probabilities clamped to
  [1e-7, 1 - 1e-7] so an unlucky zero never produces NaN.
* dice          -- sigmoid head, the overlapping organ masks (3 channels);
  the per-class distance is the soft overlap
  2 * sum(chi_l * p_l) / sum(chi_l + p_l), which works on real-valued
  maps and needs no thresholding inside the training loop.

Both distances are negated and weight-summed into the scalar loss
L = -sum_l w_l * d_l, differentiable end to end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import ops
from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

PROB_CLAMP = 1e-7
DISTANCES = ("cross_entropy", "dice")


@dataclass(frozen=True)
class LossConfig:
    """Distance choice plus whether inverse class-frequency weights apply."""

    distance: str = "dice"
    weighted: bool = True

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ConfigError(f"distance: unknown distance {self.distance!r}; expected one of {DISTANCES}")

    @property
    def head(self) -> str:
        return "softmax" if self.distance == "cross_entropy" else "sigmoid"

    def validate_pairing(self, arch_config) -> None:
        if arch_config.head != self.head:
            raise ConfigError(
                f"loss distance {self.distance!r} requires a {self.head} head, "
                f"but the architecture uses {arch_config.head!r}"
            )


def _as_channel_stack(chi: np.ndarray) -> np.ndarray:
    if chi.ndim != 4:
        raise ShapeError(f"expected stacked ground truth (N,L,H,W), got shape {chi.shape}")
    return chi


def class_weights(ground_truths) -> np.ndarray:
    """Per-class pixel fractions r_l = c_l / c over a batch.

    A class absent from the whole batch gets its count clamped to one
    pixel (with a warning) so the inverse weight stays finite.
    """
    chi = _as_channel_stack(ground_truths)
    total = float(chi.shape[0] * chi.shape[2] * chi.shape[3])
    counts = chi.sum(axis=(0, 2, 3)).astype(np.float64)
    absent = counts == 0
    if absent.any():
        warnings.warn(
            f"classes {np.flatnonzero(absent).tolist()} absent from batch; "
            "clamping their pixel count to 1",
            stacklevel=2,
        )
        counts[absent] = 1.0
    return counts / total


def segmentation_loss(p: Tensor, ground_truth, config: LossConfig, weights=None) -> Tensor:
    """The scalar objective L = -sum_l w_l * d_l over all classes.

    ``weights`` are the inverse ratios 1/r_l; computed from the batch
    when omitted and config.weighted is set, all ones otherwise.
    Vectorized over channels: ``d`` holds the per-class distance d_l of
    the module docstring for every class at once.
    """
    chi = _as_channel_stack(ground_truth)
    if p.shape != chi.shape:
        raise ShapeError(f"probability maps {p.shape} do not match ground truth {chi.shape}")
    n_classes = chi.shape[1]
    if weights is None:
        weights = 1.0 / class_weights(chi) if config.weighted else np.ones(n_classes)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_classes,):
        raise ShapeError(f"weights shape {weights.shape} != ({n_classes},)")
    chi = chi.astype(p.data.dtype)
    w = Tensor(weights.astype(p.data.dtype))

    if config.distance == "cross_entropy":
        c_total = float(chi.shape[0] * chi.shape[2] * chi.shape[3])
        masked = T.mul(T.log(T.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)), Tensor(chi))
        d = T.mul(ops.sum_per_channel(masked), 1.0 / c_total)
    else:
        chi_sums = chi.sum(axis=(0, 2, 3))
        p_sums = p.data.sum(axis=(0, 2, 3))
        smooth = ((chi_sums == 0) & (p_sums == 0)).astype(np.float64)
        numer = T.add(T.mul(ops.sum_per_channel(T.mul(p, Tensor(chi))), 2.0), Tensor(smooth.astype(p.data.dtype)))
        denom = T.add(ops.sum_per_channel(p), Tensor((chi_sums + smooth).astype(p.data.dtype)))
        d = T.div(numer, denom)
    return T.mul(T.tsum(T.mul(d, w)), -1.0)

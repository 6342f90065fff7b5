"""Dataset ingestion, ground-truth targets, normalization, splits, and
the synthetic generator used for desk-scale verification.

The loss distance picks the target channels ``build_groundtruth`` makes:

* ``dice``          -- the three organ masks exactly as stored (3 channels,
  overlaps permitted; lungs keep any clavicle overlap).
* ``cross_entropy`` -- four disjoint channels (background, lungs,
  clavicles, heart) that partition the pixel grid.  Overlaps are
  resolved with priority clavicles > heart > lungs.

In both layouts, as in both network heads, the organs are the last three
channels, so ``[-3:]`` reads them from a target or a prediction alike.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .imageio import read_gray, write_pgm
from .losses import DISTANCES
from .rng import Rng

CLASS_NAMES = ("lungs", "clavicles", "heart")
SPLIT_PRESETS = {
    "60/7/33": (0.60, 0.07, 0.33),
    "50/17/33": (0.50, 0.17, 0.33),
    "45/22/33": (0.45, 0.22, 0.33),
}
STD_GUARD = 1e-8


@dataclass
class Sample:
    """One grayscale image with its three binary organ masks."""

    id: str
    image: np.ndarray  # (1, H, W) float32
    masks: np.ndarray  # (3, H, W) uint8 in {0, 1}

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[0] != 1:
            raise DataError(f"{self.id}: image must be (1,H,W), got {self.image.shape}")
        if self.masks.shape != (3,) + self.image.shape[1:]:
            raise DataError(
                f"{self.id}: masks shape {self.masks.shape} does not match image {self.image.shape}"
            )
        if not np.isin(self.masks, (0, 1)).all():
            raise DataError(f"{self.id}: masks must be binary")


def build_groundtruth(sample: Sample, distance: str) -> np.ndarray:
    """The (L,H,W) uint8 target channels the loss ``distance`` trains against."""
    if distance not in DISTANCES:
        raise ConfigError(f"unknown distance {distance!r}; expected one of {DISTANCES}")
    if distance == "dice":
        return sample.masks.copy()
    lungs, clavicles, heart = sample.masks.astype(bool)
    # disjointify: clavicles > heart > lungs, background is the complement
    heart_d = heart & ~clavicles
    lungs_d = lungs & ~clavicles & ~heart_d
    background = ~(clavicles | heart_d | lungs_d)
    return np.stack([background, lungs_d, clavicles, heart_d]).astype(np.uint8)


# -- normalization ---------------------------------------------------------------


@dataclass
class NormStats:
    mean: float
    std: float


def compute_norm_stats(samples: Sequence[Sample]) -> NormStats:
    """Single global mean/std over all training pixels."""
    if not samples:
        raise DataError("cannot compute normalization stats from an empty training set")
    pixels = np.concatenate([s.image.reshape(-1) for s in samples]).astype(np.float64)
    return NormStats(float(pixels.mean()), float(pixels.std()))


def normalize_image(image: np.ndarray, stats: NormStats) -> np.ndarray:
    """Zero-center then scale by the training std (skipped when degenerate)."""
    image = image.astype(np.float32) - np.float32(stats.mean)
    return image if stats.std < STD_GUARD else image / np.float32(stats.std)


def normalize_samples(samples: Sequence[Sample], stats: NormStats) -> list[Sample]:
    """Each sample normalized by ``stats``; a degenerate std warns once per sample."""
    if stats.std < STD_GUARD:
        for s in samples:
            warnings.warn(f"{s.id}: training std {stats.std:.3e} below guard; scaling skipped", stacklevel=2)
    return [Sample(s.id, normalize_image(s.image, stats), s.masks) for s in samples]


def normalize_by_train_split(samples: Sequence[Sample], split: DatasetSplit) -> tuple[list[Sample], NormStats]:
    """Every sample normalized by the stats of the ``split.train`` pixels alone,
    so nothing fitted sees a validation or test image."""
    train_ids = set(split.train)
    stats = compute_norm_stats([s for s in samples if s.id in train_ids])
    return normalize_samples(samples, stats), stats


# -- splits -----------------------------------------------------------------------


@dataclass
class DatasetSplit:
    train: list[str]
    valid: list[str]
    test: list[str]
    seed: int
    scheme: str

    def __post_init__(self):
        if not self.train:
            raise ConfigError("training split is empty")
        groups = [set(self.train), set(self.valid), set(self.test)]
        total = sum(len(g) for g in groups)
        union = set().union(*groups)
        if total != len(union):
            raise DataError("split groups overlap")

    def to_dict(self) -> dict:
        return {
            "train": list(self.train),
            "valid": list(self.valid),
            "test": list(self.test),
            "seed": self.seed,
            "scheme": self.scheme,
        }


def save_split(split: DatasetSplit, path) -> None:
    Path(path).write_text(json.dumps(split.to_dict(), indent=2, sort_keys=True) + "\n")


def split_dataset(
    ids: Sequence[str],
    scheme: str = "fractions",
    fractions: tuple[float, float, float] = SPLIT_PRESETS["60/7/33"],
    fold: Optional[int] = None,
    seed: int = 0,
) -> DatasetSplit:
    """Seeded shuffle followed by contiguous cuts.

    ``fractions`` splits into train/valid/test directly; ``threefold``
    uses near-equal test folds and divides the remainder train/valid in
    the proportion the fractions give them.
    """
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate ids in dataset")
    f_train, f_valid, f_test = fractions
    if abs(f_train + f_valid + f_test - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    if min(fractions) < 0:
        raise ConfigError(f"split fractions must be non-negative, got {fractions}")
    order = [ids[i] for i in Rng(seed).child(0).permutation(len(ids))]
    if scheme == "fractions":
        n = len(order)
        n_train = round(f_train * n)
        n_valid = n - n_train if f_test == 0 else round(f_valid * n)
        if n_train + n_valid > n:
            raise ConfigError("split fractions leave no room for a test set")
        return DatasetSplit(
            order[:n_train],
            order[n_train : n_train + n_valid],
            order[n_train + n_valid :],
            seed,
            "fractions",
        )
    if scheme == "threefold":
        if fold not in (0, 1, 2):
            raise ConfigError(f"threefold fold index must be 0, 1 or 2, got {fold}")
        n = len(order)
        base, extra = divmod(n, 3)
        sizes = [base + (1 if i < extra else 0) for i in range(3)]
        starts = [sum(sizes[:i]) for i in range(3)]
        test = order[starts[fold] : starts[fold] + sizes[fold]]
        rest = order[: starts[fold]] + order[starts[fold] + sizes[fold] :]
        denom = f_train + f_valid
        n_train = round(len(rest) * (f_train / denom)) if denom > 0 else len(rest)
        return DatasetSplit(rest[:n_train], rest[n_train:], test, seed, f"threefold[{fold}]")
    raise ConfigError(f"unknown split scheme {scheme!r}; expected 'fractions' or 'threefold'")


# -- synthetic data ----------------------------------------------------------------


def _ellipse(grid_y, grid_x, cy, cx, ry, rx) -> np.ndarray:
    return ((grid_y - cy) / ry) ** 2 + ((grid_x - cx) / rx) ** 2 <= 1.0


def _rotated_bar(grid_y, grid_x, cy, cx, length, thickness, angle) -> np.ndarray:
    dy, dx = grid_y - cy, grid_x - cx
    along = dx * math.cos(angle) + dy * math.sin(angle)
    across = -dx * math.sin(angle) + dy * math.cos(angle)
    return (np.abs(along) <= length / 2) & (np.abs(across) <= thickness / 2)


def _box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return image
    k = 2 * radius + 1
    padded = np.pad(image, radius, mode="edge")
    csum = padded.cumsum(axis=0)
    csum = np.vstack([np.zeros((1, csum.shape[1])), csum])
    vert = (csum[k:] - csum[:-k]) / k
    csum = vert.cumsum(axis=1)
    csum = np.hstack([np.zeros((csum.shape[0], 1)), csum])
    return (csum[:, k:] - csum[:, :-k]) / k


def synth_generate(n: int, resolution: int, seed: int) -> list[Sample]:
    """Synthetic chest-like phantoms: two tall ellipses, two thin rotated
    bars overlapping their tops, one central blob.

    The bar class is deliberately scarce (a few percent of organ pixels)
    so the class-imbalance machinery has something to balance.  Masks
    are exact; the image is a smoothed composite plus seeded noise.
    """
    if n < 1:
        raise ConfigError(f"synth_generate needs n >= 1, got {n}")
    if resolution < 16:
        raise ConfigError(f"synthetic resolution must be >= 16, got {resolution}")
    r = float(resolution)
    grid_y, grid_x = np.mgrid[0:resolution, 0:resolution].astype(np.float64)
    samples = []
    for i in range(n):
        rng = Rng(seed).child(i)
        jitter = lambda scale: float(rng.uniform(-scale, scale, ()))  # noqa: E731
        lung_cy = 0.42 * r + jitter(0.02 * r)
        lung_ry = 0.24 * r + jitter(0.02 * r)
        lung_rx = 0.13 * r + jitter(0.01 * r)
        lungs = np.zeros((resolution, resolution), dtype=bool)
        clavicles = np.zeros_like(lungs)
        for side, cx_frac in ((0, 0.30), (1, 0.70)):
            cx = cx_frac * r + jitter(0.02 * r)
            lungs |= _ellipse(grid_y, grid_x, lung_cy, cx, lung_ry, lung_rx)
            angle = math.radians(float(rng.uniform(5.0, 15.0, ())) * (1 if side else -1))
            clavicles |= _rotated_bar(
                grid_y,
                grid_x,
                lung_cy - lung_ry + 0.03 * r,
                cx,
                length=0.22 * r,
                thickness=max(1.0, 0.025 * r),
                angle=angle,
            )
        heart = _ellipse(
            grid_y,
            grid_x,
            0.62 * r + jitter(0.02 * r),
            0.50 * r + jitter(0.02 * r),
            0.13 * r + jitter(0.01 * r),
            0.16 * r + jitter(0.015 * r),
        )
        masks = np.stack([lungs, clavicles, heart]).astype(np.uint8)
        if (masks.sum(axis=(1, 2)) == 0).any():
            raise DataError(f"synthetic sample {i} produced an empty mask")
        composite = np.full((resolution, resolution), 0.15)
        composite[lungs] = 0.45
        composite[heart] = 0.65
        composite[clavicles] = 0.85
        image = _box_blur(composite, max(1, resolution // 64))
        image = image + 0.05 * rng.normal((resolution, resolution), dtype=np.float64)
        samples.append(Sample(f"synth{i:04d}", image[None].astype(np.float32), masks))
    return samples


# -- on-disk datasets ---------------------------------------------------------------


def _read_unit(path, resolution: int, what: str) -> np.ndarray:
    """The gray file at ``path`` scaled to [0, 1]; a file that is not square
    or not an integer multiple of ``resolution`` in size is a DataError
    naming ``what``."""
    arr, maxval = read_gray(path)
    if arr.shape[0] != arr.shape[1]:
        raise DataError(f"{what} is not square ({arr.shape})")
    if arr.shape[0] % resolution != 0:
        raise DataError(f"{what} size {arr.shape[0]} is not an integer multiple of {resolution}")
    return arr.astype(np.float64) / maxval


def _downsample(image: np.ndarray, resolution: int) -> np.ndarray:
    """Block means down to ``resolution`` x ``resolution``."""
    factor = image.shape[0] // resolution
    if factor == 1:
        return image
    return image.reshape(resolution, factor, resolution, factor).mean(axis=(1, 3))


def load_dataset(root, resolution: int) -> list[Sample]:
    """Load images/<id>.(pgm|png) with masks/<id>_<class>.(pgm|png).

    Incomplete or malformed samples are reported per id in one warning
    and skipped; ids are returned in lexicographic order.
    """
    root = Path(root)
    image_dir = root / "images"
    mask_dir = root / "masks"
    if not image_dir.is_dir():
        raise DataError(f"{root}: missing images/ directory")
    image_paths = sorted(
        (p for p in image_dir.iterdir() if p.suffix.lower() in (".pgm", ".png")),
        key=lambda p: p.stem,
    )
    samples: list[Sample] = []
    problems: list[str] = []
    for path in image_paths:
        sample_id = path.stem
        try:
            image = _downsample(_read_unit(path, resolution, f"{sample_id}: image"), resolution)
            masks = []
            for cls in CLASS_NAMES:
                candidates = [mask_dir / f"{sample_id}_{cls}{ext}" for ext in (".pgm", ".png")]
                found = next((c for c in candidates if c.exists()), None)
                if found is None:
                    raise DataError(f"{sample_id}: missing mask {cls!r}")
                # binarize at half range, then keep the blocks at least half covered
                binary = _read_unit(found, resolution, f"{sample_id}: mask {cls!r}") >= 0.5
                masks.append((_downsample(binary.astype(np.float64), resolution) >= 0.5).astype(np.uint8))
            samples.append(Sample(sample_id, image[None].astype(np.float32), np.stack(masks)))
        except DataError as exc:
            problems.append(str(exc))
    if problems:
        warnings.warn("; ".join(problems), stacklevel=2)
    return samples


def save_dataset(samples: Sequence[Sample], root) -> None:
    """Write samples as 8-bit PGM images and 0/255 PGM masks."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for s in samples:
        image = np.clip(s.image[0], 0.0, 1.0) * 255.0
        write_pgm(root / "images" / f"{s.id}.pgm", image)
        for idx, cls in enumerate(CLASS_NAMES):
            write_pgm(root / "masks" / f"{s.id}_{cls}.pgm", s.masks[idx] * 255)

"""Test-set evaluation: thresholded masks, per-class overlap scores,
surface distances, report tables, and mask/overlay exports.

This is the one place that scores predicted masks: ``score_samples``
accepts a single network or a list (which votes as a strict-majority
ensemble) and produces one EvalRecord per (image, class); ``evaluate``
adds a ReportTable of per-class means, and the training monitor reads
the same records.  Scores use the targets the head was trained on:
overlapping organ masks for sigmoid heads, disjoint organ channels for
softmax heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .data import CLASS_NAMES, Sample, build_groundtruth
from .errors import ConfigError, DataError
from .imageio import write_pgm, write_png
from .metrics import DEFAULT_EPSILON, boundary_pixels, dice, jaccard_from_dice, surface_distance_symmetric
from .models import Network, ensemble_predict


@dataclass
class EvalRecord:
    image_id: str
    class_name: str
    dice: float
    jaccard: float
    surface_distance: float  # NaN when undefined (empty mask)


@dataclass
class ReportTable:
    label: str
    class_names: tuple[str, ...]
    mean_dice: tuple[float, ...]
    mean_jaccard: tuple[float, ...]
    mean_surface_distance: tuple[float, ...]
    n_images: int

    def to_csv(self) -> str:
        lines = ["class,mean_dice,mean_jaccard,mean_surface_distance"]
        for i, name in enumerate(self.class_names):
            sd = self.mean_surface_distance[i]
            sd_text = "NA" if math.isnan(sd) else f"{sd:.6f}"
            lines.append(f"{name},{self.mean_dice[i]:.6f},{self.mean_jaccard[i]:.6f},{sd_text}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(n) for n in self.class_names)
        lines = [
            f"{self.label} ({self.n_images} images)",
            f"{'class':<{width}}  {'D':>8}  {'J':>8}  {'S_d':>8}",
        ]
        for i, name in enumerate(self.class_names):
            sd = self.mean_surface_distance[i]
            sd_text = "      NA" if math.isnan(sd) else f"{sd:8.3f}"
            lines.append(
                f"{name:<{width}}  {self.mean_dice[i]:8.3f}  {self.mean_jaccard[i]:8.3f}  {sd_text}"
            )
        return "\n".join(lines)


def score_samples(
    nets: Union[Network, Sequence[Network]],
    samples: Sequence[Sample],
    epsilon: float = DEFAULT_EPSILON,
    spacing: float = 1.0,
    with_surface_distance: bool = True,
    on_masks: Optional[Callable[[Sample, np.ndarray], None]] = None,
) -> list[EvalRecord]:
    """One EvalRecord per (sample, class), in sample then class order.

    ``on_masks(sample, masks)``, when given, receives each sample's
    predicted (3,H,W) masks, so callers that also export them need no
    second forward pass.
    """
    nets = list(nets) if isinstance(nets, (list, tuple)) else [nets]
    if not nets:
        raise ConfigError("scoring requires at least one network")
    distance = "cross_entropy" if nets[0].config.head == "softmax" else "dice"
    records: list[EvalRecord] = []
    for sample in samples:
        targets = build_groundtruth(sample, distance)[-3:]
        preds = ensemble_predict(nets, sample.image, epsilon)
        if on_masks is not None:
            on_masks(sample, preds)
        for c, name in enumerate(CLASS_NAMES):
            d = dice(preds[c], targets[c])
            sd = (
                surface_distance_symmetric(preds[c], targets[c], spacing)
                if with_surface_distance
                else float("nan")
            )
            records.append(EvalRecord(sample.id, name, d, jaccard_from_dice(d), sd))
    return records


def evaluate(
    nets: Union[Network, Sequence[Network]],
    samples: Sequence[Sample],
    epsilon: float = DEFAULT_EPSILON,
    spacing: float = 1.0,
    with_surface_distance: bool = True,
    label: str = "evaluation",
    on_masks: Optional[Callable[[Sample, np.ndarray], None]] = None,
) -> tuple[list[EvalRecord], ReportTable]:
    """``score_samples`` on a non-empty test set plus its ``summarize`` table."""
    if not samples:
        raise DataError("evaluate: empty test set")
    records = score_samples(nets, samples, epsilon, spacing, with_surface_distance, on_masks)
    return records, summarize(records, label=label)


def summarize(records: Sequence[EvalRecord], label: str = "evaluation") -> ReportTable:
    ids = sorted({r.image_id for r in records})
    mean_d, mean_j, mean_sd = [], [], []
    for name in CLASS_NAMES:
        rows = [r for r in records if r.class_name == name]
        mean_d.append(float(np.mean([r.dice for r in rows])))
        mean_j.append(float(np.mean([r.jaccard for r in rows])))
        sds = [r.surface_distance for r in rows if not math.isnan(r.surface_distance)]
        mean_sd.append(float(np.mean(sds)) if sds else float("nan"))
    return ReportTable(
        label=label,
        class_names=CLASS_NAMES,
        mean_dice=tuple(mean_d),
        mean_jaccard=tuple(mean_j),
        mean_surface_distance=tuple(mean_sd),
        n_images=len(ids),
    )


_RECORD_HEADER = "id,class,dice,jaccard,surface_distance"


def records_to_csv(records: Sequence[EvalRecord]) -> str:
    lines = [_RECORD_HEADER]
    for r in records:
        sd_text = "NA" if math.isnan(r.surface_distance) else f"{r.surface_distance:.6f}"
        lines.append(f"{r.image_id},{r.class_name},{r.dice:.6f},{r.jaccard:.6f},{sd_text}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str, source: str = "records") -> list[EvalRecord]:
    """Parse ``records_to_csv`` text; a malformed line is a DataError naming ``source`` and the line.

    The class is one of ``CLASS_NAMES``, Dice and Jaccard must lie in
    [0, 1], and a surface distance is either ``NA`` or a finite number
    >= 0; a file with no record is a DataError.
    """
    rows = [(number, ln) for number, ln in enumerate(text.split("\n"), start=1) if ln]
    if not rows:
        raise DataError(f"{source}: empty record CSV")
    number, header = rows[0]
    if header != _RECORD_HEADER:
        raise DataError(f"{source}:{number}: unexpected record CSV header: {header!r}")
    if len(rows) == 1:
        raise DataError(f"{source}: no records after the header")
    records = []
    for number, ln in rows[1:]:
        try:
            image_id, cls, d, j, sd = ln.split(",")
            if cls not in CLASS_NAMES:
                raise ValueError(f"class {cls!r} is not one of {CLASS_NAMES}")
            record = EvalRecord(image_id, cls, float(d), float(j), float("nan") if sd == "NA" else float(sd))
            if not (0.0 <= record.dice <= 1.0 and 0.0 <= record.jaccard <= 1.0):
                raise ValueError("dice and jaccard must lie in [0, 1]")
            if sd != "NA" and not 0.0 <= record.surface_distance < math.inf:
                raise ValueError("surface distance must be NA or a finite number >= 0")
        except ValueError as exc:
            raise DataError(f"{source}:{number}: malformed record {ln!r} ({exc})") from exc
        records.append(record)
    return records


def read_records(path) -> list[EvalRecord]:
    """The records CSV at ``path``; a missing, unreadable or malformed file is a DataError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read records {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: records are not UTF-8 text ({exc.reason})") from exc
    return records_from_csv(text, str(path))


def export_masks(
    records_dir,
    sample: Sample,
    masks: np.ndarray,
    overlays: bool = True,
) -> None:
    """Write per-class PGM masks (0/255) and optional contour overlays.

    Overlay convention: ground-truth contour green, prediction red, and
    where the two coincide yellow, on the grayscale image.
    """
    out = Path(records_dir)
    out.mkdir(parents=True, exist_ok=True)
    image = sample.image[0]
    lo, hi = float(image.min()), float(image.max())
    base = np.zeros_like(image) if hi - lo < 1e-12 else (image - lo) / (hi - lo)
    base8 = (base * 255).astype(np.uint8)
    for c, name in enumerate(CLASS_NAMES):
        write_pgm(out / f"{sample.id}_{name}.pgm", masks[c] * 255)
        if overlays:
            gt_contour = boundary_pixels(sample.masks[c]).astype(bool)
            pred_contour = boundary_pixels(masks[c]).astype(bool)
            rgb = np.stack([base8, base8, base8], axis=2)
            rgb[gt_contour] = (0, 255, 0)
            rgb[pred_contour] = (255, 0, 0)
            rgb[gt_contour & pred_contour] = (255, 255, 0)
            write_png(out / f"{sample.id}_{name}_overlay.png", rgb)

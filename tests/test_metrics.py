"""Metric tests against brute-force set-count and all-pairs oracles."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from fcxs.errors import ConfigError, ShapeError
from fcxs.metrics import (
    boundary_pixels,
    certain_pixels,
    dice,
    jaccard_from_dice,
    surface_distance_symmetric,
)

FIXTURE = Path(__file__).parent / "data" / "reference_overlap_pairs.csv"


# -- independent oracles -----------------------------------------------------------


def dice_from_jaccard(j: float) -> float:
    """Inverse of J = D/(2-D)."""
    return 2.0 * j / (1.0 + j)


def dice_oracle(pred, gt):
    """Set-count reimplementation on coordinate sets."""
    p = {tuple(c) for c in np.argwhere(np.asarray(pred, dtype=bool))}
    g = {tuple(c) for c in np.argwhere(np.asarray(gt, dtype=bool))}
    if not p and not g:
        return 1.0
    return 2.0 * len(p & g) / (len(p) + len(g))


def boundary_oracle(mask):
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    out = set()
    for y in range(h):
        for x in range(w):
            if not m[y, x]:
                continue
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or not m[ny, nx]:
                    out.add((y, x))
                    break
    return out


def surface_distance_oracle(pred, gt, spacing=1.0):
    pb = boundary_oracle(pred)
    gb = boundary_oracle(gt)
    d1 = [min(math.dist(p, g) for g in gb) for p in pb]
    d2 = [min(math.dist(g, p) for p in pb) for g in gb]
    return 0.5 * (sum(d1) / len(d1) + sum(d2) / len(d2)) * spacing


def random_mask_pair(rng, size):
    return (
        (rng.uniform(size=(size, size)) < 0.4),
        (rng.uniform(size=(size, size)) < 0.4),
    )


class TestCertainPixels:
    def test_in_out_boundary(self):
        p = np.array([0.8, 0.75, 0.7501, 0.2, 1.0])
        np.testing.assert_array_equal(certain_pixels(p, 0.25), [1, 0, 1, 0, 1])

    def test_matches_per_pixel_bruteforce(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(16, 16))
        got = certain_pixels(p, 0.25)
        for y in range(16):
            for x in range(16):
                assert got[y, x] == (1 if abs(p[y, x] - 1.0) < 0.25 else 0)

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                certain_pixels(np.zeros(3), bad)


class TestDiceJaccard:
    def test_identical_masks(self):
        m = np.zeros((8, 8), dtype=np.uint8)
        m[2:5, 2:5] = 1
        assert dice(m, m) == 1.0
        assert jaccard_from_dice(dice(m, m)) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[0, 0] = 1
        b[7, 7] = 1
        assert dice(a, b) == 0.0

    def test_half_overlap_counts(self):
        a = np.zeros((20, 20), dtype=np.uint8)
        b = np.zeros((20, 20), dtype=np.uint8)
        a.reshape(-1)[:100] = 1
        b.reshape(-1)[50:150] = 1
        assert dice(a, b) == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        z = np.zeros((4, 4))
        assert dice(z, z) == 1.0

    def test_matches_set_count_oracle_on_random_masks(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            size = int(rng.integers(4, 65))
            a, b = random_mask_pair(rng, size)
            assert dice(a, b) == pytest.approx(dice_oracle(a, b), abs=0)
            assert jaccard_from_dice(dice(a, b)) == pytest.approx(
                len(
                    {tuple(c) for c in np.argwhere(a)} & {tuple(c) for c in np.argwhere(b)}
                )
                / max(len({tuple(c) for c in np.argwhere(a)} | {tuple(c) for c in np.argwhere(b)}), 1)
                if (a.any() or b.any())
                else 1.0,
                abs=1e-12,
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice(np.zeros((3, 3)), np.zeros((4, 4)))


class TestJaccardDiceConversion:
    def test_endpoints(self):
        assert jaccard_from_dice(1.0) == 1.0
        assert jaccard_from_dice(0.0) == 0.0

    def test_named_reference_pairs(self):
        for d, j in ((0.974, 0.950), (0.929, 0.868), (0.937, 0.882)):
            assert jaccard_from_dice(d) == pytest.approx(j, abs=1e-3)

    def test_roundtrip(self):
        for d in np.linspace(0, 1, 101):
            assert dice_from_jaccard(jaccard_from_dice(d)) == pytest.approx(d, abs=1e-12)

    def test_reference_table_consistency(self):
        """Every published (D, J) pair is consistent with J = D/(2-D).

        Both values are independently rounded to three decimals, so the
        exact consistency check is interval overlap at half-ulp 0.0005;
        the direct gap |J - D/(2-D)| is then bounded by
        0.0005 * (1 + 2/(2-D)^2) < 0.0015.  One ensemble pair carries a
        one-ulp transcription slip (0.910 -> 0.833, where 0.910 maps to
        0.8349 and no value rounding to 0.910 maps into 0.833 +- 0.0005);
        it is asserted as the single known exception.
        """
        rows = list(csv.DictReader(FIXTURE.open()))
        assert len(rows) == 66
        inconsistent = []
        for row in rows:
            d, j = float(row["dice"]), float(row["jaccard"])
            # the alternative reading 2/(2-D) exceeds 1, so it cannot be a score
            assert 2.0 / (2.0 - d) > 1.0
            j_lo = jaccard_from_dice(d - 0.0005)
            j_hi = jaccard_from_dice(d + 0.0005)
            if not (j_lo <= j + 0.0005 and j - 0.0005 <= j_hi):
                inconsistent.append(row)
                continue
            assert abs(jaccard_from_dice(d) - j) < 0.0015, row
        assert [(r["dice"], r["jaccard"]) for r in inconsistent] == [("0.910", "0.833")]

    def test_gated_reference_tables_within_strict_tolerance(self):
        """The per-resolution tables meet the rounding-aware bound and the
        three named pairs meet the strict 0.001 tolerance."""
        rows = list(csv.DictReader(FIXTURE.open()))
        gated = [r for r in rows if r["group"] in ("crossentropy_256", "crossentropy_128")]
        assert len(gated) == 24
        for row in gated:
            d, j = float(row["dice"]), float(row["jaccard"])
            assert abs(jaccard_from_dice(d) - j) < 0.0015, row
        for d, j in ((0.974, 0.950), (0.929, 0.868), (0.937, 0.882)):
            assert abs(jaccard_from_dice(d) - j) <= 0.001


class TestBoundary:
    def test_filled_square_boundary(self):
        m = np.zeros((6, 6), dtype=bool)
        m[1:5, 1:5] = True
        b = boundary_pixels(m)
        assert b.sum() == 12  # 4x4 square: all but the 2x2 interior

    def test_border_counts_as_background(self):
        m = np.ones((4, 4), dtype=bool)
        b = boundary_pixels(m)
        assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
        assert not b[1:3, 1:3].any()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.uniform(size=(12, 12)) < 0.5
            got = {tuple(c) for c in np.argwhere(boundary_pixels(m))}
            assert got == boundary_oracle(m)


class TestSurfaceDistance:
    def test_identical_masks_zero(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:6, 2:6] = True
        assert surface_distance_symmetric(m, m) == 0.0

    def test_single_pixels_five_apart(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[2, 1] = True
        b[2, 6] = True
        assert surface_distance_symmetric(a, b) == pytest.approx(5.0)

    def test_offset_squares_match_oracle(self):
        for k in (1, 2, 3):
            a = np.zeros((16, 16), dtype=bool)
            b = np.zeros((16, 16), dtype=bool)
            a[4:8, 4:8] = True
            b[4 + k : 8 + k, 4:8] = True
            got = surface_distance_symmetric(a, b)
            assert got == pytest.approx(surface_distance_oracle(a, b), abs=1e-9)

    def test_random_masks_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(size=(10, 10)) < 0.35
            b = rng.uniform(size=(10, 10)) < 0.35
            if not a.any() or not b.any():
                continue
            got = surface_distance_symmetric(a, b)
            assert got == pytest.approx(surface_distance_oracle(a, b), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(14, 14)) < 0.4
        b = rng.uniform(size=(14, 14)) < 0.4
        assert surface_distance_symmetric(a, b) == surface_distance_symmetric(b, a)

    def test_spacing_scales(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[2, 1] = True
        b[2, 5] = True
        assert surface_distance_symmetric(a, b, spacing=0.175) == pytest.approx(4 * 0.175)

    def test_empty_mask_is_nan(self):
        m = np.zeros((4, 4), dtype=bool)
        full = ~m
        assert math.isnan(surface_distance_symmetric(m, full))

import math

import numpy as np
import pytest

from fcxs import ops
from fcxs import tensor as T
from fcxs.errors import ConfigError, ShapeError
from fcxs.losses import PROB_CLAMP, LossConfig, class_weights, segmentation_loss
from fcxs.models import ArchConfig
from fcxs.rng import Rng
from fcxs.tensor import Tensor


# -- per-class distance oracles: the vectorized segmentation_loss must equal
# -- the negated weighted sum of these


def _check_match(p: Tensor, chi: np.ndarray, l: int) -> None:
    if p.shape != chi.shape:
        raise ShapeError(f"probability maps {p.shape} do not match ground truth {chi.shape}")
    if not 0 <= l < chi.shape[1]:
        raise ConfigError(f"class index {l} out of range for {chi.shape[1]} channels")


def distance_cross_entropy(p: Tensor, chi: np.ndarray, l: int) -> Tensor:
    """Masked mean log-probability for class l (a non-positive scalar)."""
    _check_match(p, chi, l)
    selector = np.zeros(p.shape, dtype=p.data.dtype)
    selector[:, l] = chi[:, l]
    c_total = float(chi.shape[0] * chi.shape[2] * chi.shape[3])
    clamped = T.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return T.mul(T.tsum(T.mul(T.log(clamped), Tensor(selector))), 1.0 / c_total)


def distance_dice(p: Tensor, chi: np.ndarray, l: int) -> Tensor:
    """Soft Dice overlap for class l, in [0, 1]; empty-vs-empty counts as 1."""
    _check_match(p, chi, l)
    selector = np.zeros(p.shape, dtype=p.data.dtype)
    selector[:, l] = chi[:, l]
    only_l = np.zeros(p.shape, dtype=p.data.dtype)
    only_l[:, l] = 1.0
    chi_sum = float(selector.sum())
    p_sum = float((p.data * only_l).sum())
    smooth = 1.0 if (chi_sum == 0.0 and p_sum == 0.0) else 0.0
    numer = T.add(T.mul(T.tsum(T.mul(p, Tensor(selector))), 2.0), smooth)
    denom = T.add(T.tsum(T.mul(p, Tensor(only_l))), chi_sum + smooth)
    return T.div(numer, denom)


def chi_with_fractions(fractions, total=10_000):
    """Disjoint single-row channel stack with exact per-class pixel counts."""
    counts = [round(f * total) for f in fractions]
    assert sum(counts) == total
    chi = np.zeros((1, len(fractions), 1, total), dtype=np.float32)
    start = 0
    for c, count in enumerate(counts):
        chi[0, c, 0, start : start + count] = 1.0
        start += count
    return chi


class TestLossConfig:
    def test_pairings(self):
        ce = LossConfig("cross_entropy")
        assert ce.head == "softmax"
        dc = LossConfig("dice")
        assert dc.head == "sigmoid"

    def test_unknown_distance_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig("hinge")

    def test_pairing_validation(self):
        sig = ArchConfig(arch="unet_original", input_resolution=16, head="sigmoid", base_channels=4)
        soft = ArchConfig(arch="unet_original", input_resolution=16, head="softmax", base_channels=4)
        LossConfig("dice").validate_pairing(sig)
        LossConfig("cross_entropy").validate_pairing(soft)
        with pytest.raises(ConfigError):
            LossConfig("cross_entropy").validate_pairing(sig)
        with pytest.raises(ConfigError):
            LossConfig("dice").validate_pairing(soft)


class TestClassWeights:
    def test_reference_imbalance_fractions(self):
        chi = chi_with_fractions((0.7353, 0.0462, 0.2185))
        r = class_weights(chi)
        np.testing.assert_allclose(r, [0.7353, 0.0462, 0.2185], atol=1e-9)
        np.testing.assert_allclose(1.0 / r, [1.36, 21.65, 4.58], atol=0.01)

    def test_single_full_class(self):
        chi = np.ones((2, 1, 4, 4), dtype=np.float32)
        np.testing.assert_allclose(class_weights(chi), [1.0])

    def test_two_equal_halves(self):
        chi = chi_with_fractions((0.5, 0.5), total=100)
        np.testing.assert_allclose(class_weights(chi), [0.5, 0.5])

    def test_disjoint_cover_sums_to_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(3, 8, 8))
        chi = np.stack([(labels == c).astype(np.float32) for c in range(4)], axis=1)
        assert abs(class_weights(chi).sum() - 1.0) < 1e-9

    def test_absent_class_clamped_with_warning(self):
        chi = np.zeros((1, 2, 2, 2), dtype=np.float32)
        chi[0, 0] = 1.0
        with pytest.warns(UserWarning, match="absent"):
            r = class_weights(chi)
        assert r[1] == pytest.approx(1.0 / 4.0)


class TestCrossEntropyDistance:
    def test_perfect_prediction_is_zero(self):
        chi = chi_with_fractions((0.25, 0.75), total=16)
        p = Tensor(chi.copy())
        d = distance_cross_entropy(p, chi, 0)
        # clamp moves p=1 to 1-1e-7, so the distance is ~log(1-1e-7) ~ 0
        assert abs(float(d.data)) < 1e-5

    def test_full_cover_uniform_e_inverse(self):
        chi = np.ones((1, 1, 2, 8), dtype=np.float32)
        p = Tensor(np.full((1, 1, 2, 8), math.exp(-1.0), dtype=np.float32))
        d = distance_cross_entropy(p, chi, 0)
        assert float(d.data) == pytest.approx(-1.0, abs=1e-6)

    def test_empty_mask_gives_zero(self):
        chi = np.zeros((1, 2, 4, 4), dtype=np.float32)
        chi[0, 1] = 1.0
        p = Tensor(np.full((1, 2, 4, 4), 0.5, dtype=np.float32))
        assert float(distance_cross_entropy(p, chi, 0).data) == 0.0

    def test_zero_probability_clamped_not_nan(self):
        chi = np.ones((1, 1, 2, 2), dtype=np.float32)
        p = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        d = float(distance_cross_entropy(p, chi, 0).data)
        assert math.isfinite(d)
        assert d == pytest.approx(math.log(1e-7), rel=1e-3)


class TestDiceDistance:
    def test_perfect_binary_prediction(self):
        chi = chi_with_fractions((0.3, 0.7), total=20)
        p = Tensor(chi.copy())
        assert float(distance_dice(p, chi, 0).data) == pytest.approx(1.0)

    def test_zero_prediction_nonempty_mask(self):
        chi = np.ones((1, 1, 4, 4), dtype=np.float32)
        p = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        assert float(distance_dice(p, chi, 0).data) == 0.0

    def test_half_probability_half_cover(self):
        chi = np.zeros((1, 1, 2, 8), dtype=np.float32)
        chi[0, 0, :, :4] = 1.0
        p = Tensor(np.full((1, 1, 2, 8), 0.5, dtype=np.float32))
        assert float(distance_dice(p, chi, 0).data) == pytest.approx(0.5)

    def test_empty_empty_defined_as_one(self):
        chi = np.zeros((1, 1, 2, 2), dtype=np.float32)
        p = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        assert float(distance_dice(p, chi, 0).data) == 1.0

    def test_range_zero_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            chi = (rng.uniform(size=(2, 3, 4, 4)) < 0.4).astype(np.float32)
            p = Tensor(rng.uniform(size=(2, 3, 4, 4)).astype(np.float32))
            for c in range(3):
                d = float(distance_dice(p, chi, c).data)
                assert 0.0 <= d <= 1.0


class TestSegmentationLoss:
    def test_matches_per_class_composition_dice(self):
        rng = np.random.default_rng(2)
        chi = (rng.uniform(size=(2, 3, 4, 4)) < 0.5).astype(np.float32)
        p = Tensor(rng.uniform(size=(2, 3, 4, 4)).astype(np.float32))
        weights = 1.0 / class_weights(chi)
        got = float(segmentation_loss(p, chi, LossConfig("dice"), weights=weights).data)
        expected = -sum(
            weights[c] * float(distance_dice(p, chi, c).data) for c in range(3)
        )
        assert got == pytest.approx(expected, rel=1e-5)

    def test_matches_per_class_composition_cross_entropy(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=(2, 4, 4))
        chi = np.stack([(labels == c).astype(np.float32) for c in range(4)], axis=1)
        p = Tensor(rng.uniform(0.05, 0.95, size=(2, 4, 4, 4)).astype(np.float32))
        got = float(segmentation_loss(p, chi, LossConfig("cross_entropy"), weights=np.ones(4)).data)
        expected = -sum(float(distance_cross_entropy(p, chi, c).data) for c in range(4))
        assert got == pytest.approx(expected, rel=1e-5)

    def test_perfect_dice_prediction_weighted(self):
        chi = chi_with_fractions((0.25, 0.25, 0.5), total=16)
        p = Tensor(chi.copy())
        weights = 1.0 / class_weights(chi)
        got = float(segmentation_loss(p, chi, LossConfig("dice"), weights=weights).data)
        assert got == pytest.approx(-weights.sum(), rel=1e-6)

    def test_equal_classes_weighted_is_scaled_unweighted(self):
        # with equal class sizes every weight is |L|, so the weighted loss
        # equals |L| times the unweighted one (same argmin)
        chi = chi_with_fractions((1 / 3, 1 / 3, 1 / 3), total=18)
        p = Tensor(np.random.default_rng(10).uniform(size=chi.shape).astype(np.float32))
        weighted = float(segmentation_loss(p, chi, LossConfig("dice", weighted=True)).data)
        unweighted = float(segmentation_loss(p, chi, LossConfig("dice", weighted=False)).data)
        assert weighted == pytest.approx(3.0 * unweighted, rel=1e-5)

    def test_weight_scaling_scales_loss(self):
        rng = np.random.default_rng(4)
        chi = (rng.uniform(size=(1, 3, 4, 4)) < 0.5).astype(np.float32)
        p = Tensor(rng.uniform(size=(1, 3, 4, 4)).astype(np.float32))
        w = np.array([1.0, 2.0, 3.0])
        l1 = float(segmentation_loss(p, chi, LossConfig("dice"), weights=w).data)
        l5 = float(segmentation_loss(p, chi, LossConfig("dice"), weights=5 * w).data)
        assert l5 == pytest.approx(5 * l1, rel=1e-6)

    def test_weight_scaling_keeps_gradient_direction(self):
        rng = Rng(5)
        x = Tensor(rng.child(0).normal((1, 3, 4, 4), dtype=np.float64), requires_grad=True)
        chi = (np.random.default_rng(6).uniform(size=(1, 3, 4, 4)) < 0.5).astype(np.float64)
        w = np.array([1.0, 4.0, 2.0])

        def grad_for(scale):
            x.zero_grad()
            p = ops.sigmoid(x)
            segmentation_loss(p, chi, LossConfig("dice"), weights=scale * w).backward()
            return x.grad.copy().reshape(-1)

        g1, g3 = grad_for(1.0), grad_for(3.0)
        cos = g1 @ g3 / (np.linalg.norm(g1) * np.linalg.norm(g3))
        assert cos >= 1.0 - 1e-6

    def test_loss_gradient_matches_finite_differences(self):
        rng = Rng(7)
        x = Tensor(rng.child(0).normal((1, 3, 4, 4), dtype=np.float64), requires_grad=True)
        chi = (np.random.default_rng(8).uniform(size=(1, 3, 4, 4)) < 0.5).astype(np.float64)
        for config in (LossConfig("dice"), ):
            def loss():
                return segmentation_loss(ops.sigmoid(x), chi, config)

            x.zero_grad()
            loss().backward()
            analytic = x.grad.copy()
            flat = x.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                h = 1e-6
                flat[i] = orig + h
                lp = float(loss().data)
                flat[i] = orig - h
                lm = float(loss().data)
                flat[i] = orig
                numeric[i] = (lp - lm) / (2 * h)
            np.testing.assert_allclose(analytic.reshape(-1), numeric, rtol=1e-4, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            segmentation_loss(
                Tensor(np.zeros((1, 3, 4, 4))), np.zeros((1, 3, 2, 2)), LossConfig("dice")
            )

    def test_repeated_evaluation_bit_identical(self):
        rng = np.random.default_rng(9)
        chi = (rng.uniform(size=(1, 3, 4, 4)) < 0.5).astype(np.float32)
        p_data = rng.uniform(size=(1, 3, 4, 4)).astype(np.float32)
        a = float(segmentation_loss(Tensor(p_data), chi, LossConfig("dice")).data)
        b = float(segmentation_loss(Tensor(p_data), chi, LossConfig("dice")).data)
        assert a == b

import math

import numpy as np
import pytest

from fcxs.data import CLASS_NAMES, build_groundtruth, synth_generate
from fcxs.errors import ConfigError, DataError
from fcxs.evaluation import (
    EvalRecord,
    evaluate,
    score_samples,
    export_masks,
    records_from_csv,
    records_to_csv,
    summarize,
)
from fcxs.imageio import read_pgm, read_png
from fcxs.models import ArchConfig, ensemble_predict
from fcxs.tensor import Tensor


class StubNet:
    """Constant-output predictor for protocol tests."""

    def __init__(self, probs_by_id, resolution, head="sigmoid"):
        self.config = ArchConfig(arch="unet_original", input_resolution=resolution, head=head)
        self._probs = probs_by_id
        self._cursor = list(probs_by_id)

    def forward(self, image, mode="infer", rng=None):
        key = self._cursor.pop(0)
        self._cursor.append(key)
        return Tensor(self._probs[key][None].astype(np.float32))


def oracle_net(samples, head="sigmoid"):
    """Predicts exactly the ground truth probabilities for each sample in order."""
    distance = "cross_entropy" if head == "softmax" else "dice"
    probs = {}
    for s in samples:
        gt = build_groundtruth(s, distance)
        channels = gt.astype(np.float32)
        if head == "softmax":
            # well-calibrated, strictly inside (0,1), still above threshold
            channels = channels * 0.9 + 0.05
        else:
            channels = channels * 0.9 + 0.05
        probs[s.id] = channels
    return StubNet(probs, samples[0].image.shape[-1], head=head)


class TestEvaluate:
    def test_perfect_oracle_scores(self):
        samples = synth_generate(3, 32, seed=41)
        net = oracle_net(samples)
        records, table = evaluate(net, samples)
        assert len(records) == 9
        assert table.mean_dice == (1.0, 1.0, 1.0)
        assert table.mean_jaccard == (1.0, 1.0, 1.0)
        assert table.mean_surface_distance == (0.0, 0.0, 0.0)

    def test_perfect_softmax_oracle_scores_disjoint_organs(self):
        samples = synth_generate(3, 32, seed=41)
        assert all((s.masks[0] & s.masks[1]).any() for s in samples)  # clavicles overlap the lungs
        _, table = evaluate(oracle_net(samples, head="softmax"), samples, with_surface_distance=False)
        assert table.mean_jaccard == (1.0, 1.0, 1.0)

    def test_constant_half_predictor_scores_zero(self):
        samples = synth_generate(2, 32, seed=42)
        probs = {s.id: np.full((3, 32, 32), 0.5, dtype=np.float32) for s in samples}
        net = StubNet(probs, 32)
        records, table = evaluate(net, samples, with_surface_distance=False)
        assert table.mean_dice == (0.0, 0.0, 0.0)

    def test_jaccard_consistent_with_dice(self):
        samples = synth_generate(2, 32, seed=43)
        probs = {
            s.id: np.clip(
                build_groundtruth(s, "dice").astype(np.float32)
                + np.random.default_rng(0).uniform(-0.4, 0.4, (3, 32, 32)).astype(np.float32),
                0.01,
                0.99,
            )
            for s in samples
        }
        records, _ = evaluate(StubNet(probs, 32), samples, with_surface_distance=False)
        for r in records:
            assert r.jaccard == pytest.approx(r.dice / (2 - r.dice), abs=1e-9)

    def test_empty_test_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(StubNet({}, 32), [])

    def test_no_network_rejected(self):
        samples = synth_generate(1, 32, seed=41)
        with pytest.raises(ConfigError):
            score_samples([], samples)
        with pytest.raises(ConfigError):
            evaluate([], samples)

    def test_metric_equivalence_against_bruteforce(self):
        # protocol match: certain pixels -> dice -> jaccard computed by sets
        samples = synth_generate(2, 16, seed=44)
        rng = np.random.default_rng(45)
        probs = {s.id: rng.uniform(size=(3, 16, 16)).astype(np.float32) for s in samples}
        records, _ = evaluate(StubNet(probs, 16), samples, with_surface_distance=False)
        idx = 0
        for s in samples:
            gt = build_groundtruth(s, "dice")
            targets = gt[-3:]
            for c in range(3):
                pred = {(y, x) for y in range(16) for x in range(16) if probs[s.id][c, y, x] > 0.75}
                truth = {(y, x) for y in range(16) for x in range(16) if targets[c][y, x]}
                if pred or truth:
                    d = 2 * len(pred & truth) / (len(pred) + len(truth))
                else:
                    d = 1.0
                assert records[idx].dice == pytest.approx(d, abs=0)
                idx += 1


class TestRecordsCsv:
    def test_roundtrip(self):
        records = [
            EvalRecord("a", "lungs", 0.9, 0.9 / 1.1, 1.25),
            EvalRecord("a", "clavicles", 0.5, 0.5 / 1.5, float("nan")),
        ]
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert back[0].image_id == "a" and back[0].dice == pytest.approx(0.9)
        assert math.isnan(back[1].surface_distance)

    def test_header_enforced(self):
        with pytest.raises(DataError):
            records_from_csv("id,class,dice\nx,lungs,1.0\n")

    def test_summarize_means(self):
        records = []
        for image, d in (("a", 0.8), ("b", 0.6)):
            for cls in CLASS_NAMES:
                records.append(EvalRecord(image, cls, d, d / (2 - d), 1.0))
        table = summarize(records)
        assert table.n_images == 2
        assert table.mean_dice == (pytest.approx(0.7),) * 3

    def test_table_formats(self):
        samples = synth_generate(1, 32, seed=46)
        _, table = evaluate(oracle_net(samples), samples)
        csv_text = table.to_csv()
        assert csv_text.startswith("class,mean_dice,mean_jaccard,mean_surface_distance")
        assert "lungs" in table.to_text()


class TestExports:
    def test_masks_and_overlays_written(self, tmp_path):
        samples = synth_generate(1, 32, seed=47)
        sample = samples[0]
        net = oracle_net(samples)
        masks = ensemble_predict([net], sample.image)
        export_masks(tmp_path, sample, masks, overlays=True)
        for cls in CLASS_NAMES:
            pgm, maxval = read_pgm(tmp_path / f"{sample.id}_{cls}.pgm")
            assert maxval == 255
            assert set(np.unique(pgm)) <= {0, 255}
            rgb, _ = read_png(tmp_path / f"{sample.id}_{cls}_overlay.png")
            assert rgb.shape == (32, 32, 3)
        # overlap pixels are yellow where prediction == ground truth boundary
        rgb, _ = read_png(tmp_path / f"{sample.id}_lungs_overlay.png")
        yellow = (rgb == (255, 255, 0)).all(axis=2)
        assert yellow.any()

    def test_mask_pixels_match_prediction(self, tmp_path):
        samples = synth_generate(1, 32, seed=48)
        sample = samples[0]
        masks = ensemble_predict([oracle_net(samples)], sample.image)
        export_masks(tmp_path, sample, masks, overlays=False)
        back, _ = read_pgm(tmp_path / f"{sample.id}_lungs.pgm")
        np.testing.assert_array_equal((back > 127).astype(np.uint8), masks[0])

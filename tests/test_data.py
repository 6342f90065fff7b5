import json

import numpy as np
import pytest

from fcxs.data import (
    CLASS_NAMES,
    DatasetSplit,
    Sample,
    build_groundtruth,
    compute_norm_stats,
    load_dataset,
    normalize_by_train_split,
    normalize_samples,
    save_dataset,
    save_split,
    split_dataset,
    synth_generate,
)
from fcxs.errors import ConfigError, DataError
from fcxs.imageio import read_pgm, read_png, write_pgm, write_png


def make_sample(lungs, clavicles, heart, sample_id="s0"):
    masks = np.stack([lungs, clavicles, heart]).astype(np.uint8)
    image = masks.sum(axis=0, dtype=np.float32)[None]
    return Sample(sample_id, image, masks)


def nested_masks(size=16):
    lungs = np.zeros((size, size), dtype=np.uint8)
    lungs[2:12, 2:12] = 1
    clavicles = np.zeros_like(lungs)
    clavicles[3:5, 3:9] = 1  # inside lungs
    heart = np.zeros_like(lungs)
    heart[8:14, 8:14] = 1  # overlaps lungs corner
    return lungs, clavicles, heart


class TestGroundTruth:
    def test_dice_encoding_keeps_masks_as_stored(self):
        lungs, clav, heart = nested_masks()
        gt = build_groundtruth(make_sample(lungs, clav, heart), "dice")
        np.testing.assert_array_equal(gt[0], lungs)
        np.testing.assert_array_equal(gt[1], clav)
        np.testing.assert_array_equal(gt[2], heart)

    def test_entropy_removes_clavicles_from_lungs(self):
        lungs, clav, heart = nested_masks()
        gt = build_groundtruth(make_sample(lungs, clav, heart), "cross_entropy")
        np.testing.assert_array_equal(gt[2], clav)
        assert not (gt[1].astype(bool) & clav.astype(bool)).any()

    def test_entropy_partitions_grid(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            masks = (rng.uniform(size=(3, 16, 16)) < 0.3).astype(np.uint8)
            gt = build_groundtruth(make_sample(*masks, sample_id=f"r{trial}"), "cross_entropy")
            np.testing.assert_array_equal(gt.sum(axis=0), 1)

    def test_priority_clavicles_over_heart_over_lungs(self):
        full = np.ones((4, 4), dtype=np.uint8)
        gt = build_groundtruth(make_sample(full, full, full), "cross_entropy")
        np.testing.assert_array_equal(gt[2], 1)  # clavicles win everywhere
        np.testing.assert_array_equal(gt[1], 0)
        np.testing.assert_array_equal(gt[3], 0)

    def test_all_zero_masks_give_background(self):
        zero = np.zeros((8, 8), dtype=np.uint8)
        gt = build_groundtruth(make_sample(zero, zero, zero), "cross_entropy")
        np.testing.assert_array_equal(gt[0], 1)

    def test_unknown_encoding_rejected(self):
        lungs, clav, heart = nested_masks()
        with pytest.raises(ConfigError):
            build_groundtruth(make_sample(lungs, clav, heart), "onehot")

    def test_entropy_is_not_a_distance(self):
        lungs, clav, heart = nested_masks()
        with pytest.raises(ConfigError, match="cross_entropy"):
            build_groundtruth(make_sample(lungs, clav, heart), "entropy")

    def test_nonbinary_mask_rejected(self):
        bad = np.full((4, 4), 2, dtype=np.uint8)
        with pytest.raises(DataError):
            make_sample(bad, bad, bad)


class TestProjection:
    def test_projection_roundtrip_on_disjoint_masks(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=(16, 16))
        masks = [(labels == idx).astype(np.uint8) for idx in range(1, 4)]
        gt = build_groundtruth(make_sample(*masks), "cross_entropy")
        for idx in range(1, 4):
            np.testing.assert_array_equal(gt[idx], masks[idx - 1])

    def test_background_projection_is_complement(self):
        lungs, clav, heart = nested_masks()
        gt = build_groundtruth(make_sample(lungs, clav, heart), "cross_entropy")
        organs = gt[1:].sum(axis=0)
        np.testing.assert_array_equal(gt[0], 1 - organs)

    def test_dice_projection_returns_channel(self):
        lungs, clav, heart = nested_masks()
        gt = build_groundtruth(make_sample(lungs, clav, heart), "dice")
        np.testing.assert_array_equal(gt[0], lungs)


class TestNormalization:
    def test_two_point_distribution(self):
        image = np.zeros((1, 4, 4), dtype=np.float32)
        image[0, :2] = 2.0
        masks = np.zeros((3, 4, 4), dtype=np.uint8)
        masks[:, 0, 0] = 1
        s = Sample("a", image, masks)
        stats = compute_norm_stats([s])
        assert stats.mean == pytest.approx(1.0)
        assert stats.std == pytest.approx(1.0)
        normed = normalize_samples([s], stats)[0]
        assert set(np.unique(normed.image)) == {-1.0, 1.0}

    def test_constant_dataset_triggers_guard(self):
        image = np.full((1, 4, 4), 3.0, dtype=np.float32)
        masks = np.zeros((3, 4, 4), dtype=np.uint8)
        masks[:, 0, 0] = 1
        s = Sample("c", image, masks)
        stats = compute_norm_stats([s])
        with pytest.warns(UserWarning, match="scaling skipped"):
            normed = normalize_samples([s], stats)[0]
        np.testing.assert_allclose(normed.image, 0.0)

    def test_seeded_random_set_renormalizes_to_unit_stats(self):
        samples = synth_generate(6, 32, seed=3)
        stats = compute_norm_stats(samples)
        normed = normalize_samples(samples, stats)
        pixels = np.concatenate([s.image.reshape(-1) for s in normed]).astype(np.float64)
        assert abs(pixels.mean()) < 1e-5
        assert abs(pixels.std() - 1.0) < 1e-3

    def test_affine_invariance(self):
        samples = synth_generate(4, 32, seed=5)
        scaled = [Sample(s.id, 3.0 * s.image + 7.0, s.masks) for s in samples]
        n1 = normalize_samples(samples, compute_norm_stats(samples))
        n2 = normalize_samples(scaled, compute_norm_stats(scaled))
        for a, b in zip(n1, n2):
            np.testing.assert_allclose(a.image, b.image, atol=1e-5)

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            compute_norm_stats([])

    def test_stats_come_from_train_split_only(self):
        samples = synth_generate(4, 32, seed=5)
        ids = [s.id for s in samples]
        normed, stats = normalize_by_train_split(samples, DatasetSplit([ids[2], ids[0]], [ids[1]], [ids[3]], 0, "x"))
        assert stats == compute_norm_stats([samples[0], samples[2]])
        assert [s.id for s in normed] == ids
        with pytest.raises(ConfigError, match="training split is empty"):
            normalize_by_train_split(samples, DatasetSplit([], [], ids, 0, "x"))


class TestSplits:
    def test_preset_sizes_on_100_ids(self):
        ids = [f"i{i:03d}" for i in range(100)]
        split = split_dataset(ids, fractions=(0.60, 0.07, 0.33), seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (60, 7, 33)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 10])
    @pytest.mark.parametrize("f_valid", [0.1, 0.34, 0.5])
    def test_no_test_share_leaves_no_test_image(self, n, f_valid):
        ids = [f"i{i}" for i in range(n)]
        split = split_dataset(ids, fractions=(1.0 - f_valid, f_valid, 0.0), seed=3)
        assert len(split.train) + len(split.valid) == n
        assert split.test == []

    def test_disjoint_and_covering(self):
        ids = [f"i{i}" for i in range(57)]
        split = split_dataset(ids, seed=9)
        union = set(split.train) | set(split.valid) | set(split.test)
        assert union == set(ids)
        assert len(split.train) + len(split.valid) + len(split.test) == 57

    def test_threefold_sizes_247(self):
        ids = [f"i{i}" for i in range(247)]
        sizes = []
        all_test = []
        for fold in range(3):
            split = split_dataset(ids, scheme="threefold", fold=fold, seed=4)
            sizes.append(len(split.test))
            all_test.extend(split.test)
        assert sorted(sizes, reverse=True) == [83, 82, 82]
        assert set(all_test) == set(ids)  # folds partition the dataset

    def test_determinism(self):
        ids = [f"i{i}" for i in range(40)]
        a = split_dataset(ids, seed=7)
        b = split_dataset(ids, seed=7)
        c = split_dataset(ids, seed=8)
        assert a == b
        assert a != c

    def test_bad_fraction_sum_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(["a", "b"], fractions=(0.5, 0.2, 0.2))

    def test_bad_fold_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(["a", "b", "c"], scheme="threefold", fold=3)

    def test_overlapping_split_rejected(self):
        with pytest.raises(DataError):
            DatasetSplit(["a"], ["a"], ["b"], 0, "manual")

    def test_manifest_roundtrip(self, tmp_path):
        split = split_dataset([f"i{i}" for i in range(20)], seed=2)
        path = tmp_path / "split.json"
        save_split(split, path)
        payload = json.loads(path.read_text())
        assert payload == {
            "train": split.train,
            "valid": split.valid,
            "test": split.test,
            "seed": split.seed,
            "scheme": split.scheme,
        }


class TestSynthetic:
    def test_same_seed_bit_identical(self):
        a = synth_generate(3, 32, seed=11)
        b = synth_generate(3, 32, seed=11)
        for sa, sb in zip(a, b):
            assert sa.id == sb.id
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.masks, sb.masks)

    def test_masks_nonempty(self):
        for s in synth_generate(8, 32, seed=1):
            assert (s.masks.sum(axis=(1, 2)) > 0).all()

    def test_minority_fraction_in_band(self):
        samples = synth_generate(32, 64, seed=2)
        organ = sum(int(s.masks.any(axis=0).sum()) for s in samples)
        clav = sum(int(s.masks[1].sum()) for s in samples)
        assert 0.02 <= clav / organ <= 0.10

    def test_lungs_dominate(self):
        samples = synth_generate(16, 64, seed=6)
        organ = sum(int(s.masks.any(axis=0).sum()) for s in samples)
        lungs = sum(int(s.masks[0].sum()) for s in samples)
        assert 0.5 <= lungs / organ <= 0.85

    def test_clavicles_overlap_lungs(self):
        samples = synth_generate(4, 64, seed=8)
        for s in samples:
            assert (s.masks[0].astype(bool) & s.masks[1].astype(bool)).any()

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigError):
            synth_generate(0, 32, seed=0)


class TestImageIO:
    def test_pgm_roundtrip_8bit(self, tmp_path):
        arr = np.arange(48, dtype=np.uint8).reshape(6, 8)
        path = tmp_path / "a.pgm"
        write_pgm(path, arr)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, arr)

    def test_pgm_roundtrip_16bit(self, tmp_path):
        arr = (np.arange(24, dtype=np.uint16).reshape(4, 6) * 1000) % 65535
        path = tmp_path / "a16.pgm"
        write_pgm(path, arr, maxval=65535)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        np.testing.assert_array_equal(back, arr)

    def test_pgm_ascii_read(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
        arr, maxval = read_pgm(path)
        np.testing.assert_array_equal(arr, [[0, 1, 2], [3, 4, 5]])

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (b"P5\n2 2\n0\n\x00\x00\x00\x00", "maxval"),
            (b"P2\n2 2\n65536\n0 1\n2 3\n", "maxval"),
            (b"P5\nab 2\n255\n\x00\x00", "non-numeric"),
            (b"P5\n#no newline", "comment"),
            (b"P2\n2 1\n255\n0 x\n", "samples"),
            (b"P2\n2 1\n255\n0 -3\n", "samples"),
            (b"P2\n2 1\n255\n0 256\n", "samples"),
            (b"P5\n0 0\n255\n", "size"),
        ],
        ids=[
            "p5_maxval_0",
            "p2_maxval_65536",
            "non_numeric_header_token",
            "unterminated_comment",
            "p2_sample_not_integer",
            "p2_sample_negative",
            "p2_sample_above_maxval",
            "zero_size",
        ],
    )
    def test_pgm_maxval_out_of_range_rejected(self, tmp_path, blob, reason):
        path = tmp_path / "bad_maxval.pgm"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=reason) as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)

    def test_png_roundtrip_gray8(self, tmp_path):
        arr = np.arange(64, dtype=np.uint8).reshape(8, 8) * 3
        path = tmp_path / "a.png"
        write_png(path, arr)
        back, maxval = read_png(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, arr)

    def test_png_roundtrip_gray16(self, tmp_path):
        arr = (np.arange(30, dtype=np.uint16).reshape(5, 6) * 2000) % 65535
        path = tmp_path / "a16.png"
        write_png(path, arr)
        back, maxval = read_png(path)
        assert maxval == 65535
        np.testing.assert_array_equal(back, arr)

    def test_png_roundtrip_rgb(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8)
        path = tmp_path / "rgb.png"
        write_png(path, arr)
        back, _ = read_png(path)
        np.testing.assert_array_equal(back, arr)

    def test_png_writes_are_deterministic(self, tmp_path):
        arr = np.arange(64, dtype=np.uint8).reshape(8, 8)
        write_png(tmp_path / "x.png", arr)
        write_png(tmp_path / "y.png", arr)
        assert (tmp_path / "x.png").read_bytes() == (tmp_path / "y.png").read_bytes()

    @pytest.mark.parametrize("damage", ["cut_20", "cut_40", "idat_byte_flipped"])
    def test_malformed_png_rejected(self, tmp_path, damage):
        path = tmp_path / "a.png"
        write_png(path, np.arange(64, dtype=np.uint8).reshape(8, 8) * 3)
        blob = bytearray(path.read_bytes())
        if damage == "idat_byte_flipped":
            blob[blob.index(b"IDAT") + 10] ^= 0xFF
        else:
            del blob[int(damage[4:]) :]
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as exc:
            read_png(path)
        assert str(path) in str(exc.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"JUNKJUNK")
        with pytest.raises(DataError):
            read_pgm(path)


class TestLoadDataset:
    def test_empty_directory(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        assert load_dataset(tmp_path, 32) == []

    def test_save_then_load_roundtrip(self, tmp_path):
        samples = synth_generate(3, 32, seed=13)
        save_dataset(samples, tmp_path)
        loaded = load_dataset(tmp_path, 32)
        assert [s.id for s in loaded] == [s.id for s in samples]
        for a, b in zip(loaded, samples):
            np.testing.assert_array_equal(a.masks, b.masks)
            np.testing.assert_allclose(a.image, b.image, atol=2.5 / 255)

    def test_incomplete_sample_reported_and_skipped(self, tmp_path):
        samples = synth_generate(4, 32, seed=14)
        save_dataset(samples, tmp_path)
        (tmp_path / "masks" / f"{samples[1].id}_heart.pgm").unlink()
        with pytest.warns(UserWarning, match=samples[1].id):
            loaded = load_dataset(tmp_path, 32)
        assert len(loaded) == 3

    def test_zero_size_png_image_reported_and_skipped(self, tmp_path):
        samples = synth_generate(2, 32, seed=16)
        save_dataset(samples, tmp_path)
        image = tmp_path / "images" / f"{samples[0].id}.pgm"
        image.unlink()  # the sample keeps its masks, so only the image is wrong
        write_png(image.with_suffix(".png"), np.zeros((0, 0), dtype=np.uint8))
        with pytest.warns(UserWarning, match="size must be positive"):
            loaded = load_dataset(tmp_path, 32)
        assert [s.id for s in loaded] == [samples[1].id]

    def test_malformed_png_reported_and_skipped(self, tmp_path):
        samples = synth_generate(2, 32, seed=16)
        save_dataset(samples, tmp_path)
        bad = tmp_path / "images" / "broken.png"
        write_png(bad, np.zeros((32, 32), dtype=np.uint8))
        bad.write_bytes(bad.read_bytes()[:40])
        with pytest.warns(UserWarning, match="broken"):
            loaded = load_dataset(tmp_path, 32)
        assert [s.id for s in loaded] == [s.id for s in samples]

    def test_non_square_image_reported(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_pgm(tmp_path / "images" / "odd.pgm", np.zeros((32, 48)))
        with pytest.warns(UserWarning, match="not square"):
            assert load_dataset(tmp_path, 32) == []

    @pytest.mark.parametrize("shape", [(129, 128), (96, 96)], ids=["not_square", "not_a_multiple"])
    def test_malformed_mask_size_reported_and_skipped(self, tmp_path, shape):
        samples = synth_generate(2, 64, seed=17)
        save_dataset(samples, tmp_path)
        write_pgm(tmp_path / "masks" / f"{samples[1].id}_heart.pgm", np.zeros(shape))
        with pytest.warns(UserWarning, match=f"{samples[1].id}: mask 'heart'"):
            loaded = load_dataset(tmp_path, 64)
        assert [s.id for s in loaded] == [samples[0].id]

    def test_downsampling_preserves_disc_area(self, tmp_path):
        size, target = 1024, 256
        yy, xx = np.ogrid[0:size, 0:size]
        disc = ((yy - 512) ** 2 + (xx - 512) ** 2 <= 300**2).astype(np.uint8)
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        write_pgm(tmp_path / "images" / "disc.pgm", disc * 200)
        for cls in CLASS_NAMES:
            write_pgm(tmp_path / "masks" / f"disc_{cls}.pgm", disc * 255)
        [sample] = load_dataset(tmp_path, target)
        area_full = disc.sum() / (size / target) ** 2
        for c in range(3):
            area_small = sample.masks[c].sum()
            assert abs(area_small - area_full) / area_full < 0.02

    def test_ids_sorted_lexicographically(self, tmp_path):
        samples = synth_generate(3, 32, seed=15)
        renamed = [Sample(name, s.image, s.masks) for name, s in zip(["zz", "aa", "mm"], samples)]
        save_dataset(renamed, tmp_path)
        assert [s.id for s in load_dataset(tmp_path, 32)] == ["aa", "mm", "zz"]

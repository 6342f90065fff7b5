"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The training-based criteria use small seeded
configurations sized for a single CPU core; each asserts its stated
quality bar and stays far inside its runtime budget.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fcxs.cli import main
from fcxs.config import RunConfig, TrainSection
from fcxs.data import (
    DatasetSplit,
    compute_norm_stats,
    normalize_samples,
    split_dataset,
    synth_generate,
)
from fcxs.gradcheck import gradcheck_network
from fcxs.losses import LossConfig
from fcxs.metrics import (
    certain_pixels,
    dice,
    jaccard_from_dice,
    surface_distance_symmetric,
)
from fcxs.models import (
    ArchConfig,
    build_network,
    count_parameters,
    ensemble_predict,
    format_parameter_table,
    organ_probabilities,
)
from fcxs.stats import _exact_p, _midranks, _normal_p, wilcoxon_signed_rank
from fcxs.training import train

ARCHITECTURES = ("unet_original", "all_dropout", "all_convolutional", "invertednet")

# overfit settings per architecture: (base_channels, drop_probability, lr)
OVERFIT_SETTINGS = {
    "unet_original": (8, 0.1, 1e-3),
    "all_dropout": (8, 0.05, 1e-3),
    "all_convolutional": (8, 0.05, 1e-3),
    "invertednet": (32, 0.1, 1e-3),
}


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def overfit_data():
    samples = synth_generate(8, 64, seed=11)
    normed = normalize_samples(samples, compute_norm_stats(samples))
    split = DatasetSplit([s.id for s in normed], [], [], 0, "overfit")
    return normed, split


def test_c01_gradient_correctness():
    """All four architectures x both losses pass finite differences at 1e-4."""
    started = time.perf_counter()
    worst = 0.0
    for arch in ARCHITECTURES:
        for distance in ("dice", "cross_entropy"):
            r = gradcheck_network(arch, distance, seed=0, tolerance=1e-4, samples_per_param=100)
            worst = max(worst, r.max_rel_error)
            assert r.passed, f"{arch}/{distance}:\n{r.summary()}"
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-4 and elapsed < 300,
        f"gradcheck 4 architectures x 2 losses, max rel error {worst:.2e}, {elapsed:.0f}s (< 5 min)",
    )


def test_c02_metric_oracle_equivalence():
    """Dice/Jaccard/certain-pixels exact vs set counts; S_d to 1e-9 vs brute force."""

    def dice_oracle(a, b):
        pa = {tuple(c) for c in np.argwhere(a)}
        pb = {tuple(c) for c in np.argwhere(b)}
        if not pa and not pb:
            return 1.0
        return 2 * len(pa & pb) / (len(pa) + len(pb))

    def jaccard_oracle(a, b):
        pa = {tuple(c) for c in np.argwhere(a)}
        pb = {tuple(c) for c in np.argwhere(b)}
        if not pa and not pb:
            return 1.0
        return len(pa & pb) / len(pa | pb)

    def boundary_oracle(mask):
        h, w = mask.shape
        out = []
        for y in range(h):
            for x in range(w):
                if not mask[y, x]:
                    continue
                neighbors = [(y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)]
                if any(
                    not (0 <= ny < h and 0 <= nx < w) or not mask[ny, nx] for ny, nx in neighbors
                ):
                    out.append((y, x))
        return np.array(out, dtype=np.float64)

    def surface_oracle(a, b):
        ba, bb = boundary_oracle(a), boundary_oracle(b)
        d_ab = [np.sqrt(((bb - p) ** 2).sum(axis=1)).min() for p in ba]
        d_ba = [np.sqrt(((ba - p) ** 2).sum(axis=1)).min() for p in bb]
        return 0.5 * (np.mean(d_ab) + np.mean(d_ba))

    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked_sd = 0
    for trial in range(100):
        size = int(rng.integers(4, 65))
        a = rng.uniform(size=(size, size)) < 0.4
        b = rng.uniform(size=(size, size)) < 0.4
        assert dice(a, b) == dice_oracle(a, b)
        assert abs(jaccard_from_dice(dice(a, b)) - jaccard_oracle(a, b)) < 1e-12
        p = rng.uniform(size=(size, size))
        expected = (np.abs(p - 1.0) < 0.25).astype(np.uint8)
        np.testing.assert_array_equal(certain_pixels(p, 0.25), expected)
        if a.any() and b.any():
            assert abs(surface_distance_symmetric(a, b) - surface_oracle(a, b)) <= 1e-9
            checked_sd += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        elapsed < 60 and checked_sd > 90,
        f"100 random mask pairs up to 64x64 match oracles exactly "
        f"({checked_sd} surface distances <= 1e-9), {elapsed:.1f}s (< 1 min)",
    )


def test_c03_dice_jaccard_regression_fixture():
    """Named (D, J) pairs at +-0.001; per-resolution tables consistent under rounding."""
    import csv

    fixture = Path(__file__).parent / "data" / "reference_overlap_pairs.csv"
    rows = list(csv.DictReader(fixture.open()))
    named = ((0.974, 0.950), (0.929, 0.868), (0.937, 0.882))
    named_ok = all(abs(jaccard_from_dice(d) - j) <= 0.001 for d, j in named)
    gated = [r for r in rows if r["group"] in ("crossentropy_256", "crossentropy_128")]
    gated_ok = True
    for row in gated:
        d, j = float(row["dice"]), float(row["jaccard"])
        lo = jaccard_from_dice(d - 0.0005)
        hi = jaccard_from_dice(d + 0.0005)
        gated_ok &= lo <= j + 0.0005 and j - 0.0005 <= hi and abs(jaccard_from_dice(d) - j) < 0.0015
    report(
        3,
        named_ok and gated_ok and len(gated) == 24,
        f"3 named pairs within 0.001; all {len(gated)} per-resolution table pairs "
        "consistent with J = D/(2-D) under 3-decimal rounding",
    )


def test_c04_parameter_accounting():
    softmax = dict(input_resolution=256, head="softmax")
    n_unet = count_parameters(build_network(ArchConfig(arch="unet_original", **softmax)))
    n_drop = count_parameters(build_network(ArchConfig(arch="all_dropout", **softmax)))
    n_conv = count_parameters(build_network(ArchConfig(arch="all_convolutional", **softmax)))
    inv_net = build_network(ArchConfig(arch="invertednet", **softmax))
    n_inv = count_parameters(inv_net)
    ledger = format_parameter_table(inv_net)
    delta_ok = n_conv - n_drop == 3_134_400
    within_two_percent = abs(n_drop - 31_377_988) / 31_377_988 < 0.02
    ratio = n_drop / n_inv
    ratio_ok = 8.0 <= ratio <= 12.0
    ledger_ok = ledger.startswith("layer") and "total" in ledger and n_drop == n_unet
    report(
        4,
        delta_ok and within_two_percent and ratio_ok and ledger_ok,
        f"pool-replacement delta {n_conv - n_drop:,} (exact); all_dropout "
        f"{n_drop:,} within 2% of 31,377,988; ratio {ratio:.2f} in [8, 12]; per-layer ledger emitted",
    )


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_c05_overfit_capability(arch, overfit_data):
    """Each architecture fits 8 synthetic samples at 64x64 to mean train J >= 0.90."""
    normed, split = overfit_data
    base, d, lr = OVERFIT_SETTINGS[arch]
    config = ArchConfig(
        arch=arch,
        input_resolution=64,
        head="sigmoid",
        activation="elu",
        drop_probability=d,
        base_channels=base,
        init_seed=0,
    )
    net = build_network(config)
    started = time.perf_counter()
    net, hist = train(
        net,
        normed,
        split,
        RunConfig(
            loss=LossConfig("dice", weighted=True),
            train=TrainSection(epochs=500, batch_size=2, lr=lr, seed=0, patience=500),
        ),
        target_j=0.92,
    )
    elapsed = time.perf_counter() - started
    best = max(hist.records, key=lambda r: float(np.mean(r.val_jaccard)))
    mean_j = float(np.mean(best.val_jaccard))
    minority_ok = True
    detail = (
        f"{arch}: mean train J {mean_j:.3f} (>= 0.90) in {len(hist.records)} epochs, "
        f"{elapsed / 60:.1f} min (< 30)"
    )
    if arch == "invertednet":
        minority_ok = best.val_jaccard[1] >= 0.80
        detail += f"; minority-class J {best.val_jaccard[1]:.3f} (>= 0.80)"
    report(5, mean_j >= 0.90 and minority_ok and elapsed < 1800, detail)


def test_c06_imbalance_weighting_property():
    """Weighted dice >= unweighted on the minority class, mean over 3 seeds."""
    samples = synth_generate(12, 32, seed=101)
    organ = sum(int(s.masks.any(axis=0).sum()) for s in samples)
    minority_fraction = sum(int(s.masks[1].sum()) for s in samples) / organ
    assert minority_fraction <= 0.08, f"minority fraction {minority_fraction:.3f} not <= 8%"
    normed = normalize_samples(samples, compute_norm_stats(samples))
    ids = [s.id for s in normed]
    minority = {True: [], False: []}
    for seed in (0, 1, 2):
        split = split_dataset(ids, fractions=(0.67, 0.33, 0.0), seed=seed)
        for weighted in (True, False):
            config = ArchConfig(
                arch="invertednet",
                input_resolution=32,
                head="sigmoid",
                base_channels=16,
                init_seed=seed,
            )
            net = build_network(config)
            _, hist = train(
                net,
                normed,
                split,
                RunConfig(
                    loss=LossConfig("dice", weighted=weighted),
                    train=TrainSection(epochs=50, batch_size=2, lr=1e-3, seed=seed, patience=100),
                ),
            )
            best = max(hist.records, key=lambda r: float(np.mean(r.val_jaccard)))
            minority[weighted].append(best.val_jaccard[1])
    mean_w = float(np.mean(minority[True]))
    mean_u = float(np.mean(minority[False]))
    report(
        6,
        mean_w >= mean_u,
        f"minority-class validation J: weighted {mean_w:.3f} >= unweighted {mean_u:.3f} "
        f"(3 seeds, minority fraction {minority_fraction:.1%})",
    )


def test_c07_elu_vs_relu_smoke():
    """ELU reaches J = 0.8 at least as fast as ReLU in >= 2 of 3 seeds (reported)."""
    samples = synth_generate(8, 32, seed=202)
    normed = normalize_samples(samples, compute_norm_stats(samples))
    split = DatasetSplit([s.id for s in normed], [], [], 0, "overfit")
    budget = 200
    epochs_to_target = {}
    for seed in (0, 1, 2):
        for activation in ("elu", "relu"):
            config = ArchConfig(
                arch="invertednet",
                input_resolution=32,
                head="sigmoid",
                activation=activation,
                base_channels=16,
                init_seed=seed,
            )
            net = build_network(config)
            _, hist = train(
                net,
                normed,
                split,
                RunConfig(
                    loss=LossConfig("dice", weighted=True),
                    train=TrainSection(epochs=budget, batch_size=2, lr=1e-3, seed=seed, patience=budget + 1),
                ),
                target_j=0.8,
            )
            reached = hist.best_mean_jaccard >= 0.8
            epochs_to_target[(activation, seed)] = len(hist.records) if reached else budget + 1
    wins = sum(
        epochs_to_target[("elu", s)] <= epochs_to_target[("relu", s)] for s in (0, 1, 2)
    )
    pairs = {
        s: (epochs_to_target[("elu", s)], epochs_to_target[("relu", s)]) for s in (0, 1, 2)
    }
    # gating is on successful completion of all runs; the direction is reported
    report(
        7,
        len(epochs_to_target) == 6,
        f"epochs to J=0.8 (elu, relu) per seed: {pairs}; ELU faster-or-equal in {wins}/3 seeds",
    )


def test_c08_exact_wilcoxon():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    p5 = wilcoxon_signed_rank(a, np.zeros(5))
    exact_vs_normal_ok = True
    worst_gap = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        diffs = rng.normal(size=25)
        ranks = _midranks(np.abs(diffs))
        w = min(float(ranks[diffs > 0].sum()), float(ranks[diffs < 0].sum()))
        gap = abs(_exact_p(w, ranks) - _normal_p(w, ranks))
        worst_gap = max(worst_gap, gap)
        exact_vs_normal_ok &= gap <= 0.02
    report(
        8,
        p5 == 0.0625 and exact_vs_normal_ok,
        f"n=5 all-positive: p = {p5} (= 0.0625 exactly); exact vs normal at n=25 "
        f"agree within {worst_gap:.4f} (<= 0.02)",
    )


def test_c09_ensemble_identity_and_majority():
    config = ArchConfig(arch="invertednet", input_resolution=32, head="sigmoid", base_channels=16)
    nets = [
        build_network(
            ArchConfig(
                arch="invertednet",
                input_resolution=32,
                head="sigmoid",
                base_channels=16,
                init_seed=s,
            )
        )
        for s in (0, 1, 2)
    ]
    image = synth_generate(1, 32, seed=5)[0].image
    single = np.stack(
        [certain_pixels(p, 0.25) for p in organ_probabilities(nets[0], image)]
    )
    duplicate = ensemble_predict([nets[0], nets[0]], image)
    identity_ok = np.array_equal(single, duplicate)
    votes = np.zeros((3, 32, 32), dtype=int)
    for net in nets:
        votes += np.stack(
            [certain_pixels(p, 0.25) for p in organ_probabilities(net, image)]
        ).astype(int)
    brute = (votes > 1.5).astype(np.uint8)  # strict majority of 3
    vote_ok = np.array_equal(ensemble_predict(nets, image), brute)
    report(
        9,
        identity_ok and vote_ok,
        "duplicate-network ensemble bit-equals single network; 3-network vote matches "
        "per-pixel brute-force majority",
    )


def test_c10_determinism(tmp_path):
    config = {
        "data": {"synthetic": {"n": 6, "seed": 3}, "resolution": 32},
        "arch": {"arch": "invertednet", "base_channels": 16},
        "loss": {"distance": "dice", "weighted": True},
        "train": {
            "epochs": 3,
            "batch_size": 2,
            "lr": 1e-4,
            "seed": 0,
            "split": {"scheme": "fractions", "preset": "60/7/33", "seed": 1},
        },
        "output": {"directory": ""},
    }
    outputs = []
    for run in ("a", "b"):
        config["output"]["directory"] = str(tmp_path / run)
        cfg_path = tmp_path / f"config_{run}.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path)]) == 0
        outputs.append(tmp_path / run)
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("history.csv", "best.fcxs", "last.fcxs", "split.json")
    )
    report(10, same, "identical config + seed: history.csv and checkpoints byte-identical")


@pytest.mark.skipif(
    not os.environ.get("FCXS_JSRT_ROOT"),
    reason="optional harness: set FCXS_JSRT_ROOT to a dataset directory "
    "(images/<id>.png|pgm + masks/<id>_<class>.png|pgm)",
)
def test_c11_optional_real_dataset_harness(tmp_path):
    """Non-gating: full pipeline at 128x128 with the three-fold protocol.

    FCXS_JSRT_EPOCHS and FCXS_JSRT_BASE_CHANNELS shrink the budget for
    smoke runs; the defaults are the real configuration (full width,
    which needs hours per fold on CPU).
    """
    root = os.environ["FCXS_JSRT_ROOT"]
    base_channels = int(os.environ.get("FCXS_JSRT_BASE_CHANNELS", "256"))
    for fold in range(3):
        out = tmp_path / f"fold{fold}"
        config = {
            "data": {"root": root, "resolution": 128},
            "arch": {"arch": "invertednet", "base_channels": base_channels},
            "loss": {"distance": "dice", "weighted": True},
            "train": {
                "epochs": int(os.environ.get("FCXS_JSRT_EPOCHS", "2")),
                "batch_size": 2,
                "lr": 1e-5,
                "seed": 0,
                "split": {"scheme": "threefold", "fold": fold, "seed": 0},
            },
            "output": {"directory": str(out)},
        }
        cfg_path = tmp_path / f"fold{fold}.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(out / "best.fcxs")]) == 0
        assert (out / "report.csv").exists() and (out / "records.csv").exists()
    report(11, True, "three-fold 128x128 pipeline emitted report CSVs without error")

import numpy as np
import pytest

from fcxs.config import RunConfig, TrainSection
from fcxs.data import (
    DatasetSplit,
    build_groundtruth,
    compute_norm_stats,
    normalize_samples,
    synth_generate,
)
from fcxs.errors import ConfigError
from fcxs.evaluation import evaluate
from fcxs.losses import LossConfig
from fcxs.models import ArchConfig, build_network, load_checkpoint
from fcxs.tensor import Tensor
from fcxs.training import train, validation_jaccard


@pytest.fixture(scope="module")
def tiny_dataset():
    samples = synth_generate(4, 32, seed=21)
    stats = compute_norm_stats(samples)
    return normalize_samples(samples, stats)


def overfit_split(samples):
    return DatasetSplit([s.id for s in samples], [], [], 0, "manual")


def run_cfg(loss, **train_section):
    return RunConfig(loss=loss, train=TrainSection(**train_section))


def tiny_net(arch="invertednet", head="sigmoid", seed=0):
    cfg = ArchConfig(
        arch=arch,
        input_resolution=32,
        head=head,
        base_channels=32 if arch == "invertednet" else 4,
        init_seed=seed,
    )
    return build_network(cfg)


class TestTrainLoop:
    def test_single_sample_overfit(self, tiny_dataset):
        sample = tiny_dataset[0]
        split = DatasetSplit([sample.id], [], [], 0, "manual")
        net = tiny_net()  # invertednet, base 32
        net, hist = train(
            net,
            [sample],
            split,
            run_cfg(LossConfig("dice", weighted=False), epochs=500, batch_size=1, lr=3e-3, seed=0, patience=500),
            target_j=0.99,
        )
        assert hist.best_mean_jaccard >= 0.99
        assert not hist.diverged

    def test_history_is_deterministic(self, tiny_dataset):
        split = overfit_split(tiny_dataset)

        def run():
            net = tiny_net(seed=1)
            _, hist = train(
                net,
                tiny_dataset,
                split,
                run_cfg(LossConfig("dice", weighted=True), epochs=4, batch_size=2, lr=1e-4, seed=5, patience=50),
            )
            return hist

        a, b = run(), run()
        assert a.to_csv() == b.to_csv()
        for ra, rb in zip(a.records, b.records):
            assert ra.loss == rb.loss and ra.val_jaccard == rb.val_jaccard

    def test_weights_are_deterministic(self, tiny_dataset):
        split = overfit_split(tiny_dataset)
        states = []
        for _ in range(2):
            net = tiny_net(seed=2)
            net, _ = train(
                net, tiny_dataset, split,
                run_cfg(LossConfig("dice"), epochs=3, batch_size=2, lr=1e-4, seed=9, patience=10),
            )
            states.append({name: arr.copy() for name, arr in net.state_arrays()})
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])

    def test_cross_entropy_softmax_trains(self, tiny_dataset):
        split = overfit_split(tiny_dataset)
        net = tiny_net(head="softmax")
        net, hist = train(
            net,
            tiny_dataset,
            split,
            run_cfg(LossConfig("cross_entropy", weighted=True), epochs=3, batch_size=2, lr=1e-4, seed=0, patience=10),
        )
        assert len(hist.records) == 3
        assert all(np.isfinite(r.loss) for r in hist.records)

    def test_pairing_violation_rejected(self, tiny_dataset):
        net = tiny_net(head="sigmoid")
        with pytest.raises(ConfigError, match="requires a softmax head"):
            train(
                net, tiny_dataset, overfit_split(tiny_dataset), run_cfg(LossConfig("cross_entropy"), epochs=1)
            )

    def test_empty_train_split_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            split = DatasetSplit([], [], [s.id for s in tiny_dataset], 0, "manual")
            train(tiny_net(), tiny_dataset, split, run_cfg(LossConfig("dice"), epochs=1))

    def test_run_config_validated_on_entry(self, tiny_dataset):
        with pytest.raises(ConfigError, match="train.batch_size: must be >= 1, got 0"):
            train(tiny_net(), tiny_dataset, overfit_split(tiny_dataset), run_cfg(LossConfig("dice"), batch_size=0))

    def test_unknown_ids_rejected(self, tiny_dataset):
        split = DatasetSplit(["nope"], [], [], 0, "manual")
        with pytest.raises(ConfigError):
            train(tiny_net(), tiny_dataset, split, run_cfg(LossConfig("dice"), epochs=1))

    def test_monitor_falls_back_to_train_split(self, tiny_dataset):
        net = tiny_net()
        _, hist = train(
            net, tiny_dataset, overfit_split(tiny_dataset),
            run_cfg(LossConfig("dice"), epochs=2, batch_size=2, lr=1e-4, seed=0),
        )
        assert hist.monitored_split == "train"

    def test_validation_split_monitored_when_present(self, tiny_dataset):
        ids = [s.id for s in tiny_dataset]
        split = DatasetSplit(ids[:3], ids[3:], [], 0, "manual")
        _, hist = train(
            tiny_net(), tiny_dataset, split, run_cfg(LossConfig("dice"), epochs=2, batch_size=2, lr=1e-4, seed=0)
        )
        assert hist.monitored_split == "valid"

    def test_patience_stops_early(self, tiny_dataset):
        # lr=0 never improves, so the run stops after patience epochs + 1
        net = tiny_net()
        _, hist = train(
            net, tiny_dataset, overfit_split(tiny_dataset),
            run_cfg(LossConfig("dice"), epochs=50, batch_size=2, lr=0.0, seed=0, patience=3),
        )
        assert len(hist.records) == 4

    def test_checkpoints_written(self, tiny_dataset, tmp_path):
        net = tiny_net()
        net, hist = train(
            net, tiny_dataset, overfit_split(tiny_dataset),
            run_cfg(LossConfig("dice"), epochs=3, batch_size=2, lr=1e-4, seed=0), checkpoint_dir=tmp_path,
        )
        assert (tmp_path / "best.fcxs").exists()
        assert (tmp_path / "last.fcxs").exists()
        best = load_checkpoint(tmp_path / "best.fcxs")
        for (_, a), (_, b) in zip(best.parameters(), net.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_history_csv_format(self, tiny_dataset):
        _, hist = train(
            tiny_net(), tiny_dataset, overfit_split(tiny_dataset),
            run_cfg(LossConfig("dice"), epochs=2, batch_size=2, lr=1e-4, seed=0),
        )
        lines = hist.to_csv().strip().split("\n")
        assert lines[0] == "epoch,loss,J_class0,J_class1,J_class2"
        assert len(lines) == 3
        timing = hist.timing_csv().strip().split("\n")
        assert timing[0] == "epoch,seconds"
        assert len(timing) == 3


class NoisyOracle:
    """The samples' ground truth in the head's target channels plus seeded noise,
    one sample per forward in order, so scores spread inside (0, 1)."""

    def __init__(self, samples, head):
        self.config = ArchConfig(arch="unet_original", input_resolution=32, head=head, base_channels=4)
        distance = "cross_entropy" if head == "softmax" else "dice"
        rng = np.random.default_rng(7)
        self.probs = []
        for s in samples:
            channels = build_groundtruth(s, distance)
            self.probs.append(np.clip(channels + rng.uniform(-0.6, 0.6, channels.shape), 0.01, 0.99))
        self.calls = 0

    def forward(self, image, mode="infer", rng=None):
        probs = self.probs[self.calls % len(self.probs)]
        self.calls += 1
        return Tensor(probs[None].astype(np.float32))


class TestValidationJaccard:
    def test_perfect_oracle_scores_one(self, tiny_dataset):
        sample = tiny_dataset[0]
        gt = build_groundtruth(sample, "dice")

        class Oracle:
            config = ArchConfig(arch="unet_original", input_resolution=32, head="sigmoid", base_channels=4)

            def forward(self, image, mode="infer", rng=None):
                from fcxs.tensor import Tensor

                return Tensor(gt[None].astype(np.float32))

        scores = validation_jaccard(Oracle(), [sample])
        np.testing.assert_allclose(scores, 1.0)

    @pytest.mark.parametrize("head", ["sigmoid", "softmax"])
    def test_equals_evaluate_per_class_mean(self, tiny_dataset, head):
        net = NoisyOracle(tiny_dataset, head)
        scores = validation_jaccard(net, tiny_dataset, epsilon=0.25)
        _, table = evaluate(net, tiny_dataset, epsilon=0.25, with_surface_distance=False)
        assert tuple(scores.tolist()) == table.mean_jaccard
        assert all(0.0 < j < 1.0 for j in table.mean_jaccard)

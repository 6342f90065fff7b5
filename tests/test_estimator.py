import inspect

import numpy as np
import pytest

from fcxs.data import Sample, normalize_image, split_dataset, synth_generate
from fcxs.errors import ConfigError, DataError
from fcxs.estimator import FCNSegmenter
from fcxs.evaluation import evaluate
from fcxs.optim import Adam


@pytest.fixture(scope="module")
def xy():
    samples = synth_generate(6, 32, seed=31)
    X = np.stack([s.image[0] for s in samples])
    y = np.stack([s.masks for s in samples])
    return X, y


def quick_model(**kw):
    defaults = dict(
        arch="invertednet", base_channels=16, epochs=3, batch_size=2, lr=1e-4, seed=0
    )
    defaults.update(kw)
    return FCNSegmenter(**defaults)


class TestSklearnProtocol:
    def test_get_params_roundtrip(self):
        model = quick_model()
        params = model.get_params()
        clone = FCNSegmenter(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        model = quick_model()
        assert model.set_params(epochs=7, lr=1e-3) is model
        assert model.epochs == 7 and model.lr == 1e-3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError, match="invalid parameter"):
            quick_model().set_params(bogus=1)

    def test_constructor_stores_params_verbatim(self):
        model = FCNSegmenter(arch="all_dropout", epochs=11)
        assert model.arch == "all_dropout" and model.epochs == 11
        assert model.net_ is None

    def test_repr_shows_params(self):
        assert "arch='invertednet'" in repr(quick_model())

    def test_repr_and_signature_pinned(self):
        defaults = [
            ("arch", "invertednet"), ("loss", "dice"), ("weighted", True), ("activation", "elu"),
            ("drop_probability", 0.1), ("base_channels", None), ("epochs", 100), ("batch_size", 2),
            ("lr", 1e-5), ("patience", 50), ("valid_fraction", 0.0), ("epsilon", 0.25), ("seed", 0),
        ]
        params = inspect.signature(FCNSegmenter).parameters.values()
        assert [(p.name, p.default, p.kind) for p in params] == [
            (name, default, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name, default in defaults
        ]
        assert repr(FCNSegmenter()) == (
            "FCNSegmenter(arch='invertednet', loss='dice', weighted=True, activation='elu', "
            "drop_probability=0.1, base_channels=None, epochs=100, batch_size=2, lr=1e-05, "
            "patience=50, valid_fraction=0.0, epsilon=0.25, seed=0)"
        )
        assert repr(quick_model(loss="cross_entropy")) == (
            "FCNSegmenter(arch='invertednet', loss='cross_entropy', weighted=True, activation='elu', "
            "drop_probability=0.1, base_channels=16, epochs=3, batch_size=2, lr=0.0001, "
            "patience=50, valid_fraction=0.0, epsilon=0.25, seed=0)"
        )


class TestFitPredict:
    def test_fit_returns_self_and_sets_state(self, xy):
        X, y = xy
        model = quick_model()
        assert model.fit(X, y) is model
        assert model.net_ is not None
        assert model.norm_stats_ is not None
        assert len(model.history_.records) == 3
        assert model.classes_ == ("lungs", "clavicles", "heart")

    def test_predict_shapes_and_binary(self, xy):
        X, y = xy
        model = quick_model().fit(X, y)
        masks = model.predict(X)
        assert masks.shape == (6, 3, 32, 32)
        assert set(np.unique(masks)) <= {0, 1}
        probs = model.predict_proba(X)
        assert probs.shape == (6, 3, 32, 32)
        # float32 sigmoid saturates at the rails for |logit| > ~17
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_predict_before_fit_raises(self, xy):
        X, _ = xy
        with pytest.raises(ConfigError, match="not fitted"):
            quick_model().predict(X)

    def test_score_range(self, xy):
        X, y = xy
        model = quick_model().fit(X, y)
        s = model.score(X, y)
        assert 0.0 <= s <= 1.0

    def test_three_dim_input_accepted(self, xy):
        X, y = xy
        model = quick_model().fit(X, y)
        np.testing.assert_array_equal(model.predict(X), model.predict(X[:, None]))

    def test_cross_entropy_pairing(self, xy):
        X, y = xy
        model = quick_model(loss="cross_entropy").fit(X, y)
        assert model.net_.config.head == "softmax"
        assert model.net_.config.num_classes == 4
        assert model.predict(X).shape == (6, 3, 32, 32)  # organ masks only

    def test_validation_fraction_split(self, xy):
        X, y = xy
        model = quick_model(valid_fraction=0.34).fit(X, y)
        assert model.history_.monitored_split == "valid"

    def test_valid_split_images_never_reach_norm_stats(self, xy):
        X, y = xy
        split = split_dataset([f"s{i:05d}" for i in range(len(X))], fractions=(0.66, 0.34, 0.0), seed=0)
        assert split.valid
        changed = X.copy()
        for image_id in split.valid:
            changed[int(image_id[1:])] = 1.0
        a = quick_model(valid_fraction=0.34, epochs=1).fit(X, y)
        b = quick_model(valid_fraction=0.34, epochs=1).fit(changed, y)
        assert a.norm_stats_ == b.norm_stats_

    @pytest.mark.parametrize("loss", ["dice", "cross_entropy"])
    def test_score_is_mean_jaccard_of_evaluate(self, xy, loss):
        X, y = xy
        model = quick_model(loss=loss).fit(X, y)
        samples = [
            Sample(f"s{i:05d}", normalize_image(X[i][None], model.norm_stats_), y[i]) for i in range(len(X))
        ]
        records, _ = evaluate(model.net_, samples, model.epsilon, with_surface_distance=False)
        assert model.score(X, y) == np.mean([r.jaccard for r in records])

    def test_deterministic_across_refits(self, xy):
        X, y = xy
        a = quick_model().fit(X, y).predict_proba(X)
        b = quick_model().fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_mismatched_resolution_rejected(self, xy):
        X, y = xy
        model = quick_model().fit(X, y)
        with pytest.raises(ConfigError, match="resolution"):
            model.predict(np.zeros((1, 64, 64), dtype=np.float32))


class TestValidationHelpers:
    def test_bad_image_shapes(self, xy):
        _, y = xy
        model = quick_model()
        with pytest.raises(DataError):
            model.fit(np.zeros((0, 32, 32)), y)
        with pytest.raises(DataError):
            model.fit(np.zeros((2, 3, 32, 32)), y)  # 3 channels
        with pytest.raises(DataError):
            model.fit(np.zeros((2, 32, 48)), y)  # not square

    def test_bad_masks(self, xy):
        X, _ = xy
        model = quick_model()
        with pytest.raises(DataError, match=r"\(n, 3, H, W\)"):
            model.fit(X, np.zeros((6, 2, 32, 32)))
        with pytest.raises(DataError, match="binary"):
            model.fit(X, np.full((6, 3, 32, 32), 2))
        with pytest.raises(DataError, match="samples"):
            model.fit(X, np.zeros((5, 3, 32, 32)))

    def test_broken_run_rule_rejected_before_first_step(self, xy, monkeypatch):
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
        with pytest.raises(ConfigError, match=r"eval\.epsilon: must be in \(0, 1\), got 1\.5"):
            quick_model(epsilon=1.5).fit(*xy)
        assert steps == []

    @pytest.mark.parametrize(
        "resolution, params, line",
        [
            (24, {}, "data.resolution: must be a positive multiple of 16 (four downsampling stages), got 24"),
            (32, {"base_channels": 8}, "arch.base_channels: invertednet base_channels must be divisible by 16"),
        ],
        ids=["resolution", "base_channels"],
    )
    def test_arch_rule_reported_under_run_config_key(self, resolution, params, line):
        X = np.random.default_rng(0).uniform(size=(2, resolution, resolution))
        y = np.zeros((2, 3, resolution, resolution), dtype=np.uint8)
        with pytest.raises(ConfigError) as info:
            quick_model(**params).fit(X, y)
        assert str(info.value).startswith(line)

    def test_non_finite_rejected(self, xy):
        X, y = xy
        bad = X.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            quick_model().fit(bad, y)

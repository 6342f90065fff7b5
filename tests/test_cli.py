import json
from pathlib import Path

import numpy as np
import pytest

from fcxs.cli import main
from fcxs.config import load_run_config, parse_run_config
from fcxs.errors import ConfigError


def run_config(tmp_path, **overrides):
    cfg = {
        "data": {"synthetic": {"n": 6, "seed": 3}, "resolution": 32},
        "arch": {"arch": "invertednet", "base_channels": 16},
        "loss": {"distance": "dice", "weighted": True},
        "train": {
            "epochs": 2,
            "batch_size": 2,
            "lr": 1e-4,
            "seed": 0,
            "split": {"scheme": "fractions", "preset": "60/7/33", "seed": 1},
        },
        "eval": {"epsilon": 0.25, "overlays": True},
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        cfg[key].update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        path = run_config(tmp_path)
        cfg = load_run_config(path)
        assert cfg.train.patience == 50

    def test_unknown_keys_rejected_all_at_once(self):
        with pytest.raises(ConfigError) as exc:
            parse_run_config(
                {
                    "data": {"synthetic": {"n": 2}, "resolution": 30, "bogus": 1},
                    "arch": {"arch": "lenet"},
                    "mystery": {},
                }
            )
        message = str(exc.value)
        assert "data.bogus" in message
        assert "arch.arch" in message
        assert "mystery" in message
        assert "resolution" in message

    def test_pairing_enforced(self):
        # the loss alone sets the encoding; the old data.encoding key is gone
        with pytest.raises(ConfigError, match="data.encoding: unknown key"):
            parse_run_config(
                {
                    "data": {"synthetic": {"n": 2}, "resolution": 32, "encoding": "dice"},
                    "loss": {"distance": "cross_entropy"},
                }
            )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("arch", "drop_probability", "x"),
            ("data", "resolution", "64"),
            ("train", "epochs", "3"),
            ("eval", "epsilon", None),
            ("data", "synthetic", {"n": "2"}),
        ],
        ids=["drop_probability_string", "resolution_string", "epochs_string", "epsilon_null", "synthetic_n_string"],
    )
    def test_wrong_type_exit_code_2(self, tmp_path, capsys, section, key, value):
        cfg = run_config(tmp_path, **{section: {key: value}})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        name = f"{section}.{key}" if key != "synthetic" else "data.synthetic.n"
        assert f"{name}: expected" in err
        assert not (tmp_path / "out" / "history.csv").exists()

    @pytest.mark.parametrize(
        "section, change, line",
        [
            ("train", {"epochs": 0}, "train.epochs: must be >= 1, got 0"),
            ("train", {"batch_size": 0}, "train.batch_size: must be >= 1, got 0"),
            (
                "train",
                {"split": {"scheme": "kfold"}},
                "train.split.scheme: 'kfold' not one of ('fractions', 'threefold')",
            ),
            (
                "train",
                {"split": {"preset": "80/10/10"}},
                "train.split.preset: '80/10/10' not one of ['45/22/33', '50/17/33', '60/7/33']",
            ),
            (
                "train",
                {"split": {"scheme": "threefold", "fold": 3}},
                "train.split.fold: threefold needs fold in (0, 1, 2), got 3",
            ),
            ("eval", {"epsilon": 1.5}, "eval.epsilon: must be in (0, 1), got 1.5"),
            ("eval", {"spacing": -1.0}, "eval.spacing: must be positive, got -1.0"),
            ("data", {"synthetic": {"n": 0}}, "data.synthetic.n: must be >= 1, got 0"),
            (
                "loss",
                {"distance": "l2"},
                "loss.distance: unknown distance 'l2'; expected one of ('cross_entropy', 'dice')",
            ),
        ],
        ids=["epochs", "batch_size", "scheme", "preset", "fold", "epsilon", "spacing", "synthetic_n", "distance"],
    )
    def test_run_rule_reports_its_keyed_line(self, section, change, line):
        payload = {"data": {"synthetic": {"n": 2}, "resolution": 32}, section: {}}
        payload[section].update(change)
        with pytest.raises(ConfigError) as exc:
            parse_run_config(payload)
        assert str(exc.value) == f"invalid configuration:\n  {line}"

    # a payload breaks either the scheme rule or the fold rule, never both
    @pytest.mark.parametrize(
        "split, scheme_lines, fold_lines",
        [
            ({"scheme": "kfold"}, ["  train.split.scheme: 'kfold' not one of ('fractions', 'threefold')"], []),
            ({"scheme": "threefold", "fold": 3}, [], ["  train.split.fold: threefold needs fold in (0, 1, 2), got 3"]),
        ],
        ids=["scheme", "fold"],
    )
    def test_every_broken_run_rule_reported_at_once(self, split, scheme_lines, fold_lines):
        payload = {
            "data": {"synthetic": {"n": 0}, "resolution": 40},
            "arch": {"activation": "tanh"},
            "loss": {"distance": "l2"},
            "train": {"epochs": 0, "batch_size": -2, "split": dict(split, preset="1/1/1")},
            "eval": {"epsilon": 0.0, "spacing": 0.0},
        }
        with pytest.raises(ConfigError) as exc:
            parse_run_config(payload)
        assert str(exc.value).splitlines() == [
            "invalid configuration:",
            "  loss.distance: unknown distance 'l2'; expected one of ('cross_entropy', 'dice')",
            "  arch.activation: unknown activation 'tanh'; expected one of ('elu', 'relu')",
            "  data.resolution: must be a positive multiple of 16 (four downsampling stages), got 40",
            "  data.synthetic.n: must be >= 1, got 0",
            "  train.epochs: must be >= 1, got 0",
            "  train.batch_size: must be >= 1, got -2",
            *scheme_lines,
            "  train.split.preset: '1/1/1' not one of ['45/22/33', '50/17/33', '60/7/33']",
            *fold_lines,
            "  eval.epsilon: must be in (0, 1), got 0.0",
            "  eval.spacing: must be positive, got 0.0",
        ]

    def test_root_and_synthetic_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_run_config(
                {"data": {"root": "/x", "synthetic": {"n": 2}, "resolution": 32}}
            )

    def test_echo_roundtrip(self, tmp_path):
        cfg = load_run_config(run_config(tmp_path))
        echo_path = cfg.echo(tmp_path)
        cfg2 = load_run_config(echo_path)
        assert cfg2.to_dict() == cfg.to_dict()


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "4", "--res", "32", "--seed", "7", "--out", str(out)]) == 0
        assert len(list((out / "images").glob("*.pgm"))) == 4
        assert len(list((out / "masks").glob("*.pgm"))) == 12

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--n", "2", "--res", "32", "--seed", "5", "--out", str(a)])
        main(["synth", "--n", "2", "--res", "32", "--seed", "5", "--out", str(b)])
        for pa in sorted((a / "images").glob("*")) + sorted((a / "masks").glob("*")):
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes()

    def test_zero_n_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestTrainCommand:
    def test_outputs_written(self, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "best.fcxs").exists()
        assert (out / "last.fcxs").exists()
        assert (out / "history.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "config.resolved.json").exists()
        assert (out / "split.json").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,loss,J_class0,J_class1,J_class2"
        assert len(history) == 3  # 2 epochs

    def test_rerun_byte_identical_primary_outputs(self, tmp_path):
        cfg_a = run_config(tmp_path, output={"directory": str(tmp_path / "a")})
        main(["train", "--config", str(cfg_a)])
        cfg_b = json.loads(cfg_a.read_text())
        cfg_b["output"]["directory"] = str(tmp_path / "b")
        (tmp_path / "config_b.json").write_text(json.dumps(cfg_b))
        main(["train", "--config", str(tmp_path / "config_b.json")])
        for name in ("history.csv", "best.fcxs", "last.fcxs", "split.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_test_split_images_never_reach_training(self, tmp_path):
        from fcxs.data import save_dataset, synth_generate
        from fcxs.imageio import write_pgm

        for name in ("a", "b"):
            save_dataset(synth_generate(6, 32, seed=3), tmp_path / name)
        data = {"root": str(tmp_path / "a"), "synthetic": None}
        cfg_a = run_config(tmp_path, data=data, output={"directory": str(tmp_path / "out_a")})
        assert main(["train", "--config", str(cfg_a)]) == 0
        test_ids = json.loads((tmp_path / "out_a" / "split.json").read_text())["test"]
        assert test_ids
        for image_id in test_ids:  # dataset b differs from a only in the test images
            write_pgm(tmp_path / "b" / "images" / f"{image_id}.pgm", np.full((32, 32), 255))
        cfg_b = json.loads(cfg_a.read_text())
        cfg_b["data"]["root"] = str(tmp_path / "b")
        cfg_b["output"]["directory"] = str(tmp_path / "out_b")
        (tmp_path / "config_b.json").write_text(json.dumps(cfg_b))
        assert main(["train", "--config", str(tmp_path / "config_b.json")]) == 0
        for name in ("history.csv", "split.json", "best.fcxs", "last.fcxs"):
            assert (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes(), name

    def test_bad_pairing_exit_code_2(self, tmp_path, capsys):
        # the loss alone sets the encoding; a data.encoding key is rejected
        cfg = run_config(tmp_path, loss={"distance": "cross_entropy"}, data={"encoding": "dice"})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "data.encoding: unknown key" in capsys.readouterr().err

    def test_missing_config_exit_code_2(self, capsys):
        assert main(["train", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_config_exit_code_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"data": "\xff"}')
        assert main(["train", "--config", str(path)]) == 2
        assert f"cannot read config {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [0, -16])
    def test_non_positive_width_exit_code_2(self, tmp_path, capsys, width):
        cfg = run_config(tmp_path, arch={"base_channels": width})
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"arch.base_channels: must be positive, got {width}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = run_config(tmp_path)
    main(["train", "--config", str(cfg)])
    return tmp_path, cfg


class TestEvalCommand:
    def test_single_checkpoint(self, trained):
        tmp_path, cfg = trained
        out = tmp_path / "out"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "best.fcxs")]) == 0
        records = (out / "records.csv").read_text().strip().split("\n")
        assert records[0] == "id,class,dice,jaccard,surface_distance"
        # 2 test images at the 60/7/33 preset on 6 ids -> 2 ids x 3 classes
        assert len(records) == 1 + 2 * 3
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()
        preds = list((out / "predictions").glob("*.pgm"))
        assert len(preds) == 6
        overlays = list((out / "predictions").glob("*_overlay.png"))
        assert len(overlays) == 6

    def test_one_forward_pass_per_test_image(self, trained, monkeypatch):
        from fcxs.models import Network

        tmp_path, cfg = trained
        out = tmp_path / "out"
        forward, calls = Network.forward, []

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("mode"))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Network, "forward", counting)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out / "best.fcxs")]) == 0
        # 2 test images; the exported masks come from the scoring pass
        assert calls == ["infer", "infer"]
        assert len(list((out / "predictions").glob("*_overlay.png"))) == 6

    def test_duplicate_checkpoint_ensemble_identical(self, trained):
        tmp_path, cfg = trained
        out = tmp_path / "out"
        ckpt = str(out / "best.fcxs")
        main(["eval", "--config", str(cfg), "--checkpoint", ckpt])
        single = (out / "records.csv").read_text()
        main(["eval", "--config", str(cfg), "--checkpoint", ckpt, "--checkpoint", ckpt])
        double = (out / "records.csv").read_text()
        assert single == double

    def test_missing_checkpoint_exit_code_3(self, trained, capsys):
        tmp_path, cfg = trained
        assert main(["eval", "--config", str(cfg), "--checkpoint", "/nope.fcxs"]) == 3

    def test_mixed_heads_exit_code_2(self, tmp_path, capsys):
        from fcxs.models import ArchConfig, build_network, save_checkpoint

        cfg = run_config(tmp_path)
        args = ["eval", "--config", str(cfg)]
        for head in ("sigmoid", "softmax"):
            path = tmp_path / f"{head}.fcxs"
            config = ArchConfig(arch="invertednet", input_resolution=32, head=head, base_channels=16)
            save_checkpoint(build_network(config), path)
            args += ["--checkpoint", str(path)]
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_resolution_mismatch_exit_code_2(self, tmp_path, capsys):
        from fcxs.models import ArchConfig, build_network, save_checkpoint

        cfg = run_config(tmp_path)  # data.resolution 32
        path = tmp_path / "net16.fcxs"
        save_checkpoint(build_network(ArchConfig(arch="invertednet", input_resolution=16, base_channels=16)), path)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(path)]) == 2
        assert "data.resolution" in capsys.readouterr().err

    def test_empty_test_split_exit_code_3(self, tmp_path, capsys):
        from fcxs.models import ArchConfig, build_network, save_checkpoint

        cfg = run_config(tmp_path, data={"synthetic": {"n": 1, "seed": 3}})  # 60/7/33 of one id: no test image
        path = tmp_path / "net.fcxs"
        save_checkpoint(build_network(ArchConfig(arch="invertednet", input_resolution=32, base_channels=16)), path)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "empty" in err and "test" in err

    def test_three_checkpoint_vote_matches_oracle(self, trained):
        from fcxs.config import load_run_config
        from fcxs.data import compute_norm_stats, normalize_samples, split_dataset, synth_generate
        from fcxs.data import SPLIT_PRESETS
        from fcxs.imageio import read_pgm
        from fcxs.metrics import certain_pixels
        from fcxs.models import load_checkpoint, organ_probabilities

        tmp_path, cfg = trained
        out = tmp_path / "out"
        # best and last differ; {best, last, best} exercises a real 3-way vote
        ckpts = [out / "best.fcxs", out / "last.fcxs", out / "best.fcxs"]
        args = ["eval", "--config", str(cfg)]
        for c in ckpts:
            args += ["--checkpoint", str(c)]
        assert main(args) == 0

        run = load_run_config(cfg)
        samples = synth_generate(run.data.synthetic.n, run.data.resolution, run.data.synthetic.seed)
        split = split_dataset(
            [s.id for s in samples],
            scheme=run.train.split.scheme,
            fractions=SPLIT_PRESETS[run.train.split.preset],
            seed=run.train.split.seed,
        )
        normed = normalize_samples(samples, compute_norm_stats([s for s in samples if s.id in split.train]))
        nets = [load_checkpoint(c) for c in ckpts]
        by_id = {s.id: s for s in normed}
        for image_id in split.test:
            votes = np.zeros((3,) + by_id[image_id].image.shape[1:], dtype=int)
            for net in nets:
                probs = organ_probabilities(net, by_id[image_id].image)
                votes += np.stack([certain_pixels(p, run.eval.epsilon) for p in probs]).astype(int)
            expected = (votes > 1.5).astype(np.uint8)
            for c, cls in enumerate(("lungs", "clavicles", "heart")):
                exported, _ = read_pgm(out / "predictions" / f"{image_id}_{cls}.pgm")
                np.testing.assert_array_equal((exported > 127).astype(np.uint8), expected[c])


class TestParamsCommand:
    def test_reference_counts_printed(self, tmp_path, capsys):
        cfg = {
            "data": {"synthetic": {"n": 2}, "resolution": 256},
            "arch": {"arch": "all_dropout"},
            "loss": {"distance": "cross_entropy"},
            "output": {"directory": str(tmp_path / "out")},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["params", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "31,030,788" in out
        assert "enc0.conv0" in out
        assert "3,134,400" in out  # pool-replacement delta
        assert "ratio: 8.37" in out


class TestGradcheckCommand:
    def test_single_arch_quick(self, capsys):
        assert main(["gradcheck", "--arch", "invertednet", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "invertednet / dice" in out
        assert "PASS" in out

    def test_negative_control(self, capsys):
        assert (
            main(["gradcheck", "--arch", "unet_original", "--samples", "2", "--self-test-corrupt"])
            == 0
        )
        assert "as expected" in capsys.readouterr().out


class TestSignificanceCommand:
    def make_records(self, path, ids, offset):
        lines = ["id,class,dice,jaccard,surface_distance"]
        rng = np.random.default_rng(60)
        base = rng.uniform(0.5, 0.8, size=(len(ids), 3))
        for i, image_id in enumerate(ids):
            for c, cls in enumerate(("lungs", "clavicles", "heart")):
                j = base[i, c] + offset
                d = 2 * j / (1 + j)
                lines.append(f"{image_id},{cls},{d:.6f},{j:.6f},1.0")
        Path(path).write_text("\n".join(lines) + "\n")

    def test_self_comparison_na(self, tmp_path, capsys):
        ids = [f"i{i}" for i in range(12)]
        a = tmp_path / "model_a.csv"
        self.make_records(a, ids, 0.0)
        assert main(["significance", "--records", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "NA" in out

    def test_shifted_scores_significant(self, tmp_path, capsys):
        ids = [f"i{i}" for i in range(20)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_records(a, ids, 0.0)
        self.make_records(b, ids, 0.05)
        out_file = tmp_path / "sig.csv"
        assert main(["significance", "--records", str(a), str(b), "--out", str(out_file)]) == 0
        text = out_file.read_text()
        for line in text.splitlines():
            if line.startswith("a,"):
                p = float(line.split(",")[2])
                assert p < 0.01
                break

    @pytest.mark.parametrize(
        "names, stems",
        [(("a/records.csv", "b/records.csv"), False), (("x/model_a.csv", "y/model_b.csv"), True)],
        ids=["same_stem", "unique_stems"],
    )
    def test_files_get_distinct_labels(self, tmp_path, capsys, names, stems):
        # stems label the files unless two clash; then the paths do
        ids = [f"i{i}" for i in range(12)]
        paths = [tmp_path / name for name in names]
        for path, offset in zip(paths, (0.0, 0.05)):
            path.parent.mkdir()
            self.make_records(path, ids, offset)
        assert main(["significance", "--records"] + [str(p) for p in paths]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[lines.index("# class: lungs") + 1]
        assert header.split(",")[1:] == [p.stem if stems else str(p) for p in paths]

    def test_misaligned_ids_exit_code_3(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_records(a, ["x", "y"], 0.0)
        self.make_records(b, ["x", "z"], 0.0)
        assert main(["significance", "--records", str(a), str(b)]) == 3

    @pytest.mark.parametrize(
        "content, where",
        [
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,0.5\n", ":2: malformed", id="short_row"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,high,0.5,1.0\n", ":2: malformed", id="non_numeric"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,nan,0.5,1.0\n", ":2: malformed", id="nan"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,0.5,inf,1.0\n", ":2: malformed", id="inf"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,1.5,0.5,1.0\n", ":2: malformed", id="dice_above_1"),
            pytest.param(
                b"id,class,dice,jaccard,surface_distance\nx,lungs,0.5,0.3,1.0\nx,heart,0.5,-0.1,1.0\n",
                ":3: malformed",
                id="jaccard_below_0",
            ),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lungs,0.5,0.3,nan\n", ":2: malformed", id="sd_nan"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\nx,lung,0.5,0.3,1.0\n", ":2: malformed", id="unknown_class"),
            pytest.param(
                b"id,class,dice,jaccard,surface_distance\nx,lungs,0.5,0.3,1.0\ny,lungs,0.5,0.3,1.0\n",
                ": no 'clavicles' records",
                id="missing_class",
            ),
            pytest.param(
                b"id,class,dice,jaccard,surface_distance\n"
                b"x,lungs,0.5,0.3,1.0\ny,lungs,0.5,0.3,1.0\n"
                b"x,clavicles,0.5,0.3,1.0\ny,clavicles,0.5,0.3,1.0\n"
                b"y,heart,0.5,0.3,1.0\nx,heart,0.5,0.3,1.0\n",
                ": 'heart' image ids are misaligned",
                id="misaligned_class_ids",
            ),
            pytest.param(b"", ": empty", id="empty"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\n", ": no records", id="header_only"),
            pytest.param(b"id,class,dice,jaccard,surface_distance\n\xff\n", ":2: records are not UTF-8", id="not_utf8"),
            pytest.param(None, "cannot read records", id="missing"),
        ],
    )
    def test_malformed_records_exit_code_3(self, tmp_path, capsys, content, where):
        path = tmp_path / "bad.csv"
        if content is not None:
            path.write_bytes(content)
        assert main(["significance", "--records", str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and where in err

import gc
import hashlib
import json
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from fcxs.errors import ConfigError, DataError, NumericError, ShapeError
from fcxs.models import (
    ARCHITECTURES,
    HEADS,
    ArchConfig,
    build_network,
    count_parameters,
    ensemble_predict,
    format_parameter_table,
    load_checkpoint,
    organ_probabilities,
    parameter_table,
    save_checkpoint,
)
from fcxs.rng import Rng
from fcxs.tensor import Tensor, no_grad

REFERENCE_ALL_DROPOUT_PARAMS = 31_377_988
REFERENCE_INVERTEDNET_PARAMS = 3_140_771
POOL_REPLACEMENT_DELTA = 3_134_400


# sha256 of the save_checkpoint bytes, of the format_parameter_table text and
# of the step program (step_program_digest) of each arch x head at 16^2
# (base_channels 2; 16 for invertednet), so a refactor of the layer code
# cannot silently change a checkpoint, a ledger or a parameterless step
GOLDEN_DIGESTS = {
    ("unet_original", "sigmoid"): ("e52a936e16b5d8350e441f919ebbced02b1daf9dc06e404d5935b25573012e9f", "7d1c316d1eec8426f113b91b41fff12af861bad9cd364cb69daa17d3a13396e1", "5e79c953b91f156e53a774643e7f9be2910ea5099b9a2bf560ad89bc191eb1e1"),
    ("unet_original", "softmax"): ("676548987c673819dd28e3a5909960d2b7d3c22504ab5ae3159a19afbad08230", "e17e8f511f632b62bc8039df1c3509828aa21be5be0b1ad7b4a646cf8177e0f2", "5ba951fa1f11d64e7cf54f70c8cca2df76178439c7563707f27ef6fe0716cc42"),
    ("all_dropout", "sigmoid"): ("6a6b87911691292e4567aaa2f5e62e689c6b5b8b77b757aafbcc8109f86f7dbd", "7d1c316d1eec8426f113b91b41fff12af861bad9cd364cb69daa17d3a13396e1", "4138ef0f82feb4594f3efcf0cc8caf8393dc0b057cf73c77190741f739aa37eb"),
    ("all_dropout", "softmax"): ("6d0f3a62b4271bf3b10e71de367c0d10757899a5448d0d3c1a10130efe199b9a", "e17e8f511f632b62bc8039df1c3509828aa21be5be0b1ad7b4a646cf8177e0f2", "9995d80de1515ae24d1981fc30bcae8152fa791bd87bce80e68bdef36b763d71"),
    ("all_convolutional", "sigmoid"): ("9de43a333fb41b5b2ffd7bff86a06d3fa6d5585235993d07f3a96b7b70ad1e2b", "8ac3f364d2f1359785491b88e28c33af2afe220c74cb6155db75735be7373f9f", "f8a9eb44c3fd5b4917c4493a01fa2bd0bbce8e8bb74bd9f8a35765c742c76835"),
    ("all_convolutional", "softmax"): ("94626b77dfb954cc5a59da650420a9d2fa74d5734e91941c7d84f06e8ebbac79", "15575dfc9d56293d564f1bf839800ae147e371eeed4f6000f7abfec783030b02", "8a77298f66ebe0460787eb31db240ac13a60f0de68299741722fd037b44a26f7"),
    ("invertednet", "sigmoid"): ("74b69f8d324bb7edb678e504230a0a1abb4de26f5a5e0b9cb9ce43509dbb4561", "50b9db7d5db6af2d162b24d30db344950749b487ef2c392d5bb971ae64933bb9", "87cbab337ac106023e1791c9c68615e773bcf38044428fe6761a4debbf242b83"),
    ("invertednet", "softmax"): ("cfe12c1bdfc2236ee9494d06da2139f6f71c7966af47a28919b4e6bec0c4e632", "5719b341cb761174842f686761451db98dfe067216d7b7f3d98f8f18e83ed4b9", "97b65c854b0bc2788e435a74e0e9c842b7b954a42bc41454f5291ad4c2ce4531"),
}


# -- closed-form counting oracle: sum over (kernel, c_in, c_out) layer specs ------


def conv_params(k, c_in, c_out):
    return k * k * c_in * c_out + c_out


def unet_family_specs(base, classes, conv_pool):
    enc = [base * 2**i for i in range(5)]
    specs, ch = [], 1
    for lvl, c in enumerate(enc):
        specs += [(3, ch, c), (3, c, c)]
        ch = c
        if lvl < 4 and conv_pool:
            specs.append((3, c, c))
    for lvl in range(3, -1, -1):
        c = enc[lvl]
        specs += [(2, ch, c), (3, 2 * c, c), (3, c, c)]
        ch = c
    specs.append((1, ch, classes))
    return specs


def invertednet_specs(base, classes):
    enc = [base // 2**i for i in range(5)]
    specs, ch = [], 1
    for c in enc:
        specs += [(3, ch, c), (3, c, c)]
        ch = c
    for lvl in range(3, -1, -1):
        c = enc[lvl]
        specs += [(2, ch, c), (3, 2 * c, c), (3, c, c)]
        ch = c
    specs.append((1, ch, classes))
    return specs


def total(specs):
    return sum(conv_params(*s) for s in specs)


def step_program_digest(net):
    """sha256 over every step's (name, kind, text, inputs), in program order."""
    program = [[s.name, s.layer.kind, s.layer.text, list(s.inputs)] for s in net.steps]
    return hashlib.sha256(json.dumps(program).encode("utf-8")).hexdigest()


def small_config(arch, **kw):
    defaults = dict(
        arch=arch,
        input_resolution=16,
        head="sigmoid",
        activation="elu",
        drop_probability=0.1,
        base_channels=16 if arch == "invertednet" else 4,
    )
    defaults.update(kw)
    return ArchConfig(**defaults)


class TestArchConfig:
    def test_softmax_head_implies_four_classes(self):
        cfg = ArchConfig(arch="unet_original", head="softmax")
        assert cfg.num_classes == 4

    def test_sigmoid_head_implies_three_classes(self):
        assert ArchConfig(arch="invertednet", head="sigmoid").num_classes == 3

    def test_head_class_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(arch="unet_original", head="softmax", num_classes=3)
        with pytest.raises(ConfigError):
            ArchConfig(arch="unet_original", head="sigmoid", num_classes=4)

    def test_resolution_must_divide_16(self):
        with pytest.raises(ConfigError):
            ArchConfig(arch="unet_original", input_resolution=100)
        for ok in (16, 64, 128, 256):
            ArchConfig(arch="unet_original", input_resolution=ok)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(arch="resnet")

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("width", [0, -16])
    def test_non_positive_width_rejected(self, arch, width):
        with pytest.raises(ConfigError, match=f"base_channels: must be positive, got {width}"):
            ArchConfig(arch=arch, base_channels=width)

    def test_roundtrip_dict(self):
        cfg = small_config("all_dropout")
        assert ArchConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig.from_dict({"arch": "all_dropout", "bogus": 1})


class TestParameterCounts:
    def test_unet_original_reconstruction_count(self):
        cfg = ArchConfig(arch="unet_original", input_resolution=256, head="softmax")
        net = build_network(cfg)
        n = count_parameters(net)
        assert n == 31_030_788
        assert n == total(unet_family_specs(64, 4, conv_pool=False))
        # within 2% of the reference total
        assert abs(n - REFERENCE_ALL_DROPOUT_PARAMS) / REFERENCE_ALL_DROPOUT_PARAMS < 0.02

    def test_all_dropout_count_equals_unet_original(self):
        cfg = ArchConfig(arch="all_dropout", input_resolution=256, head="softmax")
        cfg_u = ArchConfig(arch="unet_original", input_resolution=256, head="softmax")
        assert count_parameters(build_network(cfg)) == count_parameters(
            build_network(cfg_u)
        )

    def test_pool_replacement_adds_exact_delta(self):
        cfg_d = ArchConfig(arch="all_dropout", input_resolution=256, head="softmax")
        cfg_c = ArchConfig(arch="all_convolutional", input_resolution=256, head="softmax")
        delta = count_parameters(build_network(cfg_c)) - count_parameters(
            build_network(cfg_d)
        )
        assert delta == POOL_REPLACEMENT_DELTA
        assert delta == sum(9 * c * c + c for c in (64, 128, 256, 512))

    def test_invertednet_count_and_ratio(self):
        cfg_i = ArchConfig(arch="invertednet", input_resolution=256, head="softmax")
        cfg_d = ArchConfig(arch="all_dropout", input_resolution=256, head="softmax")
        n_inv = count_parameters(build_network(cfg_i))
        n_drop = count_parameters(build_network(cfg_d))
        assert n_inv == total(invertednet_specs(256, 4))
        ratio = n_drop / n_inv
        assert 8.0 <= ratio <= 12.0

    def test_single_conv_count(self):
        cfg = small_config("unet_original")
        net = build_network(cfg)
        name, _, _, count = parameter_table(net)[0]
        assert name == "enc0.conv0"
        assert count == 9 * 1 * 4 + 4

    def test_parameter_table_total_matches(self):
        cfg = small_config("invertednet")
        net = build_network(cfg)
        rows = parameter_table(net)
        assert sum(r[3] for r in rows) == count_parameters(net)
        text = format_parameter_table(net)
        assert "total" in text and "enc0.conv0" in text


def step_shapes(net, x) -> dict:
    """Each step's output shape in one forward, read through a wrapper of its layer."""
    shapes = {}
    for step in net.steps:

        def forward(xs, mode, rng, layer_forward=step.layer.forward, name=step.name):
            out = layer_forward(xs, mode, rng)
            shapes[name] = out.shape
            return out

        step.layer.forward = forward
    net.forward(x)
    return shapes


class TestShapes:
    @pytest.mark.parametrize("arch", ["unet_original", "all_dropout", "all_convolutional", "invertednet"])
    @pytest.mark.parametrize("head", ["sigmoid", "softmax"])
    def test_output_shape_matches_input(self, arch, head):
        cfg = small_config(arch, input_resolution=32, head=head)
        net = build_network(cfg)
        out = net.forward(np.zeros((2, 1, 32, 32), dtype=np.float32))
        assert out.shape == (2, cfg.num_classes, 32, 32)

    def test_256_softmax_shape(self):
        cfg = ArchConfig(arch="unet_original", input_resolution=256, head="softmax", base_channels=2)
        net = build_network(cfg)
        out = net.forward(np.zeros((1, 1, 256, 256), dtype=np.float32))
        assert out.shape == (1, 4, 256, 256)

    def test_bottleneck_is_sixteenth_resolution(self):
        cfg = small_config("unet_original", input_resolution=64)
        shapes = step_shapes(build_network(cfg), np.zeros((1, 1, 64, 64), dtype=np.float32))
        assert shapes["enc4.conv1.act"][2:] == (4, 4)

    def test_invertednet_first_level_is_widest_at_full_resolution(self):
        cfg = small_config("invertednet", input_resolution=32, base_channels=32)
        shapes = step_shapes(build_network(cfg), np.zeros((1, 1, 32, 32), dtype=np.float32))
        assert shapes["enc0.conv1.act"] == (1, 32, 32, 32)
        assert shapes["enc4.conv1.act"] == (1, 2, 2, 2)

    def test_all_convolutional_shapes_match_all_dropout(self):
        kw = dict(input_resolution=32, head="sigmoid", base_channels=4)
        x = np.zeros((1, 1, 32, 32), dtype=np.float32)
        drop_shapes = step_shapes(build_network(ArchConfig(arch="all_dropout", **kw)), x)
        conv_shapes = step_shapes(build_network(ArchConfig(arch="all_convolutional", **kw)), x)
        shared = set(drop_shapes) & set(conv_shapes)
        assert {n for n in drop_shapes if ".pool" not in n} <= shared
        for name in shared:
            assert drop_shapes[name] == conv_shapes[name], name

    def test_wrong_resolution_rejected(self):
        net = build_network(small_config("all_dropout", input_resolution=32))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 1, 16, 16), dtype=np.float32))


class TestForwardSemantics:
    def test_zero_weight_sigmoid_head_gives_half(self):
        cfg = small_config("unet_original")
        net = build_network(cfg)
        for _, p in net.parameters():
            p.data[...] = 0.0
        out = net.forward(np.ones((1, 1, 16, 16), dtype=np.float32))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-7)

    def test_zero_weight_softmax_head_gives_quarter(self):
        cfg = small_config("unet_original", head="softmax")
        net = build_network(cfg)
        for _, p in net.parameters():
            p.data[...] = 0.0
        out = net.forward(np.ones((1, 1, 16, 16), dtype=np.float32))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-7)

    def test_output_in_unit_interval(self):
        # closed interval: float32 saturates at the rails for extreme logits
        for head in ("sigmoid", "softmax"):
            net = build_network(small_config("invertednet", head=head))
            x = Rng(0).normal((1, 1, 16, 16))
            out = net.forward(x).data
            assert (out >= 0).all() and (out <= 1).all()

    def test_infer_forward_is_deterministic(self):
        net = build_network(small_config("all_dropout"))
        x = Rng(1).normal((1, 1, 16, 16))
        a = net.forward(x).data
        b = net.forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_all_dropout_infer_equals_unet_original(self):
        kw = dict(input_resolution=16, head="sigmoid", base_channels=4, init_seed=3)
        net_d = build_network(ArchConfig(arch="all_dropout", **kw))
        net_u = build_network(ArchConfig(arch="unet_original", **kw))
        for (na, pa), (nb, pb) in zip(net_u.parameters(), net_d.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        x = Rng(2).normal((1, 1, 16, 16))
        np.testing.assert_array_equal(net_d.forward(x).data, net_u.forward(x).data)

    def test_train_mode_seed_determinism(self):
        net = build_network(small_config("all_dropout"))
        x = Rng(3).normal((1, 1, 16, 16))
        a = net.forward(x, mode="train", rng=Rng(10)).data
        b = net.forward(x, mode="train", rng=Rng(10)).data
        c = net.forward(x, mode="train", rng=Rng(11)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_non_finite_output_names_the_step(self, mode):
        net = build_network(small_config("invertednet"))
        dict(net.parameters())["dec1.conv0.weight"].data[0, 0, 1, 1] = np.nan
        x = Rng(5).normal((1, 1, 16, 16))
        with pytest.raises(NumericError, match=r"^non-finite values produced by conv2d at dec1\.conv0$"):
            net.forward(x, mode=mode, rng=Rng(6))

    def test_step_outputs_carry_the_step_name(self):
        net = build_network(small_config("invertednet"))
        x = Tensor(Rng(5).normal((1, 1, 16, 16)))
        out = net.forward(x, mode="train", rng=Rng(6))
        named = {node.name: node for node in out.graph_nodes() if node.name is not None}
        assert out.name == "head.sigmoid"
        assert {"enc0.conv0", "enc1.pool", "dec1.concat", "dec1.conv0.drop"} <= set(named)
        assert named.keys() <= {step.name for step in net.steps}
        assert x.name is None
        # at inference each dropout step hands its input on unrenamed
        assert net.forward(x, mode="infer").name == "head.sigmoid" and x.name is None

    def test_non_finite_gradient_names_the_step(self):
        from fcxs import tensor as T

        net = build_network(small_config("invertednet"))
        loss = T.tsum(net.forward(Rng(5).normal((1, 1, 16, 16)), mode="train", rng=Rng(6)))
        nodes = {node.name: node for node in loss.graph_nodes() if node.name is not None}
        conv, act = nodes["dec1.conv0"], nodes["dec1.conv0.act"]
        act_backward = act._backward_fn

        def poisoned(grad):  # the activation hands its conv a gradient with one NaN
            act_backward(grad)
            conv.grad[0, 0, 0, 0] = np.nan

        act._backward_fn = poisoned
        with pytest.raises(NumericError, match=r"^non-finite gradient produced during backward at dec1\.conv0$"):
            loss.backward()

    def test_parameter_grads_after_backward(self):
        from fcxs import tensor as T

        net = build_network(small_config("invertednet"), dtype=np.float64)
        x = Rng(4).normal((1, 1, 16, 16), dtype=np.float64)
        loss = T.tsum(net.forward(x))
        loss.backward()
        for name, p in net.parameters():
            assert p.grad is not None, name
            assert p.grad.shape == p.data.shape


def _retained_bytes(fn) -> int:
    """Bytes ``fn`` leaves allocated while its result is held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()  # noqa: F841  (held while the allocation is read)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestTapeFreeInference:
    @pytest.mark.parametrize(
        "arch, head, dtype",
        [
            (arch, head, np.float32)
            for arch in ("unet_original", "all_dropout", "all_convolutional", "invertednet")
            for head in ("sigmoid", "softmax")
        ]
        + [("invertednet", "sigmoid", np.float64)],
    )
    def test_probabilities_match_recording_forward(self, arch, head, dtype):
        net = build_network(small_config(arch, head=head, init_seed=12), dtype=dtype)
        x = Rng(12).normal((1, 1, 16, 16), dtype=dtype)
        recorded = net.forward(x, mode="infer")
        assert recorded._parents  # parameters require grad, so this forward is taped
        outputs = []
        forward = net.forward

        def capturing_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        net.forward = capturing_forward
        probs = organ_probabilities(net, x)
        (out,) = outputs
        assert not out.requires_grad and out._parents == () and out._backward_fn is None
        expected = recorded.data[0][1:] if head == "softmax" else recorded.data[0]
        assert probs.dtype == dtype
        np.testing.assert_array_equal(probs, expected)

    def test_step_outputs_released_after_last_reader(self):
        # unet_original has no dropout, which returns its input at inference,
        # so every step output owns its own array
        net = build_network(small_config("unet_original"))
        last_reader = {src: idx for idx, step in enumerate(net.steps) for src in step.inputs if src >= 0}
        refs, alive_at = [], []
        for step in net.steps:

            def forward(xs, mode, rng, layer_forward=step.layer.forward):
                alive_at.append({i for i, ref in enumerate(refs) if ref() is not None})
                out = layer_forward(xs, mode, rng)
                refs.append(weakref.ref(out.data))
                return out

            step.layer.forward = forward
        organ_probabilities(net, Rng(13).normal((1, 1, 16, 16)))
        for idx, alive in enumerate(alive_at):
            assert alive == {i for i in range(idx) if last_reader[i] >= idx}, net.steps[idx].name

    def test_peak_memory_below_half_of_recording_forward(self):
        # a recording forward's output holds its tape (conv inputs, activations);
        # one under no_grad, as organ_probabilities runs it, holds only the maps
        net = build_network(ArchConfig(arch="invertednet", input_resolution=64, base_channels=32, init_seed=1))
        x = Rng(1).normal((1, 1, 64, 64))
        recording = _retained_bytes(lambda: net.forward(x, mode="infer"))
        with no_grad():
            tape_free = _retained_bytes(lambda: net.forward(x, mode="infer"))
        assert tape_free < recording / 2, (tape_free, recording)


class TestTrainingTape:
    """A recording forward frees every step output that no backward reads."""

    def test_unread_arrays_freed_before_backward(self):
        from fcxs import tensor as T

        net = build_network(small_config("invertednet", init_seed=14))
        outs, conv_inputs, factors = {}, {}, []
        for step in net.steps:

            def forward(xs, mode, rng, layer_forward=step.layer.forward, step=step):
                if step.layer.kind == "conv":
                    conv_inputs[step.name] = weakref.ref(xs[0].data)
                out = layer_forward(xs, mode, rng)
                outs[step.name] = weakref.ref(out.data)
                return out

            step.layer.forward = forward

        class RecordingRng(Rng):
            def normal(self, shape, dtype=np.float32):
                factor = super().normal(shape, dtype)
                factors.append(weakref.ref(factor))
                return factor

        out = net.forward(Rng(14).normal((2, 1, 16, 16)), mode="train", rng=RecordingRng(15))
        gc.collect()
        readers = {
            step.name: {net.steps[j].layer.kind for j, s in enumerate(net.steps) if i in s.inputs}
            for i, step in enumerate(net.steps)
        }
        by_kind = {}
        for step in net.steps:
            by_kind.setdefault(step.layer.kind, []).append(step.name)
        # conv and transposed-conv outputs are read only by the ELU that follows
        # (the head's conv feeds the sigmoid, whose backward reads its input)
        freed = [n for n in by_kind["conv"] + by_kind["transposed_conv"] if n != "head"]
        # skip and up dropout outputs are read only by max-pool and concat
        freed += [n for n in by_kind["dropout"] if readers[n] <= {"maxpool", "concat"}]
        assert len(freed) == 18 + 4 + 4 + 4  # convs, transposed convs, skip and up dropouts
        assert [n for n in freed if outs[n]() is not None] == []
        elu_outputs = [n for n in by_kind["activation"] if n != "head.sigmoid"]
        assert [n for n in elu_outputs if outs[n]() is None] == []
        assert len(factors) == len(by_kind["dropout"]) and all(ref() is not None for ref in factors)
        # a conv reading a dropout or concat output rebuilds it in its backward;
        # the network input and max-pool outputs it keeps
        source = {
            step.name: "input" if step.inputs[0] == -1 else net.steps[step.inputs[0]].layer.kind
            for step in net.steps
            if step.layer.kind == "conv"
        }
        rebuilt = [n for n, kind in source.items() if kind in ("dropout", "concat")]
        kept = [n for n, kind in source.items() if kind in ("input", "maxpool")]
        assert len(conv_inputs) == 19 and (len(rebuilt), len(kept)) == (14, 5)
        assert [n for n in rebuilt if conv_inputs[n]() is not None] == []
        assert [n for n in kept if conv_inputs[n]() is None] == []
        T.tsum(out).backward()
        for name, p in net.parameters():
            assert p.grad is not None and np.isfinite(p.grad).all(), name

    def test_backward_clears_recomputes(self):
        # a dropout or concat output held past backward() must not keep the
        # ELU output and noise factor its recompute reads
        from fcxs import tensor as T

        net = build_network(small_config("invertednet", init_seed=18))
        elu_outputs, factors, held = [], [], []
        for step in net.steps:

            def forward(xs, mode, rng, layer_forward=step.layer.forward, kind=step.layer.kind):
                out = layer_forward(xs, mode, rng)
                if kind in ("dropout", "concat"):
                    held.append(out)
                elif kind == "activation" and out.requires_grad:
                    elu_outputs.append(weakref.ref(out.data))
                return out

            step.layer.forward = forward

        class RecordingRng(Rng):
            def normal(self, shape, dtype=np.float32):
                factor = super().normal(shape, dtype)
                factors.append(weakref.ref(factor))
                return factor

        out = net.forward(Rng(18).normal((2, 1, 16, 16)), mode="train", rng=RecordingRng(19))
        assert len(held) == 22 + 4 and all(t._recompute is not None for t in held)  # dropouts, concats
        T.tsum(out).backward()
        gc.collect()
        assert len(elu_outputs) == 22 + 1 and len(factors) == 22  # the last activation is the head's sigmoid
        assert [ref for ref in elu_outputs[:-1] + factors if ref() is not None] == []

    @pytest.mark.parametrize("arch", ["all_dropout", "invertednet"])
    def test_zero_drop_train_forward_matches_unreleased(self, arch, monkeypatch):
        # with d = 0 each dropout step hands its input on as its own output, so
        # one tensor is the output of two steps and must outlive both readers
        from fcxs import tensor as T

        def run():
            net = build_network(small_config(arch, drop_probability=0.0, init_seed=16))
            out = net.forward(Rng(16).normal((2, 1, 16, 16)), mode="train", rng=Rng(17))
            T.tsum(out).backward()
            return [out.data] + [p.grad for _, p in net.parameters()]

        released = run()
        monkeypatch.setattr(Tensor, "release", lambda self: None)
        for got, want in zip(released, run(), strict=True):
            assert np.array_equal(got, want)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = build_network(small_config("invertednet", init_seed=9))
        path = tmp_path / "net.fcxs"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for (na, pa), (nb, pb) in zip(net.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_roundtrip_preserves_forward(self, tmp_path):
        net = build_network(small_config("all_convolutional", init_seed=4))
        path = tmp_path / "net.fcxs"
        save_checkpoint(net, path)
        x = Rng(5).normal((1, 1, 16, 16))
        np.testing.assert_array_equal(
            net.forward(x).data, load_checkpoint(path).forward(x).data
        )

    def test_file_size_tracks_parameter_count(self, tmp_path):
        net = build_network(small_config("all_dropout"))
        path = tmp_path / "net.fcxs"
        save_checkpoint(net, path)
        size = path.stat().st_size
        payload = 4 * count_parameters(net)
        assert payload < size < payload + 65536

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("head", HEADS)
    def test_golden_checkpoint_and_ledger(self, tmp_path, arch, head):
        config = ArchConfig(
            arch=arch, input_resolution=16, head=head, base_channels=16 if arch == "invertednet" else 2
        )
        net = build_network(config)
        path = tmp_path / "net.fcxs"
        save_checkpoint(net, path)
        digests = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(format_parameter_table(net).encode("utf-8")).hexdigest(),
            step_program_digest(net),
        )
        assert digests == GOLDEN_DIGESTS[(arch, head)]
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert format_parameter_table(loaded) == format_parameter_table(net)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.fcxs"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda data: data[: len(data) - 17], id="cut_in_parameters"),
            pytest.param(lambda data: data[:6], id="cut_in_fixed_header"),
            pytest.param(lambda data: data[:20], id="cut_in_json_header"),
            pytest.param(lambda data: data[:8] + struct.pack("<I", 2**31) + data[12:], id="header_length_2_31"),
            pytest.param(lambda data: data[:14] + bytes([data[14] ^ 0x80]) + data[15:], id="flipped_header_byte"),
            pytest.param(lambda data: _rewrite_header(data, lambda h: h.pop("manifest")), id="no_manifest"),
            pytest.param(
                lambda data: _rewrite_header(data, lambda h: h["config"].update(arch="nope")), id="unknown_arch"
            ),
            pytest.param(lambda data: _with_first_weight(data, np.float32("nan")), id="nan_first_weight"),
        ],
    )
    def test_truncated_rejected(self, tmp_path, corrupt):
        net = build_network(small_config("unet_original"))
        path = tmp_path / "net.fcxs"
        save_checkpoint(net, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)


def _rewrite_header(data: bytes, edit) -> bytes:
    """A v1 checkpoint whose JSON header went through ``edit`` (in place)."""
    (length,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + length :]


def _with_first_weight(data: bytes, value) -> bytes:
    """The checkpoint with its first float32 parameter value replaced."""
    (length,) = struct.unpack("<I", data[8:12])
    start = 12 + length
    return data[:start] + struct.pack("<f", value) + data[start + 4 :]


class _FakeNet:
    """Stub with a constant per-organ probability field, for vote-rule tests."""

    def __init__(self, probs, resolution):
        self.config = ArchConfig(arch="unet_original", input_resolution=resolution, head="sigmoid")
        self._probs = np.asarray(probs, dtype=np.float32)

    def forward(self, image, mode="infer", rng=None):
        return Tensor(self._probs[None])


class TestEnsemble:
    def test_duplicate_network_equals_single(self):
        net = build_network(small_config("invertednet", init_seed=6))
        x = Rng(6).normal((1, 1, 16, 16))
        single = ensemble_predict([net], x)
        double = ensemble_predict([net, net], x)
        np.testing.assert_array_equal(single, double)
        expected = np.stack(
            [(p > 0.75).astype(np.uint8) for p in organ_probabilities(net, x)]
        )
        np.testing.assert_array_equal(single, expected)

    def test_two_one_zero_votes_included(self):
        hi = np.full((3, 16, 16), 0.9, dtype=np.float32)
        lo = np.full((3, 16, 16), 0.1, dtype=np.float32)
        nets = [_FakeNet(hi, 16), _FakeNet(hi, 16), _FakeNet(lo, 16)]
        out = ensemble_predict(nets, np.zeros((1, 16, 16), dtype=np.float32))
        np.testing.assert_array_equal(out, 1)

    def test_even_tie_excluded(self):
        hi = np.full((3, 16, 16), 0.9, dtype=np.float32)
        lo = np.full((3, 16, 16), 0.1, dtype=np.float32)
        out = ensemble_predict(
            [_FakeNet(hi, 16), _FakeNet(lo, 16)], np.zeros((1, 16, 16), dtype=np.float32)
        )
        np.testing.assert_array_equal(out, 0)

    def test_three_net_vote_matches_bruteforce(self):
        rng = np.random.default_rng(77)
        maps = [rng.uniform(size=(3, 16, 16)).astype(np.float32) for _ in range(3)]
        nets = [_FakeNet(m, 16) for m in maps]
        got = ensemble_predict(nets, np.zeros((1, 16, 16), dtype=np.float32))
        # brute-force per-pixel majority oracle
        expected = np.zeros((3, 16, 16), dtype=np.uint8)
        for c in range(3):
            for y in range(16):
                for x in range(16):
                    votes = sum(1 for m in maps if m[c, y, x] > 0.75)
                    expected[c, y, x] = 1 if votes > 3 / 2 else 0
        np.testing.assert_array_equal(got, expected)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigError):
            ensemble_predict([], np.zeros((1, 16, 16)))

    def test_mixed_class_sets_rejected(self):
        a = build_network(small_config("unet_original", head="sigmoid"))
        b = build_network(small_config("unet_original", head="softmax"))
        with pytest.raises(ConfigError):
            ensemble_predict([a, b], np.zeros((1, 16, 16), dtype=np.float32))


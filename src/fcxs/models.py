"""The four segmentation architectures and everything built on top of them.

All four networks share the encoder/decoder scheme: a contraction path
that abstracts features while shrinking resolution 16x, an expansion
path that upsamples with learned 2x2 transposed convolutions and merges
skip features by channel concatenation (contraction features first),
and a 1x1 convolution head producing one probability map per class.

Differences between the variants:

* ``unet_original``  -- channel schedule (C, 2C, 4C, 8C, 16C), 2x2
  stride-2 max pooling between levels, no dropout.
* ``all_dropout``    -- same topology plus Gaussian dropout after every
  convolution's activation (head excluded).
* ``all_convolutional`` -- all_dropout with each max pool replaced by a
  stride-2 same-padded 3x3 convolution (channel-preserving, followed by
  activation and dropout).  The 3x3 kernel is deliberate: it reproduces
  the reference parameter delta exactly, a 2x2 kernel does not.
* ``invertednet``    -- inverted channel schedule (C, C/2, ..., C/16)
  starting wide (256 by default), dropout everywhere, pooling retained
  with delayed subsampling: the first pool keeps stride 2, every later
  pool has stride 1 and hands its stride 2 to the first convolution
  after it.

Networks are static step programs.  Each step pairs one ``Layer`` (an
op closed over the step's parameters, plus its op kind and the text the
parameter ledger prints) with the steps it reads from, so the forward
pass is a topologically ordered walk.  The walk releases each
intermediate tensor after its last reader has run (``Tensor.release``),
so a skip feature lives only until its concatenation.  In training the
autodiff tape keeps only the arrays some backward reads, bound in its
closures: ELU outputs, dropout factors, max-pool winners and the conv
inputs that are the network input or a max-pool output.  Conv and
transposed-conv outputs, which only the next activation reads, are freed
during the forward, and so are dropout and concat outputs: a conv or
transposed conv that reads one rebuilds it in its backward from the ELU
outputs and factors (``tensor.saved``).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import ops
from .errors import ConfigError, DataError, NumericError, ShapeError
from .metrics import certain_pixels
from .rng import Rng
from .tensor import Tensor, no_grad

ARCHITECTURES = ("unet_original", "all_dropout", "all_convolutional", "invertednet")
HEADS = ("sigmoid", "softmax")
ACTIVATIONS = ("elu", "relu")
CHECKPOINT_MAGIC = b"FCXS"
CHECKPOINT_VERSION = 1

_DEFAULT_BASE_CHANNELS = {
    "unet_original": 64,
    "all_dropout": 64,
    "all_convolutional": 64,
    "invertednet": 256,
}


@dataclass(frozen=True)
class ArchConfig:
    """Hyperparameters that fully determine a network's construction."""

    arch: str = "invertednet"
    input_resolution: int = 256
    in_channels: int = 1
    num_classes: Optional[int] = None  # derived from head when omitted
    activation: str = "elu"
    drop_probability: float = 0.1
    head: str = "sigmoid"
    base_channels: Optional[int] = None  # first contraction level; arch default when omitted
    init_seed: int = 0

    def __post_init__(self):
        """Checks every field; one ConfigError lists each problem as ``field: reason``."""
        problems = []
        if self.arch not in ARCHITECTURES:
            problems.append(f"arch: unknown architecture {self.arch!r}; expected one of {ARCHITECTURES}")
        if self.head not in HEADS:
            problems.append(f"head: unknown head {self.head!r}; expected one of {HEADS}")
        if self.activation not in ACTIVATIONS:
            problems.append(f"activation: unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if self.input_resolution % 16 != 0 or self.input_resolution <= 0:
            problems.append(
                "input_resolution: must be a positive multiple of 16 (four downsampling "
                f"stages), got {self.input_resolution}"
            )
        if not 0.0 <= self.drop_probability < 1.0:
            problems.append(f"drop_probability: must be in [0, 1), got {self.drop_probability}")
        expected = 3 if self.head == "sigmoid" else 4
        if self.num_classes is None:
            object.__setattr__(self, "num_classes", expected)
        elif self.num_classes != expected:
            problems.append(
                f"num_classes: head {self.head!r} requires num_classes={expected} "
                f"(3 organ classes{' + background' if self.head == 'softmax' else ''}), "
                f"got {self.num_classes}"
            )
        if self.base_channels is None:
            object.__setattr__(self, "base_channels", _DEFAULT_BASE_CHANNELS.get(self.arch))
        elif self.base_channels < 1:
            problems.append(f"base_channels: must be positive, got {self.base_channels}")
        elif self.arch == "invertednet" and self.base_channels % 16 != 0:
            problems.append(
                "base_channels: invertednet base_channels must be divisible by 16 "
                f"(halved at each of four levels), got {self.base_channels}"
            )
        if problems:
            raise ConfigError("\n".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown ArchConfig fields: {sorted(unknown)}")
        return cls(**d)


# -- layers --------------------------------------------------------------------


class Layer:
    """One network step: ``fn(xs, mode, rng)`` applied to the step's inputs.

    ``kind`` names the op family ("conv", "transposed_conv", "maxpool",
    "activation", "dropout", "concat", "softmax"), ``text`` describes the
    step in the parameter ledger, and ``params`` lists its (suffix, tensor)
    pairs in checkpoint order.
    """

    kind = "layer"  # class-level too, so tools that patch layer classes can find this one

    def __init__(self, kind: str, fn, text: str, params=()):
        self.kind = kind
        self.fn = fn
        self.text = text
        self.params = list(params)

    def forward(self, xs, mode, rng):
        return self.fn(xs, mode, rng)


@dataclass
class Step:
    name: str
    layer: Layer
    inputs: tuple[int, ...]  # indices of earlier steps; -1 is the network input


class Network:
    """A named, ordered program of layers with stable parameter ordering."""

    def __init__(self, config: ArchConfig, steps: list[Step]):
        self.config = config
        self.steps = steps
        for idx, step in enumerate(steps):
            for src in step.inputs:
                if src >= idx or src < -1:
                    raise ConfigError(f"step {step.name} reads from an invalid step index {src}")
        # forward drops each step output once its last reader has run
        last_reader = {src: idx for idx, step in enumerate(steps) for src in step.inputs if src >= 0}
        self._dead_after: list[list[int]] = [[] for _ in steps]
        for src, idx in last_reader.items():
            self._dead_after[idx].append(src)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{step.name}.{suffix}", t) for step in self.steps for suffix, t in step.layer.params]

    def param_kinds(self) -> dict[str, str]:
        return {f"{step.name}.{suffix}": step.layer.kind for step in self.steps for suffix, _ in step.layer.params}

    def forward(self, x, mode: str = "infer", rng: Optional[Rng] = None) -> Tensor:
        if mode not in ("train", "infer"):
            raise ConfigError(f"forward mode must be 'train' or 'infer', got {mode!r}")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        if x.data.ndim == 3:
            x = Tensor(x.data[None])
        if x.data.ndim != 4:
            raise ShapeError(f"expected a (C,H,W) image or an (N,C,H,W) batch, got shape {x.shape}")
        n, c, h, w = x.shape
        if c != self.config.in_channels:
            raise ShapeError(f"expected {self.config.in_channels} input channels, got {c}")
        if h != self.config.input_resolution or w != self.config.input_resolution:
            raise ShapeError(
                f"expected {self.config.input_resolution}x{self.config.input_resolution} input, got {h}x{w}"
            )
        outputs: list[Optional[Tensor]] = [None] * len(self.steps)
        for idx, step in enumerate(self.steps):
            xs = [x if i == -1 else outputs[i] for i in step.inputs]
            try:
                out = step.layer.forward(xs, mode, rng)
            except NumericError as exc:
                raise NumericError(f"{exc} at {step.name}") from exc
            if all(out is not src for src in xs):  # an identity step hands on its input, name and all
                out.name = step.name
            outputs[idx] = out
            for src in self._dead_after[idx]:
                _release_step_output(outputs, src, x)
        return outputs[-1]

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.data) for name, p in self.parameters()]

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, p in self.parameters():
            if name not in arrays:
                raise DataError(f"missing parameter {name!r} in state")
            arr = np.asarray(arrays[name], dtype=p.dtype)
            if arr.shape != p.data.shape:
                raise DataError(f"parameter {name!r}: shape {arr.shape} != {p.data.shape}")
            p.data = np.ascontiguousarray(arr)


def _release_step_output(outputs: list, src: int, x: Tensor) -> None:
    """Drop ``outputs[src]`` and release its data, unless the tensor is also a
    live output or the network input: an identity step (dropout at inference
    or with d = 0) hands its input on as its own output.  The tensor is a
    local here, so no reference outlives this call."""
    dead, outputs[src] = outputs[src], None
    if dead is not x and all(out is not dead for out in outputs):
        dead.release()


# -- builders --------------------------------------------------------------------


class _Builder:
    def __init__(self, config: ArchConfig, dtype):
        self.config = config
        self.dtype = dtype
        self.dropout = config.arch != "unet_original"
        self.steps: list[Step] = []
        self.rng = Rng(config.init_seed)
        self._draw = 0

    def _init_weight(self, shape, fan_in) -> Tensor:
        # uniform He-style fan-in scaling, seeded per draw
        bound = float(np.sqrt(6.0 / fan_in))
        data = self.rng.child(self._draw).uniform(-bound, bound, shape, dtype=self.dtype)
        self._draw += 1
        return Tensor(data, requires_grad=True)

    def add(self, name: str, inputs, kind: str, fn, text: str, params=()) -> int:
        self.steps.append(Step(name, Layer(kind, fn, text, params), tuple(inputs)))
        return len(self.steps) - 1

    def conv(self, name, src, c_in, c_out, kernel=3, stride=1) -> int:
        w = self._init_weight((c_out, c_in, kernel, kernel), c_in * kernel * kernel)
        b = Tensor(np.zeros(c_out, dtype=self.dtype), requires_grad=True)
        return self.add(
            name, [src], "conv", lambda xs, mode, rng: ops.conv2d(xs[0], w, b, stride=stride),
            f"conv {kernel}x{kernel} {c_in}->{c_out} stride {stride}", [("weight", w), ("bias", b)],
        )

    def tconv(self, name, src, c_in, c_out) -> int:
        w = self._init_weight((c_in, c_out, 2, 2), c_in)
        b = Tensor(np.zeros(c_out, dtype=self.dtype), requires_grad=True)
        return self.add(
            name, [src], "transposed_conv", lambda xs, mode, rng: ops.transposed_conv2d(xs[0], w, b),
            f"transposed conv 2x2 {c_in}->{c_out} stride 2", [("weight", w), ("bias", b)],
        )

    def pool(self, name, src, stride) -> int:
        return self.add(
            name, [src], "maxpool", lambda xs, mode, rng: ops.maxpool2d(xs[0], stride=stride),
            f"maxpool 2x2 stride {stride}",
        )

    def act(self, name, src, fn_name=None) -> int:
        fn_name = fn_name or self.config.activation
        return self.add(name, [src], "activation", lambda xs, mode, rng: ops.activation(fn_name, xs[0]), fn_name)

    def act_drop(self, name, src) -> int:
        """``name.act``, then ``name.drop`` when the architecture uses dropout."""
        node = self.act(f"{name}.act", src)
        if not self.dropout:
            return node
        d = self.config.drop_probability
        return self.add(
            f"{name}.drop", [node], "dropout", lambda xs, mode, rng: ops.gaussian_dropout(xs[0], d, mode, rng),
            f"gaussian dropout d={d}",
        )

    def conv_act(self, name, src, c_in, c_out, stride=1) -> int:
        return self.act_drop(name, self.conv(name, src, c_in, c_out, stride=stride))

    def concat(self, name, skip, src) -> int:
        return self.add(name, [skip, src], "concat", lambda xs, mode, rng: ops.concat_channels(*xs), "concat")

    def head(self, src, c_in) -> int:
        node = self.conv("head", src, c_in, self.config.num_classes, kernel=1)
        if self.config.head == "softmax":
            return self.add(
                "head.softmax", [node], "softmax", lambda xs, mode, rng: ops.softmax_channels(xs[0]),
                "softmax over channels",
            )
        return self.act("head.sigmoid", node, "sigmoid")


def build_network(config: ArchConfig, dtype=np.float32) -> Network:
    """The five-level encoder/decoder of ``config.arch`` (see the module docstring).

    The architecture fixes the channel schedule (doubling per level,
    halving for invertednet), whether dropout follows each activation
    (all but unet_original) and how a level subsamples into the next:
    the U-Net family pools after level l as ``enc{l}.pool`` or
    ``enc{l}.poolconv``; invertednet pools before level l as
    ``enc{l}.pool`` and, past level 1, hands the stride 2 to
    ``enc{l}.conv0``.  The decoder and head are the same for all four.
    """
    b = _Builder(config, dtype)
    inverted = config.arch == "invertednet"
    c0 = config.base_channels
    channels = [c0 // 2**lvl if inverted else c0 * 2**lvl for lvl in range(5)]
    skips = []
    node, ch = -1, config.in_channels
    for lvl, c in enumerate(channels):
        stride = 1
        if lvl > 0:  # subsample level lvl - 1 into level lvl
            if inverted:
                node = b.pool(f"enc{lvl}.pool", node, stride=2 if lvl == 1 else 1)
                stride = 1 if lvl == 1 else 2
            elif config.arch == "all_convolutional":
                node = b.conv_act(f"enc{lvl - 1}.poolconv", node, ch, ch, stride=2)
            else:
                node = b.pool(f"enc{lvl - 1}.pool", node, stride=2)
        node = b.conv_act(f"enc{lvl}.conv0", node, ch, c, stride=stride)
        node = b.conv_act(f"enc{lvl}.conv1", node, c, c)
        skips.append(node)
        ch = c
    for lvl in range(3, -1, -1):
        c = channels[lvl]
        node = b.act_drop(f"dec{lvl}.up", b.tconv(f"dec{lvl}.up", node, ch, c))
        node = b.concat(f"dec{lvl}.concat", skips[lvl], node)
        node = b.conv_act(f"dec{lvl}.conv0", node, 2 * c, c)
        node = b.conv_act(f"dec{lvl}.conv1", node, c, c)
        ch = c
    b.head(node, ch)
    return Network(config, b.steps)


# -- parameter accounting ----------------------------------------------------------


def count_parameters(net: Network) -> int:
    return sum(p.size for _, p in net.parameters())


def parameter_table(net: Network) -> list[tuple[str, str, str, int]]:
    """Per-layer ledger: (step name, description, weight shapes, element count)."""
    rows = []
    for step in net.steps:
        items = step.layer.params
        if not items:
            continue
        shapes = " + ".join("x".join(map(str, t.shape)) for _, t in items)
        count = sum(t.size for _, t in items)
        rows.append((step.name, step.layer.text, shapes, count))
    return rows


def format_parameter_table(net: Network) -> str:
    rows = parameter_table(net)
    name_w = max(len(r[0]) for r in rows)
    desc_w = max(len(r[1]) for r in rows)
    shape_w = max(len(r[2]) for r in rows)
    lines = [
        f"{'layer':<{name_w}}  {'op':<{desc_w}}  {'parameters':<{shape_w}}  {'count':>12}"
    ]
    for name, desc, shapes, count in rows:
        lines.append(f"{name:<{name_w}}  {desc:<{desc_w}}  {shapes:<{shape_w}}  {count:>12,}")
    lines.append(f"{'total':<{name_w}}  {'':<{desc_w}}  {'':<{shape_w}}  {count_parameters(net):>12,}")
    return "\n".join(lines)


# -- checkpoints --------------------------------------------------------------------
#
# Layout: magic "FCXS" | u32 version | u32 header length | UTF-8 JSON header
# {"config": ArchConfig, "manifest": [{"name", "shape"}...]} | little-endian
# float32 arrays concatenated in manifest order.  Round-trips are bit-exact
# for float32 networks (the training precision).


def save_checkpoint(net: Network, path) -> None:
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in net.state_arrays()]
    header = json.dumps(
        {"config": net.config.to_dict(), "manifest": manifest}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for _, arr in net.state_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> Network:
    try:
        fh_ctx = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")
    with fh_ctx as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise DataError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<II", fixed)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: header length {header_len} runs past the end of the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ArchConfig.from_dict(header["config"])
            manifest = [(e["name"], tuple(int(d) for d in e["shape"])) for e in header["manifest"]]
            if any(d < 0 for _, shape in manifest for d in shape):
                raise ValueError("negative dimension in the manifest")
        except (ValueError, KeyError, TypeError) as exc:  # ConfigError and decode errors are ValueErrors
            raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        net = build_network(config)
        arrays = {}
        for name, shape in manifest:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(4 * count)
            if len(raw) != 4 * count:
                raise DataError(f"{path}: truncated parameter data for {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise DataError(f"{path}: non-finite values in parameter {name}")
        trailing = fh.read(1)
        if trailing:
            raise DataError(f"{path}: trailing bytes after parameter data")
    net.load_state_arrays(arrays)
    return net


# -- inference and ensembling ----------------------------------------------------------


def organ_probabilities(net: Network, image) -> np.ndarray:
    """Per-organ probability maps (3,H,W): the last three output channels.

    The tape-free entry point: the forward runs under ``no_grad``, so no
    autodiff graph is recorded and each activation is freed once read.
    """
    with no_grad():
        probs = net.forward(image, mode="infer").data[0]
    return probs[-3:]


def ensemble_predict(nets: Sequence[Network], image, epsilon: float = 0.25) -> np.ndarray:
    """Strict-majority vote over per-network thresholded masks.

    Each network's certain-pixel mask keeps pixels with class probability
    above 1 - epsilon; a pixel enters the ensemble mask only when more
    than half of the networks keep it (ties excluded), equivalently when
    the mean binary vote exceeds 0.5.
    """
    if not nets:
        raise ConfigError("ensemble_predict requires at least one network")
    heads = {(n.config.head, n.config.num_classes) for n in nets}
    resolutions = {n.config.input_resolution for n in nets}
    if len(heads) > 1:
        raise ConfigError(f"ensemble networks disagree on class set: {sorted(heads)}")
    if len(resolutions) > 1:
        raise ConfigError(f"ensemble networks disagree on resolution: {sorted(resolutions)}")
    votes = np.zeros((3,) + image.shape[-2:], dtype=np.int64)
    for net in nets:
        probs = organ_probabilities(net, image)
        votes += np.stack([certain_pixels(p, epsilon) for p in probs]).astype(np.int64)
    return (votes * 2 > len(nets)).astype(np.uint8)

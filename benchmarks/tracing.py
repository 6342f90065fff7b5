"""Per-layer tracing of fcxs from outside the program.

``install()`` wraps the public functions of each fcxs module (and the
layer classes' ``forward``) with timers and counters.  Nothing in
``src/`` changes: a wrapped function is rebound everywhere the program
holds a reference to it (module globals, and module-level dispatch
tables such as ``ops._ACTIVATIONS`` and ``cli._COMMANDS``).

Recording is off by default.  A workload switches it on around its
timed operations only, so set-up and the output checks do not count.
Every op that returns a tensor with a backward closure gets that
closure wrapped too, so backward time is attributed per op family and
per network step group (``enc0``..``enc4``, ``dec3``..``dec0``,
``head``).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

STEP_GROUPS = ("enc0", "enc1", "enc2", "enc3", "enc4", "dec3", "dec2", "dec1", "dec0", "head")
OP_FAMILIES = (
    "conv2d",
    "transposed_conv2d",
    "maxpool2d",
    "elu",
    "sigmoid",
    "concat_channels",
    "gaussian_dropout",
    "other",
)
_OPS = {
    "conv2d": "conv2d",
    "transposed_conv2d": "transposed_conv2d",
    "maxpool2d": "maxpool2d",
    "elu": "elu",
    "sigmoid": "sigmoid",
    "concat_channels": "concat_channels",
    "gaussian_dropout": "gaussian_dropout",
    "relu": "other",
    "softmax_channels": "other",
    "sum_per_channel": "other",
}
_TENSOR_OPS = ("add", "mul", "div", "log", "clip", "tsum")


class Recorder:
    """Sums keyed by metric name; only counts while ``on``."""

    def __init__(self):
        self.on = False
        self.in_eval = False
        self.sums: dict[str, float] = defaultdict(float)
        self.retained_mb = 0.0
        self.step_group: dict[int, str] = {}

    def add(self, key: str, value: float) -> None:
        if self.on:
            self.sums[key] += value


REC = Recorder()
_INSTALLED = False


def _fcxs_modules():
    return [m for name, m in sys.modules.items() if name == "fcxs" or name.startswith("fcxs.")]


def _rebind(old, new) -> None:
    """Point every reference the program holds to ``old`` at ``new``."""
    for mod in _fcxs_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def _timed_backward(fn, key: str):
    @functools.wraps(fn)
    def backward(grad):
        started = perf_counter()
        fn(grad)
        REC.add(key, perf_counter() - started)

    return backward


def _wrap_function(fn, key, after=None):
    """Time ``fn`` under ``key`` (unless None); ``after`` counts from its arguments and result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = perf_counter()
        out = fn(*args, **kwargs)
        if key is not None:
            REC.add(key, perf_counter() - started)
        if after is not None and REC.on:
            after(args, kwargs, out)
        return out

    return wrapper


def _conv_counts(args, kwargs, out) -> None:
    x, weight = args[0], args[1]
    n, c, _, _ = x.shape
    f, _, kh, kw = weight.shape
    ho, wo = out.shape[2], out.shape[3]
    flop = 2.0 * n * f * c * kh * kw * ho * wo
    REC.add("ops.conv2d.calls", 1)
    REC.add("ops.conv2d.fwd_flop", flop)
    REC.add("ops.conv2d.bwd_flop", flop * (1 + (1 if x.requires_grad else 0)))
    REC.add("ops.conv2d.cols_bytes", n * c * kh * kw * ho * wo * x.data.itemsize)


def _wrap_op(fn, family: str, after=None):
    fwd_key = f"ops.{family}.fwd_s"
    bwd_key = f"ops.{family}.bwd_s"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = perf_counter()
        out = fn(*args, **kwargs)
        REC.add(fwd_key, perf_counter() - started)
        if REC.on:
            if after is not None:
                after(args, kwargs, out)
            if out._backward_fn is not None and all(out is not a for a in args):
                out._backward_fn = _timed_backward(out._backward_fn, bwd_key)
        return out

    return wrapper


def _wrap_layer_forward(cls) -> None:
    original = cls.forward

    def forward(self, xs, *args, **kwargs):
        started = perf_counter()
        out = original(self, xs, *args, **kwargs)
        if REC.on:
            group = REC.step_group.get(id(self), "other")
            REC.add(f"models.{group}.fwd_s", perf_counter() - started)
            if out._backward_fn is not None and all(out is not x for x in xs):
                out._backward_fn = _timed_backward(out._backward_fn, f"models.{group}.bwd_s")
        return out

    cls.forward = forward


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def retained_bytes(output) -> int:
    """Bytes of every array reachable from ``output``: node data plus the
    arrays that backward closures keep alive."""
    seen_nodes: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [output]

    def take(value) -> None:
        if isinstance(value, np.ndarray):
            root = _root(value)
            buffers[id(root)] = root.nbytes
        elif hasattr(value, "_parents") and hasattr(value, "data"):
            stack.append(value)
        elif callable(value) and getattr(value, "__closure__", None):
            for cell in value.__closure__:
                try:
                    take(cell.cell_contents)
                except ValueError:  # empty cell
                    pass

    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        take(node.data)
        if node._backward_fn is not None:
            take(node._backward_fn)
        stack.extend(node._parents)
    return sum(buffers.values())


def install() -> None:
    """Wrap fcxs's public functions; idempotent."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    import fcxs.cli  # noqa: F401  (loads every module that holds references)
    from fcxs import (
        data,
        evaluation,
        imageio,
        losses,
        metrics,
        models,
        ops,
        optim,
        rng,
        tensor,
        training,
    )

    op_table = [(ops, name, family) for name, family in _OPS.items()]
    op_table += [(tensor, name, "other") for name in _TENSOR_OPS]
    for module, name, family in op_table:
        fn = getattr(module, name, None)
        if fn is not None:
            _rebind(fn, _wrap_op(fn, family, _conv_counts if name == "conv2d" else None))

    for value in list(vars(models).values()):
        if isinstance(value, type) and hasattr(value, "kind") and hasattr(value, "forward"):
            _wrap_layer_forward(value)

    net_forward = models.Network.forward

    def traced_forward(self, x, *args, **kwargs):
        REC.step_group = {id(s.layer): s.name.split(".")[0] for s in self.steps}
        started = perf_counter()
        out = net_forward(self, x, *args, **kwargs)
        REC.add("models.forward_s", perf_counter() - started)
        mode = kwargs.get("mode", args[0] if args else "infer")
        if REC.on and mode == "infer":
            REC.retained_mb = max(REC.retained_mb, retained_bytes(out) / 1e6)
            if REC.in_eval:
                REC.add("evaluation.forwards", 1)
        return out

    models.Network.forward = traced_forward

    def count_nodes(args, kwargs, out):
        REC.add("tensor.graph_nodes", len(out))

    def count_step(args, kwargs, out):
        REC.add("training.steps", 1)

    def count_values(args, kwargs, out):
        REC.add("rng.normal_values", out.size)

    methods = [
        (tensor.Tensor, "backward", "tensor.backward_s", None),
        (tensor.Tensor, "graph_nodes", None, count_nodes),
        (optim.Adam, "step", "optim.adam_s", count_step),
        (rng.Rng, "normal", "rng.normal_s", count_values),
    ]
    for cls, name, key, after in methods:
        setattr(cls, name, _wrap_function(getattr(cls, name), key, after))

    def count_epoch(args, kwargs, out):
        REC.add("training.epochs", 1)

    def count_images(args, kwargs, out):
        samples = kwargs.get("samples", args[1] if len(args) > 1 else ())
        REC.add("evaluation.images", len(samples))

    def count_read(args, kwargs, out):
        REC.add("imageio.read_bytes", os.path.getsize(args[0]))

    def count_write(args, kwargs, out):
        REC.add("imageio.write_bytes", os.path.getsize(args[0]))
        REC.add("imageio.files_written", 1)

    def count_checkpoint(args, kwargs, out):
        REC.add("models.checkpoint_bytes", os.path.getsize(args[1]))

    def count_pairs(args, kwargs, out):
        pred, gt = (np.asarray(a).astype(bool) for a in args[:2])
        if pred.any() and gt.any():
            REC.add("metrics.distance_pairs", 2 * _boundary_count(pred) * _boundary_count(gt))

    plain = [
        (tensor, "make_op", "tensor.make_op_s", None),
        (tensor, "_require_finite", "tensor.finite_check_s", None),
        (tensor, "_require_finite_grads", "tensor.finite_check_s", None),
        (losses, "segmentation_loss", "losses.loss_s", None),
        (losses, "class_weights", "losses.class_weights_s", None),
        (training, "validation_jaccard", "training.validation_s", count_epoch),
        (data, "load_dataset", "data.load_dataset_s", None),
        (data, "compute_norm_stats", "data.norm_s", None),
        (data, "normalize_samples", "data.norm_s", None),
        (imageio, "read_pgm", "imageio.read_s", count_read),
        (imageio, "read_png", "imageio.read_s", count_read),
        (imageio, "write_pgm", "imageio.write_s", count_write),
        (imageio, "write_png", "imageio.write_s", count_write),
        (models, "save_checkpoint", "models.save_checkpoint_s", count_checkpoint),
        (models, "load_checkpoint", "models.load_checkpoint_s", None),
        (metrics, "surface_distance_symmetric", "metrics.surface_distance_s", count_pairs),
        (metrics, "dice", "metrics.dice_s", None),
        (evaluation, "evaluate", "evaluation.evaluate_s", count_images),
        (evaluation, "export_masks", "evaluation.export_s", None),
    ]
    for module, name, key, after in plain:
        fn = getattr(module, name, None)
        if fn is not None:
            _rebind(fn, _wrap_function(fn, key, after))


def _boundary_count(mask: np.ndarray) -> int:
    padded = np.pad(mask, 1, constant_values=False)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return int((mask & ~interior).sum())


@contextlib.contextmanager
def recording(enabled: bool, eval_phase: bool = False):
    """Count everything the program does inside the block (when ``enabled``)."""
    REC.on, REC.in_eval = enabled, enabled and eval_phase
    try:
        yield
    finally:
        REC.on = REC.in_eval = False


def start_memory() -> None:
    tracemalloc.start()


def stop_memory() -> float:
    """Stop tracemalloc; returns the peak traced since ``start_memory`` in MB."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


# per-unit metrics read straight from one recorded sum: name -> (sum key, scale)
_PER_UNIT = {
    "models.forward_s": ("models.forward_s", 1.0),
    "losses.loss_s": ("losses.loss_s", 1.0),
    "losses.class_weights_s": ("losses.class_weights_s", 1.0),
    "tensor.backward_s": ("tensor.backward_s", 1.0),
    "optim.adam_s": ("optim.adam_s", 1.0),
    "ops.conv2d.calls": ("ops.conv2d.calls", 1.0),
    "ops.conv2d.gflop": ("ops.conv2d.fwd_flop", 1e-9),
    "ops.conv2d.cols_mb": ("ops.conv2d.cols_bytes", 1e-6),
    "rng.normal_s": ("rng.normal_s", 1.0),
    "rng.normal_mvalues": ("rng.normal_values", 1e-6),
    "tensor.make_op_s": ("tensor.make_op_s", 1.0),
    "tensor.finite_check_s": ("tensor.finite_check_s", 1.0),
    "tensor.graph_nodes": ("tensor.graph_nodes", 1.0),
    "training.validation_s": ("training.validation_s", 1.0),
    "training.steps": ("training.steps", 1.0),
    "training.epochs": ("training.epochs", 1.0),
    "data.load_dataset_s": ("data.load_dataset_s", 1.0),
    "data.norm_s": ("data.norm_s", 1.0),
    "imageio.read_s": ("imageio.read_s", 1.0),
    "imageio.read_mb": ("imageio.read_bytes", 1e-6),
    "imageio.write_s": ("imageio.write_s", 1.0),
    "imageio.write_mb": ("imageio.write_bytes", 1e-6),
    "imageio.files_written": ("imageio.files_written", 1.0),
    "models.save_checkpoint_s": ("models.save_checkpoint_s", 1.0),
    "models.load_checkpoint_s": ("models.load_checkpoint_s", 1.0),
    "models.checkpoint_mb": ("models.checkpoint_bytes", 1e-6),
    "metrics.surface_distance_s": ("metrics.surface_distance_s", 1.0),
    "metrics.distance_pairs": ("metrics.distance_pairs", 1.0),
    "metrics.dice_s": ("metrics.dice_s", 1.0),
    "evaluation.evaluate_s": ("evaluation.evaluate_s", 1.0),
    "evaluation.export_s": ("evaluation.export_s", 1.0),
}
_PER_UNIT.update({f"ops.{f}.{side}": (f"ops.{f}.{side}", 1.0) for f in OP_FAMILIES for side in ("fwd_s", "bwd_s")})
_PER_UNIT.update({f"models.{g}.{side}": (f"models.{g}.{side}", 1.0) for g in STEP_GROUPS for side in ("fwd_s", "bwd_s")})


def layer_metrics(units: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-unit values of every per-layer metric, from the recorded sums.

    ``units`` is the number of timed operations the sums cover (steps,
    images or rounds); ``extra`` carries the values the workload measured
    itself (set-up parts, CLI phases, the traced end-to-end time).
    """
    s = REC.sums
    out = {name: s[key] * scale / max(units, 1) for name, (key, scale) in _PER_UNIT.items()}
    out["ops.conv2d.fwd_gflops"] = _rate(s["ops.conv2d.fwd_flop"], s["ops.conv2d.fwd_s"])
    out["ops.conv2d.bwd_gflops"] = _rate(s["ops.conv2d.bwd_flop"], s["ops.conv2d.bwd_s"])
    op_bwd = sum(s[f"ops.{f}.bwd_s"] for f in OP_FAMILIES)
    op_fwd = sum(s[f"ops.{f}.fwd_s"] for f in OP_FAMILIES)
    backward_self = max(s["tensor.backward_s"] - op_bwd, 0.0) / max(units, 1)
    out["tensor.backward_self_s"] = backward_self
    out["tensor.retained_mb"] = REC.retained_mb
    images = s["evaluation.images"]
    out["evaluation.forwards_per_image"] = s["evaluation.forwards"] / images if images else 0.0
    out.update(extra)
    # share of the traced operation time that the op-level spans, backward
    # bookkeeping and Adam account for
    accounted = (op_fwd + op_bwd + s["optim.adam_s"]) / max(units, 1) + backward_self
    out["trace.accounted_pct"] = 100.0 * accounted / extra["trace.op_s"]
    return out


def _rate(flop: float, seconds: float) -> float:
    return flop / seconds / 1e9 if seconds > 0 else 0.0

"""The three workloads of the fcxs benchmark.

Each takes ``(seed, seconds, traced, work_dir)`` and returns a dict with
``correct``, ``attempted``, ``failed``, ``metrics`` (the end-to-end
figures) and ``layers`` (the per-layer figures, filled when traced) and
``checks`` (one line per output check).  All inputs derive from the
seed; the program only sees the generated images, masks and configs.

A workload sets up (``setup_s`` is the wall time from the first call
into fcxs to the end of the first, untimed operation), then repeats
whole operations until ``seconds`` have passed, then checks the outputs
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import tracing

PAPER_RES, PAPER_WIDTH, PAPER_LR, PAPER_DROP = 128, 256, 1e-5, 0.1
PAPER_TRAIN_SAMPLES, PAPER_BATCH = 8, 2
INFER_SAMPLES, INFER_HELD_OUT, INFER_SETUPS = 8, 3, 3
DESK_SAMPLES, DESK_RES, DESK_WIDTH, DESK_LR, DESK_EPOCHS = 24, 64, 32, 1e-3, 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts, checks and timings of one workload run."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[bool, str]] = []
        self.traced_peak_mb = 0.0
        self.peak_rss_mb = 0.0
        if traced:
            tracing.install()

    def check(self, name: str, outcome) -> None:
        ok, detail = outcome
        self.checks.append((ok, f"{name}: {detail}"))

    @contextlib.contextmanager
    def memory_probe(self):
        """Traced runs measure Python-visible allocations (numpy buffers
        included) over the untimed first operation only: tracemalloc
        slows allocation-heavy code too much to run it while timing."""
        if self.traced:
            tracing.start_memory()
        try:
            yield
        finally:
            if self.traced:
                self.traced_peak_mb = tracing.stop_memory()

    def timed(self, seconds: float, operation) -> list[float]:
        """Repeat ``operation`` (which returns its own wall time) for ``seconds``."""
        durations: list[float] = []
        started = perf_counter()
        while not durations or perf_counter() - started < seconds:
            self.attempted += 1
            try:
                durations.append(operation(len(durations)))
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                self.checks.append((False, f"operation {self.attempted} raised {exc!r}"))
                break
        self.peak_rss_mb = peak_rss_mb()  # before the checks that follow allocate
        return durations

    def result(self, setup_s: float, op_s: list[float], units: int, extra: dict) -> dict:
        op = statistics.median(op_s) if op_s else float("nan")
        metrics = {"setup_s": setup_s, "op_s": op, "peak_rss_mb": self.peak_rss_mb}
        layers = {}
        if self.traced:
            extra = dict(extra, **{"trace.op_s": op, "trace.setup_s": setup_s})
            extra["memory.traced_peak_mb"] = self.traced_peak_mb
            layers = tracing.layer_metrics(units, extra)
        return {
            "correct": bool(self.checks) and all(ok for ok, _ in self.checks) and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "layers": layers,
            "checks": [("PASS " if ok else "FAIL ") + text for ok, text in self.checks],
        }


def _workload_layers(data_s=0.0, build_s=0.0, checkpoint_s=0.0, first_op_s=0.0, train_s=0.0, eval_s=0.0):
    """Per-layer figures a workload times at its own call boundaries."""
    return {
        "setup.data_s": data_s,
        "setup.build_s": build_s,
        "setup.checkpoint_s": checkpoint_s,
        "setup.first_op_s": first_op_s,
        "cli.train_s": train_s,
        "cli.eval_s": eval_s,
    }


# -- paper_train -----------------------------------------------------------------


def adam_inputs(params, optimizer) -> list:
    """Copies of (theta, grad, m, v) per parameter, as Adam.step will read them."""
    return [(p.data.copy(), p.grad.copy(), m.copy(), v.copy()) for p, m, v in zip(params, optimizer.m, optimizer.v)]


def loss_function(net, params, x, chi, make_rng):
    """The loss as a function of the parameter values, dropout stream held fixed."""

    def loss_at(values) -> float:
        for p, value in zip(params, values):
            p.data = value
        out = net.forward(x, mode="train", rng=make_rng())
        return oracles.weighted_dice_loss(out.data, chi)

    return loss_at


def paper_train(seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    """Training steps of invertednet at width 256, 128^2, batch 2, weighted Dice."""
    run = Run(traced)  # installs the tracing wrappers before fcxs names are imported
    from fcxs.data import build_groundtruth, compute_norm_stats, normalize_samples, synth_generate
    from fcxs.losses import LossConfig, class_weights, segmentation_loss
    from fcxs.models import ArchConfig, build_network
    from fcxs.optim import Adam
    from fcxs.rng import Rng
    from fcxs.training import pack_batch

    started = perf_counter()
    samples = synth_generate(PAPER_TRAIN_SAMPLES, PAPER_RES, seed)
    samples = normalize_samples(samples, compute_norm_stats(samples))
    gts = [build_groundtruth(s, "dice") for s in samples]
    data_s = perf_counter() - started
    net = build_network(
        ArchConfig(
            arch="invertednet",
            input_resolution=PAPER_RES,
            base_channels=PAPER_WIDTH,
            drop_probability=PAPER_DROP,
            init_seed=seed,
        )
    )
    params = [p for _, p in net.parameters()]
    optimizer = Adam(net.parameters(), lr=PAPER_LR)
    loss_config = LossConfig("dice", weighted=True)
    order = np.random.default_rng(seed).permutation(len(samples))
    build_s = perf_counter() - started - data_s
    per_epoch = len(samples) // PAPER_BATCH
    last = {}

    def batch(k):
        ids = [order[(PAPER_BATCH * k + i) % len(samples)] for i in range(PAPER_BATCH)]
        # dropout noise keyed as training.train keys it: (epoch, first index of the batch)
        rng_path = (1 + k // per_epoch, PAPER_BATCH * (k % per_epoch))
        return [samples[i] for i in ids], [gts[i] for i in ids], rng_path

    def step(k: int, check: bool) -> float:
        batch_samples, batch_gts, rng_path = batch(k)
        t0 = perf_counter()
        x, chi = pack_batch(batch_samples, batch_gts)
        weights = 1.0 / class_weights(chi)
        out = net.forward(x, mode="train", rng=Rng(seed).child(*rng_path))
        loss = segmentation_loss(out, chi, loss_config, weights=weights)
        net.zero_grad()
        loss.backward()
        elapsed = perf_counter() - t0
        if check:  # read what the step will use, outside the timed region
            before = adam_inputs(params, optimizer)
            t = optimizer.t + 1
            maps, loss_value = out.data.copy(), float(loss.data)
        del out, loss
        t0 = perf_counter()
        optimizer.step()
        elapsed += perf_counter() - t0
        if check:
            run.check(f"step {k} loss", oracles.check_loss(maps, chi, loss_value))
            run.check(f"step {k} adam", oracles.check_adam(before, [p.data for p in params], t, PAPER_LR))
            last.update(k=k, x=x, chi=chi, rng_path=rng_path, before=before)
        return elapsed

    with run.memory_probe():
        step(0, check=False)
    setup_s = perf_counter() - started

    def timed_step(i: int) -> float:
        with tracing.recording(traced):
            return step(i + 1, check=True)

    steps = run.timed(seconds, timed_step)

    if last:
        loss_at = loss_function(net, params, last["x"], last["chi"], lambda: Rng(seed).child(*last["rng_path"]))
        theta = [b[0] for b in last["before"]]
        grads = [b[1] for b in last["before"]]
        run.check(
            f"step {last['k']} gradient",
            oracles.check_directional_derivative(loss_at, theta, grads),
        )
    return run.result(
        setup_s,
        steps,
        len(steps),
        _workload_layers(data_s, build_s, 0.0, setup_s - data_s - build_s),
    )


# -- paper_infer -----------------------------------------------------------------


def paper_infer(seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    """Checkpoint round trip, then evaluate() over held-out 128^2 images."""
    run = Run(traced)  # installs the tracing wrappers before fcxs names are imported
    from fcxs.data import compute_norm_stats, normalize_samples, synth_generate
    from fcxs.evaluation import evaluate
    from fcxs.models import ArchConfig, build_network, load_checkpoint, organ_probabilities, save_checkpoint

    setups = []
    for rep in range(INFER_SETUPS):
        t0 = perf_counter()
        samples = synth_generate(INFER_SAMPLES, PAPER_RES, seed)
        stats = compute_norm_stats(samples[: INFER_SAMPLES - INFER_HELD_OUT])
        held_out = normalize_samples(samples[INFER_SAMPLES - INFER_HELD_OUT :], stats)
        t1 = perf_counter()
        net = build_network(
            ArchConfig(arch="invertednet", input_resolution=PAPER_RES, base_channels=PAPER_WIDTH, init_seed=seed)
        )
        t2 = perf_counter()
        checkpoint = work_dir / f"paper_{rep}.fcxs"
        save_checkpoint(net, checkpoint)
        net = load_checkpoint(checkpoint)
        t3 = perf_counter()
        with run.memory_probe() if rep == INFER_SETUPS - 1 else contextlib.nullcontext():
            evaluate(net, held_out[:1], with_surface_distance=False)
        t4 = perf_counter()
        setups.append((t4 - t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3))
    median_setup = sorted(setups)[len(setups) // 2]

    def operation(_i: int) -> float:
        t0 = perf_counter()
        with tracing.recording(traced, eval_phase=True):
            records, _ = evaluate(net, held_out, with_surface_distance=False)
        elapsed = perf_counter() - t0
        if len(records) != 3 * len(held_out):
            raise RuntimeError(f"evaluate returned {len(records)} records")
        return elapsed / len(held_out)

    per_image = run.timed(seconds, operation)
    probs = organ_probabilities(net, held_out[0].image)
    run.check("probabilities", oracles.check_probabilities(checkpoint, held_out[0].image, probs))
    return run.result(
        median_setup[0],
        per_image,
        len(per_image) * len(held_out),
        _workload_layers(*median_setup[1:]),
    )


# -- desk_cli --------------------------------------------------------------------


def desk_config(data_dir: Path, out_dir: Path, seed: int, res: int, width: int, epochs: int) -> dict:
    return {
        "data": {"root": str(data_dir), "resolution": res},
        "arch": {"arch": "invertednet", "base_channels": width, "drop_probability": 0.1, "init_seed": seed},
        "loss": {"distance": "dice", "weighted": True},
        "train": {
            "epochs": epochs,
            "batch_size": 2,
            "lr": DESK_LR,
            "patience": epochs,
            "seed": seed,
            "split": {"scheme": "fractions", "preset": "60/7/33", "seed": seed},
        },
        "eval": {"epsilon": 0.25, "spacing": 1.0, "surface_distance": True, "export_masks": True, "overlays": True},
        "output": {"directory": str(out_dir)},
    }


def cli_round(config: Path, out_dir: Path, traced: bool) -> tuple[float, float]:
    """``fcxs train`` then ``fcxs eval`` in-process; returns their wall times."""
    from fcxs.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        with tracing.recording(traced):
            code = main(["train", "--config", str(config)])
        t1 = perf_counter()
        if code != 0:
            raise RuntimeError(f"fcxs train exited with {code}")
        with tracing.recording(traced, eval_phase=True):
            code = main(["eval", "--config", str(config), "--checkpoint", str(out_dir / "best.fcxs")])
        t2 = perf_counter()
    if code != 0:
        raise RuntimeError(f"fcxs eval exited with {code}")
    return t1 - t0, t2 - t1


def desk_cli(seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    """The CLI path at desk scale: fcxs train + fcxs eval on a 64^2 PGM dataset."""
    run = Run(traced)  # installs the tracing wrappers before fcxs names are imported
    from fcxs.data import save_dataset, synth_generate

    data_dir, out_dir = work_dir / "data", work_dir / "out"
    config = work_dir / "run.json"
    started = perf_counter()
    save_dataset(synth_generate(DESK_SAMPLES, DESK_RES, seed), data_dir)
    data_s = perf_counter() - started
    config.write_text(json.dumps(desk_config(data_dir, out_dir, seed, DESK_RES, DESK_WIDTH, DESK_EPOCHS)))
    with run.memory_probe():
        cli_round(config, out_dir, traced=False)
    setup_s = perf_counter() - started
    phases = []

    def operation(_i: int) -> float:
        train_s, eval_s = cli_round(config, out_dir, traced)
        phases.append((train_s, eval_s))
        run.check(f"round {len(phases)} records", oracles.check_records(out_dir, data_dir))
        run.check(f"round {len(phases)} history", oracles.check_loss_falls(out_dir / "history.csv"))
        return train_s + eval_s

    rounds = run.timed(seconds, operation)
    return run.result(
        setup_s,
        rounds,
        len(rounds),
        _workload_layers(
            data_s,
            first_op_s=setup_s - data_s,
            train_s=statistics.median(p[0] for p in phases) if phases else 0.0,
            eval_s=statistics.median(p[1] for p in phases) if phases else 0.0,
        ),
    )


WORKLOADS = {"paper_train": paper_train, "paper_infer": paper_infer, "desk_cli": desk_cli}

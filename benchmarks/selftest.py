"""Fast self-tests of the benchmark's output checks.

Each check runs on a width-16, 32x32 invertednet and must agree with the
program; each must also fail on a deliberate corruption (a perturbed
weight, a scaled gradient, an edited mask file, ...).  Run from the
repository root; exits 0 when every case behaves:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from fcxs.data import build_groundtruth, compute_norm_stats, normalize_samples, synth_generate  # noqa: E402
from fcxs.losses import LossConfig, class_weights, segmentation_loss  # noqa: E402
from fcxs.models import ArchConfig, build_network, load_checkpoint, organ_probabilities, save_checkpoint  # noqa: E402
from fcxs.optim import Adam  # noqa: E402
from fcxs.rng import Rng  # noqa: E402
from fcxs.training import pack_batch  # noqa: E402

RES, WIDTH, LR = 32, 16, 1e-3


def small_step():
    """One training step of the small net; returns what the checks need."""
    samples = synth_generate(2, RES, seed=5)
    samples = normalize_samples(samples, compute_norm_stats(samples))
    x, chi = pack_batch(samples, [build_groundtruth(s, "dice") for s in samples])
    net = build_network(ArchConfig(input_resolution=RES, base_channels=WIDTH, init_seed=5))
    params = [p for _, p in net.parameters()]
    optimizer = Adam(net.parameters(), lr=LR)
    weights = 1.0 / class_weights(chi)
    out = net.forward(x, mode="train", rng=Rng(5).child(1, 0))
    loss = segmentation_loss(out, chi, LossConfig(), weights=weights)
    net.zero_grad()
    loss.backward()
    before = workloads.adam_inputs(params, optimizer)
    optimizer.step()
    return dict(net=net, params=params, x=x, chi=chi, out=out, weights=weights, loss=loss, before=before)


def case_loss(s):
    good = oracles.check_loss(s["out"].data, s["chi"], float(s["loss"].data))
    tampered = segmentation_loss(s["out"], s["chi"], LossConfig(), weights=s["weights"] * [1.0, 1.01, 1.0])
    bad = oracles.check_loss(s["out"].data, s["chi"], float(tampered.data))
    return good, bad, "class weight perturbed by 1%"


def case_adam(s):
    after = [p.data.copy() for p in s["params"]]
    good = oracles.check_adam(s["before"], after, 1, LR)
    after[3].flat[0] += 1e-4
    bad = oracles.check_adam(s["before"], after, 1, LR)
    return good, bad, "one updated weight perturbed by 1e-4"


def case_gradient(s):
    loss_at = workloads.loss_function(s["net"], s["params"], s["x"], s["chi"], lambda: Rng(5).child(1, 0))
    theta = [b[0] for b in s["before"]]
    grads = [b[1] for b in s["before"]]
    good = oracles.check_directional_derivative(loss_at, theta, grads)
    bad = oracles.check_directional_derivative(loss_at, theta, [1.1 * g for g in grads])
    return good, bad, "gradient scaled by 1.1"


def case_probabilities(work: Path):
    image = synth_generate(1, RES, seed=6)[0].image
    path = work / "small.fcxs"
    save_checkpoint(build_network(ArchConfig(input_resolution=RES, base_channels=WIDTH, init_seed=6)), path)
    net = load_checkpoint(path)
    good = oracles.check_probabilities(path, image, organ_probabilities(net, image))
    weight = dict(net.parameters())["dec0.conv1.weight"]
    weight.data = weight.data.copy()
    weight.data.flat[0] += 0.05
    bad = oracles.check_probabilities(path, image, organ_probabilities(net, image))
    return good, bad, "one network weight perturbed by 0.05 after loading"


def desk_run(work: Path):
    from fcxs.data import save_dataset

    data_dir, out_dir, config = work / "data", work / "out", work / "run.json"
    save_dataset(synth_generate(9, RES, seed=7), data_dir)
    config.write_text(json.dumps(workloads.desk_config(data_dir, out_dir, 7, RES, WIDTH, 2)))
    workloads.cli_round(config, out_dir, traced=False)
    return data_dir, out_dir


def case_records(data_dir: Path, out_dir: Path):
    good = oracles.check_records(out_dir, data_dir)
    test_id = json.loads((out_dir / "split.json").read_text())["test"][0]
    mask = out_dir / "predictions" / f"{test_id}_heart.pgm"
    blob = bytearray(mask.read_bytes())
    pixels = len(blob) - RES * RES
    for i in range(pixels + RES * 12, pixels + RES * 20):  # invert eight rows
        blob[i] = 255 - blob[i]
    mask.write_bytes(bytes(blob))
    bad = oracles.check_records(out_dir, data_dir)
    return good, bad, f"eight rows of {mask.name} inverted"


def case_history(out_dir: Path):
    history = out_dir / "history.csv"
    good = oracles.check_loss_falls(history)
    header, *rows = history.read_text().splitlines()
    history.write_text("\n".join([header, *reversed(rows)]) + "\n")
    bad = oracles.check_loss_falls(history)
    return good, bad, "history.csv epochs reversed"


def main() -> int:
    work = HERE.parent / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        step = small_step()
        data_dir, out_dir = desk_run(work)
        cases = {
            "loss": lambda: case_loss(step),
            "adam": lambda: case_adam(step),
            "gradient": lambda: case_gradient(step),
            "probabilities": lambda: case_probabilities(work),
            "records": lambda: case_records(data_dir, out_dir),
            "history": lambda: case_history(out_dir),
        }
        failures = 0
        for name, case in cases.items():
            (good_ok, good_text), (bad_ok, bad_text), corruption = case()
            ok = good_ok and not bad_ok
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: agrees -> {good_ok} ({good_text})")
            print(f"     {name} with {corruption}: detected -> {not bad_ok} ({bad_text})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

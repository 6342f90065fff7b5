"""Checks of the program's outputs, computed apart from the program.

Nothing here imports fcxs.  Each oracle works on plain numpy arrays or
on the documented on-disk formats (``.fcxs`` checkpoints, binary PGM,
``records.csv``, ``history.csv``) and recomputes in float64 what the
program computed, so the benchmark never compares against a stored copy
of an earlier output.  Every check returns ``(ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

CLASSES = ("lungs", "clavicles", "heart")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# -- training step -------------------------------------------------------------


def weighted_dice_loss(p: np.ndarray, chi: np.ndarray) -> float:
    """L = -sum_l w_l * 2 sum(chi_l p_l) / sum(chi_l + p_l), w_l = c / c_l, in float64."""
    p = np.asarray(p, dtype=np.float64)
    chi = np.asarray(chi, dtype=np.float64)
    total = chi.shape[0] * chi.shape[2] * chi.shape[3]
    chi_sums = chi.sum(axis=(0, 2, 3))
    p_sums = p.sum(axis=(0, 2, 3))
    weights = total / np.maximum(chi_sums, 1.0)
    smooth = ((chi_sums == 0) & (p_sums == 0)).astype(np.float64)  # empty vs empty counts as 1
    overlap = (2.0 * (chi * p).sum(axis=(0, 2, 3)) + smooth) / (chi_sums + p_sums + smooth)
    return -float((weights * overlap).sum())


def check_loss(p: np.ndarray, chi: np.ndarray, loss: float, tol: float = 1e-5):
    expected = weighted_dice_loss(p, chi)
    err = abs(loss - expected) / max(abs(expected), 1e-12)
    return err <= tol, f"loss {loss:.7g} vs float64 {expected:.7g} (rel err {err:.1e})"


def adam_update(theta, grad, m, v, t: int, lr: float) -> np.ndarray:
    """One Adam step with bias correction, in float64."""
    g = np.asarray(grad, dtype=np.float64)
    m1 = ADAM_BETA1 * np.asarray(m, dtype=np.float64) + (1.0 - ADAM_BETA1) * g
    v1 = ADAM_BETA2 * np.asarray(v, dtype=np.float64) + (1.0 - ADAM_BETA2) * g * g
    m_hat = m1 / (1.0 - ADAM_BETA1**t)
    v_hat = v1 / (1.0 - ADAM_BETA2**t)
    return np.asarray(theta, dtype=np.float64) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def check_adam(before: list, after: list, t: int, lr: float):
    """``before`` holds (theta, grad, m, v) per parameter, read before the step.

    The program updates float32 parameters, so each result may differ from
    the float64 update by the float32 spacing at that value, plus a small
    share of the learning rate for float32 rounding inside the update.
    """
    worst = 0.0
    for (theta, grad, m, v), new in zip(before, after):
        expected = adam_update(theta, grad, m, v, t, lr)
        allowed = np.spacing(np.abs(expected).astype(np.float32)).astype(np.float64) + 1e-3 * lr
        excess = np.abs(np.asarray(new, dtype=np.float64) - expected) / allowed
        worst = max(worst, float(excess.max()))
    return worst <= 1.0, f"Adam step t={t}: worst error {worst:.2f} of the allowed float32 error"


def check_directional_derivative(loss_at, theta: list, grads: list, eps: float = 1e-3, tol: float = 1e-2):
    """Central difference of the loss along the gradient direction.

    ``loss_at(params)`` evaluates the loss at float32 parameters with the
    dropout stream held fixed.  The float32 rounding of theta +- eps*u is
    taken into account by comparing L+ - L- with g . (theta+ - theta-);
    the figure printed is the finite-difference estimate of ||g||.
    """
    g = [np.asarray(x, dtype=np.float64) for x in grads]
    norm = math.sqrt(sum(float((x * x).sum()) for x in g))
    plus = [(np.asarray(t, np.float64) + eps * x / norm).astype(np.float32) for t, x in zip(theta, g)]
    minus = [(np.asarray(t, np.float64) - eps * x / norm).astype(np.float32) for t, x in zip(theta, g)]
    predicted = sum(float((x * (a.astype(np.float64) - b)).sum()) for x, a, b in zip(g, plus, minus))
    difference = loss_at(plus) - loss_at(minus)
    err = abs(difference - predicted) / abs(predicted)
    estimate = difference / (2.0 * eps)
    return err <= tol, f"||g|| {norm:.6g}, central difference {estimate:.6g} (rel err {err:.1e}, eps {eps:g})"


# -- inference: a float64 forward pass read from the .fcxs file ----------------


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse magic 'FCXS' | u32 version | u32 header length | JSON header | <f4 arrays."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"FCXS":
        raise ValueError(f"{path}: bad magic")
    _version, header_len = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    offset = 12 + header_len
    params = {}
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        params[entry["name"]] = (
            np.frombuffer(blob, dtype="<f4", count=count, offset=offset).astype(np.float64).reshape(shape)
        )
        offset += 4 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} bytes after the parameters")
    return header["config"], params


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """Same-padded convolution of (C,H,W) as a sum of k*k shifted matrix products;
    the odd padding row/column goes to the bottom/right."""
    c, h, width = x.shape
    f, _, k, _ = w.shape
    ho, wo = -(-h // stride), -(-width // stride)
    pad_h = max((ho - 1) * stride + k - h, 0)
    pad_w = max((wo - 1) * stride + k - width, 0)
    xp = np.pad(x, ((0, 0), (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2)))
    out = np.zeros((f, ho * wo))
    for i in range(k):
        for j in range(k):
            patch = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += w[:, :, i, j] @ patch.reshape(c, -1)
    return out.reshape(f, ho, wo) + b[:, None, None]


def _maxpool(x: np.ndarray, stride: int) -> np.ndarray:
    """2x2 max pool; stride 1 keeps the size, windows past the edge see -inf."""
    if stride == 1:
        x = np.pad(x, ((0, 0), (0, 1), (0, 1)), constant_values=-np.inf)
        return np.maximum.reduce([x[:, :-1, :-1], x[:, :-1, 1:], x[:, 1:, :-1], x[:, 1:, 1:]])
    return np.maximum.reduce([x[:, ::2, ::2], x[:, ::2, 1::2], x[:, 1::2, ::2], x[:, 1::2, 1::2]])


def _upsample(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed convolution, weights (C_in, F, 2, 2)."""
    c, h, width = x.shape
    f = w.shape[1]
    out = np.empty((f, 2 * h, 2 * width))
    for i in range(2):
        for j in range(2):
            out[:, i::2, j::2] = (w[:, :, i, j].T @ x.reshape(c, -1)).reshape(f, h, width)
    return out + b[:, None, None]


def invertednet_probabilities(config: dict, params: dict[str, np.ndarray], image: np.ndarray) -> np.ndarray:
    """Inference of the inverted net (sigmoid head) in float64: (3, H, W).

    Levels 0..4 have C, C/2, .., C/16 channels.  The first pool has
    stride 2; later pools have stride 1 and the convolution after each
    carries the stride 2 instead.  Dropout is the identity at inference.
    """
    if config["arch"] != "invertednet" or config["head"] != "sigmoid":
        raise ValueError("the reference forward covers invertednet with a sigmoid head only")
    if config["activation"] == "elu":
        act = lambda z: np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))  # noqa: E731
    else:
        act = lambda z: np.maximum(z, 0.0)  # noqa: E731

    def conv(name, x, stride=1):
        return act(_conv_same(x, params[f"{name}.weight"], params[f"{name}.bias"], stride))

    x = np.asarray(image, dtype=np.float64).reshape(1, *image.shape[-2:])
    x = conv("enc0.conv1", conv("enc0.conv0", x))
    skips = [x]
    for lvl in range(1, 5):
        x = _maxpool(x, 2 if lvl == 1 else 1)
        x = conv(f"enc{lvl}.conv1", conv(f"enc{lvl}.conv0", x, 1 if lvl == 1 else 2))
        skips.append(x)
    for lvl in range(3, -1, -1):
        up = act(_upsample(x, params[f"dec{lvl}.up.weight"], params[f"dec{lvl}.up.bias"]))
        x = np.concatenate([skips[lvl], up])
        x = conv(f"dec{lvl}.conv1", conv(f"dec{lvl}.conv0", x))
    logits = _conv_same(x, params["head.weight"], params["head.bias"])
    return 1.0 / (1.0 + np.exp(-logits))


def check_probabilities(checkpoint, image: np.ndarray, probs: np.ndarray, tol: float = 1e-4):
    config, params = read_checkpoint(checkpoint)
    expected = invertednet_probabilities(config, params, image)
    err = float(np.abs(np.asarray(probs, dtype=np.float64) - expected).max())
    return err <= tol, f"probabilities vs float64 reference forward: max abs err {err:.1e}"


# -- the desk CLI run: records.csv and history.csv -----------------------------


def read_pgm(path) -> np.ndarray:
    """Binary P5 PGM, 8 or 16 bit, scaled to [0, 1]."""
    blob = Path(path).read_bytes()
    fields, pos = [], 2
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    while len(fields) < 3:
        while blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            pos = blob.index(b"\n", pos)
            continue
        end = pos
        while not blob[end : end + 1].isspace():
            end += 1
        fields.append(int(blob[pos:end]))
        pos = end
    width, height, maxval = fields
    dtype = ">u2" if maxval > 255 else "u1"
    pixels = np.frombuffer(blob, dtype=dtype, count=width * height, offset=pos + 1)
    return pixels.reshape(height, width).astype(np.float64) / maxval


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Coordinates of mask pixels with a 4-neighbour outside the mask (or the image)."""
    h, w = mask.shape
    out = []
    for y, x in zip(*np.nonzero(mask)):
        if y in (0, h - 1) or x in (0, w - 1) or not (
            mask[y - 1, x] and mask[y + 1, x] and mask[y, x - 1] and mask[y, x + 1]
        ):
            out.append((y, x))
    return np.array(out, dtype=np.float64)


def surface_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean of nearest boundary-to-boundary distances; NaN if a mask is empty."""
    if not a.any() or not b.any():
        return math.nan
    pa, pb = _boundary(a), _boundary(b)
    d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def check_records(out_dir, data_dir, tol: float = 1e-6):
    """Every D, J and S_d in records.csv against the exported masks and the ground truth.

    J is compared with D/(2-D) of the recomputed D.  The file carries six
    decimals, so each field may be off by 5e-7 from the exact value.
    """
    out_dir, data_dir = Path(out_dir), Path(data_dir)
    test_ids = json.loads((out_dir / "split.json").read_text())["test"]
    with open(out_dir / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected_keys = {(i, c) for i in test_ids for c in CLASSES}
    if {(r["id"], r["class"]) for r in rows} != expected_keys or len(rows) != len(expected_keys):
        return False, f"records.csv rows do not cover the {len(test_ids)} test images x 3 classes"
    worst = 0.0
    for r in rows:
        pred = read_pgm(out_dir / "predictions" / f"{r['id']}_{r['class']}.pgm") >= 0.5
        truth = read_pgm(data_dir / "masks" / f"{r['id']}_{r['class']}.pgm") >= 0.5
        total = int(pred.sum()) + int(truth.sum())
        d = 1.0 if total == 0 else 2.0 * int((pred & truth).sum()) / total
        sd = surface_distance(pred, truth)
        d_csv, j_csv = float(r["dice"]), float(r["jaccard"])
        errors = [abs(d_csv - d), abs(j_csv - d / (2.0 - d))]
        if r["surface_distance"] == "NA" or math.isnan(sd):
            if not (r["surface_distance"] == "NA" and math.isnan(sd)):
                return False, f"{r['id']}/{r['class']}: S_d {r['surface_distance']} vs {sd}"
        else:
            errors.append(abs(float(r["surface_distance"]) - sd))
        worst = max(worst, *errors)
    return worst <= tol, f"{len(rows)} records (D, J = D/(2-D), S_d) recomputed from masks: max err {worst:.1e}"


def check_loss_falls(history_csv):
    with open(history_csv, newline="") as fh:
        losses = [float(r["loss"]) for r in csv.DictReader(fh)]
    ok = len(losses) >= 2 and losses[-1] < losses[0]
    return ok, f"training loss epoch 1 {losses[0]:.4f} -> epoch {len(losses)} {losses[-1]:.4f}"

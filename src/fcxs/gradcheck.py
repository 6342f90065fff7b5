"""Finite-difference verification of analytic gradients.

Runs in 64-bit with stochastic layers in inference mode.  Each checked
element theta gets a central-difference estimate with step
h = 1e-5 * max(1, |theta|); the relative error
|analytic - numeric| / max(|analytic|, |numeric|, 1e-8) must stay below
the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .losses import LossConfig, segmentation_loss
from .models import ArchConfig, build_network
from .rng import Rng
from .tensor import Tensor

DEFAULT_TOLERANCE = 1e-4
SAMPLES_PER_PARAM = 100


@dataclass
class ParamCheck:
    name: str
    kind: str
    checked: int
    max_rel_error: float
    worst: list[tuple[int, float, float, float]] = field(default_factory=list)


@dataclass
class GradCheckReport:
    tolerance: float
    params: list[ParamCheck]

    @property
    def max_rel_error(self) -> float:
        return max((p.max_rel_error for p in self.params), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def max_error_by_kind(self) -> dict[str, float]:
        by_kind: dict[str, float] = {}
        for p in self.params:
            by_kind[p.kind] = max(by_kind.get(p.kind, 0.0), p.max_rel_error)
        return by_kind

    def summary(self) -> str:
        lines = [
            f"gradient check: {'PASS' if self.passed else 'FAIL'} "
            f"(max rel error {self.max_rel_error:.3e}, tolerance {self.tolerance:.1e})"
        ]
        for kind, err in sorted(self.max_error_by_kind().items()):
            lines.append(f"  {kind:<20s} max rel error {err:.3e}")
        offenders = [p for p in self.params if p.max_rel_error > self.tolerance]
        for p in sorted(offenders, key=lambda p: -p.max_rel_error)[:10]:
            idx, ana, num, rel = p.worst[0]
            lines.append(
                f"  OFFENDER {p.name}[{idx}]: analytic={ana:.6e} numeric={num:.6e} rel={rel:.3e}"
            )
        return "\n".join(lines)


def gradient_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    tolerance: float = DEFAULT_TOLERANCE,
    rng: Optional[Rng] = None,
    samples_per_param: int = SAMPLES_PER_PARAM,
    kinds: Optional[dict[str, str]] = None,
    corrupt: bool = False,
) -> GradCheckReport:
    """Compare backward-pass gradients of loss_fn against finite differences.

    ``loss_fn`` must rebuild its graph on every call from the current
    parameter data.  ``corrupt=True`` perturbs one analytic gradient
    element before comparison; it exists as a negative control to prove
    the checker rejects wrong gradients.
    """
    params = list(params)
    for name, p in params:
        if p.dtype != np.float64:
            raise ConfigError(f"gradient_check requires float64 parameters ({name} is {p.dtype})")
    rng = rng or Rng(0)
    if samples_per_param < 1:
        raise ConfigError("samples_per_param must be >= 1")

    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for name, p in params}

    sampled: dict[str, np.ndarray] = {}
    for pi, (name, p) in enumerate(params):
        count = p.data.size
        if count > samples_per_param:
            sampled[name] = np.sort(rng.child(pi).permutation(count)[:samples_per_param])
        else:
            sampled[name] = np.arange(count)
    if corrupt and params:
        first = params[0][0]
        analytic[first].reshape(-1)[sampled[first][0]] += 1e-2

    checks: list[ParamCheck] = []
    for pi, (name, p) in enumerate(params):
        flat = p.data.reshape(-1)
        idx = sampled[name]
        a_flat = analytic[name].reshape(-1)
        worst: list[tuple[int, float, float, float]] = []
        max_rel = 0.0
        for i in idx:
            theta = flat[i]
            h = 1e-5 * max(1.0, abs(theta))
            flat[i] = theta + h
            loss_plus = float(loss_fn().data)
            flat[i] = theta - h
            loss_minus = float(loss_fn().data)
            flat[i] = theta
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            ana = float(a_flat[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
            if rel > tolerance:
                worst.append((int(i), ana, numeric, rel))
        worst.sort(key=lambda t: -t[3])
        kind = (kinds or {}).get(name, name.rsplit(".", 1)[-1])
        checks.append(ParamCheck(name, kind, len(idx), max_rel, worst[:5]))

    return GradCheckReport(tolerance=tolerance, params=checks)


REDUCED_RESOLUTION = 16


def gradcheck_network(
    arch: str,
    distance: str,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    samples_per_param: int = SAMPLES_PER_PARAM,
    corrupt: bool = False,
) -> GradCheckReport:
    """End-to-end check of a reduced-width network through a full loss.

    Builds the architecture in float64 at 16x16 (base channels 4; 16 for
    the inverted schedule so halving stays integral), runs inference-mode
    forward into the matching weighted distance, and finite-differences a
    seeded subsample of every parameter.
    """
    loss_config = LossConfig(distance)
    config = ArchConfig(
        arch=arch,
        input_resolution=REDUCED_RESOLUTION,
        head=loss_config.head,
        base_channels=16 if arch == "invertednet" else 4,
        drop_probability=0.1,
        init_seed=seed,
    )
    net = build_network(config, dtype=np.float64)
    rng = Rng(seed)
    x = rng.child(1).normal((2, 1, REDUCED_RESOLUTION, REDUCED_RESOLUTION), dtype=np.float64)
    n_classes = config.num_classes
    if distance == "cross_entropy":
        labels = rng.child(2).integers(0, n_classes, (2, REDUCED_RESOLUTION, REDUCED_RESOLUTION))
        chi = np.stack([(labels == c) for c in range(n_classes)], axis=1).astype(np.float64)
    else:
        chi = (
            rng.child(2).uniform(0.0, 1.0, (2, n_classes, REDUCED_RESOLUTION, REDUCED_RESOLUTION))
            < 0.35
        ).astype(np.float64)

    def loss_fn():
        out = net.forward(x, mode="infer")
        return segmentation_loss(out, chi, loss_config)

    return gradient_check(
        loss_fn,
        net.parameters(),
        tolerance=tolerance,
        rng=rng.child(3),
        samples_per_param=samples_per_param,
        kinds=net.param_kinds(),
        corrupt=corrupt,
    )

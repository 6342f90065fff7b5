"""Run configuration: one JSON document driving data, architecture,
loss, training, and evaluation.

Validation is strict (unknown keys and values of the wrong JSON type are
rejected) and total: every problem in the document is collected and
reported in one error.  The per-run rules live in ``RunConfig.validate``,
which ``training.train`` calls too, so a config built in code meets
them before its first epoch.  The loss distance alone sets the head and
the ground-truth channels.  The fully resolved configuration (defaults
filled in) is echoed to ``config.resolved.json`` in the output
directory, and feeding that file back reproduces the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from .data import SPLIT_PRESETS
from .errors import ConfigError
from .losses import LossConfig
from .models import ArchConfig


@dataclass
class SyntheticConfig:
    n: int = 16
    seed: int = 0


@dataclass
class DataConfig:
    root: Optional[str] = None
    synthetic: Optional[SyntheticConfig] = None
    resolution: int = 64


@dataclass
class ArchSection:
    arch: str = ArchConfig.arch
    activation: str = ArchConfig.activation
    drop_probability: float = ArchConfig.drop_probability
    base_channels: Optional[int] = ArchConfig.base_channels
    init_seed: int = ArchConfig.init_seed


@dataclass
class SplitSection:
    scheme: str = "fractions"
    preset: str = "60/7/33"
    fold: Optional[int] = None
    seed: int = 0


@dataclass
class TrainSection:
    epochs: int = 100
    batch_size: int = 2
    lr: float = 1e-5
    patience: int = 50
    seed: int = 0
    split: SplitSection = field(default_factory=SplitSection)


@dataclass
class EvalSection:
    epsilon: float = 0.25
    spacing: float = 1.0
    surface_distance: bool = True
    export_masks: bool = True
    overlays: bool = False


@dataclass
class OutputSection:
    directory: str = "runs/out"


# ArchConfig fields that a run config sets from outside the arch section
_ARCH_KEYS = {"input_resolution": "data.resolution"}


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    arch: ArchSection = field(default_factory=ArchSection)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    output: OutputSection = field(default_factory=OutputSection)

    def arch_config(self) -> ArchConfig:
        """The network this run trains; the loss picks its head.

        The architecture rules live in ``ArchConfig``; a broken one is a
        ConfigError whose lines name the run-config keys that set it.
        """
        try:
            return ArchConfig(
                arch=self.arch.arch,
                input_resolution=self.data.resolution,
                head=self.loss.head,
                activation=self.arch.activation,
                drop_probability=self.arch.drop_probability,
                base_channels=self.arch.base_channels,
                init_seed=self.arch.init_seed,
            )
        except ConfigError as exc:
            lines = [line.partition(": ") for line in str(exc).splitlines()]
            raise ConfigError(
                "\n".join(f"{_ARCH_KEYS.get(key, f'arch.{key}')}: {reason}" for key, _, reason in lines)
            ) from None

    def validate(self, errors: Sequence[str] = ()) -> None:
        """Raise one ConfigError listing ``errors`` and every per-run rule
        this config breaks, each as a ``key: reason`` line."""
        errors = list(errors)
        try:
            self.arch_config()
        except ConfigError as exc:
            errors.extend(str(exc).splitlines())
        data, tr = self.data, self.train
        if data.synthetic is not None and data.synthetic.n < 1:
            errors.append(f"data.synthetic.n: must be >= 1, got {data.synthetic.n}")
        if tr.epochs < 1:
            errors.append(f"train.epochs: must be >= 1, got {tr.epochs}")
        if tr.batch_size < 1:
            errors.append(f"train.batch_size: must be >= 1, got {tr.batch_size}")
        if tr.split.scheme not in ("fractions", "threefold"):
            errors.append(f"train.split.scheme: {tr.split.scheme!r} not one of ('fractions', 'threefold')")
        if tr.split.preset not in SPLIT_PRESETS:
            errors.append(f"train.split.preset: {tr.split.preset!r} not one of {sorted(SPLIT_PRESETS)}")
        if tr.split.scheme == "threefold" and tr.split.fold not in (0, 1, 2):
            errors.append(f"train.split.fold: threefold needs fold in (0, 1, 2), got {tr.split.fold}")
        if not 0.0 < self.eval.epsilon < 1.0:
            errors.append(f"eval.epsilon: must be in (0, 1), got {self.eval.epsilon}")
        if self.eval.spacing <= 0:
            errors.append(f"eval.spacing: must be positive, got {self.eval.spacing}")
        if errors:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    def to_dict(self) -> dict:
        return asdict(self)

    def echo(self, directory) -> Path:
        path = Path(directory) / "config.resolved.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


_JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string", list: "array", dict: "object", type(None): "null"
}


def _build(cls, payload: dict, where: str, errors: list[str]):
    """``cls`` from a JSON object, each key and value type checked against
    the dataclass fields; problems go to ``errors`` and their keys keep
    the defaults.  An int fits a float field; a bool fits only a bool field.
    A section that checks itself (``LossConfig``) reports its own
    ``field: reason`` lines under the section's key and keeps its defaults.
    """
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in payload.items():
        name = f"{where}.{key}" if where else key
        if key not in hints:
            errors.append(f"{name}: unknown key")
            continue
        args = [a for a in get_args(hints[key]) if a is not type(None)]
        expected, optional = (args[0], True) if args else (hints[key], False)
        if value is None and optional:
            kwargs[key] = None
        elif is_dataclass(expected) and type(value) is dict:
            kwargs[key] = _build(expected, value, name, errors)
        elif type(value) is expected or (expected is float and type(value) is int):
            kwargs[key] = value
        else:
            wanted = _JSON_TYPES.get(expected, "object") + (" or null" if optional else "")
            errors.append(f"{name}: expected {wanted}, got {_JSON_TYPES.get(type(value), type(value).__name__)}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        errors.extend(f"{where}.{line}" for line in str(exc).splitlines())
        return cls()


def parse_run_config(payload: dict) -> RunConfig:
    """Validate a config document; all problems are reported together:
    wrong keys and types, the data source, and ``RunConfig.validate``'s
    per-run rules."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _build(RunConfig, payload, "", errors)
    if cfg.data.root is None and cfg.data.synthetic is None:
        errors.append("data: either data.root or data.synthetic is required")
    if cfg.data.root is not None and cfg.data.synthetic is not None:
        errors.append("data: data.root and data.synthetic are mutually exclusive")
    cfg.validate(errors)
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return parse_run_config(payload)

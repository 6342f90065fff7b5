"""The training loop: shuffled minibatch partitions, per-batch class
weights, Adam updates, and per-epoch validation in thresholded Jaccard.

Every source of randomness is keyed off the run seed (epoch shuffles
via child(epoch), dropout noise via child(epoch, batch)), so one
(config, seed) pair always produces bit-identical histories and
weights.

Stopping: a run ends at the epoch budget, when the monitored mean
Jaccard has not improved by more than ``MIN_IMPROVEMENT`` for
``patience`` consecutive epochs, or when an optional ``target_j`` is
reached.  The weights returned are those of the best monitored epoch.
Monitoring uses the validation split; if it is empty, the training
split is monitored instead (useful for overfit probes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig
from .data import DatasetSplit, NormStats, Sample, build_groundtruth, normalize_by_train_split
from .errors import ConfigError, NumericError
from .evaluation import score_samples
from .losses import segmentation_loss
from .models import Network, build_network, save_checkpoint
from .optim import Adam
from .rng import Rng

MIN_IMPROVEMENT = 1e-4


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_jaccard: tuple[float, ...]
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_mean_jaccard: float = float("-inf")
    diverged: bool = False
    monitored_split: str = "valid"

    def to_csv(self) -> str:
        """Metric rows only; timings go to timing_csv so reruns are byte-identical."""
        lines = ["epoch,loss," + ",".join(f"J_class{i}" for i in range(3))]
        for r in self.records:
            js = ",".join(f"{j:.6f}" for j in r.val_jaccard)
            lines.append(f"{r.epoch},{r.loss:.8f},{js}")
        return "\n".join(lines) + "\n"

    def timing_csv(self) -> str:
        lines = ["epoch,seconds"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"


def pack_batch(samples: Sequence[Sample], gts: Sequence[np.ndarray]):
    x = np.stack([s.image for s in samples]).astype(np.float32)
    chi = np.stack(gts).astype(np.float32)
    return x, chi


def validation_jaccard(net: Network, samples: Sequence[Sample], epsilon: float = 0.25) -> np.ndarray:
    """Mean thresholded Jaccard per organ class over a sample set: the
    per-class mean of the ``score_samples`` records."""
    records = score_samples(net, samples, epsilon, with_surface_distance=False)
    return np.array([r.jaccard for r in records]).reshape(-1, 3).mean(axis=0)


def train(
    net: Network,
    samples: Sequence[Sample],
    split: DatasetSplit,
    cfg: RunConfig,
    checkpoint_dir=None,
    target_j: Optional[float] = None,
) -> tuple[Network, TrainHistory]:
    """Optimize ``net`` on the (already normalized) train split under
    ``cfg``'s loss, ``train`` section and ``eval.epsilon``.

    ``cfg`` is validated first, so a broken rule fails before the first
    epoch.  Returns the network loaded with its best monitored weights
    plus the full epoch history.  Divergence (non-finite loss or
    gradients) aborts the run; the history carries a ``diverged`` flag
    and the best weights seen so far are kept.
    """
    cfg.validate()
    loss_config, tr = cfg.loss, cfg.train
    loss_config.validate_pairing(net.config)
    by_id = {s.id: s for s in samples}
    missing = [i for i in split.train + split.valid if i not in by_id]
    if missing:
        raise ConfigError(f"split references unknown sample ids: {missing[:5]}")

    gt_cache = {s.id: build_groundtruth(s, loss_config.distance) for s in samples}
    train_ids = list(split.train)
    monitor_ids = list(split.valid) if split.valid else train_ids
    monitor_samples = [by_id[i] for i in monitor_ids]

    optimizer = Adam(net.parameters(), lr=tr.lr)
    history = TrainHistory(monitored_split="valid" if split.valid else "train")
    best_state = [(name, p.data.copy()) for name, p in net.parameters()]
    stale = 0
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    for epoch in range(1, tr.epochs + 1):
        started = time.perf_counter()
        perm = Rng(tr.seed).child(epoch).permutation(len(train_ids))
        order = [train_ids[i] for i in perm]
        batch_losses = []
        try:
            for b_idx in range(0, len(order), tr.batch_size):
                batch_ids = order[b_idx : b_idx + tr.batch_size]
                x, chi = pack_batch(
                    [by_id[i] for i in batch_ids], [gt_cache[i] for i in batch_ids]
                )
                out = net.forward(x, mode="train", rng=Rng(tr.seed).child(epoch, b_idx))
                loss = segmentation_loss(out, chi, loss_config)
                net.zero_grad()
                loss.backward()
                optimizer.step()
                batch_losses.append(float(loss.data))
        except NumericError:
            history.diverged = True

        val_j = validation_jaccard(net, monitor_samples, epsilon=cfg.eval.epsilon)
        record = EpochRecord(
            epoch=epoch,
            loss=float(np.mean(batch_losses)) if batch_losses else float("nan"),
            val_jaccard=tuple(float(v) for v in val_j),
            seconds=time.perf_counter() - started,
        )
        history.records.append(record)

        mean_j = float(val_j.mean())
        if mean_j > history.best_mean_jaccard + MIN_IMPROVEMENT:
            history.best_mean_jaccard = mean_j
            history.best_epoch = epoch
            best_state = [(name, p.data.copy()) for name, p in net.parameters()]
            stale = 0
            if checkpoint_dir is not None:
                save_checkpoint(net, checkpoint_dir / "best.fcxs")
        else:
            stale += 1

        if history.diverged:
            break
        if target_j is not None and mean_j >= target_j:
            break
        if stale >= tr.patience:
            break

    if checkpoint_dir is not None:
        save_checkpoint(net, checkpoint_dir / "last.fcxs")
    net.load_state_arrays(dict(best_state))
    return net, history


def train_run(
    cfg: RunConfig, samples: Sequence[Sample], split: DatasetSplit, checkpoint_dir=None
) -> tuple[Network, TrainHistory, NormStats]:
    """The run protocol: normalize every sample by the ``split.train``
    statistics, build the configured network and train it."""
    normed, stats = normalize_by_train_split(samples, split)
    net, history = train(build_network(cfg.arch_config()), normed, split, cfg, checkpoint_dir)
    return net, history, stats

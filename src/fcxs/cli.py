"""Command-line entry point.

Subcommands:
  synth        -- write a synthetic PGM dataset
  train        -- train per a JSON run config; emits checkpoints + history
  eval         -- score checkpoints on the config's test split (ensembles
                  when several checkpoints are given), normalized by the
                  training split's statistics as in training
  params       -- parameter count and per-layer table for the configured net
  gradcheck    -- finite-difference verification of a reduced-width build
  significance -- pairwise Wilcoxon matrix from per-image record CSVs

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path


from .config import load_run_config
from .data import (
    CLASS_NAMES,
    load_dataset,
    normalize_by_train_split,
    save_dataset,
    save_split,
    split_dataset,
    synth_generate,
    SPLIT_PRESETS,
)
from .errors import ConfigError, DataError, FcxsError, NumericError
from .evaluation import evaluate, export_masks, read_records, records_to_csv
from .gradcheck import DEFAULT_TOLERANCE, SAMPLES_PER_PARAM, gradcheck_network
from .models import (
    ARCHITECTURES,
    build_network,
    count_parameters,
    format_parameter_table,
    load_checkpoint,
)
from .stats import significance_matrix, significance_matrix_csv
from .training import train_run

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcxs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=_positive_int, required=True)
    p_synth.add_argument("--res", type=int, default=64)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True)

    p_eval = sub.add_parser("eval", help="evaluate checkpoints on the test split")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", action="append", required=True)

    p_params = sub.add_parser("params", help="parameter count and per-layer table")
    p_params.add_argument("--config", required=True)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--arch", choices=list(ARCHITECTURES) + ["all"], default="all")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_grad.add_argument("--samples", type=_positive_int, default=SAMPLES_PER_PARAM)
    p_grad.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="corrupt one analytic gradient; the check must then fail",
    )

    p_sig = sub.add_parser("significance", help="pairwise Wilcoxon p-value matrices")
    p_sig.add_argument("--records", nargs="+", required=True)
    p_sig.add_argument("--out", default=None)

    return parser


def _load_run_data(cfg):
    """The run's raw samples and its split, both recomputed from the config."""
    if cfg.data.synthetic is not None:
        samples = synth_generate(cfg.data.synthetic.n, cfg.data.resolution, cfg.data.synthetic.seed)
    else:
        samples = load_dataset(cfg.data.root, cfg.data.resolution)
        if not samples:
            raise DataError(f"no usable samples under {cfg.data.root}")
    sp = cfg.train.split
    ids = [s.id for s in samples]
    split = split_dataset(ids, scheme=sp.scheme, fractions=SPLIT_PRESETS[sp.preset], fold=sp.fold, seed=sp.seed)
    return samples, split


def cmd_synth(args) -> int:
    samples = synth_generate(args.n, args.res, args.seed)
    save_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples ({len(samples) * 3} masks) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir)

    samples, split = _load_run_data(cfg)
    save_split(split, out_dir / "split.json")
    _, history, _ = train_run(cfg, samples, split, checkpoint_dir=out_dir)
    (out_dir / "history.csv").write_text(history.to_csv())
    (out_dir / "timing.csv").write_text(history.timing_csv())
    status = "diverged" if history.diverged else "finished"
    print(
        f"{status}: {len(history.records)} epochs, best mean J "
        f"{history.best_mean_jaccard:.4f} at epoch {history.best_epoch} -> {out_dir}"
    )
    if history.diverged:
        raise NumericError("training diverged (non-finite loss or gradients)")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir)

    nets = [load_checkpoint(p) for p in args.checkpoint]
    resolutions = sorted({n.config.input_resolution for n in nets})
    if resolutions != [cfg.data.resolution]:
        raise ConfigError(
            f"checkpoint resolution {resolutions} does not match data.resolution {cfg.data.resolution}"
        )

    samples, split = _load_run_data(cfg)
    normed, _ = normalize_by_train_split(samples, split)
    by_id = {s.id: s for s in normed}
    raw_by_id = {s.id: s for s in samples}
    test_samples = [by_id[i] for i in split.test]

    def export(sample, masks):
        export_masks(out_dir / "predictions", raw_by_id[sample.id], masks, overlays=cfg.eval.overlays)

    records, table = evaluate(
        nets,
        test_samples,
        epsilon=cfg.eval.epsilon,
        spacing=cfg.eval.spacing,
        with_surface_distance=cfg.eval.surface_distance,
        label=f"{','.join(Path(p).name for p in args.checkpoint)}",
        on_masks=export if cfg.eval.export_masks else None,
    )
    (out_dir / "records.csv").write_text(records_to_csv(records))
    (out_dir / "report.csv").write_text(table.to_csv())
    (out_dir / "report.txt").write_text(table.to_text() + "\n")
    print(table.to_text())
    return 0


def cmd_params(args) -> int:
    arch_config = load_run_config(args.config).arch_config()
    net = build_network(arch_config)
    print(format_parameter_table(net))
    print(f"\n{arch_config.arch} @ {arch_config.input_resolution}: {count_parameters(net):,} parameters")

    counts = {}
    for arch in ARCHITECTURES:
        default_width = dataclasses.replace(arch_config, arch=arch, base_channels=None)
        counts[arch] = count_parameters(build_network(default_width))
    print(f"\nreference totals at default widths ({arch_config.head} head):")
    for arch, n in counts.items():
        print(f"  {arch:<18s} {n:>12,}")
    print(
        f"  pool-replacement delta (all_convolutional - all_dropout): "
        f"{counts['all_convolutional'] - counts['all_dropout']:,}"
    )
    print(
        f"  all_dropout / invertednet ratio: "
        f"{counts['all_dropout'] / counts['invertednet']:.2f}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    archs = list(ARCHITECTURES) if args.arch == "all" else [args.arch]
    failed = False
    for arch in archs:
        for distance in ("dice", "cross_entropy"):
            report = gradcheck_network(
                arch,
                distance,
                seed=args.seed,
                tolerance=args.tolerance,
                samples_per_param=args.samples,
                corrupt=args.self_test_corrupt,
            )
            print(f"== {arch} / {distance}")
            print(report.summary())
            failed |= not report.passed
    if args.self_test_corrupt:
        if failed:
            print("negative control: corrupted gradients were detected, as expected")
            return 0
        print("negative control FAILED: corruption went undetected")
        return EXIT_NUMERIC
    if failed:
        raise NumericError("gradient check failed")
    return 0


def cmd_significance(args) -> int:
    per_class_scores: dict[str, dict[str, list[float]]] = {c: {} for c in CLASS_NAMES}
    reference_ids = None
    labels = [Path(path).stem for path in args.records]
    if len(set(labels)) < len(labels):
        labels = list(args.records)
    for path, name in zip(args.records, labels):
        records = read_records(path)
        for cls in CLASS_NAMES:
            rows = [r for r in records if r.class_name == cls]
            ids = [r.image_id for r in rows]
            if not ids:
                raise DataError(f"{path}: no {cls!r} records")
            if reference_ids is None:
                reference_ids = ids
            elif ids != reference_ids:
                raise DataError(
                    f"{path}: {cls!r} image ids are misaligned with the {CLASS_NAMES[0]!r} ids of {args.records[0]}"
                )
            per_class_scores[cls][name] = [r.jaccard for r in rows]
    out_lines = []
    for cls in CLASS_NAMES:
        names, matrix = significance_matrix(per_class_scores[cls])
        text = significance_matrix_csv(names, matrix)
        out_lines.append(f"# class: {cls}\n{text}")
        print(f"# class: {cls}")
        print(text, end="")
    if args.out:
        Path(args.out).write_text("\n".join(out_lines))
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "params": cmd_params,
    "gradcheck": cmd_gradcheck,
    "significance": cmd_significance,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FcxsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: train, eval, gradcheck, gen-data. Any config key can be
overridden on the command line as --section.key=value (or --key=value
when the bare key is unambiguous). Exit codes: 0 success, 1 aborted
training, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from . import data as dat
from . import metrics as met
from . import trainer as trn
from .checkpoint import load_checkpoint
from .config import (
    ConfigError,
    DataSpec,
    RunConfig,
    check_data_fit,
    load_config,
    write_resolved,
)
from .gradcheck import full_loss_grad_check
from .network import MODES
from .prototypes import DegeneratePrototypeError


def _split_overrides(extras) -> dict:
    overrides = {}
    for token in extras:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(
                f"unrecognized argument {token!r} (overrides look like --key=value)"
            )
        key, _, value = token[2:].partition("=")
        overrides[key] = value
    return overrides


def _build_dataset(config: RunConfig, seed: int) -> dat.DomainDataset:
    spec = config.data
    if spec.kind == "csv":
        return dat.load_csv(spec.path)
    data_seed = spec.data_seed if spec.data_seed is not None else seed
    return dat.generate_synthetic(
        spec.num_classes,
        spec.num_domains,
        spec.signal_dim,
        spec.noise_dim,
        spec.samples_per_class_per_domain,
        spec.class_sep,
        spec.domain_shift,
        data_seed,
        bias_jitter=spec.bias_jitter,
    )


class SeedRun(NamedTuple):
    seed: int
    result: trn.TrainResult
    modulator_gap: Optional[float]  # None where the gap is not defined


def run_seeds(
    config: RunConfig, dataset: Optional[dat.DomainDataset] = None, out_dir=None
) -> list:
    """Train ``config`` once per seed in ``config.seeds``; one SeedRun each.

    Each seed builds its data (or reuses ``dataset``, a loaded CSV) and
    its split, trains into ``out_dir/seed_<seed>`` when ``out_dir`` is
    given, and measures the modulator gap where it is defined: an
    identity extractor on data with known, non-empty signal and noise
    dimensions. If a seed aborts (``TrainingAborted``, ``GenerationError`` or
    ``DegeneratePrototypeError``), its diagnostics are written to its run
    directory and ``TrainingAborted`` is raised, naming the seed.
    """
    runs = []
    for seed in config.seeds:
        run_dir = None if out_dir is None else Path(out_dir) / f"seed_{seed}"
        try:
            data = dataset if dataset is not None else _build_dataset(config, seed)
            plan = dat.SplitPlan(
                target_domain=config.data.target_domain,
                labels_per_class=config.data.labels_per_class,
                seed=seed,
            )
            result = trn.train(
                data,
                plan,
                config.train_config_for_seed(seed),
                hidden_dims=config.model.hidden_dims,
                feature_dim=config.model.feature_dim,
                run_dir=run_dir,
                dump_sar=config.output.dump_sar,
                dump_modulator=config.output.dump_modulator,
                dump_pseudo_labels=config.output.dump_pseudo_labels,
            )
        except (
            trn.TrainingAborted, dat.GenerationError, DegeneratePrototypeError
        ) as err:
            diagnostics = getattr(
                err, "diagnostics", {"error": type(err).__name__, "message": str(err)}
            )
            where = ""
            if run_dir is not None:
                run_dir.mkdir(parents=True, exist_ok=True)
                dump_path = run_dir / "abort_diagnostics.json"
                dump_path.write_text(json.dumps(diagnostics, indent=2))
                where = f" (diagnostics in {dump_path})"
            raise trn.TrainingAborted(
                f"seed {seed}: {err}{where}", diagnostics
            ) from None
        gap = None
        if not config.model.hidden_dims and data.signal_dims and data.noise_dims:
            gap = met.modulator_gap(
                result.modulation.values, data.signal_dims, data.noise_dims
            )
        runs.append(SeedRun(seed, result, gap))
    return runs


def cmd_train(args, extras) -> int:
    try:
        overrides = _split_overrides(extras)
        if args.mode:
            overrides["train.mode"] = args.mode
        if args.seeds:
            overrides["train.seeds"] = args.seeds
        if args.out:
            overrides["output.dir"] = args.out
        if args.dump_sar:
            overrides["output.dump_sar"] = "true"
        if args.dump_modulator:
            overrides["output.dump_modulator"] = "true"
        if args.dump_pseudo_labels:
            overrides["output.dump_pseudo_labels"] = "true"
        config = load_config(args.config, overrides)
        # CSV data is the same for every seed: load and check it before
        # anything is written.
        csv_data = None
        if config.data.kind == "csv":
            csv_data = dat.load_csv(config.data.path)
            check_data_fit(config, csv_data.input_dim, csv_data.cell_counts())
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(config.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(config, out_dir / "config.resolved.ini")
    try:
        runs = run_seeds(config, csv_data, out_dir)
    except trn.TrainingAborted as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "target_acc", "keep_rate", "pl_acc", "modulator_gap"])
        for seed, result, gap in runs:
            final = result.reports[-1]
            row = (final.target_accuracy, final.keep_rate, final.pl_accuracy, gap)
            writer.writerow([seed, *("" if v is None else repr(v) for v in row)])

    gaps = [run.modulator_gap for run in runs if run.modulator_gap is not None]
    summary = met.aggregate(
        config.seeds, [run.result.reports for run in runs], gaps if gaps else None
    )
    with open(out_dir / "aggregate.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "mean", "std", "n_seeds"])
        for name, mean, std, n in summary.rows():
            writer.writerow([name, repr(mean), repr(std), n])

    print(f"{'metric':<16}{'mean':>12}{'std':>12}  (n={len(config.seeds)})")
    for name, mean, std, _ in summary.rows():
        print(f"{name:<16}{mean:>12.4f}{std:>12.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args, extras) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
        dataset = dat.load_csv(args.data)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    x, y = dataset.features, dataset.class_ids
    if args.target_domain is not None:
        mask = dataset.domain_ids == args.target_domain
        x, y = x[mask], y[mask]
    # Checkpoints do not record their mode; only an fm run saves a bank.
    mode = "fm" if ckpt.bank is not None else "fixmatch-baseline"
    acc = trn.evaluate(ckpt.model, ckpt.modulation, ckpt.bank, x, y, mode=mode)
    print(f"accuracy {acc:.6f} on {len(x)} samples ({mode} inference)")
    return 0


def cmd_gradcheck(args, extras) -> int:
    report = full_loss_grad_check(seed=args.seed, tolerance=args.tolerance)
    for name, err in sorted(report.per_param.items()):
        print(f"{name:<24} max rel error {err:.3e}")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: max rel error {report.max_rel_error:.3e} "
        f"(worst {report.worst_param}, tolerance {report.tolerance:g})"
    )
    return 0 if report.passed else 1


def cmd_gen_data(args, extras) -> int:
    dataset = dat.generate_synthetic(
        args.num_classes,
        args.num_domains,
        args.signal_dim,
        args.noise_dim,
        args.samples_per_class,
        args.class_sep,
        args.domain_shift,
        args.seed,
        bias_jitter=args.bias_jitter,
    )
    dat.save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modfeat",
        description="Prototype-anchored feature modulation for "
        "semi-supervised domain generalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train across seeds from a config file")
    p_train.add_argument("config", help="INI config with [data] [model] [train] [output]")
    p_train.add_argument("--mode", choices=MODES, help="override train.mode")
    p_train.add_argument("--seeds", help="override train.seeds, e.g. 0,1,2")
    p_train.add_argument("--out", help="override output.dir")
    p_train.add_argument("--dump-sar", action="store_true")
    p_train.add_argument("--dump-modulator", action="store_true")
    p_train.add_argument("--dump-pseudo-labels", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("data")
    p_eval.add_argument("--target-domain", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser(
        "gradcheck", help="finite-difference check of the full training loss"
    )
    p_gc.add_argument("--seed", type=int, default=3)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    p_gen.add_argument("out")
    spec = DataSpec()
    p_gen.add_argument("--num-classes", type=int, default=spec.num_classes)
    p_gen.add_argument("--num-domains", type=int, default=spec.num_domains)
    p_gen.add_argument("--signal-dim", type=int, default=spec.signal_dim)
    p_gen.add_argument("--noise-dim", type=int, default=spec.noise_dim)
    p_gen.add_argument(
        "--samples-per-class", type=int, default=spec.samples_per_class_per_domain
    )
    p_gen.add_argument("--class-sep", type=float, default=spec.class_sep)
    p_gen.add_argument("--domain-shift", type=float, default=spec.domain_shift)
    p_gen.add_argument("--bias-jitter", type=float, default=spec.bias_jitter)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    # Only train takes --key=value overrides.
    if extras and args.func is not cmd_train:
        print(f"error: unexpected arguments {extras}", file=sys.stderr)
        return 2
    try:
        return args.func(args, extras)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

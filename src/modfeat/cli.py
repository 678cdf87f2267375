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


from . import data as dat
from . import metrics as met
from . import trainer as trn
from .checkpoint import load_checkpoint
from .config import (
    ConfigError,
    RunConfig,
    check_data_fit,
    load_config,
    write_resolved,
)
from .gradcheck import full_loss_grad_check


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
            check_data_fit(config, csv_data.input_dim, csv_data.num_domains)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(config.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(config, out_dir / "config.resolved.ini")

    rows, series, gaps = [], [], []
    identity_extractor = not config.model.hidden_dims
    for seed in config.seeds:
        dataset = csv_data if csv_data is not None else _build_dataset(config, seed)
        plan = dat.SplitPlan(
            target_domain=config.data.target_domain,
            labels_per_class=config.data.labels_per_class,
            seed=seed,
        )
        try:
            result = trn.train(
                dataset,
                plan,
                config.train_config_for_seed(seed),
                hidden_dims=config.model.hidden_dims,
                feature_dim=config.model.feature_dim,
                run_dir=out_dir / f"seed_{seed}",
                dump_sar=config.output.dump_sar,
                dump_modulator=config.output.dump_modulator,
                dump_pseudo_labels=config.output.dump_pseudo_labels,
            )
        except trn.TrainingAborted as err:
            dump_path = out_dir / f"seed_{seed}" / "abort_diagnostics.json"
            dump_path.parent.mkdir(parents=True, exist_ok=True)
            dump_path.write_text(json.dumps(err.diagnostics, indent=2))
            print(f"error: seed {seed}: {err} (diagnostics in {dump_path})", file=sys.stderr)
            return 1
        final = result.reports[-1]
        gap = None
        if identity_extractor and dataset.signal_dims is not None:
            gap = met.modulator_gap(
                result.modulation.values, dataset.signal_dims, dataset.noise_dims
            )
            gaps.append(gap)
        rows.append((seed, final, gap))
        series.append(result.reports)

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "target_acc", "keep_rate", "pl_acc", "modulator_gap"])
        for seed, final, gap in rows:
            writer.writerow(
                [
                    seed,
                    repr(final.target_accuracy),
                    repr(final.keep_rate),
                    "" if final.pl_accuracy is None else repr(final.pl_accuracy),
                    "" if gap is None else repr(gap),
                ]
            )

    summary = met.aggregate(config.seeds, series, gaps if gaps else None)
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
    if extras:
        print(f"error: unexpected arguments {extras}", file=sys.stderr)
        return 2
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
    mode = "fm" if ckpt.bank is not None else "baseline"
    acc = trn.evaluate(ckpt.model, ckpt.modulation, ckpt.bank, x, y, mode=mode)
    print(f"accuracy {acc:.6f} on {len(x)} samples ({mode} inference)")
    return 0


def cmd_gradcheck(args, extras) -> int:
    if extras:
        print(f"error: unexpected arguments {extras}", file=sys.stderr)
        return 2
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
    if extras:
        print(f"error: unexpected arguments {extras}", file=sys.stderr)
        return 2
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
    p_train.add_argument("--mode", choices=trn.MODES, help="override train.mode")
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
    p_gen.add_argument("--num-classes", type=int, default=7)
    p_gen.add_argument("--num-domains", type=int, default=4)
    p_gen.add_argument("--signal-dim", type=int, default=16)
    p_gen.add_argument("--noise-dim", type=int, default=16)
    p_gen.add_argument("--samples-per-class", type=int, default=150)
    p_gen.add_argument("--class-sep", type=float, default=2.0)
    p_gen.add_argument("--domain-shift", type=float, default=6.0)
    p_gen.add_argument("--bias-jitter", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return args.func(args, extras)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

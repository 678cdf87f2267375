"""Command-line entry point.

Subcommands: train, eval, gradcheck, gen-data. ``train`` and
``gen-data`` read a config file; any of its keys is set on the command
line as --section.key=value (or --key=value when the bare key is
unambiguous), and that is the only spelling of a setting:

    modfeat train CONFIG [--key=value ...]
    modfeat gen-data CONFIG OUT [--key=value ...]
    modfeat eval CHECKPOINT CSV [--target-domain D]
    modfeat gradcheck [--seed S] [--tolerance T]

A config trains on the CSV at ``data.path`` where it is set, else on
synthetic data; ``gen-data`` writes the data that ``train`` gives the
config's first seed. The commands raise; ``guarded`` (on ``main`` and
``scripts/fingerprint.py``'s) alone maps an error to one ``error: ...``
line on stderr and an exit code. Exit 2, invalid configuration or usage,
is any ``OSError`` or ``ValueError``: a bad config value, flag or
argument (``ConfigError``), or a CSV, checkpoint, split, file or output
directory that cannot be read, does not fit or cannot be made (README
lists them). Exit 1 is an aborted run (``TrainingAborted``,
``GenerationError``, ``MemoryError``) or a failed ``gradcheck``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from . import data as dat
from . import metrics as met
from . import trainer as trn
from .checkpoint import load_checkpoint
from .config import ConfigError, RunConfig, check_data_fit, load_config, write_resolved
from .gradcheck import full_loss_grad_check
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
    """The data a run of ``config`` trains seed ``seed`` on: a loaded CSV,
    checked against the config (``check_data_fit``), or a synthetic draw,
    checked when the config was built."""
    spec = config.data
    if spec.path:
        dataset = dat.load_csv(spec.path)
        try:
            check_data_fit(
                config, dataset.input_dim, dataset.num_domains,
                int((dataset.domain_ids == spec.target_domain).sum()),
                dataset.smallest_cell(spec.target_domain),
            )
        except ConfigError as err:
            raise ConfigError(f"{spec.path}: {err}") from None
        return dataset
    data_seed = spec.data_seed if spec.data_seed is not None else seed
    return dat.generate_synthetic(
        spec.num_classes, spec.num_domains, spec.signal_dim, spec.noise_dim,
        spec.samples_per_class_per_domain, spec.class_sep, spec.domain_shift,
        data_seed, bias_jitter=spec.bias_jitter,
    )


SUMMARY_HEADER = ("seed", "target_acc", "keep_rate", "pl_acc", "modulator_gap")
AGGREGATE_HEADER = ("metric", "mean", "std", "n_seeds")


class SeedRun(NamedTuple):
    seed: int
    result: trn.TrainResult
    modulator_gap: Optional[float]  # None where the gap is not defined

    def row(self) -> tuple:
        """This seed's final-epoch values in ``SUMMARY_HEADER`` order."""
        final = self.result.reports[-1]
        return (self.seed, final.target_accuracy, final.keep_rate,
                final.pl_accuracy, self.modulator_gap)


def run_seeds(
    config: RunConfig, dataset: Optional[dat.DomainDataset] = None, out_dir=None
) -> list:
    """Train ``config`` once per seed in ``config.seeds``; one SeedRun each.

    A CSV config's data is loaded once, unless ``dataset`` already holds
    it; synthetic data is drawn per seed. Each seed draws its split,
    trains into ``out_dir/seed_<seed>`` when ``out_dir`` is given, and
    measures the modulator gap where the config defines it: a run with a
    prototype bank (fm, not the baseline's all-ones placeholder) and an
    identity extractor, on synthetic data with noise columns after its
    ``signal_dim`` signal columns. If a seed aborts (``TrainingAborted``,
    ``GenerationError``, ``DegeneratePrototypeError`` or ``MemoryError``),
    its diagnostics are written to its run directory and
    ``TrainingAborted`` is raised, naming the seed.
    """
    if dataset is None and config.data.path:
        dataset = _build_dataset(config, config.seeds[0])
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
            trn.TrainingAborted, dat.GenerationError, DegeneratePrototypeError,
            MemoryError,
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
        if (result.bank is not None and not config.model.hidden_dims
                and not config.data.path and config.data.noise_dim > 0):
            gap = met.modulator_gap(result.modulation.values, config.data.signal_dim)
        runs.append(SeedRun(seed, result, gap))
    return runs


def cmd_train(args, overrides) -> int:
    config = load_config(args.config, overrides)
    # CSV data is the same for every seed: load and check it before
    # anything is written.
    csv_data = _build_dataset(config, config.seeds[0]) if config.data.path else None

    out_dir = Path(config.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(config, out_dir / "config.resolved.ini")
    runs = run_seeds(config, csv_data, out_dir)

    # summary.csv, aggregate.csv and the printed table all read this table.
    table = [run.row() for run in runs]
    met.write_csv(out_dir / "summary.csv", [SUMMARY_HEADER, *table])
    stats = met.column_stats(SUMMARY_HEADER[1:], [row[1:] for row in table])
    met.write_csv(out_dir / "aggregate.csv", [AGGREGATE_HEADER, *stats])

    print(f"{'metric':<16}{'mean':>12}{'std':>12}  (n={len(config.seeds)})")
    for name, mean, std, _ in stats:
        print(f"{name:<16}{mean:>12.4f}{std:>12.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args, overrides) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = dat.load_csv(args.data)
    width = ckpt.model.extractor.config.input_dim
    if dataset.input_dim != width:
        raise dat.SchemaError(
            f"{args.data} has {dataset.input_dim} feature columns, "
            f"the checkpoint expects {width}"
        )
    if dataset.num_classes > ckpt.model.num_classes:
        raise dat.SchemaError(
            f"{args.data} has {dataset.num_classes} classes (ids 0.."
            f"{dataset.num_classes - 1}), the checkpoint predicts "
            f"{ckpt.model.num_classes}"
        )
    x, y = dataset.features, dataset.class_ids
    if args.target_domain is not None:
        mask = dataset.domain_ids == args.target_domain
        x, y = x[mask], y[mask]
    if len(x) == 0:
        raise ConfigError(
            f"--target-domain {args.target_domain} selects no rows of {args.data}"
        )
    # Checkpoints do not record their mode; only an fm run saves a bank.
    mode = "fm" if ckpt.bank is not None else "fixmatch-baseline"
    acc = trn.evaluate(ckpt.model, ckpt.modulation, ckpt.bank, x, y, mode=mode)
    print(f"accuracy {acc:.6f} on {len(x)} samples ({mode} inference)")
    return 0


def cmd_gradcheck(args, overrides) -> int:
    if args.seed < 0 or not 0.0 < args.tolerance < math.inf:
        raise ConfigError(
            "gradcheck needs --seed >= 0 and a finite --tolerance > 0, "
            f"got {args.seed} and {args.tolerance}"
        )
    report = full_loss_grad_check(seed=args.seed, tolerance=args.tolerance)
    for name, err in sorted(report.per_param.items()):
        print(f"{name:<24} max rel error {err:.3e}")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: max rel error {report.max_rel_error:.3e} "
        f"(worst {report.worst_param}, tolerance {report.tolerance:g})"
    )
    return 0 if report.passed else 1


def cmd_gen_data(args, overrides) -> int:
    config = load_config(args.config, overrides)
    dataset = _build_dataset(config, config.seeds[0])
    dat.save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


class Parser(argparse.ArgumentParser):
    """Raises its usage errors as ``ConfigError``; subparsers share the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> Parser:
    parser = Parser(
        prog="modfeat",
        description="Prototype-anchored feature modulation for "
        "semi-supervised domain generalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train across seeds from a config file")
    p_train.add_argument("config", help="INI config with [data] [model] [train] [output]")
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

    p_gen = sub.add_parser(
        "gen-data", help="write the data a config trains its first seed on, as CSV"
    )
    p_gen.add_argument("config", help="INI config with [data] [model] [train] [output]")
    p_gen.add_argument("out")
    p_gen.set_defaults(func=cmd_gen_data)
    return parser


# The exit-code table (see the module docstring): exit 2, then exit 1.
USAGE_ERRORS = (OSError, ValueError)
ABORTS = (trn.TrainingAborted, dat.GenerationError, MemoryError)


def guarded(command):
    """``command`` under the exit-code table: an error of the table prints
    as one ``error: ...`` line on stderr and returns its exit code."""

    def run(*args):
        try:
            return command(*args)
        except USAGE_ERRORS + ABORTS as err:
            print(f"error: {err}", file=sys.stderr)
            return 2 if isinstance(err, USAGE_ERRORS) else 1

    return run


@guarded
def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    # Only the commands that read a config take --key=value overrides.
    if extras and args.func not in (cmd_train, cmd_gen_data):
        raise ConfigError(f"unexpected arguments {extras}")
    return args.func(args, _split_overrides(extras))


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration: flat INI files with [data] [model] [train] [output]
sections, strict key validation, and --section.key=value overrides. The
resolved configuration is written back into every run directory so a run
can be reproduced from its own provenance file."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Optional

from .data import check_synthetic
from .network import ExtractorConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """The configuration file or an override is invalid."""


@dataclass
class DataSpec:
    path: str = ""  # a CSV file to train on; empty: synthetic data
    num_classes: int = 7
    num_domains: int = 4
    signal_dim: int = 16
    noise_dim: int = 16
    samples_per_class_per_domain: int = 150
    class_sep: float = 2.0
    domain_shift: float = 6.0
    bias_jitter: float = 1.0
    data_seed: Optional[int] = None  # None: derive from each trial seed
    target_domain: int = 3
    labels_per_class: int = 10


@dataclass
class ModelSpec:
    hidden_dims: tuple = ()  # empty: identity extractor
    feature_dim: int = 32


@dataclass
class OutputSpec:
    dir: str = "runs/latest"
    dump_sar: bool = False
    dump_modulator: bool = False
    dump_pseudo_labels: bool = False


@dataclass
class RunConfig:
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputSpec = field(default_factory=OutputSpec)
    seeds: tuple = (0,)

    def train_config_for_seed(self, seed: int) -> TrainConfig:
        return replace(self.train, seed=seed)


def _parse_hidden_dims(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"hidden_dims must be comma-separated ints, got {text!r}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated ints, got {text!r}")
    # Each seed trains into its own seed_<seed> directory, once.
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"seeds must be distinct, got seed {seed} twice")
    return seeds


def _parse_optional_int(text: str):
    text = text.strip()
    return None if not text else int(text)


_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple": _parse_hidden_dims,
    "Optional[int]": _parse_optional_int,
}


def _keys(spec, skip=()) -> dict:
    """key -> value parser for each field of a spec dataclass, in order."""
    return {f.name: _PARSERS[f.type] for f in dc_fields(spec) if f.name not in skip}


# section -> key -> value parser; the specs' fields are the keys (each
# trial's train.seed comes from train.seeds).
_SCHEMA = {
    "data": _keys(DataSpec),
    "model": _keys(ModelSpec),
    "train": {**_keys(TrainConfig, skip=("seed",)), "seeds": _parse_seeds},
    "output": _keys(OutputSpec),
}


def _build(values: dict) -> RunConfig:
    """Assemble a RunConfig from {(section, key): parsed_value}."""
    data = DataSpec()
    model = ModelSpec()
    output = OutputSpec()
    specs = {"data": data, "model": model, "output": output}
    train_kwargs = {}
    seeds = (0,)
    for (section, key), value in values.items():
        if section in specs:
            setattr(specs[section], key, value)
        elif key == "seeds":
            seeds = value
        else:
            train_kwargs[key] = value
    try:
        train = TrainConfig(**train_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if data.labels_per_class < 1:
        raise ConfigError(
            f"[data] labels_per_class must be >= 1, got {data.labels_per_class}"
        )
    if min(seeds) < 0 or (data.data_seed or 0) < 0:
        raise ConfigError("[train] seeds and [data] data_seed must be >= 0")
    config = RunConfig(data=data, model=model, train=train, output=output, seeds=seeds)
    if not data.path:
        try:
            check_synthetic(
                data.num_classes, data.num_domains, data.signal_dim, data.noise_dim,
                data.samples_per_class_per_domain, data.class_sep,
                data.domain_shift, data.bias_jitter,
            )
        except ValueError as err:
            raise ConfigError(f"[data] {err}") from None
        check_data_fit(
            config, data.signal_dim + data.noise_dim, data.num_domains,
            data.num_classes * data.samples_per_class_per_domain,
            data.samples_per_class_per_domain,
        )
    return config


def check_data_fit(
    config: RunConfig,
    input_dim: int,
    num_domains: int,
    held_out_rows: int,
    smallest_source_cell: int,
) -> None:
    """Cross-field checks against the data's width, domains and cells.

    ``held_out_rows`` is the number of samples in the held-out domain,
    ``smallest_source_cell`` the fewest in a (domain, class) cell outside
    it. The held-out domain must exist, hold rows and leave a source
    domain, every source cell must hold
    ``labels_per_class`` samples (and fm's variance initialization two
    labels per class), and the model must fit the input (an identity
    extractor needs feature_dim == input width). Synthetic data, whose
    every cell holds samples_per_class_per_domain rows, is checked when
    the config is built; CSV data once it is loaded.
    """
    if not 0 <= config.data.target_domain < num_domains:
        raise ConfigError(
            f"[data] target_domain must be in [0, {num_domains}), "
            f"got {config.data.target_domain}"
        )
    if num_domains < 2:
        raise ConfigError("[data] needs a source domain besides target_domain")
    if held_out_rows < 1:
        raise ConfigError(
            f"[data] target_domain {config.data.target_domain} has no rows"
        )
    labels = config.data.labels_per_class
    if labels > smallest_source_cell:
        raise ConfigError(
            f"[data] labels_per_class = {labels} exceeds the smallest "
            f"(domain, class) cell, {smallest_source_cell} samples"
        )
    if config.train.mode == "fm" and labels * (num_domains - 1) < 2:
        raise ConfigError(
            "[data] fm mode needs at least 2 labels per class across the "
            f"source domains, got {labels * (num_domains - 1)}"
        )
    try:
        ExtractorConfig(
            input_dim=input_dim,
            hidden_dims=config.model.hidden_dims,
            feature_dim=config.model.feature_dim,
            dropout_p=config.train.dropout_p,
        )
    except ValueError as err:
        raise ConfigError(f"[model] {err}") from None


def _parse_value(section: str, key: str, raw: str):
    if section not in _SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    parser = _SCHEMA[section][key]
    try:
        return parser(raw)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from None


def load_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Parse an INI file, apply {section.key: raw_value} overrides, build."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from None
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            values[(section, key)] = _parse_value(section, key, raw)
    for dotted, raw in (overrides or {}).items():
        section_key = _resolve_key(dotted)
        values[section_key] = _parse_value(*section_key, raw)
    return _build(values)


def _resolve_key(dotted: str) -> tuple:
    """'section.key' or a bare key that is unique across sections."""
    if "." in dotted:
        section, key = dotted.split(".", 1)
        return section, key
    owners = [s for s, keys in _SCHEMA.items() if dotted in keys]
    if not owners:
        raise ConfigError(f"unknown config key {dotted!r}")
    if len(owners) > 1:
        raise ConfigError(
            f"ambiguous key {dotted!r}; qualify as one of "
            + ", ".join(f"{s}.{dotted}" for s in owners)
        )
    return owners[0], dotted


def _format(value) -> str:
    """A value as the INI text that parses back to it."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def write_resolved(config: RunConfig, path) -> None:
    """Write the fully resolved configuration (provenance for the run)."""
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        spec = getattr(config, section)
        parser[section] = {
            k: _format(config.seeds if k == "seeds" else getattr(spec, k)) for k in keys
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

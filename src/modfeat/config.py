"""Run configuration: flat INI files with [data] [model] [train] [output]
sections, strict key validation, and --section.key=value overrides. The
resolved configuration is written back into every run directory so a run
can be reproduced from its own provenance file."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Optional

from .network import ExtractorConfig
from .trainer import TrainConfig

ENV_SEED = "MODFEAT_SEED"


class ConfigError(ValueError):
    """The configuration file or an override is invalid."""


@dataclass
class DataSpec:
    kind: str = "synthetic"  # synthetic | csv
    path: str = ""
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
        kwargs = {f.name: getattr(self.train, f.name) for f in dc_fields(TrainConfig)}
        kwargs["seed"] = seed
        return TrainConfig(**kwargs)


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
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated ints, got {text!r}")


def _parse_optional_int(text: str):
    text = text.strip()
    return None if not text else int(text)


# section -> key -> (parser, target attribute path)
_SCHEMA = {
    "data": {
        "kind": str,
        "path": str,
        "num_classes": int,
        "num_domains": int,
        "signal_dim": int,
        "noise_dim": int,
        "samples_per_class_per_domain": int,
        "class_sep": float,
        "domain_shift": float,
        "bias_jitter": float,
        "data_seed": _parse_optional_int,
        "target_domain": int,
        "labels_per_class": int,
    },
    "model": {
        "hidden_dims": _parse_hidden_dims,
        "feature_dim": int,
    },
    "train": {
        "epochs": int,
        "lr_main": float,
        "lr_modulator": float,
        "momentum": float,
        "tau": float,
        "mc_samples": int,
        "beta": float,
        "gamma": float,
        "per_domain_labeled": int,
        "per_domain_unlabeled": int,
        "dropout_p": float,
        "mode": str,
        "seeds": _parse_seeds,
    },
    "output": {
        "dir": str,
        "dump_sar": _parse_bool,
        "dump_modulator": _parse_bool,
        "dump_pseudo_labels": _parse_bool,
    },
}


def _build(values: dict) -> RunConfig:
    """Assemble a RunConfig from {(section, key): parsed_value}."""
    data = DataSpec()
    model = ModelSpec()
    output = OutputSpec()
    train_kwargs = {}
    seeds = None
    for (section, key), value in values.items():
        if section == "data":
            setattr(data, key, value)
        elif section == "model":
            setattr(model, key, value)
        elif section == "output":
            setattr(output, key, value)
        elif section == "train":
            if key == "seeds":
                seeds = value
            else:
                train_kwargs[key] = value
    if seeds is None:
        env = os.environ.get(ENV_SEED)
        seeds = (int(env),) if env else (0,)
    try:
        train = TrainConfig(**train_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if data.kind not in ("synthetic", "csv"):
        raise ConfigError(f"data.kind must be 'synthetic' or 'csv', got {data.kind!r}")
    if data.kind == "csv" and not data.path:
        raise ConfigError("data.kind = csv requires data.path")
    config = RunConfig(data=data, model=model, train=train, output=output, seeds=seeds)
    if data.kind == "synthetic":
        check_data_fit(config, data.signal_dim + data.noise_dim, data.num_domains)
    return config


def check_data_fit(config: RunConfig, input_dim: int, num_domains: int) -> None:
    """Cross-field checks against the data's width and domain count.

    The held-out domain must exist, and the model must fit the input
    (an identity extractor needs feature_dim == input width). Synthetic
    data is checked when the config is built; CSV data once it is loaded.
    """
    if not 0 <= config.data.target_domain < num_domains:
        raise ConfigError(
            f"[data] target_domain must be in [0, {num_domains}), "
            f"got {config.data.target_domain}"
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


def write_resolved(config: RunConfig, path) -> None:
    """Write the fully resolved configuration (provenance for the run)."""
    parser = configparser.ConfigParser()
    parser["data"] = {
        k: ("" if getattr(config.data, k) is None else str(getattr(config.data, k)))
        for k in _SCHEMA["data"]
    }
    parser["model"] = {
        "hidden_dims": ",".join(str(h) for h in config.model.hidden_dims),
        "feature_dim": str(config.model.feature_dim),
    }
    train_items = {
        k: str(getattr(config.train, k)) for k in _SCHEMA["train"] if k != "seeds"
    }
    train_items["seeds"] = ",".join(str(s) for s in config.seeds)
    parser["train"] = train_items
    parser["output"] = {k: str(getattr(config.output, k)) for k in _SCHEMA["output"]}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)

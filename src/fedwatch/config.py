"""Experiment configuration: strict JSON schema with field-path errors.

A config is one JSON object; unknown keys are rejected and every violation
names the offending field with a dotted path. Defaults are materialized on
load so the effective config echoed into run outputs is itself a valid,
fully explicit input.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .aggregators import AGGREGATORS, bound_problem, typed
from .attacks import ATTACK_KINDS, AttackSpec
from .core import SEED_MAX, STREAM_FIELD_LIMIT
from .datagen import HETEROGENEITY_MODES, HeterogeneitySpec
from .trainer import TrainConfig
from .trust import ReputationConfig, ResourceConfig


class ConfigError(ValueError):
    """A schema violation; ``path`` is the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class DatasetConfig:
    type: str = "synthetic"
    classes: int = 4
    features: int = 8
    samples_per_class: int = 100
    cluster_spread: float = 0.5
    csv_path: str = ""  # csv datasets only


# The fields that only a synthetic dataset has.
SYNTHETIC_ONLY = ("features", "samples_per_class", "cluster_spread")


@dataclass(frozen=True)
class AggregatorSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on.

    The field order is the order in which build_config validates, so
    num_clients is known before the sections that depend on it.
    """

    description: str = ""
    seed: int = 0
    rounds: int = 20
    num_clients: int = 20
    malicious: AttackSpec = field(default_factory=AttackSpec)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    heterogeneity: HeterogeneitySpec = field(default_factory=HeterogeneitySpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    aggregator: AggregatorSpec = field(kw_only=True)
    reputation: ReputationConfig = field(default_factory=ReputationConfig)
    resource: ResourceConfig = field(default_factory=ResourceConfig)
    eval_fraction: float = 0.2

    def to_dict(self) -> dict:
        """Effective config as a plain dict; valid input for build_config."""
        d = asdict(self)
        d["malicious"]["targets"] = list(self.malicious.targets)
        synthetic = self.dataset.type == "synthetic"
        for k in ("csv_path",) if synthetic else SYNTHETIC_ONLY:
            del d["dataset"][k]
        return d


# Bounds and choices of the config fields, by dotted path. A field that is
# not listed takes any value of its type; aggregator params are bounded by
# their registry entry.
RULES: dict[str, dict] = {
    "seed": {"minimum": 0, "maximum": SEED_MAX},
    # a round and a client id each fill one 24-bit field of a stream id
    "rounds": {"minimum": 0, "maximum": STREAM_FIELD_LIMIT},
    "num_clients": {"minimum": 1, "maximum": STREAM_FIELD_LIMIT},
    "malicious.kind": {"choices": ATTACK_KINDS},
    "malicious.fraction": {"minimum": 0.0, "maximum": 1.0},
    "dataset.type": {"choices": ("synthetic", "csv")},
    "dataset.classes": {"minimum": 2},
    "dataset.features": {"minimum": 1},
    "dataset.samples_per_class": {"minimum": 1},
    "dataset.cluster_spread": {"exclusive_min": 0.0},
    "heterogeneity.mode": {"choices": HETEROGENEITY_MODES},
    "heterogeneity.dirichlet_alpha": {"exclusive_min": 0.0},
    "train.learning_rate": {"exclusive_min": 0.0},
    "train.local_epochs": {"minimum": 1},
    "train.batch_size": {"minimum": 1},
    "train.l2_reg": {"minimum": 0.0},
    "aggregator.name": {"choices": AGGREGATORS},
    "reputation.decay_lambda": {"minimum": 0.0, "exclusive_max": 1.0},
    "reputation.participation_threshold": {"minimum": 0.0, "maximum": 1.0},
    "resource.alpha": {"minimum": 0.0},
    "resource.beta": {"minimum": 0.0},
    "eval_fraction": {"exclusive_min": 0.0, "exclusive_max": 1.0},
}


def _read(v, path: str, kind: type):
    """v as kind, checked against the field's rules; a real also takes an int."""
    try:
        v = typed(v, kind)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None
    problem = bound_problem(v, **RULES.get(path, {}))
    if problem is not None:
        raise ConfigError(path, problem)
    return v


def _object(raw, path: str, specs) -> dict:
    """raw as an object whose keys all name one of specs."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    names = {s.name for s in specs}
    for k in raw:
        if k not in names:
            raise ConfigError(f"{path}.{k}" if path else str(k), "unknown key")
    return raw


def _read_all(d: dict, specs, prefix: str) -> dict:
    """Each spec (a dataclass field or a registry Param) read from d in
    order; its default fills an absent key and gives the type."""
    return {s.name: _read(d.get(s.name, s.default), prefix + s.name, type(s.default)) for s in specs}


def _build_malicious(raw, num_clients: int) -> AttackSpec:
    d = _object(raw, "malicious", fields(AttackSpec))
    scalars = _read_all(d, [f for f in fields(AttackSpec) if f.name != "targets"], "malicious.")
    targets = d.get("targets", [])
    if not isinstance(targets, list):
        raise ConfigError("malicious.targets", "expected a list of client ids")
    seen = set()
    for t in targets:
        if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t < num_clients:
            raise ConfigError("malicious.targets", f"invalid client id {t!r}")
        if t in seen:
            raise ConfigError("malicious.targets", f"duplicate client id {t}")
        seen.add(t)
    if len(seen) >= num_clients:
        raise ConfigError("malicious.targets", "every client is a target; at least one must be benign")
    return AttackSpec(**scalars, targets=tuple(sorted(seen)))


def _build_dataset(raw, num_clients: int) -> DatasetConfig:
    d = _object(raw, "dataset", fields(DatasetConfig))
    if _read(d.get("type", DatasetConfig.type), "dataset.type", str) == "synthetic":
        if "csv_path" in d:
            raise ConfigError("dataset.csv_path", "not applicable to synthetic datasets")
    else:
        for k in SYNTHETIC_ONLY:
            if k in d:
                raise ConfigError(f"dataset.{k}", "not applicable to csv datasets")
        for k in ("csv_path", "classes"):
            if k not in d:
                raise ConfigError(f"dataset.{k}", "required for csv datasets")
    return DatasetConfig(**_read_all(d, fields(DatasetConfig), "dataset."))


def _build_aggregator(raw, num_clients: int) -> AggregatorSpec:
    d = _object(raw, "aggregator", fields(AggregatorSpec))
    if "name" not in d:
        raise ConfigError("aggregator.name", "required")
    name = _read(d["name"], "aggregator.name", str)
    entry = AGGREGATORS[name]
    raw_params = _object(d.get("params", {}), "aggregator.params", entry.params)
    params = _read_all(raw_params, entry.params, "aggregator.params.")
    problem = entry.problem(num_clients, params)
    if problem is not None:
        blamed, message = problem
        raise ConfigError("num_clients" if blamed is None else "aggregator.params." + blamed, message)
    return AggregatorSpec(name=name, params=params)


# The sections that need more than their fields' own rules.
_BUILDERS = {"malicious": _build_malicious, "dataset": _build_dataset, "aggregator": _build_aggregator}


def eval_split_size(num_samples: int, eval_fraction: float, num_clients: int) -> int:
    """Samples held out for evaluation; the rest must give every client one."""
    n_eval = max(1, round(eval_fraction * num_samples))
    if num_samples - n_eval < num_clients:
        raise ConfigError(
            "num_clients",
            f"{num_samples - n_eval} training samples cannot cover {num_clients} clients",
        )
    return n_eval


def build_config(raw: dict) -> SimConfig:
    """Validate a raw config dict and materialize every default."""
    d = _object(raw, "", fields(SimConfig))
    values: dict = {}
    for f in fields(SimConfig):
        if f.default is not MISSING:
            values[f.name] = _read(d.get(f.name, f.default), f.name, type(f.default))
        elif f.name in _BUILDERS:
            values[f.name] = _BUILDERS[f.name](d.get(f.name, {}), values["num_clients"])
        else:
            cls = f.default_factory
            section = _object(d.get(f.name, {}), f.name, fields(cls))
            values[f.name] = cls(**_read_all(section, fields(cls), f.name + "."))
    config = SimConfig(**values)
    dataset = config.dataset
    if dataset.type == "synthetic":  # a csv's size is known once the engine loads it
        samples = dataset.classes * dataset.samples_per_class
        eval_split_size(samples, config.eval_fraction, config.num_clients)
    return config


def load_config(path: str) -> SimConfig:
    """Read and validate a config file. OSError propagates.

    The bytes go to json.loads, which finds the encoding itself, so the
    locale plays no part; a file it cannot decode is invalid JSON.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError("", f"invalid JSON: {e}") from None
    return build_config(raw)


def set_by_path(effective: dict, param_path: str, value) -> dict:
    """Copy an effective config dict with one scalar field replaced.

    The dotted path must address an existing scalar (sweepable) field.
    """
    parts = param_path.split(".")
    if not all(parts):
        raise ConfigError(param_path, "malformed parameter path")
    out = json.loads(json.dumps(effective))
    node = out
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(".".join(parts[: i + 1]), "unknown config field")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(param_path, "unknown config field")
    if isinstance(node[leaf], (dict, list)):
        raise ConfigError(param_path, "not a scalar field")
    node[leaf] = value
    return out

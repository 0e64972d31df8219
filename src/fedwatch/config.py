"""Experiment configuration: strict JSON schema with field-path errors.

A config is one JSON object; unknown keys are rejected and every violation
names the offending field with a dotted path. Defaults are materialized on
load so the effective config echoed into run outputs is itself a valid,
fully explicit input.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .aggregators import AGGREGATORS
from .attacks import ATTACK_KINDS, AttackSpec
from .datagen import HeterogeneitySpec
from .trainer import TrainConfig


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
    csv_path: str | None = None


@dataclass(frozen=True)
class AggregatorSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReputationConfig:
    enabled: bool = True
    decay_lambda: float = 0.9
    participation_threshold: float = 0.0


@dataclass(frozen=True)
class ResourceConfig:
    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    aggregator: AggregatorSpec
    description: str = ""
    seed: int = 0
    rounds: int = 20
    num_clients: int = 20
    malicious: AttackSpec = field(default_factory=lambda: AttackSpec(targets=()))
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    heterogeneity: HeterogeneitySpec = field(default_factory=HeterogeneitySpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    reputation: ReputationConfig = field(default_factory=ReputationConfig)
    resource: ResourceConfig = field(default_factory=ResourceConfig)
    eval_fraction: float = 0.2

    def to_dict(self) -> dict:
        """Effective config as a plain dict; valid input for build_config."""
        d = asdict(self)
        d["malicious"]["targets"] = list(self.malicious.targets)
        if self.dataset.type == "synthetic":
            del d["dataset"]["csv_path"]
        else:
            for k in ("features", "samples_per_class", "cluster_spread"):
                del d["dataset"][k]
        return d


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed, path: str) -> None:
    for k in d:
        if k not in allowed:
            where = f"{path}.{k}" if path else str(k)
            raise ConfigError(where, "unknown key")


def _get_int(d: dict, key: str, path: str, default=None, minimum=None, maximum=None) -> int:
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}{key}", f"must be <= {maximum}, got {v}")
    return v


def _get_real(d: dict, key: str, path: str, default=None, minimum=None,
              exclusive_min=None, maximum=None, exclusive_max=None) -> float:
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}{key}", f"expected a number, got {v!r}")
    v = float(v)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}{key}", f"must be >= {minimum}, got {v}")
    if exclusive_min is not None and v <= exclusive_min:
        raise ConfigError(f"{path}{key}", f"must be > {exclusive_min}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}{key}", f"must be <= {maximum}, got {v}")
    if exclusive_max is not None and v >= exclusive_max:
        raise ConfigError(f"{path}{key}", f"must be < {exclusive_max}, got {v}")
    return v


def _get_str(d: dict, key: str, path: str, default=None, choices=None) -> str:
    v = d.get(key, default)
    if not isinstance(v, str):
        raise ConfigError(f"{path}{key}", f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}{key}", f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _get_bool(d: dict, key: str, path: str, default=None) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{path}{key}", f"expected a boolean, got {v!r}")
    return v


def _build_malicious(raw: dict, num_clients: int) -> AttackSpec:
    d = _require_dict(raw, "malicious")
    _check_keys(d, {"kind", "fraction", "magnitude", "targets"}, "malicious")
    kind = _get_str(d, "kind", "malicious.", default="label_flip", choices=ATTACK_KINDS)
    fraction = _get_real(d, "fraction", "malicious.", default=1.0, minimum=0.0, maximum=1.0)
    magnitude = _get_real(d, "magnitude", "malicious.", default=1.0)
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
    return AttackSpec(kind=kind, fraction=fraction, magnitude=magnitude, targets=tuple(sorted(seen)))


def _build_dataset(raw: dict) -> DatasetConfig:
    d = _require_dict(raw, "dataset")
    allowed = {"type", "classes", "features", "samples_per_class", "cluster_spread", "csv_path"}
    _check_keys(d, allowed, "dataset")
    dtype = _get_str(d, "type", "dataset.", default="synthetic", choices=("synthetic", "csv"))
    if dtype == "synthetic":
        if "csv_path" in d:
            raise ConfigError("dataset.csv_path", "not applicable to synthetic datasets")
        return DatasetConfig(
            type="synthetic",
            classes=_get_int(d, "classes", "dataset.", default=4, minimum=2),
            features=_get_int(d, "features", "dataset.", default=8, minimum=1),
            samples_per_class=_get_int(d, "samples_per_class", "dataset.", default=100, minimum=1),
            cluster_spread=_get_real(d, "cluster_spread", "dataset.", default=0.5, exclusive_min=0.0),
        )
    for k in ("features", "samples_per_class", "cluster_spread"):
        if k in d:
            raise ConfigError(f"dataset.{k}", "not applicable to csv datasets")
    if "csv_path" not in d:
        raise ConfigError("dataset.csv_path", "required for csv datasets")
    if "classes" not in d:
        raise ConfigError("dataset.classes", "required for csv datasets")
    return DatasetConfig(
        type="csv",
        classes=_get_int(d, "classes", "dataset.", minimum=2),
        csv_path=_get_str(d, "csv_path", "dataset."),
    )


def _build_aggregator(raw: dict, num_clients: int) -> AggregatorSpec:
    d = _require_dict(raw, "aggregator")
    _check_keys(d, {"name", "params"}, "aggregator")
    if "name" not in d:
        raise ConfigError("aggregator.name", "required")
    name = _get_str(d, "name", "aggregator.", choices=AGGREGATORS)
    entry = AGGREGATORS[name]
    raw_params = _require_dict(d.get("params", {}), "aggregator.params")
    _check_keys(raw_params, {p.name for p in entry.params}, "aggregator.params")
    path = "aggregator.params."
    params: dict = {}
    for p in entry.params:
        get = _get_int if isinstance(p.default, int) else _get_real
        params[p.name] = get(raw_params, p.name, path, default=p.default)
    problem = entry.problem(num_clients, params)
    if problem is not None:
        blamed, message = problem
        raise ConfigError("num_clients" if blamed is None else path + blamed, message)
    return AggregatorSpec(name=name, params=params)


def eval_split_size(num_samples: int, eval_fraction: float, num_clients: int) -> int:
    """Samples held out for evaluation; the rest must give every client one."""
    n_eval = max(1, round(eval_fraction * num_samples))
    if num_samples - n_eval < num_clients:
        raise ConfigError(
            "num_clients",
            f"{num_samples - n_eval} training samples cannot cover {num_clients} clients",
        )
    return n_eval


_TOP_KEYS = {
    "description", "seed", "rounds", "num_clients", "malicious", "dataset",
    "heterogeneity", "train", "aggregator", "reputation", "resource", "eval_fraction",
}


def build_config(raw: dict) -> SimConfig:
    """Validate a raw config dict and materialize every default."""
    d = _require_dict(raw, "")
    _check_keys(d, _TOP_KEYS, "")
    description = _get_str(d, "description", "", default="")
    seed = _get_int(d, "seed", "", default=0, minimum=0)
    rounds = _get_int(d, "rounds", "", default=20, minimum=0)
    num_clients = _get_int(d, "num_clients", "", default=20, minimum=1)

    malicious = _build_malicious(d.get("malicious", {}), num_clients)
    dataset = _build_dataset(d.get("dataset", {}))

    h = _require_dict(d.get("heterogeneity", {}), "heterogeneity")
    _check_keys(h, {"mode", "dirichlet_alpha"}, "heterogeneity")
    heterogeneity = HeterogeneitySpec(
        mode=_get_str(h, "mode", "heterogeneity.", default="iid", choices=("iid", "dirichlet")),
        dirichlet_alpha=_get_real(h, "dirichlet_alpha", "heterogeneity.", default=1.0, exclusive_min=0.0),
    )

    t = _require_dict(d.get("train", {}), "train")
    _check_keys(t, {"learning_rate", "local_epochs", "batch_size", "l2_reg"}, "train")
    train = TrainConfig(
        learning_rate=_get_real(t, "learning_rate", "train.", default=0.1, exclusive_min=0.0),
        local_epochs=_get_int(t, "local_epochs", "train.", default=2, minimum=1),
        batch_size=_get_int(t, "batch_size", "train.", default=16, minimum=1),
        l2_reg=_get_real(t, "l2_reg", "train.", default=1e-4, minimum=0.0),
    )

    aggregator = _build_aggregator(d.get("aggregator", {}), num_clients)

    r = _require_dict(d.get("reputation", {}), "reputation")
    _check_keys(r, {"enabled", "decay_lambda", "participation_threshold"}, "reputation")
    reputation = ReputationConfig(
        enabled=_get_bool(r, "enabled", "reputation.", default=True),
        decay_lambda=_get_real(r, "decay_lambda", "reputation.", default=0.9, minimum=0.0, exclusive_max=1.0),
        participation_threshold=_get_real(
            r, "participation_threshold", "reputation.", default=0.0, minimum=0.0, maximum=1.0
        ),
    )

    res = _require_dict(d.get("resource", {}), "resource")
    _check_keys(res, {"alpha", "beta"}, "resource")
    resource = ResourceConfig(
        alpha=_get_real(res, "alpha", "resource.", default=0.0, minimum=0.0),
        beta=_get_real(res, "beta", "resource.", default=0.0, minimum=0.0),
    )

    eval_fraction = _get_real(d, "eval_fraction", "", default=0.2, exclusive_min=0.0, exclusive_max=1.0)

    if dataset.type == "synthetic":  # a csv's size is known once the engine loads it
        eval_split_size(dataset.classes * dataset.samples_per_class, eval_fraction, num_clients)

    return SimConfig(
        description=description,
        seed=seed,
        rounds=rounds,
        num_clients=num_clients,
        malicious=malicious,
        dataset=dataset,
        heterogeneity=heterogeneity,
        train=train,
        aggregator=aggregator,
        reputation=reputation,
        resource=resource,
        eval_fraction=eval_fraction,
    )


def load_config(path: str) -> SimConfig:
    """Read and validate a config file. OSError and JSON errors propagate."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
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

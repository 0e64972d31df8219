"""Experiment configuration: strict JSON schema with field-path errors.

A config is one JSON object; unknown keys are rejected and every violation
names the offending field with a dotted path. Defaults are materialized on
load so the effective config echoed into run outputs is itself a valid,
fully explicit input. ``SimConfig`` and every section it holds, the
aggregator registry and the run limits are defined here. This module
imports no other fedwatch module and no numpy, so loading a config imports
no simulation layer; the layers import what they need from here.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Callable, Mapping
from types import MappingProxyType
from typing import NamedTuple

SEED_MAX = (1 << 64) - 1  # Rng reads only a seed's low 64 bits, so a larger seed repeats a run

# Rounds and client ids each fill 24 bits of a stream id (see core.substream).
STREAM_FIELD_LIMIT = 1 << 24

# The most bytes one numpy array can hold: its size is a signed 64-bit count.
ARRAY_BYTES_LIMIT = (1 << 63) - 1

ATTACK_KINDS = ("label_flip", "sign_flip", "gaussian_noise", "scale")
HETEROGENEITY_MODES = ("iid", "dirichlet")


class ConfigError(ValueError):
    """A schema violation; ``path`` is the dotted field path, cut to
    ECHO_MAX characters as ``echo`` cuts a value."""

    def __init__(self, path: str, message: str):
        self.path = _cut(path)
        self.message = message
        super().__init__(f"{self.path}: {message}" if path else message)


class AttackSpec(NamedTuple):
    """What the malicious clients do.

    ``fraction`` is the share of labels flipped (label_flip only).
    ``magnitude`` is the sign-flip scale, the noise stddev, or the scale
    factor, depending on kind.
    """

    kind: str = "label_flip"
    fraction: float = 1.0
    magnitude: float = 1.0
    targets: tuple[int, ...] = ()


class DatasetConfig(NamedTuple):
    """The data: synthetic Gaussian clusters or a CSV file."""

    type: str = "synthetic"
    classes: int = 4
    features: int = 8
    samples_per_class: int = 100
    cluster_spread: float = 0.5
    csv_path: str = ""  # csv datasets only


# The fields that only a synthetic dataset has.
SYNTHETIC_ONLY = ("features", "samples_per_class", "cluster_spread")


class HeterogeneitySpec(NamedTuple):
    """How training data is spread across clients."""

    mode: str = "iid"  # one of HETEROGENEITY_MODES
    dirichlet_alpha: float = 1.0


class TrainConfig(NamedTuple):
    """Each client's local SGD: step size, epochs, batch size and L2 penalty."""

    learning_rate: float = 0.1
    local_epochs: int = 2
    batch_size: int = 16
    l2_reg: float = 1e-4


class AggregatorSpec(NamedTuple):
    """The aggregator, by registry name, and its params, read-only."""

    name: str
    params: Mapping[str, int | float] = MappingProxyType({})


# update_reputation and select_participants read their settings from the
# reputation section, ledger_record its prices from the resource section.
class ReputationConfig(NamedTuple):
    """Reputation decay and the gate a client must clear to participate."""

    enabled: bool = True
    decay_lambda: float = 0.9
    participation_threshold: float = 0.0


class ResourceConfig(NamedTuple):
    """The objective's prices: alpha per unit of cost, beta per overhead op."""

    alpha: float = 0.0
    beta: float = 0.0


class SimConfig(NamedTuple):
    """Everything one simulation run depends on.

    The field order is the order in which build_config validates, so
    num_clients is known before the sections that depend on it.
    """

    description: str = ""
    seed: int = 0
    rounds: int = 20
    num_clients: int = 20
    malicious: AttackSpec = AttackSpec()
    dataset: DatasetConfig = DatasetConfig()
    heterogeneity: HeterogeneitySpec = HeterogeneitySpec()
    train: TrainConfig = TrainConfig()
    aggregator: AggregatorSpec = None  # no default: build_config requires aggregator.name
    reputation: ReputationConfig = ReputationConfig()
    resource: ResourceConfig = ResourceConfig()
    eval_fraction: float = 0.2

    def to_dict(self) -> dict:
        """Effective config as a plain dict; valid input for build_config."""
        d = {k: v._asdict() if isinstance(v, tuple) else v for k, v in self._asdict().items()}
        d["malicious"]["targets"] = list(self.malicious.targets)
        d["aggregator"]["params"] = dict(self.aggregator.params)
        synthetic = self.dataset.type == "synthetic"
        for k in ("csv_path",) if synthetic else SYNTHETIC_ONLY:
            del d["dataset"][k]
        return d


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

ECHO_MAX = 60  # the most characters of a value that an error message repeats


def _cut(text: str) -> str:
    """text cut to ECHO_MAX characters, its end marked with "..."."""
    return text if len(text) <= ECHO_MAX else text[: ECHO_MAX - 3] + "..."


def echo(v) -> str:
    """repr(v) as an error message repeats it, cut to ECHO_MAX characters.

    An integer of more digits than that is named by its size and never
    converted, so no echo meets Python's ``int_max_str_digits`` (at least
    640 when set). A container holding such an integer cannot be printed.
    """
    if isinstance(v, int) and abs(v) >= 10**ECHO_MAX:
        return f"an integer of more than {ECHO_MAX} digits"
    try:
        text = repr(v)
    except ValueError:
        return f"<unprintable {type(v).__name__}>"
    return _cut(text)


def typed(v, kind: type):
    """v as kind, or a ValueError in config's words. A bool is no number; an
    integer may be numpy's, and a real any real but an integer beyond float
    range."""
    accepted = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
        raise ValueError(f"expected {_EXPECTED[kind]}, got {echo(v)}")
    try:
        return kind(v)
    except OverflowError:
        raise ValueError("must be finite, got an integer beyond float range") from None


def bound_problem(v, minimum=None, exclusive_min=None, maximum=None,
                  exclusive_max=None, choices=None) -> str | None:
    """The first bound v breaks, as a message, or None when it keeps them all.

    Each test is written as ``not v >= minimum`` rather than ``v < minimum``,
    so NaN breaks every bound. ``choices`` bounds a string to a set. A float
    that keeps them all must still be finite.
    """
    if minimum is not None and not v >= minimum:
        return f"must be >= {minimum}, got {echo(v)}"
    if exclusive_min is not None and not v > exclusive_min:
        return f"must be > {exclusive_min}, got {echo(v)}"
    if maximum is not None and not v <= maximum:
        return f"must be <= {maximum}, got {echo(v)}"
    if exclusive_max is not None and not v < exclusive_max:
        return f"must be < {exclusive_max}, got {echo(v)}"
    if choices is not None and v not in choices:
        return f"must be one of {sorted(choices)}, got {echo(v)}"
    if isinstance(v, float) and not math.isfinite(v):
        return f"must be finite, got {echo(v)}"
    return None


class Param(NamedTuple):
    """One aggregator parameter; its type is the type of its default."""

    name: str
    default: int | float
    minimum: int | float | None = None
    exclusive_min: float | None = None


class AggregatorEntry(NamedTuple):
    """Everything the program knows about one aggregator.

    Config validation, the engine, the aggregator function itself and the
    CLI all read these fields. Each client minimum is a (param, rule) pair:
    the aggregator needs at least rule(params) updates, and a shortfall is
    blamed on that param, or on the client count itself when it is None.
    """

    name: str
    params: tuple[Param, ...] = ()
    minimums: tuple[tuple[str | None, Callable[[dict], int]], ...] = ()
    threads_state: bool = False  # fn takes and returns a PidState

    @property
    def fn(self) -> Callable:
        """The function of this entry's name in ``fedwatch.aggregators``,
        imported on use so that loading a config loads no numpy."""
        from . import aggregators

        return getattr(aggregators, self.name)

    def min_clients(self, params: dict) -> int:
        """Smallest number of updates this aggregator can run on."""
        return max([1] + [rule(params) for _, rule in self.minimums])

    def problem(self, n: int, params: dict) -> tuple[str | None, str] | None:
        """(blamed param, message) for the first bound or client minimum that
        params and n break, or None when the aggregator can run."""
        for p in self.params:
            message = bound_problem(params[p.name], p.minimum, p.exclusive_min)
            if message is not None:
                return p.name, message
        for blamed, rule in self.minimums:
            if n < rule(params):
                return blamed, f"{self.name} needs at least {echo(rule(params))} clients, got {n}"
        return None


_F = Param("byzantine_f", 1, minimum=0)
_KRUM_MIN = ("byzantine_f", lambda p: 2 * p["byzantine_f"] + 3)

# The registry, in display order.
AGGREGATORS: dict[str, AggregatorEntry] = {e.name: e for e in (
    AggregatorEntry("fedavg"),
    AggregatorEntry("trimmed_mean", (Param("trim_beta", 1, minimum=0),),
                    (("trim_beta", lambda p: 2 * p["trim_beta"] + 1),)),
    AggregatorEntry("krum", (_F,), (_KRUM_MIN,)),
    AggregatorEntry("multi_krum", (_F, Param("multi_krum_m", 1, minimum=1)),
                    (_KRUM_MIN, ("multi_krum_m", lambda p: p["multi_krum_m"] + p["byzantine_f"]))),
    AggregatorEntry("bulyan", (_F,), (("byzantine_f", lambda p: 4 * p["byzantine_f"] + 3),)),
    AggregatorEntry("geomedian", (Param("weiszfeld_tol", 1e-10, exclusive_min=0.0),
                                  Param("weiszfeld_max_iters", 500, minimum=1))),
    AggregatorEntry("sigma_pid", (Param("sigma_k", 2.5, exclusive_min=0.0),
                                  Param("kp", 1.0), Param("ki", 0.0), Param("kd", 0.0)),
                    ((None, lambda p: 3),), threads_state=True),
)}


# Bounds and choices of the config fields, by dotted path. A field that is
# not listed takes any value of its type; aggregator params are bounded by
# their registry entry.
RULES: dict[str, dict] = {
    "seed": {"minimum": 0, "maximum": SEED_MAX},
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


def _object(raw, path: str, names) -> dict:
    """raw as an object whose keys are all in names."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    for k in raw:
        if k not in names:
            key = k if isinstance(k, str) else echo(k)  # str() refuses a long integer
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    return raw


def _read_all(d: dict, defaults: dict, prefix: str) -> dict:
    """Each field of defaults (a section's or an aggregator's params) read
    from d in order; its default fills an absent key and gives the type."""
    return {k: _read(d.get(k, v), prefix + k, type(v)) for k, v in defaults.items()}


def _build_malicious(raw, num_clients: int) -> AttackSpec:
    d = _object(raw, "malicious", AttackSpec._fields)
    defaults = AttackSpec._field_defaults
    scalars = _read_all(d, {k: v for k, v in defaults.items() if k != "targets"}, "malicious.")
    targets = d.get("targets", [])
    if not isinstance(targets, list):
        raise ConfigError("malicious.targets", "expected a list of client ids")
    seen = set()
    for t in targets:
        try:
            t = typed(t, int)
        except ValueError:
            raise ConfigError("malicious.targets", f"invalid client id {echo(t)}") from None
        if not 0 <= t < num_clients:
            raise ConfigError("malicious.targets", f"invalid client id {echo(t)}")
        if t in seen:
            raise ConfigError("malicious.targets", f"duplicate client id {echo(t)}")
        seen.add(t)
    if len(seen) >= num_clients:
        raise ConfigError("malicious.targets", "every client is a target; at least one must be benign")
    return AttackSpec(**scalars, targets=tuple(sorted(seen)))


def _build_dataset(raw, num_clients: int) -> DatasetConfig:
    d = _object(raw, "dataset", DatasetConfig._fields)
    defaults = DatasetConfig._field_defaults
    if _read(d.get("type", defaults["type"]), "dataset.type", str) == "synthetic":
        if "csv_path" in d:
            raise ConfigError("dataset.csv_path", "not applicable to synthetic datasets")
    else:
        for k in SYNTHETIC_ONLY:
            if k in d:
                raise ConfigError(f"dataset.{k}", "not applicable to csv datasets")
        for k in ("csv_path", "classes"):
            if k not in d:
                raise ConfigError(f"dataset.{k}", "required for csv datasets")
    return DatasetConfig(**_read_all(d, defaults, "dataset."))


def _build_aggregator(raw, num_clients: int) -> AggregatorSpec:
    d = _object(raw, "aggregator", AggregatorSpec._fields)
    if "name" not in d:
        raise ConfigError("aggregator.name", "required")
    name = _read(d["name"], "aggregator.name", str)
    entry = AGGREGATORS[name]
    defaults = {p.name: p.default for p in entry.params}
    raw_params = _object(d.get("params", {}), "aggregator.params", defaults)
    params = _read_all(raw_params, defaults, "aggregator.params.")
    problem = entry.problem(num_clients, params)
    if problem is not None:
        blamed, message = problem
        raise ConfigError("num_clients" if blamed is None else "aggregator.params." + blamed, message)
    return AggregatorSpec(name, MappingProxyType(params))


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
    d = _object(raw, "", SimConfig._fields)
    values: dict = {}
    for name, default in SimConfig._field_defaults.items():
        if name in _BUILDERS:
            values[name] = _BUILDERS[name](d.get(name, {}), values["num_clients"])
        elif isinstance(default, tuple):  # a section: each field by its own rules
            section = _object(d.get(name, {}), name, default._fields)
            values[name] = type(default)(**_read_all(section, default._field_defaults, name + "."))
        else:
            values[name] = _read(d.get(name, default), name, type(default))
    config = SimConfig(**values)
    dataset = config.dataset
    if dataset.type == "synthetic":  # a csv's size is known once the engine loads it
        samples = dataset.classes * dataset.samples_per_class
        if samples * dataset.features * 8 > ARRAY_BYTES_LIMIT:
            raise ConfigError("dataset", "classes x samples_per_class x features x 8 bytes "
                              f"exceed {ARRAY_BYTES_LIMIT}, the most one array can hold")
        eval_split_size(samples, config.eval_fraction, config.num_clients)
    return config


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's pairs as a dict; a key given twice is an error."""
    d: dict = {}
    for k, v in pairs:
        if k in d:
            raise ConfigError("", f"key {echo(k)} given twice in one object")
        d[k] = v
    return d


def load_config(path: str) -> SimConfig:
    """Read and validate a config file. OSError propagates.

    The bytes go to json.loads, which finds the encoding itself, so the
    locale plays no part; a file it cannot decode, an integer over
    Python's ``int_max_str_digits`` or nesting deeper than the parser's
    recursion allows is invalid JSON. A key repeated within
    one object is an error, as an unknown key is.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except (ValueError, RecursionError) as e:  # also too many digits, or too deep
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

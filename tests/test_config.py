import json
from typing import get_type_hints

import numpy as np
import pytest

from fedwatch.aggregators import AGGREGATORS
from fedwatch.config import (
    RULES,
    AggregatorSpec,
    ConfigError,
    SimConfig,
    build_config,
    load_config,
    set_by_path,
)
from fedwatch.core import STREAM_FIELD_LIMIT, substream
from fedwatch.datagen import HETEROGENEITY_MODES

MINIMAL = {"aggregator": {"name": "fedavg"}}


def cfg_dict(**overrides):
    d = {"aggregator": {"name": "fedavg"}}
    d.update(overrides)
    return d


class TestDefaults:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = build_config(MINIMAL)
        assert cfg.train.learning_rate == 0.1
        assert cfg.train.local_epochs == 2
        assert cfg.train.batch_size == 16
        assert cfg.train.l2_reg == 1e-4
        assert cfg.reputation.decay_lambda == 0.9
        assert cfg.reputation.participation_threshold == 0.0
        assert cfg.resource.alpha == 0.0
        assert cfg.resource.beta == 0.0
        assert cfg.eval_fraction == 0.2
        assert cfg.rounds == 20
        assert cfg.num_clients == 20
        assert cfg.malicious.targets == ()

    def test_sigma_k_default(self):
        cfg = build_config(cfg_dict(aggregator={"name": "sigma_pid"}))
        assert cfg.aggregator.params["sigma_k"] == 2.5

    def test_effective_dict_round_trips(self):
        cfg = build_config(cfg_dict(seed=9, rounds=3))
        echo = cfg.to_dict()
        again = build_config(echo)
        assert again.to_dict() == echo


class TestFrozen:
    KRUM = cfg_dict(num_clients=6, aggregator={"name": "krum", "params": {"byzantine_f": 1}})

    def test_aggregator_params_refuse_a_write_after_validation(self):
        # a write would run krum on a value build_config refuses
        cfg = build_config(self.KRUM)
        with pytest.raises(TypeError):
            cfg.aggregator.params["byzantine_f"] = -1
        assert cfg.aggregator.params == {"byzantine_f": 1}
        echo = cfg.to_dict()
        assert type(echo["aggregator"]["params"]) is dict
        assert json.loads(json.dumps(echo)) == echo
        assert build_config(echo) == cfg

    def test_an_unbuilt_aggregator_spec_has_no_params_to_write(self):
        with pytest.raises(TypeError):
            AggregatorSpec("fedavg").params["x"] = 1

    def test_every_field_of_every_section_refuses_assignment(self):
        cfg = build_config(self.KRUM)
        for name in cfg._fields:
            with pytest.raises(AttributeError):
                setattr(cfg, name, getattr(cfg, name))
            section = getattr(cfg, name)
            for field in getattr(section, "_fields", ()):
                with pytest.raises(AttributeError):
                    setattr(section, field, getattr(section, field))
        with pytest.raises(AttributeError):
            cfg.no_such_field = 1


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(bogus=1))
        assert "bogus" in str(e.value)

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(train={"learning_rate": 0.1, "momentum": 0.9}))
        assert "train.momentum" in str(e.value)

    def test_aggregator_name_required(self):
        with pytest.raises(ConfigError) as e:
            build_config({})
        assert "aggregator.name" in str(e.value)

    def test_unknown_aggregator_param(self):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(aggregator={"name": "krum", "params": {"beta": 2}}))
        assert "aggregator.params.beta" in str(e.value)

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(rounds="twenty"))
        assert "rounds" in str(e.value)
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(rounds=True))
        assert "rounds" in str(e.value)


class TestBounds:
    def test_krum_needs_enough_clients(self):
        with pytest.raises(ConfigError) as e:
            build_config(
                cfg_dict(
                    num_clients=4,
                    aggregator={"name": "krum", "params": {"byzantine_f": 1}},
                )
            )
        assert "aggregator.params.byzantine_f" in str(e.value)

    def test_bulyan_needs_4f_plus_3(self):
        with pytest.raises(ConfigError):
            build_config(
                cfg_dict(
                    num_clients=6,
                    aggregator={"name": "bulyan", "params": {"byzantine_f": 1}},
                )
            )
        build_config(
            cfg_dict(num_clients=7, aggregator={"name": "bulyan", "params": {"byzantine_f": 1}})
        )

    def test_multi_krum_m_bound(self):
        with pytest.raises(ConfigError) as e:
            build_config(
                cfg_dict(
                    num_clients=5,
                    aggregator={
                        "name": "multi_krum",
                        "params": {"byzantine_f": 1, "multi_krum_m": 5},
                    },
                )
            )
        assert "multi_krum_m" in str(e.value)

    def test_trimmed_mean_beta_bound(self):
        with pytest.raises(ConfigError):
            build_config(
                cfg_dict(
                    num_clients=4,
                    aggregator={"name": "trimmed_mean", "params": {"trim_beta": 2}},
                )
            )

    def test_malicious_targets_validated(self):
        with pytest.raises(ConfigError):
            build_config(cfg_dict(malicious={"targets": [25]}, num_clients=10))
        with pytest.raises(ConfigError):
            build_config(cfg_dict(malicious={"targets": [1, 1]}))
        with pytest.raises(ConfigError):
            build_config(cfg_dict(num_clients=2, malicious={"targets": [0, 1]}))

    def test_numpy_integer_targets_are_read_as_ints(self):
        targets = [np.int64(3), np.uint8(0), np.int32(1)]
        cfg = build_config(cfg_dict(num_clients=5, malicious={"targets": targets}))
        assert cfg.malicious.targets == (0, 1, 3)
        assert all(type(t) is int for t in cfg.malicious.targets)
        json.dumps(cfg.to_dict())  # the echo stays plain JSON

    @pytest.mark.parametrize("target", [True, 1.0, "1", None, np.float64(1.0), np.bool_(True)])
    def test_non_integer_target_is_refused(self, target):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(num_clients=5, malicious={"targets": [target]}))
        assert (e.value.path, e.value.message) == ("malicious.targets", f"invalid client id {target!r}")

    @pytest.mark.parametrize("targets, message", [
        ([np.int64(5)], "invalid client id 5"),
        ([-1], "invalid client id -1"),
        ([np.int64(2), 2], "duplicate client id 2"),
    ])
    def test_target_range_and_duplicate_messages(self, targets, message):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(num_clients=5, malicious={"targets": targets}))
        assert (e.value.path, e.value.message) == ("malicious.targets", message)

    def test_fraction_and_eval_fraction_ranges(self):
        with pytest.raises(ConfigError):
            build_config(cfg_dict(malicious={"fraction": 1.5}))
        with pytest.raises(ConfigError):
            build_config(cfg_dict(eval_fraction=0.0))
        with pytest.raises(ConfigError):
            build_config(cfg_dict(eval_fraction=1.0))

    def test_learning_rate_positive(self):
        with pytest.raises(ConfigError):
            build_config(cfg_dict(train={"learning_rate": 0.0}))

    def test_decay_lambda_below_one(self):
        with pytest.raises(ConfigError):
            build_config(cfg_dict(reputation={"decay_lambda": 1.0}))

    def test_dataset_csv_requirements(self):
        with pytest.raises(ConfigError) as e:
            build_config(cfg_dict(dataset={"type": "csv", "classes": 3}))
        assert "csv_path" in str(e.value)
        with pytest.raises(ConfigError):
            build_config(cfg_dict(dataset={"type": "csv", "csv_path": "x.csv"}))
        with pytest.raises(ConfigError):
            build_config(
                cfg_dict(dataset={"type": "csv", "csv_path": "x.csv", "classes": 3, "features": 2})
            )
        with pytest.raises(ConfigError):
            build_config(cfg_dict(dataset={"type": "synthetic", "csv_path": "x.csv"}))

    def test_enough_training_data_for_clients(self):
        with pytest.raises(ConfigError):
            build_config(
                cfg_dict(
                    num_clients=50,
                    dataset={"type": "synthetic", "classes": 2, "features": 2,
                             "samples_per_class": 20, "cluster_spread": 0.5},
                )
            )

    def test_training_samples_must_cover_clients(self):
        # 2 x 10 samples, round(0.2 * 20) = 4 held out: 16 training samples
        dataset = {"type": "synthetic", "classes": 2, "features": 2, "samples_per_class": 10}
        assert build_config(cfg_dict(num_clients=16, dataset=dataset)).num_clients == 16
        with pytest.raises(ConfigError) as exc:
            build_config(cfg_dict(num_clients=17, dataset=dataset))
        assert exc.value.path == "num_clients"
        assert str(exc.value) == "num_clients: 16 training samples cannot cover 17 clients"


class TestSetByPath:
    def test_replaces_scalar(self):
        cfg = build_config(cfg_dict(aggregator={"name": "sigma_pid"}))
        out = set_by_path(cfg.to_dict(), "aggregator.params.sigma_k", 1.5)
        assert out["aggregator"]["params"]["sigma_k"] == 1.5
        assert build_config(out).aggregator.params["sigma_k"] == 1.5

    def test_does_not_mutate_source(self):
        cfg = build_config(cfg_dict())
        base = cfg.to_dict()
        set_by_path(base, "train.learning_rate", 0.5)
        assert base["train"]["learning_rate"] == 0.1

    def test_unknown_path_rejected(self):
        base = build_config(cfg_dict()).to_dict()
        with pytest.raises(ConfigError):
            set_by_path(base, "train.nope", 1)
        with pytest.raises(ConfigError):
            set_by_path(base, "nope.deep.path", 1)

    def test_non_scalar_target_rejected(self):
        base = build_config(cfg_dict()).to_dict()
        with pytest.raises(ConfigError):
            set_by_path(base, "train", {})
        with pytest.raises(ConfigError):
            set_by_path(base, "malicious.targets", [1])


def test_load_config_reports_json_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_load_config_refuses_a_repeated_top_level_key(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"seed": 1, "aggregator": {"name": "fedavg"}, "seed": 7}')
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert str(e.value) == "key 'seed' given twice in one object"


def test_load_config_refuses_a_repeated_nested_key(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"aggregator": {"name": "fedavg", "params": {}, "name": "krum"}}')
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert str(e.value) == "key 'name' given twice in one object"


def test_load_config_reports_an_integer_too_long_to_read(tmp_path):
    # json.loads refuses an integer over Python's int_max_str_digits (4,300)
    # with a plain ValueError, which is no JSONDecodeError
    import pathlib

    default = pathlib.Path(__file__).resolve().parent.parent / "configs" / "default.json"
    text = default.read_text().replace('"seed": 1,', '"seed": 1' + "0" * 5000 + ",")
    assert "0" * 5000 in text
    path = tmp_path / "long.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert e.value.path == ""
    assert e.value.message.startswith("invalid JSON: Exceeds the limit (4300 digits)")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(MINIMAL))
    cfg = load_config(str(path))
    assert cfg.aggregator.name == "fedavg"


def test_shipped_default_config_is_valid():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = load_config(str(root / "configs" / "default.json"))
    assert cfg.aggregator.name == "multi_krum"
    assert cfg.num_clients == 20
    assert cfg.rounds == 20
    assert cfg.malicious.targets == (0, 1, 2, 3)
    assert cfg.malicious.fraction == 1.0


def test_csv_effective_dict_keeps_only_csv_fields():
    cfg = build_config(cfg_dict(dataset={"type": "csv", "classes": 3, "csv_path": "x.csv"}))
    echo = cfg.to_dict()
    assert echo["dataset"] == {"type": "csv", "classes": 3, "csv_path": "x.csv"}
    assert echo["malicious"]["targets"] == []
    assert build_config(echo).to_dict() == echo


# Every real field with a bound, written out apart from config.RULES.
BOUNDED_REAL_FIELDS = [
    "eval_fraction",
    "malicious.fraction",
    "dataset.cluster_spread",
    "heterogeneity.dirichlet_alpha",
    "train.learning_rate",
    "train.l2_reg",
    "reputation.decay_lambda",
    "reputation.participation_threshold",
    "resource.alpha",
    "resource.beta",
]


@pytest.mark.parametrize("path", BOUNDED_REAL_FIELDS)
def test_nan_breaks_every_bound(path):
    raw = cfg_dict()
    node = raw
    *sections, leaf = path.split(".")
    for name in sections:
        node = node.setdefault(name, {})
    node[leaf] = float("nan")
    with pytest.raises(ConfigError) as e:
        build_config(raw)
    assert e.value.path == path
    assert e.value.message.endswith("got nan")


def test_heterogeneity_mode_is_one_of_the_partition_modes():
    for mode in HETEROGENEITY_MODES:
        assert build_config(cfg_dict(heterogeneity={"mode": mode})).heterogeneity.mode == mode
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(heterogeneity={"mode": "pathological"}))
    assert e.value.path == "heterogeneity.mode"


def test_every_rule_names_a_config_field():
    # A misspelt key would drop its bound without a word.
    for path in RULES:
        cls = SimConfig
        *sections, leaf = path.split(".")
        for name in sections:
            cls = get_type_hints(cls)[name]
        assert leaf in cls._fields, path


def _real_field_paths(cls, prefix=""):
    """Dotted path of every float field in cls and its section NamedTuples."""
    hints = get_type_hints(cls)
    for name in cls._fields:
        if hasattr(hints[name], "_fields"):
            yield from _real_field_paths(hints[name], prefix + name + ".")
        elif hints[name] is float:
            yield prefix + name


REAL_FIELDS = list(_real_field_paths(SimConfig))
REAL_PARAMS = [
    (name, p.name) for name, entry in AGGREGATORS.items() for p in entry.params
    if isinstance(p.default, float)
]
NON_FINITE = [float("inf"), float("-inf"), float("nan"), 10**400]


def test_real_field_lists_are_complete():
    assert set(BOUNDED_REAL_FIELDS) < set(REAL_FIELDS)
    assert "malicious.magnitude" in REAL_FIELDS
    assert ("sigma_pid", "kp") in REAL_PARAMS and ("geomedian", "weiszfeld_tol") in REAL_PARAMS


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("path", REAL_FIELDS)
def test_non_finite_real_field_is_rejected_at_its_path(path, value):
    raw = cfg_dict()
    node = raw
    *sections, leaf = path.split(".")
    for name in sections:
        node = node.setdefault(name, {})
    node[leaf] = value
    with pytest.raises(ConfigError) as e:
        build_config(raw)
    assert e.value.path == path


@pytest.mark.parametrize("value", NON_FINITE, ids=["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("name, param", REAL_PARAMS)
def test_non_finite_real_param_is_rejected_at_its_path(name, param, value):
    raw = cfg_dict(aggregator={"name": name, "params": {param: value}})
    with pytest.raises(ConfigError) as e:
        build_config(raw)
    assert e.value.path == "aggregator.params." + param


def test_seed_is_bounded_to_the_width_rng_keeps():
    assert build_config(cfg_dict(seed=2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(seed=2**64))
    assert e.value.path == "seed"


@pytest.mark.parametrize("path", ["rounds", "num_clients"])
def test_rounds_and_clients_are_bounded_to_a_stream_id_field(path):
    # round t and client c each fill a 24-bit field of substream(purpose, t, c)
    substream(6, STREAM_FIELD_LIMIT - 1, STREAM_FIELD_LIMIT - 1)
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(**{path: STREAM_FIELD_LIMIT + 1}))
    assert e.value.path == path
    assert e.value.message == f"must be <= {STREAM_FIELD_LIMIT}, got {STREAM_FIELD_LIMIT + 1}"
    assert build_config(cfg_dict(rounds=STREAM_FIELD_LIMIT)).rounds == STREAM_FIELD_LIMIT


@pytest.mark.parametrize("path", ["seed", "rounds"])
def test_an_integer_past_int_max_str_digits_is_a_config_error(path):
    # the message echoed it with str(), which refuses over 4,300 digits
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(**{path: 10**5000}))
    assert e.value.path == path
    assert e.value.message.endswith(", got an integer of more than 60 digits")


def test_a_client_minimum_past_int_max_str_digits_is_a_config_error():
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(aggregator={"name": "krum", "params": {"byzantine_f": 10**5000}}))
    assert e.value.path == "aggregator.params.byzantine_f"
    assert e.value.message == "krum needs at least an integer of more than 60 digits clients, got 20"


@pytest.mark.parametrize("raw", [{10**5000: 1}, {"dataset": {10**5000: 1}}], ids=["top", "nested"])
def test_an_unknown_key_past_int_max_str_digits_is_a_config_error(raw):
    # str() of the key raised a bare ValueError
    with pytest.raises(ConfigError) as e:
        build_config(raw)
    assert e.value.path.endswith("an integer of more than 60 digits")
    assert e.value.message == "unknown key"


def test_infinity_within_its_bounds_must_still_be_finite():
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(train={"learning_rate": float("inf")}))
    assert e.value.message == "must be finite, got inf"
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(train={"learning_rate": 10**400}))
    assert e.value.message == "must be finite, got an integer beyond float range"


def test_a_synthetic_dataset_must_fit_one_array():
    # 2 x 2**29 x features values of 8 bytes against an array's 2**63 - 1 bytes
    dataset = {"classes": 2, "samples_per_class": 2**29, "features": 2**30 - 1}
    assert build_config(cfg_dict(dataset=dataset)).dataset.features == 2**30 - 1
    with pytest.raises(ConfigError) as e:
        build_config(cfg_dict(dataset={**dataset, "features": 2**30}))
    assert e.value.path == "dataset"
    assert e.value.message == (
        f"classes x samples_per_class x features x 8 bytes exceed {2**63 - 1}, "
        "the most one array can hold"
    )

"""No valid config crashes: over small configs with attacks of any size,
on synthetic or csv data, ``run`` returns or raises ConfigError or
EngineError and warns nothing, and the CLI exits 0, 2, 3 or 4 with at most
one ``error:`` line; so does any config file, however deeply nested."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedwatch.aggregators import AGGREGATORS
from fedwatch.cli import main
from fedwatch.config import ConfigError, build_config
from fedwatch.core import STREAM_FIELD_LIMIT
from fedwatch.engine import EngineError, run


def aggregator_params(name: str, n: int):
    """A strategy for the named aggregator's params, within its bounds, that
    n clients are enough for."""
    f_for = lambda per_f: st.integers(0, (n - 3) // per_f)  # n >= per_f * f + 3
    if name == "trimmed_mean":
        return st.fixed_dictionaries({"trim_beta": st.integers(0, (n - 1) // 2)})
    if name == "krum":
        return st.fixed_dictionaries({"byzantine_f": f_for(2)})
    if name == "multi_krum":
        return f_for(2).flatmap(lambda f: st.fixed_dictionaries(
            {"byzantine_f": st.just(f), "multi_krum_m": st.integers(1, n - f)}
        ))
    if name == "bulyan":
        return st.fixed_dictionaries({"byzantine_f": f_for(4)})
    if name == "geomedian":
        return st.fixed_dictionaries({
            "weiszfeld_tol": st.sampled_from([1e-12, 1e-10, 1e-6]),
            "weiszfeld_max_iters": st.integers(1, 50),
        })
    if name == "sigma_pid":
        gain = st.floats(-3.0, 3.0)
        return st.fixed_dictionaries(
            {"sigma_k": st.floats(0.1, 5.0), "kp": gain, "ki": gain, "kd": gain}
        )
    return st.just({})


# Dataset sizes whose data no array can hold, each set alone on a small
# dataset: classes x samples_per_class x features x 8 bytes exceeds 2**63 - 1.
# Unrefused, 2**62 samples a class wraps numpy's count and crashes the
# process, and the others overflow inside numpy or the eval split.
OVERSIZED = [
    ("samples_per_class", 2**62),
    ("samples_per_class", 2**63),
    ("samples_per_class", 2**70),
    ("samples_per_class", 10**400),
    ("classes", 10**400),
    ("classes", 2**62),
    ("features", 2**70),
]


@st.composite
def small_configs(draw):
    n = draw(st.integers(3, 12))
    name = draw(st.sampled_from(list(AGGREGATORS)))
    dataset = {"classes": 3, "features": draw(st.sampled_from([2, 8, 64])), "samples_per_class": 20}
    if draw(st.integers(0, 9)) == 9:  # now and then a size no array can hold
        key, value = draw(st.sampled_from(OVERSIZED))
        dataset[key] = value
    return {
        "seed": draw(st.integers(0, 2**32)),
        "rounds": 2,
        "num_clients": n,
        "malicious": {
            "kind": draw(st.sampled_from(["sign_flip", "scale", "gaussian_noise"])),
            "magnitude": 10.0 ** draw(st.floats(0.0, 308.0)),
            "targets": draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)),
        },
        "dataset": dataset,
        "aggregator": {"name": name, "params": draw(aggregator_params(name, n))},
        "reputation": {"participation_threshold": draw(st.sampled_from([0.0, 0.5]))},
    }


# Finite deltas whose pairwise distances overflow: bulyan with noise near
# 1e153, which warned before the round ran under np.errstate.
HUGE_NOISE = {
    "seed": 0,
    "rounds": 2,
    "num_clients": 7,
    "malicious": {"kind": "gaussian_noise", "magnitude": 3e153, "targets": [0, 1]},
    "dataset": {"classes": 3, "features": 2, "samples_per_class": 20},
    "aggregator": {"name": "bulyan", "params": {"byzantine_f": 1}},
    "reputation": {"participation_threshold": 0.0},
}


def assert_cli_exits_cleanly(tmp: str, text: str) -> int:
    """Run ``fedwatch run`` on the config text: it exits 0 with nothing on
    stderr, or 2, 3 or 4 with one ``error:`` line and no output directory."""
    path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
    with open(path, "w") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", path, "--out", out])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
        assert not os.path.exists(out)
    return code


# Every warning fails these properties but one: on a failure, hypothesis's
# report hook imports libcst, whose import warns through mypy_extensions, and
# that warning as an error hid the falsifying example behind an INTERNALERROR.
warnings_fail = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def assert_runs_cleanly(raw: dict) -> None:
    """``run`` returns or raises ConfigError or EngineError, and the CLI
    exits cleanly, on the config raw."""
    try:
        run(build_config(raw))
    except (ConfigError, EngineError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        assert_cli_exits_cleanly(tmp, json.dumps(raw))


@warnings_fail
@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs())
@example(HUGE_NOISE)
def test_valid_config_runs_or_fails_cleanly(raw):
    assert_runs_cleanly(raw)


# A label or classes value past these cannot be counted or modelled: int64
# ends at 2**63 - 1, and 2**59 classes of even one feature need 2**63 bytes.
CSV_LABELS = [2**59, 2**60 - 2, 2**60 - 1, 2**63 - 1, 2**63, 2**64, 10**20]


@st.composite
def csv_configs(draw):
    """(config, csv text): a small config on a csv dataset whose labels run
    up to and beyond int64 and whose classes run up to 2**64. Classes is
    either small or more than any model array can hold, so no run asks for
    a large array."""
    raw = draw(small_configs())
    n, features = raw["num_clients"], draw(st.integers(1, 3))
    rows = draw(st.integers(2 * n, 40))
    labels = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    if draw(st.integers(0, 3)) == 0:
        labels[draw(st.integers(0, rows - 1))] = draw(
            st.one_of(st.integers(0, 2**64), st.sampled_from(CSV_LABELS))
        )
    values = np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=(rows, features))
    lines = [",".join([f"f{i}" for i in range(features)] + ["label"])]
    lines += [",".join(map(repr, row.tolist())) + f",{y}" for row, y in zip(values, labels)]
    classes = draw(st.integers(2**59, 2**64) if draw(st.integers(0, 3)) == 0 else st.integers(2, 4))
    raw["dataset"] = {"type": "csv", "classes": classes}
    raw["heterogeneity"] = {"mode": draw(st.sampled_from(["iid", "dirichlet"]))}
    return raw, "\n".join(lines) + "\n"


@warnings_fail
@settings(max_examples=60, deadline=None, derandomize=True)
@given(csv_configs())
def test_valid_csv_config_runs_or_fails_cleanly(case):
    raw, text = case
    with tempfile.TemporaryDirectory() as tmp:
        raw["dataset"]["csv_path"] = os.path.join(tmp, "data.csv")
        with open(raw["dataset"]["csv_path"], "w") as fh:
            fh.write(text)
        assert_runs_cleanly(raw)


def nested(depth: int, kind: str) -> str:
    """A JSON value of 0 inside depth arrays or single-key objects."""
    left, right = ("[", "]") if kind == "array" else ('{"a": ', "}")
    return left * depth + "0" + right * depth


# Config texts with one value replaced by "@": the whole document, a string,
# an integer, a list, an aggregator's params and one of its params.
NESTING_SLOTS = [
    "@",
    '{"description": @, "aggregator": {"name": "fedavg"}}',
    '{"seed": @, "aggregator": {"name": "fedavg"}}',
    '{"malicious": {"targets": @}, "aggregator": {"name": "fedavg"}}',
    '{"aggregator": {"name": "krum", "params": @}}',
    '{"rounds": 1, "aggregator": {"name": "krum", "params": {"byzantine_f": @}}}',
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(NESTING_SLOTS),
    st.one_of(st.integers(0, 1200), st.sampled_from([30_000, 50_000, 100_000])),
    st.sampled_from(["array", "object"]),
)
def test_a_config_nested_to_any_depth_exits_cleanly(slot, depth, kind):
    with tempfile.TemporaryDirectory() as tmp:
        assert_cli_exits_cleanly(tmp, slot.replace("@", nested(depth, kind)))


# Each ended in a RecursionError traceback: the parser gives up on nesting
# deeper than Python's recursion limit.
@pytest.mark.parametrize("text", [
    nested(100_000, "array"),
    NESTING_SLOTS[1].replace("@", nested(50_000, "array")),
    NESTING_SLOTS[4].replace("@", nested(30_000, "object")),
], ids=["document", "description", "params"])
def test_json_nested_past_the_parser_exits_2(tmp_path, text):
    assert assert_cli_exits_cleanly(str(tmp_path), text) == 2


def test_rounds_past_the_stream_id_field_exit_2(tmp_path):
    # Refused while the config is built; a run would reach round 2**24,
    # which no stream id can hold.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**HUGE_NOISE, "rounds": STREAM_FIELD_LIMIT + 1}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue() == f"error: rounds: must be <= {STREAM_FIELD_LIMIT}, got {STREAM_FIELD_LIMIT + 1}\n"
    assert not (tmp_path / "out").exists()


def test_an_integer_too_long_to_read_exits_2(tmp_path):
    # a seed of 5,001 digits, over Python's int_max_str_digits of 4,300
    default = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")
    with open(default) as fh:
        text = fh.read().replace('"seed": 1,', '"seed": 1' + "0" * 5000 + ",")
    path = tmp_path / "config.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue().startswith("error: invalid JSON: Exceeds the limit (4300 digits)")
    assert err.getvalue().count("\n") == 1
    assert not (tmp_path / "out").exists()


def cli_run(tmp_path, raw) -> tuple[int, str]:
    """The exit code and stderr of ``fedwatch run`` on the config raw."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


def test_a_long_value_is_echoed_in_a_short_error_line(tmp_path):
    # the whole list was echoed: a 600,036-character error line
    code, err = cli_run(tmp_path, {**HUGE_NOISE, "description": [0] * 200_000})
    assert code == 2
    assert err.startswith("error: description: expected a string, got [0, 0, ")
    assert len(err.encode()) <= 200 and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, start", [
    # the key was echoed whole: 100,021 and 5,029 bytes
    ({**HUGE_NOISE, "k" * 100_000: 1}, "error: kkk"),
    ({**HUGE_NOISE, "dataset": {**HUGE_NOISE["dataset"], "k" * 5_000: 1}}, "error: dataset.kkk"),
], ids=["top-level", "nested"])
def test_a_long_unknown_key_is_cut_in_the_error_line(tmp_path, raw, start):
    code, err = cli_run(tmp_path, raw)
    assert code == 2
    assert err.startswith(start) and err.endswith("...: unknown key\n")
    assert len(err.encode()) <= 200 and err.count("\n") == 1


def cli_argv(argv) -> tuple[int, str]:
    """The exit code and stderr of the CLI on argv, a usage error's too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


DEFAULT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json"))


@pytest.mark.parametrize("argv, code, start", [
    # each was echoed whole; --param, --seed and --config gave 50,030,
    # 50,046 and 100,061 bytes
    (["sweep", "--config", DEFAULT, "--param", "p" * 50_000, "--values", "1", "--out", "out"],
     2, "error: ppp"),
    (["run", "--config", DEFAULT, "--out", "out", "--seed", "z" * 50_000],
     2, "error: argument --seed: invalid int value: 'zzz"),
    (["run", "--config", "c" * 100_000, "--out", "out"], 4, "error: cannot read config: [Errno"),
    (["sweep", "--config", "c" * 100_000, "--param", "rounds", "--values", "1", "--out", "out"],
     4, "error: cannot read config: [Errno"),
    (["run", "--config", DEFAULT, "--out", "o" * 100_000], 4, "error: cannot write outputs: [Errno"),
], ids=["sweep-param", "run-seed", "run-config-path", "sweep-config-path", "run-out-path"])
def test_a_long_argument_is_cut_in_the_error_line(tmp_path, monkeypatch, argv, code, start):
    monkeypatch.chdir(tmp_path)
    got, err = cli_argv(argv)
    assert got == code
    assert err.startswith(start)
    assert len(err.encode()) <= 200 and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_an_io_error_keeps_oserrors_words(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_argv(["run", "--config", "nope.json", "--out", "out"]) == (
        4, "error: cannot read config: [Errno 2] No such file or directory: 'nope.json'\n"
    )


@pytest.mark.parametrize("key, value", OVERSIZED, ids=lambda v: "10**400" if v == 10**400 else None)
def test_a_dataset_no_array_can_hold_exits_2(tmp_path, key, value):
    # Refused while the config is built, before any array is asked for.
    code, err = cli_run(tmp_path, {**HUGE_NOISE, "dataset": {**HUGE_NOISE["dataset"], key: value}})
    assert code == 2
    assert err.startswith("error: dataset: ") and err.count("\n") == 1
    assert "the most one array can hold" in err
    assert not (tmp_path / "out").exists()


def csv_run(tmp_path, rows, classes, mode="iid") -> tuple[int, str]:
    """``cli_run`` on a 30-row, 2-feature csv ending in the given rows."""
    lines = ["f0,f1,label"] + [f"{i},{i % 3},{i % 2}" for i in range(30)] + rows
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    dataset = {"type": "csv", "csv_path": str(tmp_path / "data.csv"), "classes": classes}
    return cli_run(tmp_path, {**HUGE_NOISE, "dataset": dataset, "heterogeneity": {"mode": mode}})


def test_a_csv_label_beyond_int64_exits_2(tmp_path):
    code, err = csv_run(tmp_path, ["1.0,2.0,99999999999999999999"], 2)
    assert code == 2
    assert err == f"error: dataset.csv_path: {tmp_path / 'data.csv'}: line 32: label beyond int64\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("classes, rows", [
    (10**30, []),  # asked numpy for a model no array can hold
    (2**63, [f"1.0,2.0,{2**63 - 1}"]),  # reached np.bincount, which corrupts the heap
])
def test_csv_classes_no_model_array_can_hold_exits_2(tmp_path, classes, rows):
    code, err = csv_run(tmp_path, rows, classes, mode="dirichlet")
    assert code == 2
    assert err.startswith("error: dataset.classes: classes x (csv features + 1) x 8 bytes exceed")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_sweep_integer_of_too_many_digits_exits_2(tmp_path):
    # float() took it as inf, and the error spoke of inf
    default = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "default.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", default, "--param", "rounds", "--values", "1" * 5000,
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert err.getvalue().startswith("error: rounds: Exceeds the limit (4300 digits)")
    assert "value has 5000 digits" in err.getvalue() and err.getvalue().count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_dataset_an_array_could_hold_still_runs_out_of_memory(tmp_path):
    # 3 x 10**17 x 2 x 8 bytes is within an array's limit, so the config is
    # valid; the request for 2.4e18 bytes of labels fails at once on any
    # machine, with no memory allocated, and the run exits 3.
    code, err = cli_run(
        tmp_path, {**HUGE_NOISE, "dataset": {**HUGE_NOISE["dataset"], "samples_per_class": 10**17}}
    )
    assert code == 3
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()

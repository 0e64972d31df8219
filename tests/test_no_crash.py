"""No valid config crashes: over small configs with attacks of any size,
``run`` returns or raises ConfigError or EngineError and warns nothing, and
the CLI exits 0, 2, 3 or 4 with at most one ``error:`` line."""

import contextlib
import io
import json
import os
import tempfile

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


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs())
@example(HUGE_NOISE)
def test_valid_config_runs_or_fails_cleanly(raw):
    try:
        run(build_config(raw))
    except (ConfigError, EngineError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


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


def cli_run(tmp_path, raw) -> tuple[int, str]:
    """The exit code and stderr of ``fedwatch run`` on the config raw."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("key, value", OVERSIZED, ids=lambda v: "10**400" if v == 10**400 else None)
def test_a_dataset_no_array_can_hold_exits_2(tmp_path, key, value):
    # Refused while the config is built, before any array is asked for.
    code, err = cli_run(tmp_path, {**HUGE_NOISE, "dataset": {**HUGE_NOISE["dataset"], key: value}})
    assert code == 2
    assert err.startswith("error: dataset: ") and err.count("\n") == 1
    assert "the most one array can hold" in err
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

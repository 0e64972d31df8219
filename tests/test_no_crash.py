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


@st.composite
def small_configs(draw):
    n = draw(st.integers(3, 12))
    name = draw(st.sampled_from(list(AGGREGATORS)))
    return {
        "seed": draw(st.integers(0, 2**32)),
        "rounds": 2,
        "num_clients": n,
        "malicious": {
            "kind": draw(st.sampled_from(["sign_flip", "scale", "gaussian_noise"])),
            "magnitude": 10.0 ** draw(st.floats(0.0, 308.0)),
            "targets": draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)),
        },
        "dataset": {
            "classes": 3,
            "features": draw(st.sampled_from([2, 8, 64])),
            "samples_per_class": 20,
        },
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

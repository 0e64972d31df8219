import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch import aggregators
from fedwatch.aggregators import AGGREGATORS
from fedwatch.config import ConfigError, build_config
from fedwatch.core import ClientUpdate, ModelParams


def expected_min_clients(name, params):
    """Published preconditions, written out independently of the registry."""
    f = params.get("byzantine_f", 1)
    return {
        "fedavg": 1,
        "trimmed_mean": 2 * params.get("trim_beta", 1) + 1,
        "krum": 2 * f + 3,  # Blanchard et al., 2017
        "multi_krum": max(2 * f + 3, params.get("multi_krum_m", 1) + f),
        "bulyan": 4 * f + 3,  # El Mhamdi et al., 2018
        "geomedian": 1,
        "sigma_pid": 3,
    }[name]


@st.composite
def aggregator_cases(draw):
    name = draw(st.sampled_from(sorted(AGGREGATORS)))
    params = {}
    if name == "trimmed_mean":
        params["trim_beta"] = draw(st.integers(0, 5))
    if name in ("krum", "multi_krum", "bulyan"):
        params["byzantine_f"] = draw(st.integers(0, 4))
    if name == "multi_krum":
        params["multi_krum_m"] = draw(st.integers(1, 12))
    return name, params, draw(st.integers(1, 20))


def updates(n):
    rng = np.random.default_rng(n)
    return [
        ClientUpdate(
            client=i,
            delta=ModelParams(rng.standard_normal(4), (1, 3)),
            num_samples=1,
        )
        for i in range(n)
    ]


class TestMinClients:
    @settings(max_examples=200, deadline=None)
    @given(aggregator_cases())
    def test_config_accepts_exactly_at_the_minimum(self, case):
        name, params, n = case
        need = expected_min_clients(name, params)
        raw = {"num_clients": n, "aggregator": {"name": name, "params": params}}
        if n >= need:
            conf = build_config(raw)
            assert AGGREGATORS[name].min_clients(conf.aggregator.params) == need
        else:
            with pytest.raises(ConfigError) as e:
                build_config(raw)
            assert e.value.path == "num_clients" or e.value.path.startswith("aggregator.params.")

    @settings(max_examples=200, deadline=None)
    @given(aggregator_cases())
    def test_function_rejects_exactly_below_the_minimum(self, case):
        name, params, n = case
        fn = getattr(aggregators, name)
        ups = updates(n)
        call = (lambda: fn(ups, None, **params)) if name == "sigma_pid" else (lambda: fn(ups, **params))
        if n >= expected_min_clients(name, params):
            call()
        else:
            with pytest.raises(ValueError):
                call()

    def test_config_blames_the_first_missed_minimum(self):
        with pytest.raises(ConfigError) as e:
            build_config({"num_clients": 2, "aggregator": {"name": "sigma_pid"}})
        assert e.value.path == "num_clients"
        # f=2 needs 7 under both rules; m=6 needs 8 under the second only
        mk = {"name": "multi_krum", "params": {"byzantine_f": 2, "multi_krum_m": 6}}
        with pytest.raises(ConfigError) as e:
            build_config({"num_clients": 6, "aggregator": mk})
        assert e.value.path == "aggregator.params.byzantine_f"
        with pytest.raises(ConfigError) as e:
            build_config({"num_clients": 7, "aggregator": mk})
        assert e.value.path == "aggregator.params.multi_krum_m"

    @pytest.mark.parametrize("name, param", [("sigma_pid", "sigma_k"), ("geomedian", "weiszfeld_tol")])
    def test_nan_bound_rejected_by_config_and_function(self, name, param):
        # Config and functions apply one bound rule, so a NaN cannot pass
        # validation and then fail inside the run.
        raw = {"num_clients": 5, "aggregator": {"name": name, "params": {param: float("nan")}}}
        with pytest.raises(ConfigError) as e:
            build_config(raw)
        assert e.value.path == "aggregator.params." + param
        fn = getattr(aggregators, name)
        args = (updates(5), None) if name == "sigma_pid" else (updates(5),)
        with pytest.raises(ValueError):
            fn(*args, **{param: float("nan")})


class TestRegistryEntries:
    def test_signature_defaults_match_the_registry(self):
        # geomedian and sigma_pid keep keyword defaults for direct calls;
        # they must stay the registry's defaults.
        for entry in AGGREGATORS.values():
            sig = inspect.signature(entry.fn).parameters
            for p in entry.params:
                if sig[p.name].default is not inspect.Parameter.empty:
                    assert sig[p.name].default == p.default, (entry.name, p.name)

    def test_params_are_the_function_keywords(self):
        for entry in AGGREGATORS.values():
            skip = 2 if entry.threads_state else 1
            names = list(inspect.signature(entry.fn).parameters)[skip:]
            assert names == [p.name for p in entry.params], entry.name

    def test_aggregate_dispatches_by_name(self):
        ups = updates(7)
        marker = aggregators.PidState(np.zeros(1), np.zeros(1))
        decision, state = aggregators.aggregate("krum", {"byzantine_f": 1}, ups, marker)
        assert state is marker
        assert decision.included == aggregators.krum(ups, 1).included
        sigma = {p.name: p.default for p in AGGREGATORS["sigma_pid"].params}
        _, state = aggregators.aggregate("sigma_pid", sigma, ups, None)
        assert isinstance(state, aggregators.PidState) and state.prev_error is not None
        with pytest.raises(ValueError):
            aggregators.aggregate("median", {}, ups)


def call(name, ups, **params):
    """The named aggregator's decision on ups, called directly."""
    fn = getattr(aggregators, name)
    return fn(ups, None, **params)[0] if name == "sigma_pid" else fn(ups, **params)


def defaults(name):
    return {p.name: p.default for p in AGGREGATORS[name].params}


def decision_bytes(d):
    return d.included, d.excluded, d.overhead_ops, d.delta.values.tobytes(), repr(d.info)


REGISTRY_PARAMS = [(e.name, p) for e in AGGREGATORS.values() for p in e.params]
INT_PARAMS = [(name, p.name) for name, p in REGISTRY_PARAMS if type(p.default) is int]


class TestParamTypes:
    @pytest.mark.parametrize("name, param", REGISTRY_PARAMS, ids=[f"{n}.{p.name}" for n, p in REGISTRY_PARAMS])
    def test_function_and_config_refuse_the_same_values_in_the_same_words(self, name, param):
        wrong = [True, "2", None] + ([2.7] if type(param.default) is int else [10**400])
        for v in wrong:
            raw = {"num_clients": 20, "aggregator": {"name": name, "params": {param.name: v}}}
            with pytest.raises(ConfigError) as conf:
                build_config(raw)
            assert conf.value.path == "aggregator.params." + param.name
            with pytest.raises(ValueError) as direct:
                call(name, updates(20), **{**defaults(name), param.name: v})
            assert str(direct.value) == f"{name}.{param.name}: {conf.value.message}", v

    def test_direct_calls_that_ran_on_wrong_values_now_refuse_or_convert(self):
        ups = updates(20)
        with pytest.raises(ValueError, match=r"^krum\.byzantine_f: expected an integer, got 2\.7$"):
            aggregators.krum(ups, byzantine_f=2.7)
        with pytest.raises(ValueError, match=r"^trimmed_mean\.trim_beta: expected an integer, got 1\.9$"):
            aggregators.trimmed_mean(ups, trim_beta=1.9)
        with pytest.raises(ValueError, match=r"^krum\.byzantine_f: expected an integer, got True$"):
            aggregators.krum(ups, byzantine_f=True)
        with pytest.raises(ValueError, match=r"^sigma_pid\.sigma_k: expected a number, got '2'$"):
            aggregators.sigma_pid(ups, None, sigma_k="2")
        with pytest.raises(ValueError, match=r"^krum\.byzantine_f: expected an integer, got 2\.0$"):
            aggregators.krum(ups, 2.0)
        five = aggregators.geomedian(ups, weiszfeld_max_iters=5)
        assert five.info["iterations"] == 5
        assert decision_bytes(aggregators.geomedian(ups, weiszfeld_max_iters=np.int64(5))) == decision_bytes(five)

    @pytest.mark.parametrize("name, param", INT_PARAMS)
    def test_a_numpy_integer_decides_as_the_int_and_an_integral_real_is_refused(self, name, param):
        value = {"trim_beta": 2, "byzantine_f": 2, "multi_krum_m": 3, "weiszfeld_max_iters": 5}[param]
        ups = updates(20)
        want = decision_bytes(call(name, ups, **{**defaults(name), param: value}))
        for v in (np.int64(value), np.int32(value)):
            assert decision_bytes(call(name, ups, **{**defaults(name), param: v})) == want, repr(v)
        for v in (float(value), np.float64(value), np.float32(value)):
            raw = {"num_clients": 20, "aggregator": {"name": name, "params": {param: v}}}
            with pytest.raises(ConfigError) as conf:
                build_config(raw)
            with pytest.raises(ValueError) as direct:
                call(name, ups, **{**defaults(name), param: v})
            assert str(direct.value) == f"{name}.{param}: {conf.value.message}", repr(v)

    def test_sigma_pid_int_gains_decide_as_real_gains(self):
        def two_rounds(**gains):
            state, out = None, []
            for n in (9, 12):  # the second round threads the first one's state
                decision, state = aggregators.sigma_pid(updates(n), state, **gains)
                out += [decision_bytes(decision), state.prev_error.tobytes(), state.integral.tobytes()]
            return out

        want = two_rounds(sigma_k=2.0, kp=3.0, ki=2.0, kd=-1.0)
        assert two_rounds(sigma_k=2, kp=3, ki=2, kd=-1) == want
        assert two_rounds(sigma_k=np.int64(2), kp=np.int32(3), ki=2, kd=np.float32(-1)) == want

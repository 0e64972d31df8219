"""The benchmark tracer's contract with ``fedwatch.engine``.

``benchmark/tracing.py`` swaps each name in its ``WRAPPED`` table on the
engine module for a counting wrapper and reads some calls' arguments by
position. This checks, on a run whose counts are known, that every name is
still there, that the counters still see the arguments they expect, and
that the originals come back afterwards.
"""

import importlib.util
import pathlib

from fedwatch import engine
from fedwatch.config import build_config
from fedwatch.trainer import TrainingDivergedError

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    path = ROOT / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def config():
    return build_config({
        "seed": 4,
        "rounds": 2,
        "num_clients": 6,
        "malicious": {"kind": "sign_flip", "targets": [0]},
        "dataset": {"classes": 3, "features": 4, "samples_per_class": 30},
        "aggregator": {"name": "krum", "params": {"byzantine_f": 1}},
    })


def test_traced_run_counts_and_restores():
    tracing = load_tracing()
    # A name missing from the engine fails here, as the tracer would.
    originals = {attr: getattr(engine, attr) for attr in tracing.WRAPPED}
    cfg = config()
    tracer = tracing.Tracer(engine, TrainingDivergedError)
    with tracer.installed():
        assert all(getattr(engine, a) is not fn for a, fn in originals.items())
        engine.run(cfg)
    counts = tracer.deterministic_counts()[tracer.sim]
    assert counts["trainer.local_train.calls"] == 12
    assert counts["aggregators.aggregate.calls"] == 2
    assert counts["attacks.poison_update.calls"] == 2
    assert counts["aggregators.submitted"] == 12
    # 12 calls on iid shards of 12 rows, each 2 epochs of ceil(12 / 16) = 1
    # batch: the count that trainer.us_per_step divides by
    assert counts["trainer.sgd_steps"] == 24
    assert counts["engine.run.calls"] == 1
    assert counts["trust.compute_indicators.calls"] == 2
    assert counts["trust.ledger_record.calls"] == 2
    for attr, fn in originals.items():
        assert getattr(engine, attr) is fn, attr
    tracing.assert_clean(engine, originals)

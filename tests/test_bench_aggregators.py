import importlib.util
import pathlib

import pytest

from fedwatch.aggregators import AGGREGATORS

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_aggregators.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_aggregators", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_aggregator_and_size(capsys):
    # sizes are tiny and no timing is asserted: this checks the script runs
    assert load_script().main(["--n", "1,7", "--d", "2,3", "--reps", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")[1:]]
    timed = [r for r in rows if r[3] != "skipped"]
    assert [(r[0], r[1], r[2]) for r in timed if r[1] == "7"] == [
        (name, "7", d) for name in AGGREGATORS for d in ("2", "3")
    ]
    # one client is below every other registry minimum (trim_beta = 1 // 10 = 0)
    assert {r[0] for r in timed if r[1] == "1"} == {"fedavg", "trimmed_mean", "geomedian"}
    for r in timed:
        assert float(r[3]) >= 0.0
        assert int(r[4]) > 0


def test_aggregators_filter_times_only_the_named_ones(capsys):
    argv = ["--aggregators", "bulyan,krum", "--n", "7", "--d", "3", "--reps", "1"]
    assert load_script().main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")[1:]]
    # rows keep registry order, whatever order the names came in
    assert [(r[0], r[1], r[2]) for r in rows] == [("krum", "7", "3"), ("bulyan", "7", "3")]


def test_unknown_aggregator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--aggregators", "bulyan,nope", "--n", "7", "--d", "3"])
    assert exc.value.code == 2
    assert "nope" in capsys.readouterr().err

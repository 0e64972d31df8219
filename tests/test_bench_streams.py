import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_streams.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_streams", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_stream_count(capsys):
    # counts are tiny and no timing is asserted: this checks the script runs
    assert load_script().main(["--k", "1,4", "--reps", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["1", "4"]
    for r in rows:
        assert float(r[1]) >= 0.0
        assert float(r[2]) >= 0.0


def test_builds_the_same_streams_both_ways():
    script = load_script()
    ids = [5, 9, 5]
    single, batch = script.one_by_one(ids), script.batched(ids)
    assert [r._gen.bit_generator.state for r in single] == [r._gen.bit_generator.state for r in batch]


@pytest.mark.parametrize("argv", [["--k", "1,x"], ["--k", "0"], ["--reps", "0"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        load_script().main(argv)

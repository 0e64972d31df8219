import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_trainer.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trainer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_shape_size_and_batch(capsys):
    # sizes are tiny and no timing is asserted: this checks the script runs
    argv = ["--n", "1,5", "--shape", "2x1,3x4", "--batch", "2,8", "--reps", "1"]
    assert load_script().main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        (shape, n, batch, steps)
        for shape in ("2x1", "3x4")
        for n, batch, steps in (
            ("1", "2", "2"), ("1", "8", "2"), ("5", "2", "6"), ("5", "8", "2"),
        )
    ]
    for r in rows:
        assert float(r[4]) >= 0.0
        assert float(r[5]) >= 0.0


def test_rejects_malformed_shape():
    with pytest.raises(SystemExit):
        load_script().main(["--shape", "10by32"])

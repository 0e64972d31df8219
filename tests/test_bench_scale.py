import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_scale.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_cell_with_phases_and_rss(tmp_path, capsys):
    # sizes are tiny and no timing is asserted: this checks the script runs
    script = load_script()
    script.BULYAN_MAX_N = 5
    out = tmp_path / "BENCH_scale.json"
    argv = ["--n", "5,6", "--aggregators", "fedavg,bulyan", "--out", str(out)]
    assert script.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["rounds"] == 2
    assert set(report["machine"]) == {"cpu", "cpus", "machine", "python", "numpy"}
    rows = report["rows"]
    assert [(r["n"], r["aggregator"]) for r in rows] == [
        (5, "fedavg"), (5, "bulyan"), (6, "fedavg"), (6, "bulyan"),
    ]
    assert "skipped" in rows[3] and "seconds" not in rows[3]
    for r in rows[:3]:
        assert set(r["seconds"]) == set(script.PHASES) | {"run", "other"}
        assert all(isinstance(v, float) for v in r["seconds"].values())
        assert r["peak_rss_mb"] > 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + len(rows)


def test_scale_config_is_valid_at_every_size():
    from fedwatch.config import build_config

    script = load_script()
    for n in (200, 1000, 2000, 5000):
        for name in ("fedavg", "sigma_pid", "krum", "bulyan"):
            conf = build_config(script.scale_config(n, name))
            assert conf.num_clients == n and conf.rounds == 2
            assert conf.dataset.classes * (conf.dataset.features + 1) == 330

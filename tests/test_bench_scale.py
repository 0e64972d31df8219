import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_scale.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_cell_in_table_order(tmp_path, capsys):
    # sizes are tiny and no timing is asserted: this checks the script runs
    script = load(SCRIPT, "bench_scale")
    script.CELLS = [(5, 1, 2, ("fedavg", "bulyan")), (6, 3, 3, ("fedavg",))]
    out = tmp_path / "BENCH_scale.json"
    assert script.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    system = load(ROOT / "benchmark" / "system.py", "benchmark_system")
    assert set(report["environment"]) == set(system.environment(str(ROOT)))
    rows = report["rows"]
    assert [(r["n"], r["d"], r["rounds"], r["aggregator"]) for r in rows] == [
        (5, 20, 2, "fedavg"), (5, 20, 2, "bulyan"), (6, 40, 3, "fedavg"),
    ]
    tracing = load(ROOT / "benchmark" / "tracing.py", "benchmark_tracing")
    phases = set(tracing.WRAPPED) - {"build_config", "write_run_outputs"} | {"other"}
    for r in rows:
        assert set(r["seconds"]) == phases
        assert all(isinstance(v, float) for v in r["seconds"].values())
        assert r["peak_rss_mb"] > 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + len(rows)


def test_n_and_aggregators_keep_only_matching_cells(tmp_path, monkeypatch):
    script = load(SCRIPT, "bench_scale")
    measured = []

    def fake_measure(n, features, rounds, aggregator, log_dir):
        measured.append((n, features, rounds, aggregator))
        return {"seconds": dict.fromkeys(script.PHASES + ("run", "other"), 0.0), "peak_rss_mb": 1.0}

    monkeypatch.setattr(script, "measure", fake_measure)
    argv = ["--n", "200,5000", "--aggregators", "krum,bulyan", "--out", str(tmp_path / "b.json")]
    assert script.main(argv) == 0
    assert measured == [
        (200, 32, 2, "krum"), (200, 32, 2, "bulyan"), (5000, 32, 2, "krum"),
        (200, 256, 2, "krum"), (200, 256, 2, "bulyan"),
        (200, 1024, 2, "krum"), (200, 1024, 2, "bulyan"),
        (200, 4096, 2, "krum"), (200, 4096, 2, "bulyan"),
    ]


@pytest.mark.parametrize("argv, message", [
    (["--aggregators", "typo"], "no cell of the table has the --n and --aggregators asked for"),
    (["--n", "7"], "no cell of the table has the --n and --aggregators asked for"),
    (["--n", "x"], "argument --n: invalid int_list value: 'x'"),
    (["--n", "200,,1000"], "argument --n: invalid int_list value: '200,,1000'"),
], ids=["unknown-aggregator", "unknown-n", "bad-n", "empty-item"])
def test_a_bad_selection_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    # the first two wrote a record of 0 rows over --out, the others ended in a traceback
    script = load(SCRIPT, "bench_scale")
    monkeypatch.setattr(script, "measure", None)  # no cell may run
    out = tmp_path / "BENCH_scale.json"
    with pytest.raises(SystemExit) as e:
        script.main(argv + ["--out", str(out)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert not out.exists()


def test_scale_config_is_valid_in_every_cell():
    from fedwatch.config import build_config

    script = load(SCRIPT, "bench_scale")
    cells = script.cells(None, None)
    assert len(cells) == 50
    assert [c for c in cells if c[0] == 20] == [(20, 4096, 2, "fedavg"), (20, 4096, 200, "fedavg")]
    for n, features, rounds, name in cells:
        conf = build_config(script.scale_config(n, features, rounds, name))
        assert conf.num_clients == n and conf.rounds == rounds
        assert conf.dataset.classes * (conf.dataset.features + 1) == script.CLASSES * (features + 1)


def test_every_registry_rule_is_measured_at_each_size_of_both_curves():
    from fedwatch.config import AGGREGATORS

    script = load(SCRIPT, "bench_scale")
    cells = script.cells(None, None)
    for n, features in [(200, 32), (1000, 32), (2000, 32), (200, 256), (200, 1024), (200, 4096)]:
        assert [c[3] for c in cells if c[:3] == (n, features, 2)] == list(AGGREGATORS)
    assert [c[3] for c in cells if c[0] == 5000] == [name for name in AGGREGATORS if name != "bulyan"]
    assert [script.scale_config(200, 32, 2, name)["aggregator"]["params"] for name in ("multi_krum", "trimmed_mean")] \
        == [{"byzantine_f": 20, "multi_krum_m": 100}, {"trim_beta": 20}]


def test_a_row_carries_its_runs_overhead_ops_and_aggregate_ns_per_op(tmp_path):
    from fedwatch import engine
    from fedwatch.config import build_config

    script = load(SCRIPT, "bench_scale")
    row = script.measure(5, 1, 2, "multi_krum", str(tmp_path))
    decisions = engine.run(build_config(script.scale_config(5, 1, 2, "multi_krum"))).decisions
    assert row["overhead_ops"] == sum(d.overhead_ops for d in decisions) > 0
    assert row["ns_per_overhead_op"] == row["seconds"]["aggregate"] * 1e9 / row["overhead_ops"]


def test_committed_record_has_one_row_per_cell_of_the_table():
    script = load(SCRIPT, "bench_scale")
    system = load(ROOT / "benchmark" / "system.py", "benchmark_system")
    report = json.loads((ROOT / "BENCH_scale.json").read_text())
    assert set(report["environment"]) == set(system.environment(str(ROOT)))
    assert [(r["n"], r["d"], r["rounds"], r["aggregator"]) for r in report["rows"]] == [
        (n, script.CLASSES * (features + 1), rounds, name)
        for n, features, rounds, name in script.cells(None, None)]


def test_cell_child_times_the_phases_it_is_handed_and_imports_no_benchmark_module():
    code = "\n".join([
        "import runpy, sys",
        f"sys.argv = [{str(SCRIPT)!r}, '--cell', '5,1,2,fedavg,local_train,aggregate']",
        "try:",
        "    runpy.run_path(sys.argv[0], run_name='__main__')",
        "except SystemExit as e:",
        "    assert e.code == 0, e.code",
        "print(sorted(name for name in ('system', 'tracing') if name in sys.modules))",
    ])
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    *_, seconds, imported = done.stdout.splitlines()
    assert set(json.loads(seconds)) == {"local_train", "aggregate", "run", "other"}
    assert imported == "[]"


def test_a_row_reads_the_childs_own_peak_and_wait4_only_without_it(tmp_path, monkeypatch):
    script = load(SCRIPT, "bench_scale")
    seconds = json.dumps(dict.fromkeys(["run", "other"], 0.0))

    def child_printing(*lines):
        def run_child(argv, cwd, env, log, timeout):
            pathlib.Path(log).write_text("\n".join(lines) + "\n")
            return 0.1, 0, 999.0  # wait4's figure, in MB
        return run_child

    monkeypatch.setattr(script, "run_child", child_printing("VmHWM:\t   40960 kB", seconds))
    assert script.measure(5, 1, 2, "fedavg", str(tmp_path))["peak_rss_mb"] == 40.0
    monkeypatch.setattr(script, "run_child", child_printing(seconds))
    assert script.measure(5, 1, 2, "fedavg", str(tmp_path))["peak_rss_mb"] == 999.0


def test_cell_child_prints_its_own_peak_before_its_result_line():
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT), "--cell", "5,1,2,fedavg,local_train"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    *_, peak, seconds = done.stdout.splitlines()
    assert set(json.loads(seconds)) == {"local_train", "run", "other"}
    if os.path.exists("/proc/self/status"):
        label, kb, unit = peak.split()
        assert (label, unit) == ("VmHWM:", "kB") and int(kb) > 0

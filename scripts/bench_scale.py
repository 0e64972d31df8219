"""Measure how a run grows with the number of clients n and the model size d.

Runs ``engine.run`` for 2 rounds in each cell of ``CELLS``: the n-curve, n in
{200, 1000, 2000, 5000} at d = 330 (10 classes x 32 features + 10 biases),
with bulyan only up to n = 2000, where its selection alone takes seconds a
call; then the d-curve, features in {256, 1024, 4096} at n = 200, so d goes
up to 40,970. Everything else is ``configs/default.json``: 4 label-flippers,
Dirichlet alpha 0.4, reputation on. 2n samples per class give 16 training
rows per client on average. krum and bulyan run with f = n // 10.

Each cell runs in a child of its own through the benchmark's ``run_child``,
so its peak RSS is that run's alone. The child sums the seconds of each
layer function ``engine.run`` calls, under the benchmark tracer's engine
names, and keeps no spans; ``other`` is the rest of ``engine.run``. The rows
and the benchmark's environment record go to ``BENCH_scale.json`` at the
repository root. ``--n`` and ``--aggregators`` keep only the matching cells.

Usage: PYTHONPATH=src python scripts/bench_scale.py [--n 200,1000,2000,5000]
                                                [--aggregators fedavg,sigma_pid,krum,bulyan]
                                                [--out BENCH_scale.json]
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

import fedwatch
from fedwatch import engine

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
from system import environment, run_child  # noqa: E402
from tracing import WRAPPED  # noqa: E402

ROUNDS = 2
CLASSES = 10
CHILD_TIMEOUT_S = 600.0
# engine names timed in the child: all that engine.run calls
PHASES = tuple(name for name in WRAPPED if name not in ("build_config", "run", "write_run_outputs"))
ALL = ("fedavg", "sigma_pid", "krum", "bulyan")
# (n, features, aggregators), in the order they run
CELLS = [
    (200, 32, ALL), (1000, 32, ALL), (2000, 32, ALL), (5000, 32, ("fedavg", "sigma_pid", "krum")),
    (200, 256, ALL), (200, 1024, ALL), (200, 4096, ALL),
]


def scale_config(n: int, features: int, aggregator: str) -> dict:
    raw = json.loads((ROOT / "configs" / "default.json").read_text())
    params = {"byzantine_f": n // 10} if aggregator in ("krum", "bulyan") else {}
    raw.update(
        rounds=ROUNDS,
        num_clients=n,
        aggregator={"name": aggregator, "params": params},
    )
    raw["dataset"].update(classes=CLASSES, features=features, samples_per_class=2 * n)
    return raw


def run_cell(n: int, features: int, aggregator: str) -> dict:
    """Run one config in this process; per-phase seconds by engine name."""
    seconds = dict.fromkeys(PHASES + ("run",), 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start
        return wrapper

    config = engine.build_config(scale_config(n, features, aggregator))
    for name in PHASES:
        setattr(engine, name, timed(name, getattr(engine, name)))
    timed("run", engine.run)(config)
    seconds["other"] = seconds["run"] - sum(seconds[name] for name in PHASES)
    return seconds


def measure(n: int, features: int, aggregator: str, log_dir: str) -> dict:
    """Run one cell in a child: its phase seconds and its peak RSS in MB."""
    # the child imports the fedwatch this process did
    src = str(pathlib.Path(fedwatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--cell", f"{n},{features},{aggregator}"]
    log = os.path.join(log_dir, f"{n}_{features}_{aggregator}.log")
    _wall, code, peak = run_child(argv, str(ROOT), env, log, CHILD_TIMEOUT_S)
    with open(log) as fh:
        lines = fh.read().splitlines()
    if code != 0:
        tail = "\n".join(lines[-5:])
        raise RuntimeError(f"n={n} features={features} {aggregator}: child exited {code}:\n{tail}")
    return {"seconds": json.loads(lines[-1]), "peak_rss_mb": peak}


def cells(sizes, names) -> list[tuple[int, int, str]]:
    """The table's (n, features, aggregator) cells whose n and aggregator are asked for."""
    return [(n, features, name) for n, features, table_names in CELLS for name in table_names
            if (sizes is None or n in sizes) and (names is None or name in names)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", help="client counts to keep, comma-separated (default: all)")
    parser.add_argument("--aggregators", help="aggregators to keep, comma-separated (default: all)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    parser.add_argument("--cell", help=argparse.SUPPRESS)  # "n,features,aggregator": run one, print JSON
    args = parser.parse_args(argv)
    if args.cell:
        n, features, aggregator = args.cell.split(",")
        print(json.dumps(run_cell(int(n), int(features), aggregator)))
        return 0
    sizes = None if args.n is None else [int(v) for v in args.n.split(",")]
    names = None if args.aggregators is None else args.aggregators.split(",")

    rows = []
    print(f"{'aggregator':<10} {'n':>5} {'d':>6} {'run_s':>8} {'generate':>9} {'partition':>9} "
          f"{'train':>8} {'aggregate':>9} {'other':>8} {'rss_mb':>8}")
    with tempfile.TemporaryDirectory() as log_dir:
        for n, features, aggregator in cells(sizes, names):
            row = {"n": n, "d": CLASSES * (features + 1), "aggregator": aggregator}
            row.update(measure(n, features, aggregator, log_dir))
            rows.append(row)
            s = row["seconds"]
            print(f"{aggregator:<10} {n:>5} {row['d']:>6} {s['run']:>8.3f} {s['generate_synthetic']:>9.3f} "
                  f"{s['partition']:>9.3f} {s['local_train']:>8.3f} {s['aggregate']:>9.3f} "
                  f"{s['other']:>8.3f} {row['peak_rss_mb']:>8.1f}", flush=True)
    report = {
        "rounds": ROUNDS,
        "config": "configs/default.json with 10 classes x (d/10 - 1) features, 2n samples per class",
        "environment": environment(str(ROOT)),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

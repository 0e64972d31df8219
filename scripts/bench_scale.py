"""Measure how a run grows with the number of clients n, the model size d
and the number of rounds.

Runs ``engine.run`` in each cell of ``CELLS``, for every aggregator of the
registry: the n-curve, n in {200, 1000, 2000, 5000} at d = 330 (10 classes
x 32 features + 10 biases), with bulyan only up to n = 2000, where its
selection alone takes seconds a call; then the d-curve, features in
{256, 1024, 4096} at n = 200, so d goes up to 40,970; each for 2 rounds.
Then fedavg at n = 20 and d = 40,970 for 2 and for 200 rounds: a run keeps
no model but the last, so its peak RSS should not grow with its rounds.
Everything else is ``configs/default.json``: 4 label-flippers, Dirichlet
alpha 0.4, reputation on. 2n samples per class give 16 training rows per
client on average. The Krum family runs with f = n // 10, multi_krum with
m = n // 2, trimmed_mean trims n // 10; every other parameter keeps its
registry default.

Each cell runs in a child of its own through the benchmark's ``run_child``.
Its peak RSS is the child's own ``VmHWM``, which the child prints from
``/proc/self/status`` just before its result line: ``run_child``'s
``wait4`` figure starts at this process's high-water mark, since exec
carries it into the child, and is used only where ``/proc`` is missing.
The child sums the seconds of each layer function ``engine.run`` calls,
under the benchmark tracer's engine names, which the parent hands it so
that it imports no benchmark module, and keeps no spans; ``other`` is the
rest of ``engine.run``. The child also prints the run's ``overhead_ops``,
summed over its decisions, so that each row sets the aggregators' measured
seconds on the updates of real rounds beside the cost model:
``ns_per_overhead_op`` is aggregate seconds x 10^9 / ``overhead_ops``. The
rows and the benchmark's environment record go to ``BENCH_scale.json`` at
the repository root. ``--n`` and ``--aggregators`` keep only the matching
cells; a selection that keeps none exits 2 and writes nothing.

Usage: PYTHONPATH=src python scripts/bench_scale.py [--n 20,200,1000,2000,5000]
                                                [--aggregators krum,bulyan]
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
from fedwatch.config import AGGREGATORS

ROOT = pathlib.Path(__file__).resolve().parent.parent
# A cell child (this file run with --cell first) is handed its phase names
# and imports no benchmark module, so a row's peak RSS holds none of it.
if __name__ != "__main__" or sys.argv[1:2] != ["--cell"]:
    sys.path.insert(0, str(ROOT / "benchmark"))
    from system import environment, run_child  # noqa: E402
    from tracing import WRAPPED  # noqa: E402

    # engine names timed in a cell: all that engine.run calls
    PHASES = tuple(name for name in WRAPPED if name not in ("build_config", "run", "write_run_outputs"))

CLASSES = 10
CHILD_TIMEOUT_S = 600.0
ALL = tuple(AGGREGATORS)
# (n, features, rounds, aggregators), in the order they run
CELLS = [
    (200, 32, 2, ALL), (1000, 32, 2, ALL), (2000, 32, 2, ALL),
    (5000, 32, 2, tuple(name for name in ALL if name != "bulyan")),
    (200, 256, 2, ALL), (200, 1024, 2, ALL), (200, 4096, 2, ALL),
    (20, 4096, 2, ("fedavg",)), (20, 4096, 200, ("fedavg",)),
]
# params sized to n; the rest keep their registry defaults
SIZED_PARAMS = {"byzantine_f": lambda n: n // 10, "multi_krum_m": lambda n: n // 2,
                "trim_beta": lambda n: n // 10}


def scale_config(n: int, features: int, rounds: int, aggregator: str) -> dict:
    raw = json.loads((ROOT / "configs" / "default.json").read_text())
    params = {p.name: SIZED_PARAMS[p.name](n) for p in AGGREGATORS[aggregator].params
              if p.name in SIZED_PARAMS}
    raw.update(
        rounds=rounds,
        num_clients=n,
        aggregator={"name": aggregator, "params": params},
    )
    raw["dataset"].update(classes=CLASSES, features=features, samples_per_class=2 * n)
    return raw


def run_cell(n: int, features: int, rounds: int, aggregator: str, phases: list[str]) -> tuple[dict, int]:
    """Run one config in this process; seconds by engine name, for each of
    ``phases`` and ``run``, and ``other``, the rest of ``run``; and the
    run's summed ``overhead_ops``."""
    seconds = dict.fromkeys(phases + ["run"], 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start
        return wrapper

    config = engine.build_config(scale_config(n, features, rounds, aggregator))
    for name in phases:
        setattr(engine, name, timed(name, getattr(engine, name)))
    result = timed("run", engine.run)(config)
    seconds["other"] = seconds["run"] - sum(seconds[name] for name in phases)
    return seconds, sum(d.overhead_ops for d in result.decisions)


def measure(n: int, features: int, rounds: int, aggregator: str, log_dir: str) -> dict:
    """Run one cell in a child: its phase seconds, its peak RSS in MB, and
    its ``overhead_ops`` with aggregate ns per op, where the child printed them."""
    # the child imports the fedwatch this process did
    src = str(pathlib.Path(fedwatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cell = ",".join([str(n), str(features), str(rounds), aggregator, *PHASES])
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--cell", cell]
    log = os.path.join(log_dir, f"{n}_{features}_{rounds}_{aggregator}.log")
    _wall, code, peak = run_child(argv, str(ROOT), env, log, CHILD_TIMEOUT_S)
    with open(log) as fh:
        lines = fh.read().splitlines()
    if code != 0:
        tail = "\n".join(lines[-5:])
        raise RuntimeError(f"n={n} features={features} rounds={rounds} {aggregator}: "
                           f"child exited {code}:\n{tail}")
    if len(lines) > 1 and lines[-2].startswith("VmHWM:"):
        peak = int(lines[-2].split()[1]) / 1024.0  # kB, as ru_maxrss
    row = {"seconds": json.loads(lines[-1]), "peak_rss_mb": peak}
    for line in lines:
        if line.startswith("overhead_ops:"):
            ops = int(line.split()[1])
            row.update(overhead_ops=ops, ns_per_overhead_op=row["seconds"]["aggregate"] * 1e9 / ops)
    return row


def own_peak_line() -> str | None:
    """This process's ``VmHWM:`` line of /proc/self/status, or None without /proc."""
    try:
        with open("/proc/self/status") as fh:
            return next((line.strip() for line in fh if line.startswith("VmHWM:")), None)
    except OSError:
        return None


def cells(sizes, names) -> list[tuple[int, int, int, str]]:
    """The table's (n, features, rounds, aggregator) cells whose n and aggregator are asked for."""
    return [(n, features, rounds, name) for n, features, rounds, table_names in CELLS
            for name in table_names if (sizes is None or n in sizes) and (names is None or name in names)]


def int_list(text: str) -> list[int]:
    """A comma-separated list of integers; a ValueError is argparse's usage error."""
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int_list, help="client counts to keep, comma-separated (default: all)")
    parser.add_argument("--aggregators", type=lambda text: text.split(","),
                        help="aggregators to keep, comma-separated (default: all)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    # "n,features,rounds,aggregator,phase,...": run one cell, print its JSON
    parser.add_argument("--cell", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        n, features, rounds, aggregator, *phases = args.cell.split(",")
        seconds, ops = run_cell(int(n), int(features), int(rounds), aggregator, phases)
        print(f"overhead_ops: {ops}")
        peak = own_peak_line()
        if peak is not None:
            print(peak)
        print(json.dumps(seconds))
        return 0
    kept = cells(args.n, args.aggregators)
    if not kept:  # an empty record would replace the one at --out
        parser.error("no cell of the table has the --n and --aggregators asked for")

    rows = []
    print(f"{'aggregator':<12} {'n':>5} {'d':>6} {'rounds':>6} {'run_s':>8} {'generate':>9} {'partition':>9} "
          f"{'train':>8} {'aggregate':>9} {'other':>8} {'rss_mb':>8} {'ns/op':>8}")
    with tempfile.TemporaryDirectory() as log_dir:
        for n, features, rounds, aggregator in kept:
            row = {"n": n, "d": CLASSES * (features + 1), "rounds": rounds, "aggregator": aggregator}
            row.update(measure(n, features, rounds, aggregator, log_dir))
            rows.append(row)
            s = row["seconds"]
            print(f"{aggregator:<12} {n:>5} {row['d']:>6} {rounds:>6} {s['run']:>8.3f} "
                  f"{s['generate_synthetic']:>9.3f} "
                  f"{s['partition']:>9.3f} {s['local_train']:>8.3f} {s['aggregate']:>9.3f} "
                  f"{s['other']:>8.3f} {row['peak_rss_mb']:>8.1f} "
                  f"{row.get('ns_per_overhead_op', float('nan')):>8.1f}", flush=True)
    report = {
        "config": "configs/default.json with 10 classes x (d/10 - 1) features, 2n samples per class; "
                  "byzantine_f = n // 10, multi_krum_m = n // 2, trim_beta = n // 10",
        "environment": environment(str(ROOT)),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time every aggregator on synthetic updates over a grid of n and d.

Prints, per aggregator and size, the median milliseconds of one call next
to the call's deterministic ``overhead_ops``, so the cost model can be
checked against measured time. The Krum family runs with f = n // 10 and
multi_krum with m = n // 2; trimmed_mean trims n // 10; every other
parameter keeps its registry default. Each size gets one untimed call
first.

Usage: python scripts/bench_aggregators.py [--n 20,100,200] [--d 12,330] [--reps 5]
                                           [--aggregators bulyan,krum]
"""

import argparse
import statistics
import sys
import time

from fedwatch.aggregators import AGGREGATORS, aggregate
from fedwatch.core import ClientUpdate, ModelParams, Rng

SIZED_PARAMS = {
    "byzantine_f": lambda n: n // 10,
    "multi_krum_m": lambda n: n // 2,
    "trim_beta": lambda n: n // 10,
}


def synthetic_updates(n: int, d: int) -> list[ClientUpdate]:
    """n standard-normal deltas of d values each, as a (1, d-1) model."""
    rng = Rng(0)
    return [
        ClientUpdate(
            client=i,
            delta=ModelParams(rng.standard_normal(d), (1, d - 1)),
            num_samples=int(rng.integers(1, 50)),
        )
        for i in range(n)
    ]


def params_for(entry, n: int) -> dict:
    return {
        p.name: SIZED_PARAMS[p.name](n) if p.name in SIZED_PARAMS else p.default
        for p in entry.params
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", default="20,100,200", help="client counts, comma-separated")
    parser.add_argument("--d", default="12,330", help="update sizes, comma-separated, each >= 2")
    parser.add_argument("--reps", type=int, default=5, help="timed calls per size")
    parser.add_argument(
        "--aggregators", default=",".join(AGGREGATORS), help="names to time, comma-separated"
    )
    args = parser.parse_args(argv)
    sizes_n = [int(v) for v in args.n.split(",")]
    sizes_d = [int(v) for v in args.d.split(",")]
    names = args.aggregators.split(",")
    if args.reps < 1 or min(sizes_n) < 1 or min(sizes_d) < 2:
        parser.error("--reps and every n must be >= 1, every d >= 2")
    unknown = [name for name in names if name not in AGGREGATORS]
    if unknown:
        parser.error(f"unknown aggregators {','.join(unknown)}; known: {','.join(AGGREGATORS)}")

    print(f"{'aggregator':<14} {'n':>5} {'d':>5} {'ms_p50':>10} {'overhead_ops':>12}")
    for name, entry in AGGREGATORS.items():
        if name not in names:
            continue
        for n in sizes_n:
            params = params_for(entry, n)
            if entry.problem(n, params) is not None:
                print(f"{name:<14} {n:>5} {'-':>5} {'skipped':>10} {'-':>12}")
                continue
            for d in sizes_d:
                updates = synthetic_updates(n, d)
                decision, _ = aggregate(name, params, updates)
                times = []
                for _ in range(args.reps):
                    start = time.perf_counter()
                    aggregate(name, params, updates)
                    times.append(time.perf_counter() - start)
                ms = statistics.median(times) * 1e3
                print(f"{name:<14} {n:>5} {d:>5} {ms:>10.3f} {decision.overhead_ops:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

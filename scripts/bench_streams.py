"""Time seeding k random streams one by one against one ``Rng.streams`` call.

Prints, per stream count k, the median microseconds per stream of building
``Rng(seed, s)`` for each id and of building every generator that
``Rng.streams(seed, ids)`` yields. The ids are the training streams of k
clients in one round, as the engine derives them. ``Rng.streams`` pays a
fixed cost for its one vectorised hash, so it wins from about 8 streams on.

Usage: python scripts/bench_streams.py [--k 1,3,10,20,50,200] [--reps 200]
"""

import argparse
import statistics
import sys
import time

from fedwatch.core import Rng, substream
from fedwatch.engine import STREAM_TRAIN

SEED = 12345


def per_stream_us(build, ids: list[int], reps: int) -> float:
    """Median microseconds per stream of ``build(ids)``, after one untimed call."""
    build(ids)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        build(ids)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6 / len(ids)


def one_by_one(ids: list[int]) -> list[Rng]:
    return [Rng(SEED, s) for s in ids]


def batched(ids: list[int]) -> list[Rng]:
    return list(Rng.streams(SEED, ids))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", default="1,3,10,20,50,200", help="stream counts, comma-separated")
    parser.add_argument("--reps", type=int, default=200, help="timed builds per count")
    args = parser.parse_args(argv)
    try:
        counts = [int(v) for v in args.k.split(",")]
    except ValueError:
        parser.error("--k takes comma-separated integers")
    if args.reps < 1 or min(counts) < 1:
        parser.error("--reps and every k must be >= 1")

    print(f"{'k':>5} {'us_rng':>9} {'us_streams':>11}")
    for k in counts:
        ids = [substream(STREAM_TRAIN, 0, c) for c in range(k)]
        single = per_stream_us(one_by_one, ids, args.reps)
        batch = per_stream_us(batched, ids, args.reps)
        print(f"{k:>5} {single:>9.2f} {batch:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

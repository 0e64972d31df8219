"""Time one client's local training over a grid of shard and model sizes.

Prints, per model shape (classes x features), shard size n and batch
size, the median microseconds of one ``local_train`` call and of one SGD
step (the call's time divided by epochs * ceil(n / batch)). Shards are
standard-normal features with uniform labels; training uses learning
rate 0.1, 2 epochs and l2 1e-4, from zero parameters. Every call gets
the same fresh rng, so each does identical work; each size gets one
untimed call first.

Usage: python scripts/bench_trainer.py [--n 16,40,160] [--shape 4x2,10x32,10x64]
                                       [--batch 16,32] [--reps 50]
"""

import argparse
import math
import statistics
import sys
import time

import numpy as np

from fedwatch.core import ModelParams, Rng
from fedwatch.datagen import ClientShard, Dataset
from fedwatch.trainer import TrainConfig, local_train

EPOCHS = 2


def synthetic_shard(n: int, classes: int, features: int) -> ClientShard:
    rng = Rng(0)
    data = Dataset(rng.standard_normal((n, features)), rng.integers(0, classes, size=n))
    return ClientShard(client=0, train=data, indices=np.arange(n))


def parse_shape(text: str) -> tuple[int, int]:
    classes, features = (int(v) for v in text.lower().split("x"))
    return classes, features


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", default="16,40,160", help="shard sizes, comma-separated")
    parser.add_argument(
        "--shape", default="4x2,10x32,10x64", help="classes x features, comma-separated"
    )
    parser.add_argument("--batch", default="16,32", help="batch sizes, comma-separated")
    parser.add_argument("--reps", type=int, default=50, help="timed calls per size")
    args = parser.parse_args(argv)
    sizes_n = [int(v) for v in args.n.split(",")]
    batches = [int(v) for v in args.batch.split(",")]
    try:
        shapes = [parse_shape(v) for v in args.shape.split(",")]
    except ValueError:
        parser.error("--shape entries look like 10x32")
    if args.reps < 1 or min(sizes_n) < 1 or min(batches) < 1:
        parser.error("--reps, every n and every batch must be >= 1")
    if min(c for c, _ in shapes) < 2 or min(f for _, f in shapes) < 1:
        parser.error("every shape needs >= 2 classes and >= 1 feature")

    print(f"{'shape':>7} {'n':>5} {'batch':>5} {'steps':>5} {'us_call':>10} {'us_step':>9}")
    for classes, features in shapes:
        start = ModelParams.zeros((classes, features))
        for n in sizes_n:
            shard = synthetic_shard(n, classes, features)
            for batch in batches:
                cfg = TrainConfig(
                    learning_rate=0.1, local_epochs=EPOCHS, batch_size=batch, l2_reg=1e-4
                )
                steps = EPOCHS * math.ceil(n / batch)
                local_train(start, shard, cfg, Rng(1))
                times = []
                for _ in range(args.reps):
                    rng = Rng(1)
                    t0 = time.perf_counter()
                    local_train(start, shard, cfg, rng)
                    times.append(time.perf_counter() - t0)
                us = statistics.median(times) * 1e6
                shape = f"{classes}x{features}"
                print(f"{shape:>7} {n:>5} {batch:>5} {steps:>5} {us:>10.1f} {us / steps:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

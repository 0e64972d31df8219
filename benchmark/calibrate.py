"""Machine-speed calibration, so that runs made at different times compare.

On a shared machine the same simulation can take twice as long in one
minute as in the next, and a window of a few seconds does not average that
out. The same holds, with phases of their own, for starting a process. A fixed kernel, which no change to fedwatch can touch, is timed
between measurements; each measured time is scaled by NOMINAL_S divided by
the kernel's time around it. The result reads as seconds on the machine at
the speed where the kernel takes NOMINAL_S. The kernel mixes the kinds of
work the workloads do: many numpy calls on tiny arrays (local SGD), Python
sorts keyed on numpy scalars and loops over lists and dicts (aggregator
selection), and a sort and row norms of a 200 x 330 array.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time on a quiet core of a shared 2-core x86_64 VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.005
# Wall time of a bare child process that starts Python and imports numpy,
# on the same VM when quiet. Process start and imports do not track
# the kernel, so child-process times take their start-up speed from such a
# bare child run next to them instead (see run.py).
COLD_NOMINAL_S = 0.10
# Kernel runs per calibration: at least MIN_REPEATS, and enough to spend
# about SHARE of the interval just measured, so that a long interval is
# scaled by a speed that one short burst of load cannot skew.
MIN_REPEATS = 3
MAX_REPEATS = 40
SHARE = 0.05


def _kernel(x: np.ndarray, y: np.ndarray, big: np.ndarray, keys: list[float]) -> float:
    # Local SGD: many numpy calls on 16 x 8 arrays.
    w = np.zeros((4, x.shape[1]))
    b = np.zeros(4)
    rows = np.arange(x.shape[0])
    for _ in range(150):
        logits = x @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        w -= 0.1 * (p.T @ x) / len(rows)
        b -= 0.1 * p.sum(axis=0) / len(rows)
    # Coordinate-wise selection: Python sorts keyed on numpy scalars.
    total = 0.0
    for c in range(8):
        col = big[:180, c]
        med = float(np.median(col))
        order = sorted(range(len(col)), key=lambda i: (abs(col[i] - med), col[i], i))
        for i in order[:100]:
            total += float(col[i])
    # Plain Python containers, then whole-matrix numpy work. No BLAS call
    # here is large enough to wake BLAS threads, which would keep spinning
    # on the other core while the next measurement runs.
    table = {i: k for i, k in enumerate(sorted(keys))}
    picked = sorted(table, key=lambda i: (-table[i], i))[:100]
    norms = np.einsum("ij,ij->i", big, big)
    ordered = np.sort(big, axis=0)
    return float(w.sum() + total + sum(picked) + norms[0] + ordered[0, 0])


class Clock:
    """Scales measured seconds to the nominal machine speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._args = (
            rng.standard_normal((16, 8)),
            rng.integers(0, 4, 16),
            rng.standard_normal((200, 330)),
            [float((i * 7919) % 1009) for i in range(2000)],
        )
        self.samples: list[float] = []
        for _ in range(MIN_REPEATS):
            _kernel(*self._args)  # first calls pay for lazy set-up
        self._last = self.measure(MAX_REPEATS)

    def measure(self, repeats: int) -> float:
        """Mean kernel time over ``repeats`` runs. The mean, not the median:
        a measured interval pays for every burst of load inside it."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            _kernel(*self._args)
            times.append(perf_counter() - t0)
        kernel_s = statistics.fmean(times)
        self.samples.append(kernel_s)
        return kernel_s

    def mark(self) -> None:
        """Take a fresh kernel time as the start of the next interval."""
        self._last = self.measure(MIN_REPEATS)

    def factor(self, seconds: float) -> float:
        """The scale for ``seconds`` measured since the previous call (or
        since creation), from the kernel times on either side of it."""
        repeats = min(MAX_REPEATS, max(MIN_REPEATS, round(SHARE * seconds / self._last)))
        now = self.measure(repeats)
        factor = NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return factor

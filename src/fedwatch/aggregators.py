"""Robust aggregation strategies over client updates.

Every aggregator sorts the incoming updates by client id before doing any
arithmetic, so the decision is invariant under submission order. Ties are
broken by lowest client id everywhere. ``overhead_ops`` counts elementary
vector operations (vector adds/scales, distance evaluations, per-vector
sort passes) under the fixed formulas documented on each function, giving
a deterministic cost ledger that is comparable across strategies.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# The registry and its checks live in config, which loads without numpy.
from .config import AGGREGATORS, AggregatorEntry, Param, bound_problem, typed
from .core import ClientId, ModelParams

MAD_SCALE = 1.4826  # normal-consistency factor for the median absolute deviation
MAD_FLOOR = 1e-9
WEISZFELD_EPS = 1e-9
INTEGRAL_CAP = 10.0  # integral norm is clipped to this multiple of the error norm
# Float64 values in one block of the monitor's and the means' kernels: just
# under 128 KiB, glibc's default mmap threshold, so each block's temporaries
# come from the heap and are reused rather than mapped and unmapped.
BLOCK = (1 << 14) - 1
# Float64 values in _pairwise_sq_dists' difference chunk: enough that one
# chunk covers a 200 x 330 stack's 199-row tail.
PAIRWISE_CHUNK = 1 << 17


@dataclass(frozen=True, eq=False)
class AggregationDecision:
    """Outcome of one aggregation: who was kept, who was not, and the delta.

    ``delta`` is None only in a ``RunResult``, which keeps no model but the last.
    """

    included: tuple[ClientId, ...]
    excluded: tuple[ClientId, ...]
    delta: ModelParams | None
    overhead_ops: int
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(self.included) & set(self.excluded):
            raise ValueError("included and excluded overlap")
        if self.overhead_ops < 0:
            raise ValueError("negative overhead_ops")


@dataclass(frozen=True)
class PidState:
    """Controller memory threaded through rounds; None stands for none yet.
    ``sigma_pid`` returns a new state of read-only arrays and only reads the
    one it is given, so a state may be kept, as a round's record keeps it,
    and passed on as is."""

    prev_error: np.ndarray
    integral: np.ndarray


@dataclass(frozen=True, eq=False)
class UpdateStack:
    """One round's updates, checked and stacked once for every reader.

    ``ids`` ascend; row i of ``mat`` is client ids[i]'s delta, ``weights[i]``
    its sample count as a float, and ``shape`` every delta's shape. Both
    arrays are read-only, since the monitor and the aggregator share them.
    The stack keeps no ClientUpdate, so a round whose updates are dropped
    once stacked holds its deltas once, in ``mat``. ``len`` counts the
    updates; ``stack_updates`` returns a stack it is given, so a stack can
    stand wherever updates are accepted.
    """

    ids: list[ClientId]
    mat: np.ndarray
    weights: np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def distances(self) -> tuple[np.ndarray, float, float]:
        """``robust_distances(mat)``, computed on first use and then kept;
        the distance array is read-only, as every reader shares it."""
        dists, med, scale = robust_distances(self.mat)
        dists.flags.writeable = False
        return dists, med, scale


def stack_updates(updates) -> UpdateStack:
    """The updates as an UpdateStack; an UpdateStack is returned as it is.

    Raises ValueError for no updates, then for duplicate ids, then for
    deltas of different shapes.
    """
    if isinstance(updates, UpdateStack):
        return updates
    ups = sorted(updates, key=lambda u: u.client)
    if not ups:
        raise ValueError("no updates to aggregate")
    ids = [u.client for u in ups]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    shape = ups[0].delta.shape
    if any(u.delta.shape != shape for u in ups):
        raise ValueError("mismatched delta shapes")
    return stack_rows(ids, np.stack([u.delta.values for u in ups]), [u.num_samples for u in ups], shape)


def stack_rows(ids, mat: np.ndarray, samples, shape: tuple[int, int]) -> UpdateStack:
    """The UpdateStack whose row i is ``mat[i]``, client ids[i]'s delta with
    ``samples[i]`` samples; ``ids`` must ascend without repeats. ``mat`` is
    made read-only and kept, not copied.
    """
    weights = np.asarray(samples, dtype=float)
    mat.flags.writeable = False
    weights.flags.writeable = False
    return UpdateStack(ids, mat, weights, shape)


def _checked(name: str, updates, **params) -> tuple:
    """Every aggregator's entry: stack_updates(updates), then each param
    ``typed`` as its registry default, as config types it, then a
    ValueError unless the update count and params meet the named
    aggregator's registry entry.

    Returns the UpdateStack followed by the params' values in order.
    """
    stack = stack_updates(updates)
    for p in AGGREGATORS[name].params:
        try:
            params[p.name] = typed(params[p.name], type(p.default))
        except ValueError as e:
            raise ValueError(f"{name}.{p.name}: {e}") from None
    problem = AGGREGATORS[name].problem(len(stack), params)
    if problem is not None:
        blamed, message = problem
        raise ValueError(f"{name}.{blamed}: {message}" if blamed else message)
    return (stack, *params.values())


def _decision(stack: UpdateStack, keep, delta, overhead_ops: int,
              info: dict | None = None) -> AggregationDecision:
    """The decision that includes rows ``keep`` (ascending; None keeps all)
    of ``stack`` and excludes the rest; the array ``delta`` takes the
    stack's shape.
    """
    kept = range(len(stack)) if keep is None else set(keep)
    return AggregationDecision(
        included=tuple(c for i, c in enumerate(stack.ids) if i in kept),
        excluded=tuple(c for i, c in enumerate(stack.ids) if i not in kept),
        delta=ModelParams(delta, stack.shape),
        overhead_ops=overhead_ops,
        info={} if info is None else info,
    )


def _sorted_median(s: np.ndarray) -> np.ndarray:
    """``numpy.median(x, axis=0)`` from ``s = np.sort(x, axis=0)``.

    The middle row, or for an even count (s[h-1] + s[h]) / 2, the sum and
    divide that ``np.mean`` does over two rows; NaN in every column whose
    last sorted value is NaN, since ``np.sort`` puts NaN last. One sort
    costs a third to a fifth of numpy's per-column partition here. The
    values equal numpy's, but not always their bytes: a zero median may
    carry the other sign. Every caller feeds ``x - median`` to a norm or an
    ``abs``, or replaces it after one step, where that sign cannot show.
    """
    h = s.shape[0] // 2
    med = s[h] if s.shape[0] % 2 else (s[h - 1] + s[h]) / 2
    return np.where(np.isnan(s[-1]), np.nan, med)


def _column_blocks(d: int, width: int):
    """(lo, hi) of each block of ``width`` (at least 2) of d columns, so
    that a sum down axis 0 of a block stays numpy's loop over rows (on one
    column numpy sums pairwise); a 1-column tail joins the block before
    it. Only a 1-column matrix gives a 1-column block.
    """
    for lo in range(0, max(d - 1, 1), width):
        yield lo, lo + width if lo + width < d - 1 else d


def _column_median(mat: np.ndarray) -> np.ndarray:
    """``_sorted_median(np.sort(mat, axis=0))``, one column block at a time."""
    med = np.empty(mat.shape[1])
    for lo, hi in _column_blocks(mat.shape[1], max(2, BLOCK // mat.shape[0])):
        med[lo:hi] = _sorted_median(np.sort(mat[:, lo:hi], axis=0))
    return med


def _distances_to(mat: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat - ref, axis=1)`` from one buffer of whole rows.

    The norm squares the differences into a second buffer (``x.conj()`` is
    ``x`` for reals) and sums each row with ``add.reduce``; squaring the
    differences in place runs the same ops on each row, so the bytes are
    the same. The buffer holds about BLOCK values, and at least one row.
    """
    n, d = mat.shape
    step = max(1, BLOCK // d)
    buf = np.empty((min(step, n), d))
    sums = np.empty(n)
    for lo in range(0, n, step):
        diff = np.subtract(mat[lo : lo + step], ref, out=buf[: min(step, n - lo)])
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=sums[lo : lo + step])
    return np.sqrt(sums, out=sums)


def robust_distances(mat: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Each row's L2 distance to the coordinate-wise median of the rows.

    Returns (distances, median distance, scale), where scale is the MAD of
    the distances times 1.4826, floored at 1e-9.
    """
    reference = _column_median(mat)
    dists = _distances_to(mat, reference)
    med = float(_sorted_median(np.sort(dists)))
    mad = float(_sorted_median(np.sort(np.abs(dists - med))))
    return dists, med, max(MAD_SCALE * mad, MAD_FLOOR)


def _weighted_mean(mat: np.ndarray, weights: np.ndarray, rows=None) -> np.ndarray:
    """``(w[:, None] * m).sum(axis=0) / w.sum()`` for m = mat[rows] and
    w = weights[rows] (``rows`` ascending; None takes every row).

    Each column block gathers and scales its own rows, so no array holds
    the whole matrix; every column is still summed row by row from the
    first, as over the whole matrix.
    """
    if rows is not None:
        weights = weights[rows]
    total = np.empty(mat.shape[1])
    for lo, hi in _column_blocks(mat.shape[1], max(2, BLOCK // len(weights))):
        block = mat[:, lo:hi] if rows is None else mat[rows, lo:hi]
        np.add.reduce(np.multiply(weights[:, None], block), axis=0, out=total[lo:hi])
    return total / weights.sum()


def fedavg(updates) -> AggregationDecision:
    """Sample-count weighted mean of all deltas; nobody is excluded.

    overhead_ops = n (one scale-add per update).
    """
    (stack,) = _checked("fedavg", updates)
    return _decision(stack, None, _weighted_mean(stack.mat, stack.weights), len(stack))


def trimmed_mean(updates, trim_beta: int) -> AggregationDecision:
    """Coordinate-wise mean after dropping the beta lowest and highest values.

    Trimming is per coordinate and unweighted. For the decision's exclusion
    sets, a client counts as excluded when more than half of its coordinates
    were trimmed; the aggregated delta itself always uses every submitted
    update coordinate-wise. overhead_ops = n * ceil(log2 n) + 1 (sort passes
    plus the final mean), with the log term 1 when n is 1.

    Requires n > 2 * trim_beta.
    """
    stack, beta = _checked("trimmed_mean", updates, trim_beta=trim_beta)
    ids, mat = stack.ids, stack.mat
    n, dim = mat.shape
    delta = np.empty(dim)
    trimmed_counts = np.zeros(n, dtype=np.intp)
    # Column blocks at least 2 wide: each column's mean sums row by row, as
    # over the whole matrix.
    for lo, hi in _column_blocks(dim, max(2, BLOCK // n)):
        order = np.argsort(mat[:, lo:hi], axis=0, kind="stable")
        kept = np.take_along_axis(mat[:, lo:hi], order[beta : n - beta], axis=0)
        delta[lo:hi] = kept.mean(axis=0)
        trimmed_counts += np.bincount(order[:beta].ravel(), minlength=n)
        trimmed_counts += np.bincount(order[n - beta :].ravel(), minlength=n)
    keep = np.flatnonzero(trimmed_counts <= dim / 2.0)
    ops = n * max(1, math.ceil(math.log2(n))) + 1
    info = {"trim_fraction": {ids[i]: trimmed_counts[i] / dim for i in range(n)}}
    return _decision(stack, keep, delta, ops, info)


def _pairwise_sq_dists(mat: np.ndarray) -> np.ndarray:
    """Squared L2 distance between every two rows, zero on the diagonal.

    Each pair costs one BLAS dot of the difference with itself, the call a
    per-pair ``np.dot`` makes, so the bits match it: ``np.vecdot`` of one
    reused chunk of differences, about PAIRWISE_CHUNK values and at least
    one row, fills row i's tail, and column i copies it. The Gram identity
    |a|^2 + |b|^2 - 2 a.b and ``np.einsum`` round differently.
    """
    n, d = mat.shape
    sq = np.zeros((n, n))
    step = max(1, PAIRWISE_CHUNK // d)
    diff = np.empty((max(1, min(step, n - 1)), d))
    for i in range(n - 1):
        for lo in range(i + 1, n, step):
            tail = np.subtract(mat[lo : lo + step], mat[i], out=diff[: min(step, n - lo)])
            np.vecdot(tail, tail, out=sq[i, lo : lo + step])
        sq[i + 1 :, i] = sq[i, i + 1 :]
    return sq


def _scores_for(mat: np.ndarray, f: int) -> np.ndarray:
    """Each row's sum of its n-f-2 smallest squared distances to the others.

    The distance matrix is symmetric, so sorting it along axis 0 puts each
    row's distances, its own 0.0 first, down a column. ``add.reduce`` along
    axis 0 of that C-contiguous block adds one row of it at a time, which
    gives every column the loop sum 0.0 + d1 + d2 + ... in ascending order,
    reproducible exactly (along the last axis numpy would sum pairwise).
    """
    cols = _pairwise_sq_dists(mat)
    cols.sort(axis=0)
    return np.add.reduce(cols[: mat.shape[0] - f - 1], axis=0)


def krum(updates, byzantine_f: int) -> AggregationDecision:
    """Select the single update closest to its n-f-2 nearest peers.

    score(i) = sum of squared L2 distances from delta_i to its n-f-2
    nearest other deltas; the minimum-score client wins, ties to the lowest
    id. Requires n >= 2f+3. overhead_ops = n(n-1)/2 + 1.
    """
    stack, f = _checked("krum", updates, byzantine_f=byzantine_f)
    n = len(stack)
    scores = _scores_for(stack.mat, f)
    best = int(np.argmin(scores))  # rows ascend by id, so ties go to the lowest
    info = {"scores": {stack.ids[i]: float(scores[i]) for i in range(n)}}
    # A copy: a view would keep the whole stack alive in every decision held.
    return _decision(stack, [best], stack.mat[best].copy(), n * (n - 1) // 2 + 1, info)


def multi_krum(updates, byzantine_f: int, multi_krum_m: int) -> AggregationDecision:
    """Keep the m lowest-Krum-score clients and average them by sample count.

    Ties are broken by lowest id. Requires n >= 2f+3 and 1 <= m <= n-f.
    overhead_ops = n(n-1)/2 + m.
    """
    stack, f, m = _checked("multi_krum", updates, byzantine_f=byzantine_f, multi_krum_m=multi_krum_m)
    n = len(stack)
    scores = _scores_for(stack.mat, f)
    chosen = np.sort(np.argsort(scores, kind="stable")[:m])
    delta = _weighted_mean(stack.mat, stack.weights, chosen)
    info = {"scores": {stack.ids[i]: float(scores[i]) for i in range(n)}}
    return _decision(stack, chosen, delta, n * (n - 1) // 2 + m, info)


def _iterated_krum(sq: np.ndarray, f: int) -> list[int]:
    """Bulyan's selection over the squared-distance matrix ``sq`` (consumed).

    Picks n-2f rows one at a time: with m rows left, each live row scores
    the sum of its k+1 smallest distances to live rows (k = max(m-f-2, 0),
    its own 0.0 included), the lowest score wins and ties go to the lowest
    row. Returns the picks in pick order.

    ``sq`` is symmetric, so sorting it in place along axis 0 turns each
    row's sorted distances into a column: cols[j, r] is row r's j-th
    smallest. Row r's window cols[:end[r] + 1, r] holds its k+1 smallest
    live distances in sorted order, with 0.0 wherever a distance left it.
    Every distance is >= 0, so x + 0.0 == x and ``add.reduce`` along axis 0
    (one row of cols at a time, see ``_scores_for``) sums each window to
    the same bits as the live distances alone. A pick removes one distance
    from every window: the winner's own if it lies inside, else the last
    live one, since k drops by one; the window end then steps back past
    distances to rows already picked, so it always sits on a live one.
    """
    n = sq.shape[0]
    order = np.argsort(sq, axis=0)  # order[j, r]: the row whose distance is cols[j, r]
    sq.sort(axis=0)  # ties share a value, so this matches order
    cols = sq
    pos = np.empty_like(order)  # pos[i, r]: where column r keeps its distance to row i
    np.put_along_axis(pos, order, np.arange(n)[:, None], axis=0)
    end = np.full(n, n - f - 2)
    live = np.ones(n, dtype=bool)
    rows = np.arange(n)  # the live rows, ascending
    picks: list[int] = []
    for m in range(n, 2 * f, -1):
        scores = np.add.reduce(cols[: end[rows].max() + 1], axis=0)
        w = int(rows[np.argmin(scores[rows])])
        picks.append(w)
        live[w] = False
        rows = rows[rows != w]
        if m - 1 <= max(2 * f, 1):
            continue  # no pick left, or one left with a single candidate
        e = end[rows]
        out = np.minimum(pos[w, rows], e)
        cols[out, rows] = 0.0
        back = out == e
        r, e = rows[back], e[back] - 1
        while True:
            dead = ~live[order[e, r]]
            if not dead.any():
                break
            e -= dead
        end[r] = e
    return picks


def _trimmed_average(mat: np.ndarray, selected, keep: int, width: int) -> np.ndarray:
    """Per column of ``mat[selected]``, the mean of the ``keep`` values
    closest to the column's median, equal distances taking the smaller
    value first, each summed one by one from 0.0, closest first.

    Runs over ``_column_blocks`` ``width`` wide, copying only one block of
    the selected rows at a time. Each column's arithmetic is its own, so
    the blocks give the bits of one pass over all columns.
    """
    total = np.empty(mat.shape[1])
    for lo, hi in _column_blocks(mat.shape[1], width):
        # Each column sorted by value, then stably by distance to its
        # median: equal distances keep the smaller value first. Only equal
        # values are left in np.sort's order, and those add to the same
        # bits in any order.
        cols = mat[:, lo:hi].take(selected, axis=0)
        cols.sort(axis=0)
        dist = np.subtract(cols, _sorted_median(cols))
        rank = np.argsort(np.abs(dist, out=dist), axis=0, kind="stable")[:keep]
        del dist
        # Each column is summed in row order, as in _scores_for.
        np.add.reduce(np.take_along_axis(cols, rank, axis=0), axis=0, out=total[lo:hi])
    # + 0.0 turns a -0.0 total into the 0.0 that a sum started at 0.0 gives.
    return (total + 0.0) / keep


def bulyan(updates, byzantine_f: int) -> AggregationDecision:
    """Krum-based selection followed by a trimmed coordinate-wise average.

    Selection: repeatedly run Krum over the remaining updates (score over
    the max(|R|-f-2, 0) nearest peers within R), moving each winner into S,
    until |S| = n-2f. Aggregation: per coordinate, take the median of S and
    average the n-4f values closest to it, breaking distance ties by the
    smaller value. The lower client id breaks the remaining ties, which
    only order equal values; those add to the same bits in any order, so
    the kernel leaves them in sort order. Each coordinate's kept values
    are added one by one in that order, closest to the median first,
    starting from 0.0. The average runs over blocks of max(2, n*n // |S|)
    columns, so none of its arrays outgrows the selection's n x n ones.
    Requires n >= 4f+3. overhead_ops = n(n-1)/2 + 2|S|.
    """
    stack, f = _checked("bulyan", updates, byzantine_f=byzantine_f)
    n = len(stack)

    selected = _iterated_krum(_pairwise_sq_dists(stack.mat), f)
    selected.sort()
    delta = _trimmed_average(stack.mat, selected, n - 4 * f, max(2, n * n // len(selected)))
    return _decision(stack, selected, delta, n * (n - 1) // 2 + 2 * len(selected))


def geomedian(
    updates, weiszfeld_tol: float = 1e-10, weiszfeld_max_iters: int = 500
) -> AggregationDecision:
    """Weighted geometric median of the deltas via smoothed Weiszfeld iteration.

    Starts from the sample-weighted mean, or the coordinate-wise median if a
    distance from the mean overflows, and reweights each update by w_i /
    max(distance_i, 1e-9) until the step norm drops below tol or the budget
    runs out (non-convergence is flagged in info, not an error). Nobody is excluded.
    overhead_ops = n + 2n * iterations.
    """
    stack, tol, max_iters = _checked(
        "geomedian", updates, weiszfeld_tol=weiszfeld_tol, weiszfeld_max_iters=weiszfeld_max_iters
    )
    mat, weights = stack.mat, stack.weights
    n = len(stack)
    y = _weighted_mean(mat, weights)
    if not np.isfinite(_distances_to(mat, y)).all():
        y = _column_median(mat)
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        dists = np.maximum(_distances_to(mat, y), WEISZFELD_EPS)
        coef = weights / dists
        y_next = _weighted_mean(mat, coef)
        step = float(np.linalg.norm(y_next - y))
        y = y_next
        if step < tol:
            converged = True
            break
    return _decision(stack, None, y, n + 2 * n * iters, {"converged": converged, "iterations": iters})


def sigma_pid(
    updates,
    state: PidState | None,
    sigma_k: float = 2.5,
    kp: float = 1.0,
    ki: float = 0.0,
    kd: float = 0.0,
) -> tuple[AggregationDecision, PidState]:
    """Robust sigma filter around the coordinate-wise median, PID-smoothed.

    Clients whose distance to the median reference exceeds
    median(d) + sigma_k * 1.4826 * MAD(d) are excluded (MAD floored at
    1e-9; if everyone lands outside, the closest client is kept). The
    included sample-weighted mean becomes the error signal of a PID
    controller whose integral term is norm-clipped to 10x the error norm
    and whose derivative is zero on the first round. The distances are the
    stack's own, so a stack the trust indicators already read is not
    measured again. Requires n >= 3. overhead_ops = 2n + |included| + 3.
    """
    stack, sigma_k, kp, ki, kd = _checked("sigma_pid", updates, sigma_k=sigma_k, kp=kp, ki=ki, kd=kd)
    n = len(stack)
    dists, med, scale = stack.distances
    threshold = med + sigma_k * scale
    keep_mask = dists <= threshold
    if not keep_mask.any():
        keep_mask = np.zeros(n, dtype=bool)
        keep_mask[np.argmin(dists)] = True
    kept = np.flatnonzero(keep_mask)
    error = _weighted_mean(stack.mat, stack.weights, kept)
    integral = error.copy() if state is None else state.integral + error
    cap = INTEGRAL_CAP * float(np.linalg.norm(error))
    inorm = float(np.linalg.norm(integral))
    if inorm > cap:
        integral = integral * (cap / inorm)
    derivative = np.zeros_like(error) if state is None else error - state.prev_error
    delta = kp * error + ki * integral + kd * derivative

    decision = _decision(stack, kept, delta, 2 * n + len(kept) + 3, {"threshold": threshold})
    error.flags.writeable = integral.flags.writeable = False
    return decision, PidState(prev_error=error, integral=integral)


def aggregate(
    name: str, params: dict, updates, state: PidState | None = None
) -> tuple[AggregationDecision, PidState | None]:
    """Dispatch to the named aggregator, threading controller state through.

    ``updates`` is an UpdateStack or any iterable of ClientUpdates.
    """
    entry = AGGREGATORS.get(name)
    if entry is None:
        raise ValueError(f"unknown aggregator {name!r}")
    if entry.threads_state:
        return entry.fn(updates, state, **params)
    return entry.fn(updates, **params), state

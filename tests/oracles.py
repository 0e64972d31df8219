"""Independent reference implementations used to check the library.

The aggregator oracles deliberately re-derive every quantity with plain
loops and explicit tie-breaking so they share no selection or ordering
logic with the library. The trainer oracle is the original SGD loop,
``bulyan_compacting`` is the original vectorised Bulyan kernel, and
``robust_distances_np_median`` is the original median/MAD distance.
"""

import numpy as np

from fedwatch.aggregators import MAD_FLOOR, MAD_SCALE
from fedwatch.core import ClientUpdate, ModelParams
from fedwatch.trainer import TrainingDivergedError


def weighted_mean_naive(vectors, weights):
    dim = len(vectors[0])
    total_w = 0.0
    for w in weights:
        total_w += w
    out = []
    for c in range(dim):
        acc = 0.0
        for v, w in zip(vectors, weights):
            acc += w * v[c]
        out.append(acc / total_w)
    return np.asarray(out)


def trimmed_mean_naive(vectors, beta):
    n = len(vectors)
    dim = len(vectors[0])
    out = []
    for c in range(dim):
        col = sorted(float(v[c]) for v in vectors)
        kept = col[beta : n - beta]
        acc = 0.0
        for v in kept:
            acc += v
        out.append(acc / len(kept))
    return np.asarray(out)


def krum_scores_naive(vectors, f):
    """Score per vector: sum of the n-f-2 smallest squared distances."""
    n = len(vectors)
    k = n - f - 2
    sq = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                diff = vectors[i] - vectors[j]
                sq[i][j] = float(np.dot(diff, diff))
    scores = []
    for i in range(n):
        others = sorted(sq[i][j] for j in range(n) if j != i)
        acc = 0.0
        for v in others[:k]:
            acc += v
        scores.append(acc)
    return scores


def bulyan_naive(vectors, ids, f):
    """Step-by-step selection plus trimmed aggregation, same tie rules."""
    n = len(vectors)
    sq = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                diff = vectors[i] - vectors[j]
                sq[i][j] = float(np.dot(diff, diff))
    remaining = list(range(n))
    chosen = []
    while len(chosen) < n - 2 * f:
        k = max(len(remaining) - f - 2, 0)
        best, best_key = None, None
        for i in remaining:
            others = sorted(sq[i][j] for j in remaining if j != i)
            acc = 0.0
            for v in others[:k]:
                acc += v
            key = (acc, ids[i])
            if best_key is None or key < best_key:
                best, best_key = i, key
        chosen.append(best)
        remaining.remove(best)
    chosen = sorted(chosen)
    sel_ids = [ids[i] for i in chosen]
    keep = n - 4 * f
    dim = len(vectors[0])
    agg = []
    for c in range(dim):
        col = [float(vectors[i][c]) for i in chosen]
        srt = sorted(col)
        m = len(srt)
        med = srt[m // 2] if m % 2 == 1 else (srt[m // 2 - 1] + srt[m // 2]) / 2
        order = sorted(range(m), key=lambda i: (abs(col[i] - med), col[i], sel_ids[i]))
        acc = 0.0
        for i in order[:keep]:
            acc += col[i]
        agg.append(acc / keep)
    return sel_ids, np.asarray(agg)


def sq_dists_per_pair(mat):
    """Squared L2 distance between every two rows, one ``np.dot`` per pair.

    ``fedwatch.aggregators._pairwise_sq_dists`` must give the same bytes.
    """
    n = mat.shape[0]
    sq = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            diff = mat[j] - mat[i]
            sq[i, j] = sq[j, i] = np.dot(diff, diff)
    return sq


def bulyan_compacting(mat, f):
    """The compacting Bulyan kernel, kept verbatim as a bit-exact guard,
    except that its distances come from ``sq_dists_per_pair``, so it shares
    no code with the library kernel it checks.

    ``mat`` holds one update per row in ascending id order. Each pick
    cumsums the remaining rows' sorted distances and deletes the winner's
    row and entry with a boolean mask. Returns the picked row indices
    (ascending), the rows never picked and the delta;
    ``fedwatch.aggregators.bulyan`` must give the same ids and delta bits.
    """
    n = mat.shape[0]

    # Rows of distances are sorted once. Each pick deletes the winner's row
    # and its entry in every other row, so the rows stay sorted, keep their
    # own 0.0 as smallest entry and score as in _scores_for over the
    # remaining updates. Sorting in place matches order: ties share a value.
    vals = sq_dists_per_pair(mat)
    order = np.argsort(vals, axis=1)
    vals.sort(axis=1)
    remaining = np.arange(n)
    selected: list[int] = []
    for m in range(n, 2 * f, -1):
        k = max(m - f - 2, 0)
        w = int(np.argmin(np.cumsum(vals[:, : k + 1], axis=1)[:, -1]))
        selected.append(int(remaining[w]))
        alive = order != remaining[w]
        alive[w] = False
        order = order[alive].reshape(m - 1, m - 1)
        vals = vals[alive].reshape(m - 1, m - 1)
        remaining = np.delete(remaining, w)

    selected.sort()
    mat = mat[selected]  # drops the rows outside S from memory
    keep = n - 4 * f
    # lexsort is stable and the rows are in ascending id order, so equal
    # (distance, value) keys keep the lower id first.
    rank = np.lexsort((mat, np.abs(mat - np.median(mat, axis=0))), axis=0)[:keep]
    kept = np.take_along_axis(mat, rank, axis=0)
    # + 0.0 turns a -0.0 total into the 0.0 that a sum started at 0.0 gives.
    delta = (np.cumsum(kept, axis=0, out=kept)[-1] + 0.0) / keep
    return selected, remaining, delta


def robust_distances_np_median(mat: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``robust_distances`` as it was written on ``np.median``, kept verbatim.

    ``fedwatch.aggregators.robust_distances`` must return the same distance
    bytes and the same median and scale (NaN where this gives NaN).
    """
    reference = np.median(mat, axis=0)
    dists = np.linalg.norm(mat - reference, axis=1)
    med = float(np.median(dists))
    mad = float(np.median(np.abs(dists - med)))
    return dists, med, max(MAD_SCALE * mad, MAD_FLOOR)


def geomedian_grid_2d(points, weights, levels=9, cells=50):
    """Weighted geometric median in the plane: kink check plus zooming grid.

    The minimum either sits exactly at a data point (when that point's
    weight dominates the pull of all the others) or at a smooth stationary
    point that grid refinement locates. The zoom keeps a generous margin
    around each level's best cell so narrow valleys are not cut off.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    for i in range(len(points)):
        pull = np.zeros(2)
        for j in range(len(points)):
            if j == i:
                continue
            diff = points[j] - points[i]
            pull += weights[j] * diff / np.linalg.norm(diff)
        if np.linalg.norm(pull) <= weights[i]:
            return points[i].copy()
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    lo = lo - 0.25 * span
    hi = hi + 0.25 * span
    best = None
    for _ in range(levels):
        xs = np.linspace(lo[0], hi[0], cells + 1)
        ys = np.linspace(lo[1], hi[1], cells + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        dists = np.linalg.norm(grid[:, None, :] - points[None, :, :], axis=2)
        obj = (dists * weights[None, :]).sum(axis=1)
        best = grid[int(np.argmin(obj))]
        cell = (hi - lo) / cells
        lo = best - 3.0 * cell
        hi = best + 3.0 * cell
    return _compass_polish(best, points, weights, step=float(np.max(hi - lo)))


def _compass_polish(start, points, weights, step):
    """Local refinement: shrinking compass search on the convex objective.

    Follows flat valleys the coarse grid cannot resolve.
    """
    def objective(y):
        return float((weights * np.linalg.norm(points - y, axis=1)).sum())

    moves = np.asarray(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
        dtype=float,
    )
    best = np.asarray(start, dtype=float)
    f_best = objective(best)
    step = max(step, 1e-6)
    while step > 1e-10:
        improved = False
        for m in moves:
            cand = best + step * m
            f = objective(cand)
            if f < f_best:
                best, f_best = cand, f
                improved = True
        if not improved:
            step *= 0.5
    return best


def anchor_dominance_margin(points, weights):
    """How far an instance sits from the anchor-optimality boundary.

    At the boundary (pull of the others equals the point's own weight) the
    minimizer is ill-conditioned and every iterative method slows down
    arbitrarily, so randomized comparisons screen on this margin.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    margin = np.inf
    for i in range(len(points)):
        pull = np.zeros(points.shape[1])
        for j in range(len(points)):
            if j == i:
                continue
            diff = points[j] - points[i]
            pull += weights[j] * diff / np.linalg.norm(diff)
        margin = min(margin, abs(np.linalg.norm(pull) - weights[i]) / weights[i])
    return float(margin)


def predict_proba_naive(params, x):
    """softmax(W x + b) for one sample, with max-subtraction so it never overflows."""
    logits = params.weights() @ np.asarray(x, dtype=np.float64) + params.biases()
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def local_train_reference(start, shard, cfg, rng):
    """The original per-minibatch SGD loop, kept verbatim as a bit-exact guard.

    Each step gathers its minibatch by fancy indexing and calls the full
    loss-and-gradient routine (loss included). Training has diverged
    exactly when the final parameters are not finite.
    ``fedwatch.trainer.local_train`` must return the same bits and raise
    on the same inputs.
    """
    def _log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def _loss_grad_arrays(w, b, x, y, l2_reg):
        n = x.shape[0]
        logits = x @ w.T + b
        logp = _log_softmax(logits)
        loss = -logp[np.arange(n), y].mean() + 0.5 * l2_reg * float(np.sum(w * w))
        g = np.exp(logp)
        g[np.arange(n), y] -= 1.0
        g /= n
        grad_w = g.T @ x + l2_reg * w
        grad_b = g.sum(axis=0)
        return float(loss), grad_w, grad_b

    data = shard.train
    n = data.num_samples
    if n == 0:
        raise ValueError("empty shard")
    w = start.weights().copy()
    b = start.biases().copy()
    bs = max(1, int(cfg.batch_size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(n)
            for lo in range(0, n, bs):
                idx = order[lo : lo + bs]
                _, gw, gb = _loss_grad_arrays(
                    w, b, data.features[idx], data.labels[idx], cfg.l2_reg
                )
                w -= cfg.learning_rate * gw
                b -= cfg.learning_rate * gb
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise TrainingDivergedError(f"client {shard.client} diverged")
    final = np.concatenate([w.ravel(), b])
    return ClientUpdate(
        client=shard.client,
        delta=ModelParams(final - start.values, start.shape),
        num_samples=n,
    )

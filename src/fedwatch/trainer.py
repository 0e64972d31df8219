"""Softmax regression trained by mini-batch SGD. The object-level learner."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import TrainConfig
from .core import ClientUpdate, ModelParams
from .datagen import ClientShard, Dataset


class TrainingDivergedError(RuntimeError):
    """Local training produced non-finite parameters."""


# The step's numpy entry points, bound once: a step is about seventeen
# calls on a few thousand values at most, so finding ``np.<name>`` and its
# method again on each call is a measurable share of it. A reduction takes
# axis, dtype, out and keepdims positionally, the ufuncs their out.
_dot = np.dot  # np.matmul's BLAS dgemm, less dispatch
_exp = np.exp
_log = np.log
_add = np.add
_subtract = np.subtract
_multiply = np.multiply
_divide = np.divide
_max_reduce = np.maximum.reduce
_sum_reduce = np.add.reduce


def _log_softmax(g: np.ndarray) -> np.ndarray:
    """Turn the logits ``g`` into log-probabilities in place; returns g.

    The ufunc reductions behind ndarray.max/sum.
    """
    _subtract(g, _max_reduce(g, 1, None, None, True), g)
    norm = _sum_reduce(_exp(g), 1, None, None, True)
    _subtract(g, _log(norm, norm), g)
    return g


@lru_cache(maxsize=None)
def _eye(c: int) -> np.ndarray:
    """Read-only c x c identity; row y is the one-hot encoding of label y."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _gradient(x, onehot, w, wt, b, l2, n, grad_w, grad_b, ridge) -> None:
    """Write the gradient of the mean cross-entropy over the ``n`` rows of
    ``x`` plus ``0.5 * l2 * |w|^2`` into ``grad_w`` and ``grad_b``.

    ``wt`` is ``w.T``, and ``l2`` and ``n`` are numbers; ``local_train``
    makes them once per call. ``ridge`` is scratch shaped like ``w``.
    Subtracting the one-hot row is subtracting 1.0 at the label, because
    x - 0.0 == x.
    """
    g = _dot(x, wt)
    _add(g, b, g)
    _exp(_log_softmax(g), g)
    _subtract(g, onehot, g)  # p - onehot(y)
    _divide(g, n, g)
    _dot(g.T, x, grad_w)
    _add(grad_w, _multiply(w, l2, ridge), grad_w)
    _sum_reduce(g, 0, None, grad_b)


def loss_and_gradient(
    params: ModelParams, data: Dataset, l2_reg: float = 0.0
) -> tuple[float, ModelParams]:
    """Regularized mean cross-entropy and its analytic gradient.

    The loss is ``evaluate``'s plus 0.5 * l2_reg * |W|^2. Per sample the
    gradient contribution is (p - onehot(y)) outer x for the weight block
    and (p - onehot(y)) for the biases, averaged over the data, plus
    l2_reg * W on the weight block only: the step ``local_train`` takes,
    over the whole dataset at once.
    """
    w = params.weights()
    loss = evaluate(params, data)[0] + 0.5 * l2_reg * float(np.add.reduce(w * w, axis=None))
    c = params.shape[0]
    grad_w, grad_b = np.empty_like(w), np.empty(c)
    _gradient(
        data.features, _eye(c)[data.labels], w, w.T, params.biases(), l2_reg,
        data.num_samples, grad_w, grad_b, np.empty_like(w),
    )
    return loss, ModelParams(np.concatenate([grad_w.ravel(), grad_b]), params.shape)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def local_train(
    start: ModelParams, shard: ClientShard, cfg: TrainConfig, rng: np.random.Generator
) -> ClientUpdate:
    """Run local SGD epochs and return the resulting delta.

    Each epoch shuffles the shard with the given rng and walks it in
    mini-batches, keeping the final partial batch. Raises
    TrainingDivergedError if the parameters or the delta go non-finite.
    Each step is one ``_gradient`` call on preallocated buffers, the
    kernel ``loss_and_gradient`` runs; no loss is computed.
    """
    data = shard.train
    n = data.num_samples
    if n == 0:
        raise ValueError("empty shard")
    c, f = start.shape
    cf = c * f
    theta = start.values.copy()
    grad = np.empty_like(theta)
    w, b = theta[:cf].reshape(c, f), theta[cf:]
    grad_w, grad_b = grad[:cf].reshape(c, f), grad[cf:]
    wt, ridge = w.T, np.empty_like(w)
    # The step's scalars (learning rate, L2 weight, the full and the final
    # batch's row counts) as 0-d float64 arrays, made once: the doubles a
    # Python number gives, which a ufunc takes without converting a scalar.
    lr, l2 = np.array(cfg.learning_rate, float), np.array(cfg.l2_reg, float)
    bs = max(1, int(cfg.batch_size))
    last = (n - 1) // bs * bs  # the final batch's first row
    full, tail = np.array(bs, float), np.array(n - last, float)
    batches = [(lo, full) for lo in range(0, last, bs)] + [(last, tail)]
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        xs = data.features.take(order, axis=0)
        onehots = _eye(c).take(data.labels.take(order), axis=0)
        for lo, size in batches:
            _gradient(
                xs[lo : lo + bs], onehots[lo : lo + bs], w, wt, b, l2, size,
                grad_w, grad_b, ridge,
            )
            _multiply(grad, lr, grad)
            _subtract(theta, grad, theta)
    # A fresh array rather than theta reused in place: reuse raised the
    # peak RSS of a 200-client run by about 0.5 MB.
    diff = theta - start.values
    try:
        # diff is finite exactly when theta is, unless the subtraction itself
        # overflows; either way the client diverged.
        delta = ModelParams(diff, start.shape)
    except ValueError:
        raise TrainingDivergedError(f"client {shard.client} diverged") from None
    return ClientUpdate(client=shard.client, delta=delta, num_samples=n)


def evaluate(params: ModelParams, data: Dataset) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy (ties go to the lowest class).

    The argmax is taken on the logits: the log-softmax's rounding could
    merge two nearly equal values into a tie.
    """
    if data.num_samples == 0:
        raise ValueError("empty dataset")
    logits = data.features @ params.weights().T + params.biases()
    accuracy = float(np.mean(np.argmax(logits, axis=1) == data.labels))
    logp = _log_softmax(logits)
    return float(-logp[np.arange(data.num_samples), data.labels].mean()), accuracy

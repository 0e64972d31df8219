"""Softmax regression trained by mini-batch SGD. The object-level learner."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ClientUpdate, ModelParams, Rng
from .datagen import ClientShard, Dataset


class TrainingDivergedError(RuntimeError):
    """Local training produced non-finite parameters."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    local_epochs: int = 2
    batch_size: int = 16
    l2_reg: float = 1e-4


def _log_softmax(g: np.ndarray) -> np.ndarray:
    """Turn the logits ``g`` into log-probabilities in place; returns g.

    The ufunc reductions behind ndarray.max/sum, arguments positional.
    """
    g -= np.maximum.reduce(g, 1, None, None, True)
    norm = np.add.reduce(np.exp(g), 1, None, None, True)
    g -= np.log(norm, norm)
    return g


@lru_cache(maxsize=None)
def _eye(c: int) -> np.ndarray:
    """Read-only c x c identity; row y is the one-hot encoding of label y."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _gradient(x, onehot, w, b, l2, grad_w, grad_b, ridge) -> None:
    """Write the gradient of the mean cross-entropy over the rows of ``x``
    plus ``0.5 * l2 * |w|^2`` into ``grad_w`` and ``grad_b``.

    ``ridge`` is scratch shaped like ``w``. Subtracting the one-hot row is
    subtracting 1.0 at the label, because x - 0.0 == x.
    """
    g = np.dot(x, w.T)  # np.matmul's BLAS dgemm, less dispatch
    g += b
    np.exp(_log_softmax(g), g)
    g -= onehot  # p - onehot(y)
    g /= len(x)
    np.dot(g.T, x, grad_w)
    grad_w += np.multiply(w, l2, ridge)
    np.add.reduce(g, 0, None, grad_b)


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
        data.features, _eye(c)[data.labels], w, params.biases(), l2_reg,
        grad_w, grad_b, np.empty_like(w),
    )
    return loss, ModelParams(np.concatenate([grad_w.ravel(), grad_b]), params.shape)


def local_train(
    start: ModelParams, shard: ClientShard, cfg: TrainConfig, rng: Rng
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
    ridge = np.empty_like(w)
    lr = cfg.learning_rate
    l2 = cfg.l2_reg
    bs = max(1, int(cfg.batch_size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(n)
            xs = data.features.take(order, axis=0)
            onehots = _eye(c).take(data.labels.take(order), axis=0)
            for lo in range(0, n, bs):
                _gradient(xs[lo : lo + bs], onehots[lo : lo + bs], w, b, l2, grad_w, grad_b, ridge)
                grad *= lr
                theta -= grad
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

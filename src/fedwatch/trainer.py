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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # np.maximum.reduce / np.add.reduce are the ufuncs behind ndarray.max /
    # sum, called without their Python wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


@lru_cache(maxsize=None)
def _eye(c: int) -> np.ndarray:
    """Read-only c x c identity; row y is the one-hot encoding of label y."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _loss_grad_arrays(
    w: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray, l2_reg: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus ridge term, with its exact gradient.

    ``add.reduce(...) / n`` is what ``ndarray.mean`` computes.
    """
    n = x.shape[0]
    logits = x @ w.T + b
    logp = _log_softmax(logits)
    nll = -(np.add.reduce(logp[np.arange(n), y]) / n)
    loss = float(nll + 0.5 * l2_reg * float(np.add.reduce(w * w, axis=None)))
    g = np.exp(logp)
    g[np.arange(n), y] -= 1.0
    g /= n
    grad_w = g.T @ x + l2_reg * w
    grad_b = g.sum(axis=0)
    return loss, grad_w, grad_b


def loss_and_gradient(
    params: ModelParams, data: Dataset, l2_reg: float = 0.0
) -> tuple[float, ModelParams]:
    """Regularized mean cross-entropy and its analytic gradient.

    Per sample the gradient contribution is (p - onehot(y)) outer x for the
    weight block and (p - onehot(y)) for the biases, averaged over the data,
    plus l2_reg * W on the weight block only.
    """
    if data.num_samples == 0:
        raise ValueError("empty dataset")
    loss, gw, gb = _loss_grad_arrays(
        params.weights(), params.biases(), data.features, data.labels, l2_reg
    )
    return loss, ModelParams(np.concatenate([gw.ravel(), gb]), params.shape)


def local_train(
    start: ModelParams, shard: ClientShard, cfg: TrainConfig, rng: Rng
) -> ClientUpdate:
    """Run local SGD epochs and return the resulting delta.

    Each epoch shuffles the shard with the given rng and walks it in
    mini-batches, keeping the final partial batch. Raises
    TrainingDivergedError if the parameters or the delta go non-finite.

    Every step performs the float operations of ``_loss_grad_arrays`` in
    the same order on the same operands, so the result is bit-identical to
    calling it per minibatch; only the loss, which steps never use, is
    skipped. Subtracting the one-hot row is the same as subtracting 1.0 at
    the label, because x - 0.0 == x.
    """
    data = shard.train
    n = data.num_samples
    if n == 0:
        raise ValueError("empty shard")
    c, f = start.shape
    cf = c * f
    theta = start.values.copy()
    w = theta[:cf].reshape(c, f)
    b = theta[cf:]
    w_t = w.T
    grad = np.empty_like(theta)
    grad_w = grad[:cf].reshape(c, f)
    grad_b = grad[cf:]
    ridge = np.empty_like(w)
    eye = _eye(c)
    lr = cfg.learning_rate
    l2 = cfg.l2_reg
    bs = max(1, int(cfg.batch_size))
    # The ufunc reductions behind ndarray.max/sum, minus their Python wrappers.
    row_max, row_sum = np.maximum.reduce, np.add.reduce
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(n)
            xs = data.features[order]
            onehots = eye[data.labels[order]]
            for lo in range(0, n, bs):
                x = xs[lo : lo + bs]
                g = np.matmul(x, w_t)  # logits
                g += b
                g -= row_max(g, axis=1, keepdims=True)
                norm = row_sum(np.exp(g), axis=1, keepdims=True)
                g -= np.log(norm, out=norm)  # log-probabilities
                np.exp(g, out=g)
                g -= onehots[lo : lo + bs]  # p - onehot(y)
                g /= x.shape[0]
                np.matmul(g.T, x, out=grad_w)
                grad_w += np.multiply(w, l2, out=ridge)
                row_sum(g, axis=0, out=grad_b)
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
    """Mean cross-entropy and argmax accuracy (ties go to the lowest class)."""
    if data.num_samples == 0:
        raise ValueError("empty dataset")
    n = data.num_samples
    logits = data.features @ params.weights().T + params.biases()
    logp = _log_softmax(logits)
    loss = -logp[np.arange(n), data.labels].mean()
    preds = np.argmax(logits, axis=1)
    accuracy = float(np.mean(preds == data.labels))
    return float(loss), accuracy

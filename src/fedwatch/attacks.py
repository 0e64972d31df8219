"""Data poisoning (label flipping) and model poisoning on client updates."""

import math

import numpy as np

from .config import ATTACK_KINDS, AttackSpec
from .core import ClientUpdate, ModelParams
from .datagen import Dataset


def flip_labels(data: Dataset, fraction: float, num_classes: int, rng: np.random.Generator) -> Dataset:
    """Relabel ceil(fraction * n) uniformly chosen samples to (y + 1) mod C.

    The shift rule keeps the class histogram a permutation of itself at
    fraction 1.0 and never touches features.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = data.num_samples
    k = min(n, math.ceil(fraction * n))
    if k == 0:
        return data
    selected = rng.choice(n, size=k, replace=False)
    labels = data.labels.copy()
    labels[selected] = (labels[selected] + 1) % num_classes
    return Dataset(features=data.features, labels=labels)


def poison_update(update: ClientUpdate, spec: AttackSpec, rng: np.random.Generator) -> ClientUpdate:
    """Apply a model-poisoning transform to one client's delta.

    label_flip acts on data, not updates, and is rejected here. Client id
    and sample count pass through untouched.
    """
    if spec.kind == "label_flip":
        raise ValueError("label_flip poisons data, not updates")
    if spec.kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {spec.kind!r}")
    d = update.delta.values
    # A huge magnitude may overflow to inf; the ModelParams check below
    # rejects that as non-finite, so an overflow warning would only be noise.
    with np.errstate(over="ignore"):
        if spec.kind == "sign_flip":
            poisoned = -spec.magnitude * d
        elif spec.kind == "scale":
            poisoned = spec.magnitude * d
        else:  # gaussian_noise
            poisoned = d + rng.normal(0.0, abs(spec.magnitude), size=d.shape)
    return ClientUpdate(
        client=update.client,
        delta=ModelParams(poisoned, update.delta.shape),
        num_samples=update.num_samples,
    )

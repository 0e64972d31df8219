"""Trust indicators, reputation gating, and the loss/cost/overhead objective.

This is the monitoring side of the loop: per-round distance statistics
over client updates, an exponentially decayed reputation per client that
can gate participation, and the combined objective that prices each
round's loss, the training cost spent, and the aggregator overhead
(loss + alpha * cost + beta * overhead).
"""

from dataclasses import dataclass

from .aggregators import AggregationDecision, stack_updates
from .config import ReputationConfig, ResourceConfig
from .core import ClientId, ModelParams


@dataclass(frozen=True)
class TrustIndicators:
    """Per-client monitoring signals for one round."""

    distance: dict[ClientId, float]
    z_score: dict[ClientId, float]


def compute_indicators(updates, global_params: ModelParams) -> TrustIndicators:
    """Distance-to-consensus and robust z-score per client.

    The reference is the coordinate-wise median of the deltas; z-scores
    use median/MAD with the same floor as the sigma filter. ``global_params``
    is the broadcast model the deltas are relative to and is used for shape
    validation. ``updates`` is the round's UpdateStack or any iterable of
    updates, which is ordered and checked as every aggregator's are. The
    distances are the stack's own, so ``sigma_pid`` given the same stack
    reuses them.
    """
    stack = stack_updates(updates)
    if stack.shape != global_params.shape:
        raise ValueError("update shape does not match global model")
    dists, med, scale = stack.distances
    return TrustIndicators(
        distance={c: float(d) for c, d in zip(stack.ids, dists)},
        z_score={c: float((d - med) / scale) for c, d in zip(stack.ids, dists)},
    )


def update_reputation(
    reputation: dict[ClientId, float], decision: AggregationDecision, settings: ReputationConfig
) -> dict[ClientId, float]:
    """Decay each submitter's reputation toward its inclusion bit, as a new map.

    reputation <- lambda * reputation + (1 - lambda) * (1 if included else 0),
    lambda being ``settings.decay_lambda``; clients that did not submit this
    round are untouched, and so is everyone when ``settings.enabled`` is off.
    """
    lam = settings.decay_lambda
    rep = dict(reputation)
    for bit, ids in ((1.0, decision.included), (0.0, decision.excluded)):
        for cid in ids:
            if cid not in rep:
                raise ValueError(f"unknown client id {cid}")
            if settings.enabled:
                rep[cid] = lam * rep[cid] + (1.0 - lam) * bit
    return rep


def select_participants(
    reputation: dict[ClientId, float], all_clients, settings: ReputationConfig, minimum: int = 1
) -> tuple[ClientId, ...]:
    """Clients whose reputation clears ``settings.participation_threshold``,
    ascending by id; every client when ``settings.enabled`` is off.

    If fewer than max(3, ``minimum``) qualify, that many highest-reputation
    clients (ties to the lower id), or all when there are fewer, are returned
    instead, so aggregation preconditions can hold.
    """
    floor = max(3, minimum)
    ids = sorted(int(c) for c in all_clients)
    if not settings.enabled:
        return tuple(ids)
    qualified = [c for c in ids if reputation[c] >= settings.participation_threshold]
    if len(qualified) >= floor:
        return tuple(qualified)
    top = sorted(ids, key=lambda c: (-reputation[c], c))[:floor]
    return tuple(sorted(top))


def ledger_record(
    resource: ResourceConfig, mean_loss: float, cost: float, overhead: float
) -> float:
    """One round's objective: mean_loss + alpha * cost + beta * overhead."""
    if cost < 0 or overhead < 0:
        raise ValueError("cost and overhead must be non-negative")
    return mean_loss + resource.alpha * cost + resource.beta * overhead

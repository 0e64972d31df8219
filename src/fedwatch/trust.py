"""Trust indicators, reputation gating, and the loss/cost/overhead objective.

This is the monitoring side of the loop: per-round distance statistics
over client updates, an exponentially decayed reputation per client that
can gate participation, and the combined objective that prices each
round's loss, the training cost spent, and the aggregator overhead
(loss + alpha * cost + beta * overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .aggregators import AggregationDecision, stack_updates
from .config import ReputationConfig, ResourceConfig
from .core import ClientId, ModelParams


@dataclass(frozen=True)
class TrustIndicators:
    """Per-client monitoring signals for one round."""

    distance: dict[ClientId, float]
    z_score: dict[ClientId, float]


@dataclass(frozen=True)
class ReputationState:
    """Exponentially decayed inclusion history per client, in [0, 1]."""

    reputation: dict[ClientId, float]
    decay_lambda: float = ReputationConfig.decay_lambda
    participation_threshold: float = ReputationConfig.participation_threshold

    @classmethod
    def fresh(cls, clients, **settings) -> "ReputationState":
        """Everyone starts fully trusted; ``settings`` are the other fields."""
        return cls(reputation={int(c): 1.0 for c in clients}, **settings)


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
    state: ReputationState, decision: AggregationDecision
) -> ReputationState:
    """Decay each submitter's reputation toward its inclusion bit.

    reputation <- lambda * reputation + (1 - lambda) * (1 if included else 0);
    clients that did not submit this round are untouched.
    """
    lam = state.decay_lambda
    rep = dict(state.reputation)
    for bit, ids in ((1.0, decision.included), (0.0, decision.excluded)):
        for cid in ids:
            if cid not in rep:
                raise ValueError(f"unknown client id {cid}")
            rep[cid] = lam * rep[cid] + (1.0 - lam) * bit
    return replace(state, reputation=rep)


def select_participants(
    state: ReputationState, all_clients, minimum: int = 3
) -> tuple[ClientId, ...]:
    """Clients whose reputation clears the gate, ascending by id.

    If fewer than ``minimum`` qualify, the ``minimum`` highest-reputation
    clients (ties to the lower id) are returned instead so aggregation
    preconditions can hold.
    """
    ids = sorted(int(c) for c in all_clients)
    qualified = [c for c in ids if state.reputation[c] >= state.participation_threshold]
    if len(qualified) >= minimum or len(qualified) == len(ids):
        return tuple(qualified)
    top = sorted(ids, key=lambda c: (-state.reputation[c], c))[: min(minimum, len(ids))]
    return tuple(sorted(top))


def ledger_record(
    resource: ResourceConfig, mean_loss: float, cost: float, overhead: float
) -> float:
    """One round's objective: mean_loss + alpha * cost + beta * overhead."""
    if cost < 0 or overhead < 0:
        raise ValueError("cost and overhead must be non-negative")
    return mean_loss + resource.alpha * cost + resource.beta * overhead

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch.aggregators import AggregationDecision
from fedwatch.core import ClientUpdate, ModelParams, Rng
from fedwatch.trust import (
    ReputationConfig,
    ReputationState,
    ResourceConfig,
    compute_indicators,
    ledger_record,
    select_participants,
    update_reputation,
)


def upd(client, values, shape=(1, 1)):
    return ClientUpdate(
        client=client,
        delta=ModelParams(np.asarray(values, dtype=float), shape),
        num_samples=1,
    )


def decision(included, excluded):
    return AggregationDecision(
        included=tuple(included),
        excluded=tuple(excluded),
        delta=ModelParams.zeros((1, 1)),
        overhead_ops=0,
    )


class TestComputeIndicators:
    def test_identical_deltas_give_zero_z(self):
        ups = [upd(i, [1.0, 2.0]) for i in range(4)]
        ind = compute_indicators(ups, ModelParams.zeros((1, 1)))
        assert all(z == 0.0 for z in ind.z_score.values())
        assert all(d == 0.0 for d in ind.distance.values())

    def test_far_outlier_is_the_only_high_z(self):
        ups = [upd(i, [0.1 * (1 if i % 2 else -1), 0.0]) for i in range(4)]
        ups.append(upd(4, [5.0, 0.0]))
        ind = compute_indicators(ups, ModelParams.zeros((1, 1)))
        flagged = [c for c, z in ind.z_score.items() if z > 2.5]
        assert flagged == [4]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate client ids"):
            compute_indicators(
                [upd(0, [1.0, 0.0]), upd(1, [2.0, 0.0]), upd(0, [3.0, 0.0])],
                ModelParams.zeros((1, 1)),
            )

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError):
            compute_indicators([], ModelParams.zeros((1, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_indicators([upd(0, [1.0, 0.0])], ModelParams.zeros((2, 2)))


class TestUpdateReputation:
    def test_three_exclusions_decay(self):
        state = ReputationState.fresh([0, 1], decay_lambda=0.9)
        for _ in range(3):
            state = update_reputation(state, decision(included=[1], excluded=[0]))
        assert state.reputation[0] == pytest.approx(0.9**3, abs=1e-15)

    def test_always_included_stays_at_one(self):
        state = ReputationState.fresh([0], decay_lambda=0.9)
        for _ in range(10):
            state = update_reputation(state, decision(included=[0], excluded=[]))
        assert state.reputation[0] == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_is_memoryless(self):
        state = ReputationState.fresh([0, 1], decay_lambda=0.0)
        state = update_reputation(state, decision(included=[0], excluded=[1]))
        assert state.reputation == {0: 1.0, 1: 0.0}
        state = update_reputation(state, decision(included=[1], excluded=[0]))
        assert state.reputation == {0: 0.0, 1: 1.0}

    def test_non_submitters_untouched(self):
        state = ReputationState.fresh([0, 1, 2], decay_lambda=0.5)
        state = update_reputation(state, decision(included=[0], excluded=[1]))
        assert state.reputation[2] == 1.0

    def test_unknown_id_rejected(self):
        state = ReputationState.fresh([0])
        with pytest.raises(ValueError):
            update_reputation(state, decision(included=[7], excluded=[]))

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.booleans(), min_size=1, max_size=60), st.floats(0.0, 0.999))
    def test_reputation_stays_in_unit_interval(self, bits, lam):
        state = ReputationState.fresh([0], decay_lambda=lam)
        for included in bits:
            d = decision(included=[0] if included else [], excluded=[] if included else [0])
            state = update_reputation(state, d)
            assert 0.0 <= state.reputation[0] <= 1.0

    def test_geometric_decay_when_always_excluded(self):
        state = ReputationState.fresh([0], decay_lambda=0.8)
        values = []
        for _ in range(30):
            state = update_reputation(state, decision(included=[], excluded=[0]))
            values.append(state.reputation[0])
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.8**30, abs=1e-15)


class TestSelectParticipants:
    def test_zero_threshold_admits_everyone(self):
        state = ReputationState.fresh(range(5), participation_threshold=0.0)
        assert select_participants(state, range(5)) == (0, 1, 2, 3, 4)

    def test_threshold_gates_decayed_clients(self):
        rep = {c: 1.0 for c in range(16)}
        rep.update({c: 0.729 for c in range(16, 20)})
        state = ReputationState(reputation=rep, participation_threshold=0.8)
        assert select_participants(state, range(20)) == tuple(range(16))

    def test_top3_fallback_when_all_gated(self):
        rep = {0: 0.1, 1: 0.5, 2: 0.3, 3: 0.5, 4: 0.2}
        state = ReputationState(reputation=rep, participation_threshold=0.9)
        # ties at 0.5 resolve to the lower id; third best is 0.3
        assert select_participants(state, range(5)) == (1, 2, 3)

    def test_fallback_admits_the_requested_minimum(self):
        rep = {0: 0.1, 1: 0.5, 2: 0.3, 3: 0.5, 4: 0.2, 5: 0.95}
        state = ReputationState(reputation=rep, participation_threshold=0.9)
        assert select_participants(state, range(6), minimum=5) == (1, 2, 3, 4, 5)
        assert select_participants(state, range(6), minimum=9) == tuple(range(6))


class TestLedger:
    def test_objective_reduces_to_loss_when_free(self):
        free = ResourceConfig(alpha=0.0, beta=0.0)
        assert ledger_record(free, mean_loss=0.42, cost=100.0, overhead=50.0) == 0.42

    def test_combined_objective_arithmetic(self):
        assert ledger_record(ResourceConfig(alpha=1.0, beta=1.0), 0.5, 2.0, 3.0) == 5.5

    def test_identity_holds_exactly(self):
        rng = Rng(77)
        resource = ResourceConfig(alpha=0.125, beta=0.25)
        for _ in range(100):
            loss = float(rng.random() * 3)
            cost = float(rng.integers(0, 1000))
            overhead = float(rng.integers(0, 500))
            objective = ledger_record(resource, loss, cost, overhead)
            assert objective == loss + 0.125 * cost + 0.25 * overhead

    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError):
            ledger_record(ResourceConfig(), 0.1, -1.0, 0.0)
        with pytest.raises(ValueError):
            ledger_record(ResourceConfig(), 0.1, 0.0, -1.0)


class TestDefaultsComeFromTheConfigSections:
    def test_reputation_state_defaults(self):
        cfg = ReputationConfig()
        for state in (ReputationState.fresh(range(4)), ReputationState(reputation={0: 1.0})):
            assert state.decay_lambda == cfg.decay_lambda
            assert state.participation_threshold == cfg.participation_threshold

    def test_ledger_defaults(self):
        cfg = ResourceConfig()
        objective = ledger_record(cfg, mean_loss=0.3, cost=7.0, overhead=2.0)
        assert objective == 0.3 + cfg.alpha * 7.0 + cfg.beta * 2.0

    def test_config_module_reexports_the_sections(self):
        import fedwatch
        from fedwatch import config

        assert config.ReputationConfig is fedwatch.ReputationConfig is ReputationConfig
        assert config.ResourceConfig is fedwatch.ResourceConfig is ResourceConfig

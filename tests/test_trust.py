import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch.aggregators import AggregationDecision
from fedwatch.core import ClientUpdate, ModelParams, Rng
from fedwatch.trust import (
    ReputationConfig,
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


def fresh(clients):
    return dict.fromkeys(clients, 1.0)


def decaying(lam):
    return ReputationConfig(decay_lambda=lam)


def gate(threshold):
    return ReputationConfig(participation_threshold=threshold)


class TestUpdateReputation:
    def test_three_exclusions_decay(self):
        rep = fresh([0, 1])
        for _ in range(3):
            rep = update_reputation(rep, decision(included=[1], excluded=[0]), decaying(0.9))
        assert rep[0] == pytest.approx(0.9**3, abs=1e-15)

    def test_always_included_stays_at_one(self):
        rep = fresh([0])
        for _ in range(10):
            rep = update_reputation(rep, decision(included=[0], excluded=[]), decaying(0.9))
        assert rep[0] == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_is_memoryless(self):
        rep = update_reputation(fresh([0, 1]), decision(included=[0], excluded=[1]), decaying(0.0))
        assert rep == {0: 1.0, 1: 0.0}
        rep = update_reputation(rep, decision(included=[1], excluded=[0]), decaying(0.0))
        assert rep == {0: 0.0, 1: 1.0}

    def test_non_submitters_untouched(self):
        rep = update_reputation(fresh([0, 1, 2]), decision(included=[0], excluded=[1]), decaying(0.5))
        assert rep[2] == 1.0

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            update_reputation(fresh([0]), decision(included=[7], excluded=[]), ReputationConfig())

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.booleans(), min_size=1, max_size=60), st.floats(0.0, 0.999))
    def test_reputation_stays_in_unit_interval(self, bits, lam):
        rep = fresh([0])
        for included in bits:
            d = decision(included=[0] if included else [], excluded=[] if included else [0])
            rep = update_reputation(rep, d, decaying(lam))
            assert 0.0 <= rep[0] <= 1.0

    def test_geometric_decay_when_always_excluded(self):
        rep = fresh([0])
        values = []
        for _ in range(30):
            rep = update_reputation(rep, decision(included=[], excluded=[0]), decaying(0.8))
            values.append(rep[0])
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.8**30, abs=1e-15)


class TestSelectParticipants:
    def test_zero_threshold_admits_everyone(self):
        assert select_participants(fresh(range(5)), range(5), gate(0.0)) == (0, 1, 2, 3, 4)

    def test_threshold_gates_decayed_clients(self):
        rep = {c: 1.0 for c in range(16)}
        rep.update({c: 0.729 for c in range(16, 20)})
        assert select_participants(rep, range(20), gate(0.8)) == tuple(range(16))

    def test_top3_fallback_when_all_gated(self):
        rep = {0: 0.1, 1: 0.5, 2: 0.3, 3: 0.5, 4: 0.2}
        # ties at 0.5 resolve to the lower id; third best is 0.3
        assert select_participants(rep, range(5), gate(0.9)) == (1, 2, 3)

    def test_fallback_admits_the_requested_minimum(self):
        rep = {0: 0.1, 1: 0.5, 2: 0.3, 3: 0.5, 4: 0.2, 5: 0.95}
        assert select_participants(rep, range(6), gate(0.9), minimum=5) == (1, 2, 3, 4, 5)
        assert select_participants(rep, range(6), gate(0.9), minimum=9) == tuple(range(6))

    @settings(max_examples=300, derandomize=True)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.integers(0, n + 2),
            )
        )
    )
    def test_gate_or_floor_of_three(self, case):
        values, threshold, minimum = case
        n = len(values)
        rep = dict(enumerate(values))
        qualified = [c for c in range(n) if values[c] >= threshold]
        floor = max(3, minimum)
        if len(qualified) >= floor or len(qualified) == n:
            expected = tuple(qualified)
        else:
            best = sorted(range(n), key=lambda c: (-values[c], c))
            expected = tuple(sorted(best[: min(floor, n)]))
        got = select_participants(rep, reversed(range(n)), gate(threshold), minimum)
        assert got == expected
        assert list(got) == sorted(got)


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
    def test_reputation_defaults(self):
        cfg = ReputationConfig()
        rep = update_reputation(fresh([0, 1]), decision(included=[1], excluded=[0]), cfg)
        assert rep == {0: 0.9 * 1.0, 1: 1.0}
        low = {0: 0.0, 1: 0.01, 2: 0.5, 3: 1.0}
        assert select_participants(low, range(4), cfg) == (0, 1, 2, 3)

    def test_ledger_defaults(self):
        cfg = ResourceConfig()
        objective = ledger_record(cfg, mean_loss=0.3, cost=7.0, overhead=2.0)
        assert objective == 0.3 + cfg.alpha * 7.0 + cfg.beta * 2.0

    def test_config_module_reexports_the_sections(self):
        import fedwatch
        from fedwatch import config

        assert config.ReputationConfig is fedwatch.ReputationConfig is ReputationConfig
        assert config.ResourceConfig is fedwatch.ResourceConfig is ResourceConfig

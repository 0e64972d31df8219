import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedwatch.aggregators import (
    AGGREGATORS,
    PidState,
    _distances_to,
    _pairwise_sq_dists,
    _sorted_median,
    _trimmed_average,
    bulyan,
    fedavg,
    geomedian,
    krum,
    multi_krum,
    robust_distances,
    sigma_pid,
    stack_updates,
    trimmed_mean,
    _weighted_mean,
)
from fedwatch.core import ClientUpdate, ModelParams, Rng

from oracles import (
    anchor_dominance_margin,
    bulyan_compacting,
    bulyan_naive,
    geomedian_grid_2d,
    krum_scores_naive,
    robust_distances_np_median,
    sq_dists_per_pair,
    trimmed_mean_naive,
    weighted_mean_naive,
)


def upd(client, values, num_samples=1, shape=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if shape is None:
        # scalar examples travel as [v, 0] under the minimal (1,1) layout
        if values.size == 1:
            values = np.asarray([values[0], 0.0])
        shape = (1, values.size - 1)
    return ClientUpdate(
        client=client,
        delta=ModelParams(values, shape),
        num_samples=num_samples,
    )


def scalar_updates(values, weights=None):
    weights = weights or [1] * len(values)
    return [upd(i, v, num_samples=w) for i, (v, w) in enumerate(zip(values, weights))]


def random_updates(rng, n, dim, weighted=True):
    out = []
    for i in range(n):
        w = int(rng.integers(1, 6)) if weighted else 1
        out.append(
            upd(i, rng.standard_normal(dim + 1), num_samples=w, shape=(1, dim))
        )
    return out


class TestFedavg:
    def test_weighted_mean(self):
        ups = scalar_updates([0.0, 4.0], weights=[1, 3])
        d = fedavg(ups)
        assert d.delta.values[0] == pytest.approx(3.0, abs=1e-15)
        assert d.excluded == ()
        assert d.included == (0, 1)

    def test_single_client_identity(self):
        ups = [upd(5, [1.5, -2.0, 0.5], shape=(1, 2))]
        d = fedavg(ups)
        assert np.array_equal(d.delta.values, [1.5, -2.0, 0.5])

    def test_equal_weights_match_naive_oracle(self):
        rng = Rng(100)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 7))
            ups = random_updates(rng, n, dim)
            d = fedavg(ups)
            ref = weighted_mean_naive(
                [u.delta.values for u in ups], [u.num_samples for u in ups]
            )
            assert np.max(np.abs(d.delta.values - ref)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])


class TestTrimmedMean:
    def test_outlier_discarded(self):
        ups = scalar_updates([1.0, 2.0, 3.0, 4.0, 100.0])
        d = trimmed_mean(ups, 1)
        assert d.delta.values[0] == pytest.approx(3.0, abs=1e-15)

    def test_beta_zero_is_plain_mean(self):
        ups = scalar_updates([1.0, 2.0, 6.0])
        d = trimmed_mean(ups, 0)
        assert d.delta.values[0] == pytest.approx(3.0, abs=1e-15)

    def test_identical_deltas_unchanged(self):
        ups = [upd(i, [2.5, -1.0], shape=(1, 1)) for i in range(5)]
        d = trimmed_mean(ups, 2)
        assert np.allclose(d.delta.values, [2.5, -1.0], atol=0)

    def test_matches_sort_slice_oracle(self):
        rng = Rng(101)
        for _ in range(200):
            n = int(rng.integers(3, 10))
            beta = int(rng.integers(0, (n - 1) // 2 + 1))
            dim = int(rng.integers(1, 7))
            ups = random_updates(rng, n, dim, weighted=False)
            d = trimmed_mean(ups, beta)
            ref = trimmed_mean_naive([u.delta.values for u in ups], beta)
            assert np.max(np.abs(d.delta.values - ref)) <= 1e-12

    def test_mostly_trimmed_client_counts_as_excluded(self):
        # one client extreme in every coordinate: trimmed everywhere
        ups = [upd(i, [float(i), float(-i)], shape=(1, 1)) for i in range(4)]
        ups.append(upd(4, [1000.0, -1000.0], shape=(1, 1)))
        d = trimmed_mean(ups, 1)
        assert 4 in d.excluded

    def test_precondition(self):
        with pytest.raises(ValueError):
            trimmed_mean(scalar_updates([1.0, 2.0]), 1)


class TestKrum:
    def test_score_table(self):
        ups = scalar_updates([0.0, 0.1, 0.2, 0.3, 10.0])
        d = krum(ups, 1)
        scores = d.info["scores"]
        assert scores[0] == pytest.approx(0.05, abs=1e-12)
        assert scores[1] == pytest.approx(0.02, abs=1e-12)
        assert scores[2] == pytest.approx(0.02, abs=1e-12)
        assert scores[3] == pytest.approx(0.05, abs=1e-12)
        assert scores[4] == pytest.approx(190.13, abs=1e-9)
        # in exact arithmetic clients 1 and 2 tie; in floats 0.3 - 0.2
        # rounds just below 0.1, so the winner is the true float minimum
        ref = krum_scores_naive([u.delta.values for u in ups], 1)
        winner = min(range(5), key=lambda i: (ref[i], i))
        assert d.included == (winner,)

    def test_exact_tie_goes_to_lower_id(self):
        # eighths are exactly representable, so the middle two really tie
        ups = scalar_updates([0.0, 0.125, 0.25, 0.375, 10.0])
        d = krum(ups, 1)
        scores = d.info["scores"]
        assert scores[1] == scores[2] == 0.125 ** 2 * 2
        assert d.included == (1,)
        assert d.delta.values[0] == 0.125

    def test_identical_deltas_lowest_id_wins(self):
        ups = [upd(i, [1.0, 2.0], shape=(1, 1)) for i in range(5)]
        d = krum(ups, 1)
        assert d.included == (0,)
        assert np.array_equal(d.delta.values, [1.0, 2.0])

    def test_translation_leaves_winner_unchanged(self):
        rng = Rng(102)
        for _ in range(20):
            ups = random_updates(rng, 6, 3, weighted=False)
            base = krum(ups, 1)
            shift = rng.standard_normal(4)
            shifted = [
                upd(u.client, u.delta.values + shift, shape=(1, 3)) for u in ups
            ]
            assert krum(shifted, 1).included == base.included

    def test_scores_match_naive_recomputation_exactly(self):
        rng = Rng(103)
        for _ in range(200):
            f = int(rng.integers(0, 3))
            n = int(rng.integers(2 * f + 3, 2 * f + 8))
            dim = int(rng.integers(1, 12))
            ups = random_updates(rng, n, dim, weighted=False)
            d = krum(ups, f)
            ref = krum_scores_naive([u.delta.values for u in ups], f)
            ids = [u.client for u in ups]
            assert [d.info["scores"][i] for i in ids] == ref
            winner = min(range(n), key=lambda i: (ref[i], ids[i]))
            assert d.included == (ids[winner],)

    def test_precondition(self):
        with pytest.raises(ValueError):
            krum(scalar_updates([1.0, 2.0, 3.0, 4.0]), 1)


class TestMultiKrum:
    def test_two_best_averaged(self):
        ups = scalar_updates([0.0, 0.1, 0.2, 0.3, 10.0])
        d = multi_krum(ups, 1, 2)
        assert d.included == (1, 2)
        assert d.delta.values[0] == pytest.approx(0.15, abs=1e-12)

    def test_m_one_equals_krum(self):
        rng = Rng(104)
        for _ in range(50):
            ups = random_updates(rng, 7, 4)
            a = multi_krum(ups, 2, 1)
            b = krum(ups, 2)
            assert a.included == b.included
            assert a.excluded == b.excluded
            # same selection; delta differs only by the (w*v)/w round-trip
            assert np.max(np.abs(a.delta.values - b.delta.values)) <= 1e-12

    def test_outlier_excluded_with_m_4(self):
        ups = scalar_updates([0.0, 0.1, 0.2, 0.3, 10.0])
        d = multi_krum(ups, 1, 4)
        assert d.excluded == (4,)

    def test_weighted_average_of_selection(self):
        ups = scalar_updates([0.0, 0.1, 0.2, 0.3, 10.0], weights=[1, 3, 1, 1, 1])
        d = multi_krum(ups, 1, 2)
        assert d.delta.values[0] == pytest.approx((3 * 0.1 + 0.2) / 4, abs=1e-12)

    def test_preconditions(self):
        ups = scalar_updates([0.0, 0.1, 0.2, 0.3, 10.0])
        with pytest.raises(ValueError):
            multi_krum(ups, 1, 0)
        with pytest.raises(ValueError):
            multi_krum(ups, 1, 5)


class TestBulyan:
    def test_second_phase_median_window(self):
        # seven clients, f=1: selection keeps 5, aggregation averages the
        # 3 values closest to the median
        ups = scalar_updates([1.0, 2.0, 3.0, 4.0, 5.0, 100.0, -100.0])
        d = bulyan(ups, 1)
        assert d.included == (0, 1, 2, 3, 4)
        assert d.delta.values[0] == pytest.approx(3.0, abs=1e-12)

    def test_identical_deltas(self):
        ups = [upd(i, [0.5, 1.5], shape=(1, 1)) for i in range(7)]
        d = bulyan(ups, 1)
        assert np.array_equal(d.delta.values, [0.5, 1.5])

    def test_matches_step_by_step_oracle(self):
        rng = Rng(105)
        for _ in range(200):
            ups = random_updates(rng, 7, 1, weighted=False)
            d = bulyan(ups, 1)
            sel, agg = bulyan_naive(
                [u.delta.values for u in ups], [u.client for u in ups], 1
            )
            assert list(d.included) == sel
            assert np.array_equal(d.delta.values, agg)

    def test_precondition(self):
        with pytest.raises(ValueError):
            bulyan(scalar_updates([1.0] * 6), 1)


class TestGeomedian:
    def test_symmetric_cross(self):
        ups = [
            upd(0, [1.0, 0.0, 0.0], shape=(1, 2)),
            upd(1, [-1.0, 0.0, 0.0], shape=(1, 2)),
            upd(2, [0.0, 1.0, 0.0], shape=(1, 2)),
            upd(3, [0.0, -1.0, 0.0], shape=(1, 2)),
        ]
        d = geomedian(ups, weiszfeld_tol=1e-12, weiszfeld_max_iters=2000)
        assert np.max(np.abs(d.delta.values)) <= 1e-6
        assert d.excluded == ()

    def test_single_point(self):
        d = geomedian([upd(0, [2.0, -3.0], shape=(1, 1))])
        assert np.allclose(d.delta.values, [2.0, -3.0], atol=1e-12)

    def test_three_random_points_match_grid_oracle(self):
        rng = Rng(106)
        pts = rng.standard_normal((3, 2)) * 2.0
        ups = [upd(i, np.append(p, 0.0), shape=(1, 2)) for i, p in enumerate(pts)]
        d = geomedian(ups, weiszfeld_tol=1e-12, weiszfeld_max_iters=5000)
        ref = geomedian_grid_2d(pts, np.ones(3))
        assert np.max(np.abs(d.delta.values[:2] - ref)) <= 1e-4

    def test_weighted_instances_match_grid_oracle(self):
        # n >= 3 keeps the minimizer unique (two points tie along a segment);
        # instances near the anchor-dominance boundary are ill-conditioned
        # for every iterative method, so the draw screens them out
        rng = Rng(107)
        done = 0
        while done < 25:
            n = int(rng.integers(3, 7))
            pts = rng.standard_normal((n, 2)) * 3.0
            w = rng.integers(1, 5, size=n).astype(float)
            if anchor_dominance_margin(pts, w) < 0.05:
                continue
            done += 1
            ups = [
                upd(i, np.append(p, 0.0), num_samples=int(w[i]), shape=(1, 2))
                for i, p in enumerate(pts)
            ]
            d = geomedian(ups, weiszfeld_tol=1e-12, weiszfeld_max_iters=200_000)
            ref = geomedian_grid_2d(pts, w)
            assert np.max(np.abs(d.delta.values[:2] - ref)) <= 1e-4

    def test_overflowing_mean_distance_starts_from_the_median(self):
        # every distance from the weighted mean overflows, so a Weiszfeld
        # step from it would weigh every row 0 and give NaN; from the
        # coordinate median only the far row's distance overflows
        rows = Rng(131).standard_normal((5, 4))
        rows[3] *= 1e160
        ups = [upd(i, r, num_samples=i + 1, shape=(1, 3)) for i, r in enumerate(rows)]
        with np.errstate(over="ignore"):
            d = geomedian(ups)
        assert d.info == {"converged": True, "iterations": 203}
        assert hashlib.sha256(d.delta.values.tobytes()).hexdigest() == (
            "703939f022883dfe2fec634511401caff1d0d9e4d3a8363f7366cf5c677178b0"
        )

    def test_non_convergence_flagged_not_raised(self):
        # asymmetric points: the first iterate moves, so one iteration
        # cannot satisfy a tiny tolerance
        ups = scalar_updates([0.0, 1.0, 5.0])
        d = geomedian(ups, weiszfeld_tol=1e-15, weiszfeld_max_iters=1)
        assert d.info["converged"] is False


class TestSigmaPid:
    def test_single_far_outlier_excluded(self):
        # distances {~0, ~0, ~0, ~0, 5}: MAD floors, threshold near median
        ups = scalar_updates([0.1, 0.1, 0.1, 0.1, 5.0])
        d, _ = sigma_pid(ups, None, sigma_k=2.5)
        assert d.excluded == (4,)
        assert d.included == (0, 1, 2, 3)

    def test_pure_p_is_passthrough(self):
        ups = scalar_updates([1.0, 2.0, 3.0])
        d, _ = sigma_pid(ups, None, sigma_k=2.5, kp=1.0, ki=0.0, kd=0.0)
        assert d.delta.values[0] == pytest.approx(2.0, abs=1e-15)

    def test_all_equal_distances_exclude_nobody(self):
        ups = [upd(i, [1.0, 1.0], shape=(1, 1)) for i in range(5)]
        d, _ = sigma_pid(ups, None, sigma_k=2.5)
        assert d.excluded == ()

    def test_exclusion_set_scale_equivariant(self):
        rng = Rng(108)
        for _ in range(50):
            ups = random_updates(rng, 8, 4, weighted=False)
            base, _ = sigma_pid(ups, None, sigma_k=1.5)
            gamma = float(rng.random() * 9.9 + 0.1)
            scaled = [
                upd(u.client, gamma * u.delta.values, shape=(1, 4)) for u in ups
            ]
            d, _ = sigma_pid(scaled, None, sigma_k=1.5)
            assert d.excluded == base.excluded

    def test_state_threads_through_rounds(self):
        ups = scalar_updates([1.0, 1.0, 1.0])
        d1, s1 = sigma_pid(ups, None, sigma_k=2.5, kp=1.0, ki=0.5, kd=0.25)
        d2, s2 = sigma_pid(ups, s1, sigma_k=2.5, kp=1.0, ki=0.5, kd=0.25)
        # round 1: integral = e, derivative = 0 -> delta = e + 0.5 e
        assert d1.delta.values[0] == pytest.approx(1.5, abs=1e-12)
        # round 2: integral = 2e, derivative = 0 -> delta = e + 0.5 * 2e
        assert d2.delta.values[0] == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(s2.prev_error, s1.prev_error)

    def test_integral_norm_is_clipped(self):
        ups = scalar_updates([1.0, 1.0, 1.0])
        state = None
        for _ in range(40):
            _, state = sigma_pid(ups, state, sigma_k=2.5, ki=1.0)
        assert np.linalg.norm(state.integral) <= 10.0 * 1.0 + 1e-9

    def test_minimum_submissions(self):
        with pytest.raises(ValueError):
            sigma_pid(scalar_updates([1.0, 2.0]), None)


class TestCrossCuttingInvariants:
    def agg_calls(self, ups):
        yield "fedavg", lambda u: fedavg(u)
        yield "trimmed_mean", lambda u: trimmed_mean(u, 1)
        yield "krum", lambda u: krum(u, 1)
        yield "multi_krum", lambda u: multi_krum(u, 1, 3)
        yield "bulyan", lambda u: bulyan(u, 1)
        yield "geomedian", lambda u: geomedian(u)
        yield "sigma_pid", lambda u: sigma_pid(u, None)[0]

    def test_permutation_invariance(self):
        rng = Rng(109)
        for trial in range(30):
            ups = random_updates(rng, 7, 3)
            perm = rng.permutation(7)
            shuffled = [ups[i] for i in perm]
            for name, call in self.agg_calls(ups):
                a = call(ups)
                b = call(shuffled)
                assert a.included == b.included, name
                assert a.excluded == b.excluded, name
                assert np.array_equal(a.delta.values, b.delta.values), name

    def test_idempotence_on_constant_deltas(self):
        rng = Rng(110)
        vec = rng.standard_normal(4)
        ups = [upd(i, vec.copy(), shape=(1, 3)) for i in range(7)]
        for name, call in self.agg_calls(ups):
            d = call(ups)
            assert np.allclose(d.delta.values, vec, atol=1e-9), name

    def test_translation_equivariance_of_averaging_family(self):
        rng = Rng(111)
        for _ in range(20):
            ups = random_updates(rng, 7, 3, weighted=False)
            shift = rng.standard_normal(4)
            shifted = [
                upd(u.client, u.delta.values + shift, shape=(1, 3)) for u in ups
            ]
            for name, call in [
                ("fedavg", lambda u: fedavg(u)),
                ("trimmed_mean", lambda u: trimmed_mean(u, 1)),
                ("geomedian", lambda u: geomedian(u, 1e-12, 5000)),
            ]:
                a = call(ups)
                b = call(shifted)
                assert np.max(np.abs(b.delta.values - (a.delta.values + shift))) <= 1e-9, name
            for name, call in [
                ("krum", lambda u: krum(u, 1)),
                ("multi_krum", lambda u: multi_krum(u, 1, 3)),
                ("bulyan", lambda u: bulyan(u, 1)),
            ]:
                assert call(ups).included == call(shifted).included, name

    def test_krum_costs_more_than_fedavg(self):
        rng = Rng(112)
        for n in (3, 5, 10, 20):
            ups = random_updates(rng, n, 3)
            assert krum(ups, 0).overhead_ops > fedavg(ups).overhead_ops

    def test_duplicate_ids_rejected(self):
        ups = [upd(1, [1.0]), upd(1, [2.0]), upd(2, [3.0])]
        with pytest.raises(ValueError):
            fedavg(ups)


# Each public aggregator with params that hold on 7 updates.
AGGREGATOR_CALLS = {
    "fedavg": lambda u: fedavg(u),
    "trimmed_mean": lambda u: trimmed_mean(u, 1),
    "krum": lambda u: krum(u, 1),
    "multi_krum": lambda u: multi_krum(u, 1, 3),
    "bulyan": lambda u: bulyan(u, 1),
    "geomedian": lambda u: geomedian(u),
    "sigma_pid": lambda u: sigma_pid(u, None)[0],
}


class TestSharedEntry:
    def test_stack_updates_orders_by_client_id(self):
        ups = [upd(4, [1.0], num_samples=2), upd(0, [2.0], num_samples=3), upd(2, [3.0])]
        stack = stack_updates(ups)
        ids, mat, weights = stack.ids, stack.mat, stack.weights
        assert ids == [0, 2, 4]
        assert stack.shape == (1, 1)
        assert np.array_equal(mat, [[2.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        assert weights.tolist() == [3.0, 1.0, 2.0]

    def test_a_stack_stands_for_its_updates(self):
        ups = [upd(4, [1.0], num_samples=2), upd(0, [2.0], num_samples=3), upd(2, [3.0])]
        stack = stack_updates(ups)
        assert len(stack) == 3
        assert stack_updates(stack) is stack

    @pytest.mark.parametrize("name", AGGREGATOR_CALLS)
    def test_a_stack_decides_as_its_updates_do(self, name):
        ups = scalar_updates([0.5, -1.0, 3.0, 0.0, 40.0, 2.5, -0.25], [2, 1, 3, 1, 1, 4, 2])[::-1]
        by_stack, by_list = AGGREGATOR_CALLS[name](stack_updates(ups)), AGGREGATOR_CALLS[name](ups)
        assert (by_stack.included, by_stack.excluded) == (by_list.included, by_list.excluded)
        assert by_stack.delta.values.tobytes() == by_list.delta.values.tobytes()

    def test_the_shared_arrays_are_read_only(self):
        stack = stack_updates([upd(0, [1.0]), upd(1, [2.0]), upd(2, [3.0])])
        with pytest.raises(ValueError, match="read-only"):
            stack.mat[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            stack.weights[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            stack.distances[0][0] = 5.0

    @pytest.mark.parametrize("name", AGGREGATOR_CALLS)
    @pytest.mark.parametrize(
        "ups, message",
        [
            ([], "no updates"),
            # duplicate ids are reported before the shapes that also differ
            ([upd(1, [1.0]), upd(1, [1.0, 2.0, 3.0]), upd(2, [3.0])], "duplicate client ids"),
            ([upd(1, [1.0]), upd(2, [1.0, 2.0, 3.0])], "mismatched delta shapes"),
        ],
    )
    def test_ordering_errors_come_first(self, name, ups, message):
        with pytest.raises(ValueError, match=message):
            AGGREGATOR_CALLS[name](ups)

    def test_ordering_errors_come_before_param_checks(self):
        with pytest.raises(ValueError, match="no updates"):
            krum([], -1)
        with pytest.raises(ValueError, match="no updates"):
            multi_krum([], None, None)
        with pytest.raises(ValueError, match="krum.byzantine_f: krum needs at least 5 clients, got 4"):
            krum(scalar_updates([1.0, 2.0, 3.0, 4.0]), 1)
        with pytest.raises(ValueError, match="^sigma_pid needs at least 3 clients, got 2$"):
            sigma_pid(scalar_updates([1.0, 2.0]), None)

    def test_integer_params_are_taken_as_int(self):
        ups = random_updates(Rng(113), 7, 3)
        for call in (krum, bulyan, lambda u, f: trimmed_mean(u, f)):
            a, b = call(ups, 1), call(ups, np.int64(1))
            assert (a.included, a.excluded, a.overhead_ops) == (b.included, b.excluded, b.overhead_ops)
            assert np.array_equal(a.delta.values, b.delta.values)
            with pytest.raises(ValueError, match="expected an integer, got 1.0$"):
                call(ups, 1.0)

    @pytest.mark.parametrize("name", AGGREGATOR_CALLS)
    def test_included_and_excluded_split_the_ids_in_ascending_order(self, name):
        rng = Rng(114)
        ups = random_updates(rng, 7, 3)
        ups = [upd(3 * u.client + 1, u.delta.values, shape=(1, 3)) for u in ups]
        d = AGGREGATOR_CALLS[name]([ups[i] for i in rng.permutation(7)])
        assert list(d.included) == sorted(d.included)
        assert list(d.excluded) == sorted(d.excluded)
        assert sorted(d.included + d.excluded) == [u.client for u in ups]
        assert d.delta.shape == (1, 3)

    def test_krum_delta_is_the_winners_own_params(self):
        ups = random_updates(Rng(115), 7, 3)
        stack = stack_updates(ups)
        d = krum(stack, 1)
        (winner,) = d.included
        assert d.delta.values.tobytes() == ups[winner].delta.values.tobytes()
        assert not np.shares_memory(d.delta.values, stack.mat)


@st.composite
def krum_family_cases(draw, name):
    """Updates on a coarse grid, many of them repeated, so ties are common.

    Returns (updates in submission order, params, vectors and ids in
    ascending id order).
    """
    f = draw(st.integers(0, 5))
    params = {"byzantine_f": f}
    if name == "multi_krum":
        params["multi_krum_m"] = 1
    n = draw(st.integers(AGGREGATORS[name].min_clients(params), 25))
    if name == "multi_krum":
        params["multi_krum_m"] = draw(st.integers(1, n - f))
    dim = draw(st.integers(1, 4))
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    pool = draw(st.lists(st.lists(grid, min_size=dim + 1, max_size=dim + 1), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    ups = [upd(i, row, shape=(1, dim)) for i, row in zip(ids, rows)]
    ordered = sorted(zip(ids, rows))
    return ups, params, [np.asarray(r) for _, r in ordered], [i for i, _ in ordered]


class TestKrumKernelsMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(krum_family_cases("krum"))
    def test_krum_scores(self, case):
        ups, params, vectors, ids = case
        d = krum(ups, **params)
        ref = krum_scores_naive(vectors, params["byzantine_f"])
        assert np.array_equal([d.info["scores"][i] for i in ids], ref)
        assert d.included == (ids[min(range(len(ids)), key=lambda i: (ref[i], ids[i]))],)

    @settings(max_examples=200, deadline=None)
    @given(krum_family_cases("multi_krum"))
    def test_multi_krum_selection(self, case):
        ups, params, vectors, ids = case
        d = multi_krum(ups, **params)
        ref = krum_scores_naive(vectors, params["byzantine_f"])
        ranked = sorted(range(len(ids)), key=lambda i: (ref[i], ids[i]))
        assert d.included == tuple(sorted(ids[i] for i in ranked[: params["multi_krum_m"]]))

    @settings(max_examples=200, deadline=None)
    @given(krum_family_cases("bulyan"))
    def test_bulyan_selection_and_delta(self, case):
        ups, params, vectors, ids = case
        d = bulyan(ups, **params)
        sel, agg = bulyan_naive(vectors, ids, params["byzantine_f"])
        assert list(d.included) == sel
        assert np.array_equal(d.delta.values, agg)

    def test_pairwise_distances_equal_per_pair_dot(self):
        # np.einsum or the Gram identity would round differently here and
        # silently change every Krum-family metrics.csv
        mat = Rng(113).standard_normal((200, 330))
        ref = np.zeros((200, 200))
        for i in range(200):
            for j in range(200):
                if i != j:
                    diff = mat[i] - mat[j]
                    ref[i, j] = np.dot(diff, diff)
        assert np.array_equal(_pairwise_sq_dists(mat), ref)


class TestPairwiseKernelMatchesPerPairDot:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 600),
        exponent=st.integers(-8, 8),
        overflow=st.booleans(),
        repeats=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # above 10,000 values OpenBLAS splits a dot over its threads
    @example(n=12, dim=12000, exponent=0, overflow=False, repeats=False, seed=0)
    def test_same_bytes_over_shapes(self, n, dim, exponent, overflow, repeats, seed):
        rng = Rng(seed)
        mat = rng.standard_normal((n, dim)) * 10.0**exponent
        if overflow:  # distances from a 1e154 row overflow to inf
            mat[rng.integers(0, 2, size=n) == 1] *= 1e154
        if repeats:  # some rows drawn twice: zero distances off the diagonal
            mat = mat[rng.integers(0, n, size=n)]
        with np.errstate(over="ignore"):
            assert _pairwise_sq_dists(mat).tobytes() == sq_dists_per_pair(mat).tobytes()


def bulyan_rows(rng, kind, n, dim, distinct, exponent):
    """n update rows of dim + 1 values, drawn from ``distinct`` pool rows."""
    shape = (distinct, dim + 1)
    if kind == "grid":  # half steps: every distance and sum is exact
        pool = rng.integers(-4, 5, size=shape) / 2.0
    elif kind == "gaussian":
        pool = rng.standard_normal(shape) * 10.0**exponent
    elif kind == "mixed":  # magnitudes 1e-8 to 1e8 within one update set
        pool = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=(distinct, 1))
    elif kind == "offset":  # 0 or 2**26, plus -1, 0 or 1: sums of distances round
        pool = rng.integers(0, 2, size=shape) * 2.0**26 + rng.integers(-1, 2, size=shape)
    elif kind == "signed":  # half steps with both zeros: ties at equal distance and ±0
        pool = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])[rng.integers(0, 6, size=shape)]
    else:  # "overflow": distances between the 1e154 rows overflow to inf
        pool = rng.standard_normal(shape)
        pool[rng.integers(0, 2, size=distinct) == 1] *= 1e154
    return pool[rng.integers(0, distinct, size=n)]


class TestBulyanMatchesCompactingKernel:
    """The windowed selection must keep what the compacting one kept, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(3, 44),
        f_draw=st.integers(0, 10),
        dim=st.integers(1, 5),
        kind=st.sampled_from(["grid", "gaussian", "mixed", "offset", "overflow"]),
        distinct=st.integers(1, 44),
        exponent=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    # summed pairwise, as numpy sums along a contiguous last axis, the
    # windows of this case rank differently and keep another set
    @example(n=11, f_draw=2, dim=2, kind="offset", distinct=11, exponent=0, seed=14)
    # a coordinate's keep cut falls between equal distances on both sides
    # of its median: the smaller value stays, whichever client sent it
    @example(n=12, f_draw=1, dim=2, kind="grid", distinct=7, exponent=0, seed=6)
    # -0.0 and 0.0 tie at a coordinate's cut, and the column sort keeps the
    # other sign than the id order does; the delta bits stay the same
    @example(n=13, f_draw=1, dim=1, kind="signed", distinct=12, exponent=0, seed=25)
    @example(n=18, f_draw=1, dim=3, kind="signed", distinct=15, exponent=0, seed=13)
    def test_same_ids_and_delta_bits(self, n, f_draw, dim, kind, distinct, exponent, seed):
        f = f_draw % ((n - 3) // 4 + 1)  # 0 up to the largest f that n allows
        rng = Rng(seed)
        rows = bulyan_rows(rng, kind, n, dim, distinct, exponent)
        ids = [int(i) for i in rng.permutation(100)[:n]]
        ups = [upd(i, row, shape=(1, dim)) for i, row in zip(ids, rows)]
        by_id = sorted(range(n), key=lambda i: ids[i])
        with np.errstate(over="ignore"):
            d = bulyan(ups, f)
            picked, unpicked, delta = bulyan_compacting(rows[by_id], f)
        assert d.included == tuple(ids[by_id[i]] for i in picked)
        assert d.excluded == tuple(ids[by_id[i]] for i in unpicked)
        assert d.delta.values.tobytes() == delta.tobytes()



class TestBulyanColumnBlocks:
    """The trimmed average over column blocks keeps the compacting kernel's
    one-pass bits, whatever the block width and wherever the tail falls."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 30),
        f_draw=st.integers(0, 6),
        dim=st.integers(1, 12),
        width=st.integers(2, 5),
        kind=st.sampled_from(["grid", "gaussian", "mixed", "offset", "signed", "overflow"]),
        distinct=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    # d = 2 and d = 3: one block, the 1-column tail of d = 3 joined to it
    @example(n=9, f_draw=1, dim=1, width=2, kind="signed", distinct=9, seed=1)
    @example(n=9, f_draw=1, dim=2, width=2, kind="overflow", distinct=9, seed=2)
    # d = 5 in blocks of 2 and d = 7 in blocks of 3: the last block takes the tail
    @example(n=11, f_draw=2, dim=4, width=2, kind="signed", distinct=11, seed=3)
    @example(n=11, f_draw=2, dim=6, width=3, kind="overflow", distinct=11, seed=4)
    def test_any_width_gives_the_compacting_bits(self, n, f_draw, dim, width, kind, distinct, seed):
        f = f_draw % ((n - 3) // 4 + 1)
        rows = bulyan_rows(Rng(seed), kind, n, dim, distinct, 0)
        with np.errstate(over="ignore"):
            picked, _, delta = bulyan_compacting(rows, f)
            got = _trimmed_average(rows, picked, n - 4 * f, width)
        assert got.tobytes() == delta.tobytes()

    # n * n // |S| columns a block: 9 for n = 7, f = 1 and 17 for n = 11, f = 2,
    # so d = 19 and d = 35 split in two with a 1-column tail on the second;
    # 47 for n = 40, f = 3, so d = 601 runs in 13 blocks
    @pytest.mark.parametrize("n, f, dim", [(7, 1, 18), (11, 2, 34), (40, 3, 600)])
    @pytest.mark.parametrize("kind", ["gaussian", "signed", "overflow"])
    def test_bulyan_in_its_own_blocks_gives_the_compacting_ids_and_bits(self, n, f, dim, kind):
        rng = Rng(n + dim)
        rows = bulyan_rows(rng, kind, n, dim, n, 0)
        ids = [int(i) for i in rng.permutation(100)[:n]]
        by_id = sorted(range(n), key=lambda i: ids[i])
        with np.errstate(over="ignore"):
            d = bulyan([upd(i, row, shape=(1, dim)) for i, row in zip(ids, rows)], f)
            picked, unpicked, delta = bulyan_compacting(rows[by_id], f)
        assert d.included == tuple(ids[by_id[i]] for i in picked)
        assert d.excluded == tuple(ids[by_id[i]] for i in unpicked)
        assert d.delta.values.tobytes() == delta.tobytes()

MEDIAN_SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])


class TestSortedMedian:
    """_sorted_median must give np.median's values, NaN where it gives NaN.

    Bytes are not compared: a zero median may carry the other sign.
    """

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.integers(1, 60),
        cols=st.sampled_from([None, 1, 2, 5, 13]),  # None: a 1-D input
        special_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=2000, cols=13, special_share=0.7, seed=1)
    @example(rows=1999, cols=5, special_share=0.3, seed=2)
    @example(rows=2000, cols=None, special_share=1.0, seed=3)
    def test_values_and_nans_equal_np_median(self, rows, cols, special_share, seed):
        rng = Rng(seed)
        shape = (rows,) if cols is None else (rows, cols)
        x = rng.standard_normal(shape)
        special = rng.random(shape) < special_share
        x[special] = MEDIAN_SPECIALS[rng.integers(0, len(MEDIAN_SPECIALS), size=shape)][special]
        with np.errstate(invalid="ignore"):
            got = _sorted_median(np.sort(x, axis=0))
            want = np.median(x, axis=0)
        assert np.array_equal(got, want, equal_nan=True)


class TestRobustDistancesMatchMedianOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 44),
        dim=st.integers(1, 5),
        kind=st.sampled_from(["grid", "signed", "gaussian"]),
        distinct=st.integers(1, 44),
        scale=st.sampled_from([1.0, 1e154, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    # some distances overflow, the median distance stays finite
    @example(n=17, dim=2, kind="grid", distinct=9, scale=1e154, seed=0)
    @example(n=11, dim=2, kind="signed", distinct=9, scale=1e300, seed=1)
    # most distances overflow: the median is inf and inf - inf gives a NaN MAD
    @example(n=16, dim=1, kind="grid", distinct=3, scale=1e300, seed=3)
    @example(n=18, dim=2, kind="grid", distinct=4, scale=1e154, seed=18)
    def test_same_distance_bytes_median_and_scale(self, n, dim, kind, distinct, scale, seed):
        rng = Rng(seed)
        mat = bulyan_rows(rng, kind, n, dim, distinct, 0)
        mat[rng.integers(0, 2, size=n) == 1] *= scale  # their distances may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            dists, med, spread = robust_distances(mat)
            ref_dists, ref_med, ref_spread = robust_distances_np_median(mat)
        assert dists.tobytes() == ref_dists.tobytes()
        assert np.array_equal([med, spread], [ref_med, ref_spread], equal_nan=True)


class TestKrumScoresSumInAscendingOrder:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 44),
        dim=st.integers(1, 5),
        kind=st.sampled_from(["gaussian", "mixed", "offset"]),
        distinct=st.integers(1, 44),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_equal_the_loop_sum(self, n, dim, kind, distinct, seed):
        # on these inputs a pairwise or reordered sum differs in the last bits
        rows = bulyan_rows(Rng(seed), kind, n, dim, distinct, 0)
        f = (n - 3) // 4
        d = krum([upd(i, row, shape=(1, dim)) for i, row in enumerate(rows)], byzantine_f=f)
        assert np.array_equal(list(d.info["scores"].values()), krum_scores_naive(rows, f))


class TestDistancesToMatchesNorm:
    """One buffer squared in place must give the bytes of the norm's two."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 60),
        dim=st.integers(1, 700),
        exponent=st.integers(-150, 150),
        reference=st.sampled_from(["median", "row", "other"]),
        overflow=st.booleans(),
        repeats=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=9, dim=1, exponent=0, reference="median", overflow=True, repeats=True, seed=0)
    @example(n=1, dim=1, exponent=150, reference="row", overflow=True, repeats=False, seed=1)
    def test_same_bytes_as_linalg_norm(self, n, dim, exponent, reference, overflow, repeats, seed):
        rng = Rng(seed)
        mat = rng.standard_normal((n, dim)) * 10.0**exponent
        if overflow:  # rows x 1e154: their squares, or the rows themselves, overflow to inf
            mat[rng.integers(0, 2, size=n) == 1] *= 1e154
        if repeats:  # some rows drawn twice
            mat = mat[rng.integers(0, n, size=n)]
        if reference == "median":
            ref = _sorted_median(np.sort(mat, axis=0))
        elif reference == "row":  # an inf row minus itself gives NaN
            ref = mat[rng.integers(0, n)].copy()
        else:
            ref = rng.standard_normal(dim) * 10.0**exponent
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(mat - ref, axis=1)
            got = _distances_to(mat, ref)
        assert got.tobytes() == want.tobytes()


class TestKeptMeanMatchesWeightedMean:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 300),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_as_the_mean_of_the_gathered_rows(self, n, dim, exponent, seed):
        rng = Rng(seed)
        ups = [
            upd(i, rng.standard_normal(dim + 1) * 10.0**exponent, num_samples=int(rng.integers(1, 500)),
                shape=(1, dim))
            for i in range(n)
        ]
        stack = stack_updates(ups)
        rows = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        with np.errstate(over="ignore", invalid="ignore"):
            want = _weighted_mean(stack.mat[rows], stack.weights[rows])
            got = _weighted_mean(stack.mat, stack.weights, rows)
        assert got.tobytes() == want.tobytes()

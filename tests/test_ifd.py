"""Tests for the general IFD solver (Observation 2).

The anchor is an independent brute-force oracle: for small ``(M, k)`` it
enumerates every site choice of the ``k - 1`` opponents to get each site's
exact payoff, with no binomial law involved, and checks both IFD conditions
on the solver's strategy.
"""

from __future__ import annotations

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assert_oracle_ifd
from repro.core.ifd import ideal_free_distribution, verify_ifd
from repro.core.payoffs import exploitability, site_values
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    PowerLawPolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
import repro.batch.ifd as water_filling
from repro.batch.ifd import ifd_batch, water_filling_batch
from repro.batch.payoffs import congestion_table_batch
from repro.batch.scenarios import cost_adjusted_ifd_batch
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.serving import SolveRequest, evaluate_one, parse_request

ORACLE_POLICIES = [
    ExclusivePolicy(),
    SharingPolicy(),
    TwoLevelPolicy(0.4),
    TwoLevelPolicy(-0.3),
    PowerLawPolicy(2.0),
    AggressivePolicy(0.5),
]
ORACLE_IDS = ["exclusive", "sharing", "two-level+", "two-level-", "power-law", "aggressive"]


def oracle_instances():
    rng = np.random.default_rng(2018)
    instances = [SiteValues.uniform(3), SiteValues.two_sites(0.3), SiteValues.zipf(4)]
    instances += [SiteValues.random(m, rng) for m in (1, 2, 3, 4, 4)]
    return instances


class TestSolver:
    def test_matches_closed_form_for_exclusive(self, small_values):
        for k in (2, 3, 6):
            closed = sigma_star(small_values, k)
            numeric = ideal_free_distribution(
                small_values, k, ExclusivePolicy(), use_closed_form=False
            )
            np.testing.assert_allclose(
                numeric.strategy.as_array(), closed.strategy.as_array(), atol=1e-8
            )
            assert numeric.value == pytest.approx(closed.equilibrium_value, abs=1e-8)

    def test_closed_form_fast_path_flag(self, small_values):
        fast = ideal_free_distribution(small_values, 3, ExclusivePolicy(), use_closed_form=True)
        assert fast.iterations == 0

    def test_single_player(self, small_values, any_policy):
        result = ideal_free_distribution(small_values, 1, any_policy)
        assert result.strategy == Strategy.point_mass(4, 0)
        assert result.value == pytest.approx(small_values[0])

    def test_ifd_conditions_hold(self, small_values, any_policy):
        for k in (2, 3, 5):
            result = ideal_free_distribution(small_values, k, any_policy)
            report = verify_ifd(small_values, result.strategy, k, any_policy, atol=1e-6)
            assert report.is_ifd, (any_policy.name, k, report)

    def test_is_symmetric_nash(self, small_values, any_policy):
        result = ideal_free_distribution(small_values, 4, any_policy)
        gap = exploitability(small_values, result.strategy, 4, any_policy)
        assert gap <= 1e-6

    def test_sharing_two_sites_closed_form(self):
        # k=2, sharing, f=(1, f2): interior equilibrium satisfies
        # 1 - p/2 = f2 (1 - (1-p)/2)  =>  p = (2 - f2) / (1 + f2) when <= 1.
        f2 = 0.8
        values = SiteValues.two_sites(f2)
        result = ideal_free_distribution(values, 2, SharingPolicy())
        expected_p1 = (2 - f2) / (1 + f2) / 2  # solve 1*(1 - p1/2) = f2*(1 - p2/2), p2 = 1-p1
        # Derive directly: 1 - p1/2 = f2(1 - (1-p1)/2) -> 1 - p1/2 = f2(1+p1)/2... solve numerically instead
        p1 = result.strategy.as_array()[0]
        nu = site_values(values, result.strategy, 2, SharingPolicy())
        assert nu[0] == pytest.approx(nu[1], abs=1e-9)
        assert 0.5 < p1 < 1.0

    def test_sharing_concentrates_more_than_exclusive(self, small_values):
        # Sharing punishes collisions less, so the equilibrium piles more mass
        # on the top site than the exclusive equilibrium does.
        k = 3
        sharing = ideal_free_distribution(small_values, k, SharingPolicy())
        exclusive = ideal_free_distribution(small_values, k, ExclusivePolicy())
        assert sharing.strategy.as_array()[0] > exclusive.strategy.as_array()[0]

    def test_aggressive_spreads_more_than_exclusive(self, small_values):
        # Negative collision payoffs push players away from the top site even
        # harder than the exclusive policy does.
        k = 3
        aggressive = ideal_free_distribution(small_values, k, AggressivePolicy(0.5))
        exclusive = ideal_free_distribution(small_values, k, ExclusivePolicy())
        assert aggressive.strategy.as_array()[0] < exclusive.strategy.as_array()[0]
        assert aggressive.support_size >= exclusive.support_size

    def test_constant_policy_concentrates_on_best_site(self, small_values):
        result = ideal_free_distribution(small_values, 4, ConstantPolicy())
        assert result.strategy == Strategy.point_mass(4, 0)
        assert result.value == pytest.approx(small_values[0])

    def test_constant_policy_with_ties_spreads_over_argmax(self):
        values = SiteValues.from_values([1.0, 1.0, 0.5])
        result = ideal_free_distribution(values, 3, ConstantPolicy())
        np.testing.assert_allclose(result.strategy.as_array(), [0.5, 0.5, 0.0])

    def test_uniform_values_give_uniform_ifd(self, any_policy):
        values = SiteValues.uniform(5)
        result = ideal_free_distribution(values, 3, any_policy)
        np.testing.assert_allclose(result.strategy.as_array(), 0.2, atol=1e-7)

    def test_single_site(self, any_policy):
        values = SiteValues.uniform(1)
        result = ideal_free_distribution(values, 3, any_policy)
        assert result.strategy.as_array()[0] == pytest.approx(1.0)

    def test_support_size_field_consistent(self, small_values, any_policy):
        result = ideal_free_distribution(small_values, 3, any_policy)
        assert result.support_size == int(np.count_nonzero(result.strategy.as_array() > 1e-12))

    def test_rejects_bad_k(self, small_values):
        with pytest.raises(ValueError):
            ideal_free_distribution(small_values, 0, SharingPolicy())

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        m=st.integers(min_value=2, max_value=15),
        k=st.integers(min_value=2, max_value=8),
        c=st.floats(min_value=-0.75, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=8, m=4, k=8, c=0.78125)
    def test_two_level_ifd_properties(self, seed, m, k, c):
        values = SiteValues.random(m, np.random.default_rng(seed))
        policy = TwoLevelPolicy(c)
        result = ideal_free_distribution(values, k, policy)
        probs = result.strategy.as_array()
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        report = verify_ifd(values, result.strategy, k, policy, atol=1e-5)
        assert report.is_ifd
        assert result.converged

    @given(
        gamma=st.floats(min_value=0.1, max_value=4.0),
        k=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_law_equilibrium_value_positive(self, gamma, k):
        values = SiteValues.zipf(8)
        result = ideal_free_distribution(values, k, PowerLawPolicy(gamma))
        assert result.value > 0


class TestVerifyIFD:
    def test_accepts_true_ifd(self, small_values):
        result = sigma_star(small_values, 3)
        report = verify_ifd(small_values, result.strategy, 3, ExclusivePolicy())
        assert report.is_ifd
        assert report.support_size == result.support_size
        assert report.support_value_spread < 1e-10

    def test_rejects_non_ifd(self, small_values):
        report = verify_ifd(small_values, Strategy.point_mass(4, 3), 3, ExclusivePolicy())
        assert not report.is_ifd
        assert report.max_outside_advantage > 0

    def test_rejects_uniform_on_decreasing_values(self, small_values):
        report = verify_ifd(small_values, Strategy.uniform(4), 3, SharingPolicy())
        assert not report.is_ifd


class TestBruteForceOracle:
    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=ORACLE_IDS)
    def test_scalar_solver_meets_the_oracle(self, policy):
        for values in oracle_instances():
            for k in range(1, 6):
                result = ideal_free_distribution(values, k, policy, use_closed_form=False)
                assert result.converged, (values, k)
                assert_oracle_ifd(values.as_array(), 0.0, result.strategy.as_array(), k, policy)

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=ORACLE_IDS)
    def test_batch_solver_meets_the_oracle(self, policy):
        instances = oracle_instances()
        batch = ifd_batch(instances, (2, 3, 5), policy)
        assert bool(batch.converged.all())
        for row, values in enumerate(instances):
            for column, k in enumerate((2, 3, 5)):
                strategy = batch.probabilities[row, column, : values.m]
                assert_oracle_ifd(values.as_array(), 0.0, strategy, k, policy)

    @pytest.mark.parametrize("policy", ORACLE_POLICIES[1:], ids=ORACLE_IDS[1:])
    def test_cost_adjusted_solver_meets_the_oracle(self, policy):
        rng = np.random.default_rng(51)
        for values in oracle_instances():
            costs = rng.uniform(0.0, 0.4, size=values.m)
            for k in range(1, 6):
                result = cost_adjusted_ifd_batch(values.as_array()[None, :], costs, k, policy)
                assert result.converged[0], (values, k)
                assert_oracle_ifd(values.as_array(), costs, result.probabilities[0], k, policy)

    def test_near_saturated_two_level_counterexample(self):
        # A high-value site sits where g(q) = c + (1 - c)(1 - q)^7 is flat, so
        # dq/dv ~ 1e9: renormalising a strategy with mass off by ~1e-4 would
        # move the other support sites' payoffs by ~1e-5.
        policy = TwoLevelPolicy(0.78125)
        pinned = SiteValues.random(4, np.random.default_rng(8))
        result = ideal_free_distribution(pinned, 8, policy)
        assert result.converged
        assert_oracle_ifd(pinned.as_array(), 0.0, result.strategy.as_array(), 8, policy)
        geometric = [SiteValues.from_values(ratio ** np.arange(6)) for ratio in (0.8, 0.9)]
        batch = ifd_batch(geometric, [8], policy)
        for row, values in enumerate(geometric):
            assert bool(batch.converged[row, 0])
            strategy = Strategy(batch.probabilities[row, 0])
            report = verify_ifd(values, strategy, 8, policy, atol=1e-9)
            assert report.is_ifd, report


class TestLargePlayerCounts:
    @pytest.mark.parametrize("k", [40, 2000, 10_000])
    def test_sharing_solve_is_finite_and_converged(self, k):
        values = SiteValues.zipf(8)
        result = ideal_free_distribution(values, k, SharingPolicy())
        assert result.converged
        assert np.isfinite(result.value) and np.all(np.isfinite(result.strategy.as_array()))
        report = verify_ifd(values, result.strategy, k, SharingPolicy(), atol=1e-9)
        assert report.is_ifd, report

    def test_served_large_k_solve_is_finite_json(self):
        request = SolveRequest(tuple(SiteValues.zipf(8).as_array()), k=2000, policy="sharing")
        payload = evaluate_one(request)
        text = json.dumps(payload, allow_nan=False)
        assert json.loads(text)["converged"] is True
        assert np.isfinite(payload["equilibrium_value"])

    def test_served_exclusive_answers_at_huge_k(self):
        # Recognising the exclusive policy must not tabulate C up to k.
        solve = evaluate_one(
            parse_request("solve", {"values": [3, 2, 1], "k": 10**18, "policy": "exclusive"})
        )
        assert solve["converged"] is True
        np.testing.assert_allclose(solve["probabilities"], 1 / 3, rtol=1e-12)
        sweep = evaluate_one(parse_request("sweep", {"values": [3, 2, 1], "k_grid": [2, 10**18]}))
        assert sweep["support_sizes"] == [2, 3]
        json.dumps([solve, sweep], allow_nan=False)


class TestUnitOfValue:
    """An answer may not depend on the unit the site values are written in."""

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("k", [3, 7, 200])
    def test_converged_does_not_flip_with_the_unit(self, scale, m, k):
        # A site worth 1e-15 of the best one: the support payoffs agree to a
        # rounding floor of a few 1e-17 of the best value, whatever its unit.
        def solve(unit):
            body = {"values": [unit] + [unit * 1e-15] * (m - 1), "k": k, "policy": "aggressive"}
            return evaluate_one(parse_request("solve", body))

        reference, scaled = solve(1.0), solve(scale)
        assert reference["converged"] is True
        assert scaled["converged"] is True
        np.testing.assert_allclose(scaled["probabilities"], reference["probabilities"], rtol=1e-12)

    def test_values_near_the_largest_double_solve_without_overflow(self):
        # Used to answer p = [1, 0], converged false, with numpy overflow warnings.
        # The request is built directly: ``parse_request`` refuses a total
        # above 2^1023, but the solver must still handle these values.
        request = SolveRequest([1.7e308, 1.0], k=3, policy="aggressive")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            payload = evaluate_one(request)
        json.dumps(payload, allow_nan=False)
        assert payload["converged"] is True
        # The best site's payoff vanishes where 1.5 (1 - q)^2 = 0.5.
        np.testing.assert_allclose(
            payload["probabilities"], [1 - 3**-0.5, 3**-0.5], rtol=1e-12
        )

    @pytest.mark.parametrize("power", [-40, 30])
    def test_power_of_two_units_scale_exactly(self, power):
        rng = np.random.default_rng(24)
        ks = np.array([1, 2, 3, 5, 30])
        policies = ORACLE_POLICIES + [ConstantPolicy()]
        rows = []
        for policy in policies:
            for k in ks:
                for m in (1, 3, 6):
                    values = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
                    costs = rng.uniform(0.0, 0.2, m) * (k % 2)
                    rows.append((values, costs, k, policy.table(int(ks.max()))))
        # The unit-of-value probe: a second site worth 1e-15 of the first.
        tiny = np.array([1.0, 1e-15, 1e-15])
        rows += [(tiny, np.zeros(3), k, AggressivePolicy(0.5).table(int(ks.max()))) for k in ks]
        width = max(values.size for values, *_ in rows)
        values = np.ones((len(rows), width))
        costs = np.zeros((len(rows), width))
        mask = np.zeros((len(rows), width), dtype=bool)
        for row, (f, d, _, _) in enumerate(rows):
            values[row, : f.size], costs[row, : f.size], mask[row, : f.size] = f, d, True
        k = np.array([row[2] for row in rows])
        tables = np.stack([row[3] for row in rows])

        base = water_filling_batch(values, costs, k, tables, mask=mask)
        scaled = water_filling_batch(
            np.ldexp(values, power), np.ldexp(costs, power), k, tables, mask=mask
        )
        assert bool(base.converged.all())
        np.testing.assert_array_equal(scaled.probabilities, base.probabilities)
        np.testing.assert_array_equal(scaled.converged, base.converged)
        np.testing.assert_array_equal(scaled.support_sizes, base.support_sizes)
        np.testing.assert_array_equal(scaled.values, np.ldexp(base.values, power))


REFERENCE = Path(__file__).parent / "data" / "water_filling_reference.json"
REFERENCE_POLICIES = {
    "sharing": SharingPolicy(),
    "aggressive": AggressivePolicy(0.5),
    "power-law": PowerLawPolicy(2.0),
}


def reference_batch():
    """The reference rows (zipf, geometric and random values, M 2-32, k 3-24) as one batch."""
    rows = json.loads(REFERENCE.read_text())["rows"]
    width = max(len(row["values"]) for row in rows)
    values = np.ones((len(rows), width))
    mask = np.zeros((len(rows), width), dtype=bool)
    for index, row in enumerate(rows):
        values[index, : len(row["values"])] = row["values"]
        mask[index, : len(row["values"])] = True
    k = np.array([row["k"] for row in rows])
    tables = np.stack([REFERENCE_POLICIES[row["policy"]].table(int(k.max())) for row in rows])
    return rows, values, mask, k, tables


class TestMultisection:
    """The outer solve tries three payoffs per step on the de Casteljau rows."""

    def test_rows_converge_to_the_reference_equilibria(self):
        # The reference answers come from the earlier 56-step bisection.
        rows, values, mask, k, tables = reference_batch()
        assert {row["family"] for row in rows} == {"zipf", "geometric", "random"}
        solved = water_filling_batch(values, None, k, tables, mask=mask)
        assert bool(solved.converged.all())
        for index, row in enumerate(rows):
            m = len(row["values"])
            np.testing.assert_allclose(
                solved.probabilities[index, :m], row["probabilities"], rtol=0, atol=1e-12
            )
            assert solved.values[index] == pytest.approx(row["payoff"], rel=0, abs=1e-12)

    def test_a_row_alone_equals_the_row_in_its_batch(self):
        _, values, mask, k, tables = reference_batch()
        batch = water_filling_batch(values, None, k, tables, mask=mask)
        for index in range(values.shape[0]):
            m = int(mask[index].sum())
            alone = water_filling_batch(
                values[index : index + 1, :m], None, k[index : index + 1], tables[index : index + 1]
            )
            np.testing.assert_array_equal(alone.probabilities[0], batch.probabilities[index, :m])
            assert alone.converged[0] == batch.converged[index]
            # The realised payoff sums the occupancy law to the batch's largest
            # k (the documented exception), so it may differ in the last ulp.
            assert alone.values[0] == pytest.approx(batch.values[index], rel=1e-15)

    @pytest.mark.parametrize(
        "k, evaluations", [(9, 68), (2000, 123)], ids=["de-casteljau", "log-space"]
    )
    def test_evaluations_per_solve(self, monkeypatch, k, evaluations):
        """Host-independent cost guard: ``g`` evaluations of one solve.

        Three candidates per step need 28 outer steps of two evaluations
        each, plus the trivial bounds of the rows and of their stacked
        copies and the polish of both bracket ends (2 x 5).  The log-space
        rows bisect for 56 steps: 1 + 2 x 56 + 10.
        """
        counts = []

        class Counting:
            def __init__(self, inner):
                self.inner = inner
                counts.append(0)

            def restrict(self, rows):
                staged = self.inner.restrict(rows)

                def evaluate(q, slope=True):
                    counts[-1] += 1
                    return staged(q, slope)

                return evaluate

            def __call__(self, q, rows=None, slope=True):
                return self.restrict(rows)(q, slope)

        original = water_filling.bernstein_evaluator
        monkeypatch.setattr(
            water_filling, "bernstein_evaluator", lambda *args: Counting(original(*args))
        )
        values = np.stack([SiteValues.zipf(6).as_array(), SiteValues.geometric(6).as_array()])
        ks = np.array([k, k])
        policies = (SharingPolicy(), AggressivePolicy(0.5))
        tables = np.concatenate([congestion_table_batch(policy, ks[:1] - 1) for policy in policies])
        assert bool(water_filling_batch(values, None, ks, tables).converged.all())
        assert counts == [evaluations]

    def test_all_tied_rows_converge_to_the_uniform_strategy(self):
        """All-tied log-space rows can collapse the bracket onto equal masses.

        The final convex combination used to divide by ``mass_lo - mass_hi``
        there, and such a row came back NaN or -inf and unconverged.  The
        first two rows are two such collapses; the rest are a seeded sample
        of tied rows over M 2-64 and k 26-200, any scale, two policies.
        """
        rng = np.random.default_rng(26)
        n = 24
        m = np.concatenate([[30, 24], rng.integers(2, 65, n)])
        k = np.concatenate([[40, 26], rng.integers(26, 201, n)])
        scale = np.concatenate([[1.0, 4140491394483.2295], 10.0 ** rng.uniform(-12, 12, n)])
        width = int(m.max())
        values = np.broadcast_to(scale[:, None], (m.size, width)).copy()
        mask = np.arange(width)[None, :] < m[:, None]
        power_law = ((np.arange(m.size) % 2 == 0) | (np.arange(m.size) < 2))[:, None]
        tables = np.where(
            power_law,
            congestion_table_batch(PowerLawPolicy(2.0), k - 1),
            congestion_table_batch(SharingPolicy(), k - 1),
        )
        solved = water_filling_batch(values, None, k, tables, mask=mask)
        assert bool(solved.converged.all())
        assert np.isfinite(solved.probabilities).all() and np.isfinite(solved.values).all()
        np.testing.assert_array_equal(solved.support_sizes, m)
        for row in range(m.size):
            np.testing.assert_allclose(solved.probabilities[row, : m[row]], 1.0 / m[row], rtol=1e-12)

    def test_log_space_peak_memory(self):
        """The log-space rows keep one candidate: the pmf tensor must not triple.

        The peak sits in the final polish, whose paired probes build an
        ``(R, 2M, k)`` binomial pmf tensor; the 56-step bisection peaked at
        3.237 such tensors (numpy 2.4), three candidates per step would need
        about three times that.
        """
        values = SiteValues.zipf(16).as_array()[None, :]
        k = np.array([2000])
        tables = congestion_table_batch(SharingPolicy(), k - 1)
        water_filling_batch(values, None, k, tables)  # builds the cached pmf plans
        tracemalloc.start()
        try:
            solved = water_filling_batch(values, None, k, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(solved.converged[0])
        tensor = 2 * values.size * int(k[0]) * 8
        assert peak <= 3.24 * tensor

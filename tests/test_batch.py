"""Property tests of the batched solvers against independent oracles.

The anchors share no code with the kernels: the exclusive IFD conditions
checked directly on ``sigma_star``, exact enumeration of every pure profile
for coverage and SPoA (``M, k <= 5``, :mod:`oracles`), and the coverage
optimum found by water filling on the KKT multiplier.

The whole module runs once per available array backend (numpy always;
``array_api_strict`` when installed, skip-marked otherwise): an autouse
fixture activates each backend around every test, so the batched kernels are
exercised on the alternative namespace while the oracles stay on the host.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import backend_params
from oracles import (
    assert_oracle_ifd,
    enumerated_coverage,
    maximize_coverage_projected_gradient,
    maximize_coverage_waterfilling,
)
from repro.backend import from_numpy, load_backend, resolve_backend, to_numpy, use_backend
from repro.batch import (
    PaddedValues,
    capacity_coverage_batch,
    coverage_batch,
    expected_coverage_time_batch,
    ifd_batch,
    optimal_coverage_batch,
    partial_coverage_time_batch,
    sigma_star_batch,
    site_values_batch,
    spoa_batch,
    support_size_batch,
)
from repro.batch.solvers import _int_power_columns
from repro.core.ifd import ideal_free_distribution
from repro.core.policies import (
    AggressivePolicy,
    ConstantPolicy,
    ExclusivePolicy,
    SharingPolicy,
    TwoLevelPolicy,
)
from repro.core.sigma_star import sigma_star
from repro.core.strategy import Strategy
from repro.core.values import SiteValues
from repro.search.coverage_times import expected_coverage_time, partial_coverage_time

K_GRID = (1, 2, 3, 5, 11)

#: Smaller grid for the tests that also run the scalar water-filling IFD
#: per cell (the expensive side of the comparison is the scalar loop).
IFD_K_GRID = (1, 2, 5)

#: Player counts small enough to enumerate every pure profile.
ENUM_K_GRID = (1, 2, 3, 5)


@pytest.fixture(autouse=True, params=backend_params())
def array_backend(request):
    """Re-run every solver property test under each available backend."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture(scope="module")
def ragged_instances() -> list[SiteValues]:
    """A randomized ragged batch covering the solver edge cases.

    Includes single-site instances (W = 1), uniform profiles (W = M), the
    Figure 1 two-site instances, and random instances with M from 1 to 12.
    """
    rng = np.random.default_rng(20180503)
    instances = [SiteValues.random(int(m), rng) for m in rng.integers(1, 13, size=12)]
    instances += [
        SiteValues.from_values([1.0]),  # M = 1: support W = 1 for every k
        SiteValues.uniform(6),
        SiteValues.two_sites(0.3),
        SiteValues.two_sites(0.5),
        SiteValues.geometric(9, ratio=0.6),
        SiteValues.zipf(10, exponent=1.3),
        SiteValues.slowly_decreasing(12, 3),
    ]
    return instances


@pytest.fixture(scope="module")
def enumerable_instances(ragged_instances) -> list[SiteValues]:
    """The ragged instances with at most 5 sites, plus ties and steep decays."""
    extra = [SiteValues.uniform(5), SiteValues.geometric(5, ratio=0.3), SiteValues.zipf(4, 2.0)]
    return [values for values in ragged_instances if values.m <= 5] + extra


class TestPaddedValues:
    def test_packing_round_trip(self, ragged_instances):
        padded = PaddedValues.from_instances(ragged_instances)
        assert padded.batch_size == len(ragged_instances)
        assert padded.width == max(v.m for v in ragged_instances)
        for index, values in enumerate(ragged_instances):
            assert padded.row(index) == values

    def test_mask_matches_sizes(self, ragged_instances):
        padded = PaddedValues.from_instances(ragged_instances)
        np.testing.assert_array_equal(padded.mask.sum(axis=1), padded.sizes)

    def test_padding_is_positive_and_sorted(self, ragged_instances):
        padded = PaddedValues.from_instances(ragged_instances)
        assert np.all(padded.values > 0)
        assert np.all(np.diff(padded.values, axis=1) <= 1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    def test_rejects_non_finite_or_non_positive_values(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            sigma_star_batch(np.array([[bad, 1.0]]), [2])

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            PaddedValues.from_instances([])

    def test_unsorted_raw_arrays_are_sorted(self):
        padded = PaddedValues.from_instances([np.array([0.2, 1.0, 0.5])])
        np.testing.assert_allclose(padded.values[0], [1.0, 0.5, 0.2])

    def test_explicit_width_pads_beyond_longest_row(self, ragged_instances):
        longest = max(v.m for v in ragged_instances)
        padded = PaddedValues.from_instances(ragged_instances, width=longest + 5)
        assert padded.width == longest + 5
        np.testing.assert_array_equal(
            padded.sizes, [v.m for v in ragged_instances]
        )
        # Padding columns replicate each row's own smallest value and stay
        # out of the mask, so downstream masked reductions see exact zeros.
        for index, values in enumerate(ragged_instances):
            assert padded.row(index) == values
            tail = padded.values[index, values.m :]
            np.testing.assert_array_equal(tail, values.as_array()[-1])
        np.testing.assert_array_equal(padded.mask.sum(axis=1), padded.sizes)

    def test_explicit_width_too_narrow_raises(self, ragged_instances):
        longest = max(v.m for v in ragged_instances)
        with pytest.raises(ValueError, match="narrower than the longest"):
            PaddedValues.from_instances(ragged_instances, width=longest - 1)

    def test_explicit_width_preserves_results(self, ragged_instances):
        # Widening the padding must not change any answer — only where the
        # real terms sit in the reduction tree (which is why the serving
        # layer pins a width bucket per request).
        narrow = sigma_star_batch(
            PaddedValues.from_instances(ragged_instances), K_GRID
        )
        wide = sigma_star_batch(
            PaddedValues.from_instances(ragged_instances, width=32), K_GRID
        )
        np.testing.assert_array_equal(narrow.support_sizes, wide.support_sizes)
        np.testing.assert_allclose(
            narrow.equilibrium_values, wide.equilibrium_values, rtol=1e-12
        )
        np.testing.assert_allclose(
            narrow.probabilities,
            wide.probabilities[:, :, : narrow.padded.width],
            atol=1e-12,
        )
        assert np.abs(wide.probabilities[:, :, narrow.padded.width :]).max() == 0.0

    def test_clear_device_cache_repopulates_lazily(self, ragged_instances):
        padded = PaddedValues.from_instances(ragged_instances)
        backend = load_backend("numpy")
        first = padded.fmask_for(backend)  # fmask caches even on numpy
        assert padded.fmask_for(backend) is first
        padded.clear_device_cache()
        second = padded.fmask_for(backend)
        assert second is not first
        np.testing.assert_array_equal(second, first)
        # Host-side canonical arrays are untouched by the cache drop.
        assert padded.values.flags.writeable is False


class TestSigmaStarBatch:
    def test_meets_the_exclusive_ifd_conditions(self, ragged_instances):
        # nu(x) = f(x) (1 - p(x))**(k-1) under the exclusive policy: equal to
        # the equilibrium value on the support, no larger off it; mass one.
        batch = sigma_star_batch(ragged_instances, K_GRID)
        for b, values in enumerate(ragged_instances):
            f = values.as_array()
            for j, k in enumerate(K_GRID):
                cell = batch.result(b, j)
                p, w = cell.probabilities, cell.support_size
                assert cell.k == k
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(p[:w] > 0) and np.all(p[w:] == 0), (b, k)
                nu = f * (1.0 - p) ** (k - 1)
                np.testing.assert_allclose(nu[:w], cell.equilibrium_value, rtol=1e-12, atol=1e-15)
                assert np.all(nu[w:] <= cell.equilibrium_value * (1 + 1e-12)), (b, k)
                if k > 1 and w > 1:
                    assert cell.alpha ** (k - 1) == pytest.approx(cell.equilibrium_value, rel=1e-12)
                else:
                    assert cell.alpha == 0.0

    def test_is_the_coverage_optimum_of_both_oracles(self, ragged_instances):
        # Theorem 4: sigma_star maximises the coverage, which both optimisers
        # find without reference to the game.
        batch = sigma_star_batch(ragged_instances, K_GRID)
        for b, values in enumerate(ragged_instances):
            for j, k in enumerate(K_GRID):
                p = batch.probabilities[b, j, : values.m]
                waterfilling = maximize_coverage_waterfilling(values, k).strategy.as_array()
                np.testing.assert_allclose(p, waterfilling, atol=1e-9)
                if k in (2, 3):
                    gradient = maximize_coverage_projected_gradient(values, k)
                    assert gradient.coverage == pytest.approx(
                        enumerated_coverage(values.as_array(), p, k), abs=1e-8
                    )

    def test_padding_columns_are_zero(self, ragged_instances):
        batch = sigma_star_batch(ragged_instances, K_GRID)
        inverse_mask = ~batch.padded.mask
        leaked = batch.probabilities * inverse_mask[:, None, :]
        assert np.abs(leaked).max() == 0.0

    def test_rows_are_distributions(self, ragged_instances):
        batch = sigma_star_batch(ragged_instances, K_GRID)
        np.testing.assert_allclose(batch.probabilities.sum(axis=2), 1.0, atol=1e-9)
        assert np.all(batch.probabilities >= 0)

    def test_chunked_evaluation_identical(self, ragged_instances):
        full = sigma_star_batch(ragged_instances, K_GRID)
        chunked = sigma_star_batch(ragged_instances, K_GRID, max_elements=64)
        np.testing.assert_array_equal(full.support_sizes, chunked.support_sizes)
        np.testing.assert_array_equal(full.probabilities, chunked.probabilities)

    def test_support_size_batch_shortcut(self, ragged_instances):
        supports = support_size_batch(ragged_instances, K_GRID)
        batch = sigma_star_batch(ragged_instances, K_GRID)
        np.testing.assert_array_equal(supports, batch.support_sizes)

    def test_k_grid_validation(self):
        with pytest.raises(ValueError):
            sigma_star_batch([SiteValues.uniform(3)], [0])
        with pytest.raises(ValueError):
            sigma_star_batch([SiteValues.uniform(3)], [])
        with pytest.raises(ValueError):
            sigma_star_batch([SiteValues.uniform(3)], [1.5])
        # Bools and near-integers are refused, not rounded to a player count.
        for bad in ([2.000001], [True, 3], True):
            with pytest.raises(ValueError, match="k_grid"):
                sigma_star_batch([SiteValues.uniform(3)], bad)

    def test_scalar_k_accepted(self):
        batch = sigma_star_batch([SiteValues.zipf(5)], 3)
        assert batch.probabilities.shape == (1, 1, 5)


class TestSigmaStarEdgeCases:
    """The kernel's edge cases against the brute-force exclusive IFD conditions."""

    #: Rows whose support condition h(y) <= 1 holds with equality at a tie
    #: group on the boundary (k = 2: h(3) = h(4) = 1 exactly), a uniform row
    #: and a single-site row.
    BOUNDARY = ([1.0, 1 / 3, 0.25, 0.25], [1.0, 0.5, 0.5, 0.5], [2.0, 2.0, 2.0], [3.0])

    @staticmethod
    def check_cells(rows, batch, ks):
        for b, row in enumerate(rows):
            f = np.sort(np.asarray(row, dtype=float))[::-1]
            for j, k in enumerate(ks):
                p = batch.probabilities[b, j]
                assert np.all(p[f.size :] == 0), (b, k)  # padding never gets mass
                value = assert_oracle_ifd(f, np.zeros(f.size), p[: f.size], k, ExclusivePolicy())
                assert batch.equilibrium_values[b, j] == pytest.approx(value, rel=1e-12, abs=1e-15)
                # W is a prefix; a boundary site with h(W) = 1 is in it at mass zero.
                w = batch.support_sizes[b, j]
                assert np.all(p[w:] == 0) and np.all(p[: np.count_nonzero(p)] > 0), (b, k)

    def test_ties_across_the_support_boundary(self):
        batch = sigma_star_batch([np.array(row) for row in self.BOUNDARY], (2, 3, 4))
        self.check_cells(self.BOUNDARY, batch, (2, 3, 4))
        # At k = 2 the boundary tie takes no mass, and both tied sites alike.
        np.testing.assert_allclose(batch.probabilities[0, 0], [0.75, 0.25, 0.0, 0.0], atol=1e-15)

    def test_single_site_rows_and_k_one_columns_mixed_with_larger_k(self):
        rows = [[3.0], [1.0, 0.4], [2.0, 1.5, 1.0, 0.2], [1.0]]
        ks = (1, 2, 3, 1000)
        batch = sigma_star_batch([np.array(row) for row in rows], ks)
        self.check_cells(rows, batch, ks[:3])  # k = 1000 is past brute force
        np.testing.assert_array_equal(batch.probabilities[[0, 3], :, 0], 1.0)
        np.testing.assert_array_equal(batch.equilibrium_values[[0, 3], 1:], 0.0)
        np.testing.assert_array_equal(batch.equilibrium_values[:, 0], [3.0, 1.0, 2.0, 1.0])
        np.testing.assert_array_equal(batch.support_sizes[:, 0], 1)
        np.testing.assert_array_equal(batch.alpha[:, 0], 0.0)

    def test_padding_far_wider_than_the_rows(self):
        rows = [[1.0, 0.6, 0.3], [0.9, 0.9, 0.1, 0.05], [5.0]]
        padded = PaddedValues.from_instances([np.array(row) for row in rows], width=128)
        batch = sigma_star_batch(padded, (2, 3, 5))
        self.check_cells(rows, batch, (2, 3, 5))
        narrow = sigma_star_batch([np.array(row) for row in rows], (2, 3, 5))
        for b, row in enumerate(rows):
            np.testing.assert_allclose(
                batch.probabilities[b, :, : len(row)], narrow.probabilities[b, :, : len(row)],
                rtol=1e-14, atol=1e-15,
            )


class TestUnsortedMatrices:
    """A (B, M) matrix keeps the caller's site order; the closed forms answer in it."""

    MATRIX = np.array([[0.2, 1.0, 0.5], [1.0, 0.5, 0.2]])

    def test_sigma_star_answers_in_the_callers_order(self):
        batch = sigma_star_batch(self.MATRIX, [2])
        expected = [[0, 2 / 3, 1 / 3], [2 / 3, 1 / 3, 0]]
        np.testing.assert_allclose(batch.probabilities[:, 0], expected)
        np.testing.assert_array_equal(batch.support_sizes[:, 0], [2, 2])
        np.testing.assert_array_equal(batch.equilibrium_values[0], batch.equilibrium_values[1])
        assert not batch.padded.descending and batch.padded.values[0, 0] == 0.2

    def test_optimal_coverage_is_the_sorted_rows(self):
        coverage = optimal_coverage_batch(self.MATRIX, [2, 3])
        np.testing.assert_allclose(coverage[0], coverage[1], rtol=1e-15)
        assert coverage[0, 0] == pytest.approx(7 / 6, rel=1e-15)

    def test_exclusive_ifd_closed_form_matches_water_filling(self):
        closed = ifd_batch(self.MATRIX, [2, 3], ExclusivePolicy())
        iterated = ifd_batch(self.MATRIX, [2, 3], ExclusivePolicy(), use_closed_form=False)
        assert closed.converged.all() and iterated.converged.all()
        np.testing.assert_allclose(closed.probabilities, iterated.probabilities, atol=1e-9)
        np.testing.assert_allclose(closed.probabilities[0, 0], [0, 2 / 3, 1 / 3])


class TestCoverageBatch:
    def test_matches_enumeration_for_random_strategies(self, enumerable_instances, rng):
        padded = PaddedValues.from_instances(enumerable_instances)
        strategies = np.zeros((padded.batch_size, padded.width))
        for b, values in enumerate(enumerable_instances):
            strategies[b, : values.m] = Strategy.random(values.m, rng).as_array()
        batch_cover = coverage_batch(padded, strategies, ENUM_K_GRID)
        for b, values in enumerate(enumerable_instances):
            for j, k in enumerate(ENUM_K_GRID):
                exact = enumerated_coverage(values.as_array(), strategies[b, : values.m], k)
                assert batch_cover[b, j] == pytest.approx(exact, abs=1e-12)

    def test_optimal_coverage_matches_the_oracle_optimum(self, enumerable_instances):
        best = optimal_coverage_batch(enumerable_instances, ENUM_K_GRID)
        for b, values in enumerate(enumerable_instances):
            for j, k in enumerate(ENUM_K_GRID):
                optimum = maximize_coverage_waterfilling(values, k).strategy.as_array()
                exact = enumerated_coverage(values.as_array(), optimum, k)
                assert best[b, j] == pytest.approx(exact, abs=1e-10)

    def test_unsorted_raw_instance_is_refused_not_misaligned(self):
        # Sorting the values would leave the strategy in the caller's order.
        raw, strategy = np.array([0.2, 1.0, 0.5]), np.array([[0.7, 0.2, 0.1]])
        with pytest.raises(ValueError, match="wrap them in SiteValues"):
            coverage_batch([raw], strategy, 3)
        with pytest.raises(ValueError, match="wrap them in SiteValues"):
            capacity_coverage_batch([raw], strategy, 3, 1)
        with pytest.raises(ValueError, match="wrap them in SiteValues"):
            site_values_batch([raw], strategy, 3, ExclusivePolicy())
        # A (1, M) matrix keeps the caller's order.
        exact = enumerated_coverage(raw, strategy[0], 3)
        assert exact == pytest.approx(0.8181, abs=1e-12)
        assert coverage_batch(raw[None, :], strategy, 3)[0, 0] == pytest.approx(exact, abs=1e-12)
        assert capacity_coverage_batch(raw[None, :], strategy, 3, 1)[0] == pytest.approx(
            exact, abs=1e-12
        )

    def test_shape_validation(self):
        padded = PaddedValues.from_instances([SiteValues.uniform(4)])
        with pytest.raises(ValueError):
            coverage_batch(padded, np.zeros((2, 4)), [2])


class TestIFDBatch:
    @pytest.mark.parametrize(
        "policy",
        [
            ExclusivePolicy(),
            SharingPolicy(),
            ConstantPolicy(),
            TwoLevelPolicy(0.25),
            TwoLevelPolicy(-0.25),
            AggressivePolicy(0.5),
        ],
        ids=["exclusive", "sharing", "constant", "two-level+", "two-level-", "aggressive"],
    )
    def test_matches_scalar_ifd(self, ragged_instances, policy):
        batch = ifd_batch(ragged_instances, IFD_K_GRID, policy)
        for b, values in enumerate(ragged_instances):
            for j, k in enumerate(IFD_K_GRID):
                scalar = ideal_free_distribution(values, k, policy)
                tv = 0.5 * np.abs(
                    batch.probabilities[b, j, : values.m] - scalar.strategy.as_array()
                ).sum()
                assert tv < 1e-5, (b, k, policy.name, tv)

    def test_probabilities_are_distributions(self, ragged_instances):
        batch = ifd_batch(ragged_instances, (2, 4), SharingPolicy())
        np.testing.assert_allclose(batch.probabilities.sum(axis=2), 1.0, atol=1e-6)
        assert bool(batch.converged.all())

    def test_exclusive_uses_closed_form(self, ragged_instances):
        closed = ifd_batch(ragged_instances, (2, 3), ExclusivePolicy())
        star = sigma_star_batch(ragged_instances, (2, 3))
        np.testing.assert_array_equal(closed.probabilities, star.probabilities)
        np.testing.assert_array_equal(closed.support_sizes, star.support_sizes)


def _int_power_column(xp, base, exponent: int):
    """Reference: ``base ** exponent`` for one column by binary exponentiation."""
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return xp.ones_like(base) if result is None else result


class TestKernelContracts:
    """Rewrites of the closed-form path that must not move a single bit."""

    def test_vectorised_power_matches_per_column_loop(self):
        be = resolve_backend(None)
        rng = np.random.default_rng(7)
        alphas = np.concatenate(
            [
                rng.uniform(0.0, 1.5, size=12),
                [0.0, 1.0, 0.5, 2.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-300, 1e10],
            ]
        )
        exponents = np.arange(2000, dtype=np.int64)  # k = 1 .. 2000
        base = from_numpy(be, np.repeat(alphas[:, None], exponents.size, axis=1))
        with np.errstate(over="ignore"):
            vectorised = to_numpy(_int_power_columns(be, base, exponents))
            reference = np.stack(
                [
                    to_numpy(_int_power_column(be.xp, base[:, column], int(e)))
                    for column, e in enumerate(exponents)
                ],
                axis=1,
            )
        np.testing.assert_array_equal(vectorised, reference)

    def test_exclusive_ifd_is_sigma_star_field_for_field(self, ragged_instances):
        rng = np.random.default_rng(11)
        instances = list(ragged_instances) + [SiteValues.random(m, rng) for m in (40, 65, 127)]
        ks = (2, 3, 5, 8, 40, 300)
        ifd = ifd_batch(instances, ks, ExclusivePolicy())
        star = sigma_star_batch(instances, ks)
        np.testing.assert_array_equal(ifd.probabilities, star.probabilities)
        np.testing.assert_array_equal(ifd.values, star.equilibrium_values)
        np.testing.assert_array_equal(ifd.support_sizes, star.support_sizes)
        np.testing.assert_array_equal(ifd.k_grid, star.k_grid)
        assert ifd.converged.shape == star.support_sizes.shape
        assert bool(ifd.converged.all())


class TestSPoABatch:
    @pytest.mark.parametrize(
        "policy",
        [ExclusivePolicy(), SharingPolicy(), TwoLevelPolicy(-0.25)],
        ids=["exclusive", "sharing", "two-level-"],
    )
    def test_ratio_of_enumerated_coverages(self, enumerable_instances, policy):
        # Numerator: the enumerated coverage of the water-filling optimum.
        # Denominator: the enumerated coverage of the unique IFD, which the
        # brute-force payoffs certify.
        batch = spoa_batch(enumerable_instances, ENUM_K_GRID, policy)
        equilibria = ifd_batch(enumerable_instances, ENUM_K_GRID, policy)
        for b, values in enumerate(enumerable_instances):
            f = values.as_array()
            for j, k in enumerate(ENUM_K_GRID):
                equilibrium = equilibria.probabilities[b, j, : values.m]
                assert_oracle_ifd(f, 0.0, equilibrium, k, policy)
                optimum = maximize_coverage_waterfilling(values, k).strategy.as_array()
                best = enumerated_coverage(f, optimum, k)
                reached = enumerated_coverage(f, equilibrium, k)
                got = batch.instance(b, j)
                assert got.k == k and got.m == values.m
                assert got.optimal_coverage == pytest.approx(best, abs=1e-10)
                assert got.equilibrium_coverage == pytest.approx(reached, abs=1e-10)
                assert got.ratio == pytest.approx(best / reached, rel=1e-9)

    def test_exclusive_ratios_are_one(self, ragged_instances):
        batch = spoa_batch(ragged_instances, (2, 3, 5), ExclusivePolicy())
        np.testing.assert_allclose(batch.ratios, 1.0, atol=1e-9)

    def test_argmax_points_at_largest_ratio(self, ragged_instances):
        batch = spoa_batch(ragged_instances, (2, 3), SharingPolicy())
        b, j = batch.argmax()
        assert batch.ratios[b, j] == batch.ratios.max()


_VALUES = SiteValues.zipf(3)
_VISITS = np.array([0.5, 0.3, 0.2])

#: Scalar front and batch kernel of each count argument, as functions of the count.
#: Capacity coverage has no scalar front: its pair is the one-row call with a
#: per-site requirement vector and the batch call with a scalar requirement.
COUNT_FRONTS = {
    "sigma_star k": (
        lambda bad: sigma_star(_VALUES, bad),
        lambda bad: sigma_star_batch([_VALUES], bad),
    ),
    "expected_coverage_time k": (
        lambda bad: expected_coverage_time(_VISITS, bad),
        lambda bad: expected_coverage_time_batch([_VISITS], bad),
    ),
    "partial_coverage_time j": (
        lambda bad: partial_coverage_time(_VISITS, 2, bad),
        lambda bad: partial_coverage_time_batch([_VISITS], 2, bad),
    ),
    "capacity_coverage requirements": (
        lambda bad: capacity_coverage_batch(
            _VALUES.as_array()[None, :], np.full((1, 3), 1 / 3), 2, np.full(3, bad)
        ),
        lambda bad: capacity_coverage_batch([_VALUES], np.full((1, 3), 1 / 3), 2, bad),
    ),
}


@pytest.mark.parametrize("bad", [True, 2.5, 2.000001, float("nan"), 0])
@pytest.mark.parametrize("front", sorted(COUNT_FRONTS))
def test_scalar_front_and_batch_kernel_refuse_the_same_bad_counts(front, bad):
    scalar, batch = COUNT_FRONTS[front]
    with pytest.raises((TypeError, ValueError)):
        scalar(bad)
    with pytest.raises((TypeError, ValueError)):
        batch(bad)

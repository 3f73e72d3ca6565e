"""Tests for the experiment harness (analysis subpackage)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ascii_line_plot,
    assemble_figure1_panels,
    coverage_ratio_sweep,
    render_report,
    support_size_sweep,
    write_panels_csv,
)
from repro.analysis.figure1 import build_figure1_spec
from repro.analysis.reporting import figure1_report, rows_to_table
from repro.analysis.spoa_experiments import (
    CertificateRow,
    SharingBoundRow,
    default_policy_roster,
)
from repro.core.policies import ExclusivePolicy, SharingPolicy
from repro.core.values import SiteValues
from repro.experiments import run_registered
from repro.experiments.registry import build_experiment
from repro.utils.io import read_csv

# Small grids keep the harness tests fast while exercising every code path.
SMALL_C_GRID = np.linspace(-0.5, 0.5, 11)


def _figure1_panels(**options):
    return assemble_figure1_panels(run_registered("figure1", k=2, **options).rows)


@pytest.fixture(scope="module")
def left_panel():
    panels = _figure1_panels(second_values=(0.3,), c_grid=SMALL_C_GRID, welfare_grid_points=801)
    return panels["f2=0.3"]


@pytest.fixture(scope="module")
def right_panel():
    panels = _figure1_panels(second_values=(0.5,), c_grid=SMALL_C_GRID, welfare_grid_points=801)
    return panels["f2=0.5"]


@pytest.fixture(scope="module")
def quick_spoa():
    # The quick preset: worst cases over M in (2, 5), k in (2, 3) with 3 random
    # instances; the sharing-bound search over the same M and k with 5.
    return run_registered("spoa", quick=True, seed=0)


class TestFigure1:
    def test_ess_peaks_exactly_at_exclusive(self, left_panel, right_panel):
        # The headline qualitative claim of Figure 1: ESS coverage is maximised
        # at c = 0 and meets the optimum there.
        for panel in (left_panel, right_panel):
            assert panel.argmax_c == pytest.approx(0.0)
            assert panel.peak_gap == pytest.approx(0.0, abs=1e-9)

    def test_ess_strictly_below_optimum_away_from_zero(self, left_panel, right_panel):
        for panel in (left_panel, right_panel):
            mask = np.abs(panel.c_grid) > 1e-9
            assert np.all(panel.ess_coverage[mask] < panel.optimal_coverage - 1e-9)

    def test_ess_coverage_monotone_towards_zero(self, left_panel):
        # Coverage increases as c rises towards 0 and decreases beyond it.
        c = left_panel.c_grid
        ess = left_panel.ess_coverage
        below = ess[c <= 0]
        above = ess[c >= 0]
        assert np.all(np.diff(below) >= -1e-12)
        assert np.all(np.diff(above) <= 1e-12)

    def test_welfare_optimum_meets_optimum_at_sharing(self, left_panel, right_panel):
        # At c = 0.5 (sharing with two players) welfare == coverage, so the
        # welfare-optimal strategy achieves the optimal coverage; at the
        # aggressive end (c = -0.5) it falls strictly below.
        for panel in (left_panel, right_panel):
            idx = int(np.argmin(np.abs(panel.c_grid - 0.5)))
            assert panel.welfare_optimum_coverage[idx] == pytest.approx(
                panel.optimal_coverage, abs=1e-4
            )
            assert panel.welfare_optimum_coverage[0] < panel.optimal_coverage - 1e-3

    def test_optimum_values_match_paper_instances(self, left_panel, right_panel):
        # Closed form for k=2, f=(1, f2): optimal coverage = 1 + f2 - f2/(1+f2).
        for panel, f2 in ((left_panel, 0.3), (right_panel, 0.5)):
            expected = 1 + f2 - f2 / (1 + f2)
            assert panel.optimal_coverage == pytest.approx(expected, abs=1e-12)

    def test_series_and_csv_round_trip(self, tmp_path, left_panel):
        series = left_panel.as_series()
        assert set(series) == {"c", "ess_coverage", "optimal_coverage", "welfare_optimum_coverage"}
        panels = _figure1_panels(c_grid=SMALL_C_GRID, welfare_grid_points=201)
        paths = write_panels_csv(panels, tmp_path)
        assert len(paths) == 2
        headers, rows = read_csv(paths[0])
        assert headers[0] == "c"
        assert len(rows) == SMALL_C_GRID.size

    def test_panels_helper_names(self):
        panels = _figure1_panels(c_grid=np.linspace(-0.1, 0.1, 3), welfare_grid_points=101)
        assert set(panels) == {"f2=0.3", "f2=0.5"}

    def test_rejects_c_above_one(self):
        with pytest.raises(ValueError):
            build_figure1_spec(second_values=(0.3,), c_grid=np.array([0.0, 1.5]))


class TestObservation1Experiment:
    def test_all_instances_hold(self):
        rows = run_registered(
            "observation1", m_values=(5, 20), k_values=(2, 5), n_random=2, seed=0
        ).rows
        assert rows
        assert all(row.holds for row in rows)
        assert all(row.ratio > row.bound for row in rows)

    def test_uniform_bound_is_proof_step(self):
        # The proof lower-bounds the optimum by the uniform-over-top-k strategy.
        rows = run_registered(
            "observation1", m_values=(10,), k_values=(3,), n_random=1, seed=1
        ).rows
        for row in rows:
            assert row.optimal_coverage >= row.uniform_top_k_coverage - 1e-12
            assert row.uniform_top_k_coverage > row.bound * row.top_k_coverage - 1e-12


class TestSPoAExperiments:
    @pytest.mark.parametrize(
        "policies",
        [[ExclusivePolicy(), SharingPolicy()], default_policy_roster()],
        ids=["exclusive-sharing", "default-roster"],
    )
    def test_exclusive_worst_ratio_is_one(self, policies):
        rows = run_registered(
            "spoa",
            policies=policies,
            m_values=(2, 5),
            k_values=(2, 3),
            n_random=3,
            include_certificates=False,
            include_sharing_bound=False,
            seed=0,
        ).rows
        by_name = {row.policy_name: row for row in rows}
        assert by_name["exclusive"].worst_ratio == pytest.approx(1.0, abs=1e-8)
        assert 1.0 < by_name["sharing"].worst_ratio <= 2.0
        assert all(row.worst_ratio >= 1.0 - 1e-9 for row in rows)

    def test_theorem6_certificates(self, quick_spoa):
        certificates = quick_spoa.rows_of_type(CertificateRow)
        assert len(certificates) == len(default_policy_roster())
        for row in certificates:
            assert row.k == 3
            if row.policy_name == "exclusive":
                assert row.ratio == pytest.approx(1.0, abs=1e-9)
            else:
                assert row.ratio > 1.0, row.policy_name

    def test_sharing_upper_bound_check(self, quick_spoa):
        (row,) = quick_spoa.rows_of_type(SharingBoundRow)
        assert 1.0 < row.max_ratio <= 2.0

    def test_explicit_grid_options_win_over_the_quick_preset(self):
        spec = build_experiment("spoa", quick=True, m_values=(3,), n_random=50, sharing_n_random=7)
        assert spec.metadata["m_values"] == (3,) and spec.metadata["n_random"] == 50
        assert spec.metadata["k_values"] == (2, 3)  # left unset: the quick preset
        worst_case = [task for task in spec.grid if task["kind"] == "worst-case"]
        assert {(task["m_values"], task["n_random"]) for task in worst_case} == {((3,), 50)}
        (sharing,) = [task for task in spec.grid if task["kind"] == "sharing-bound"]
        assert (sharing["m_values"], sharing["n_random"]) == ((2, 5), 7)
        full = build_experiment("spoa").metadata
        assert (full["m_values"], full["k_values"], full["n_random"]) == ((2, 5, 10), (2, 3, 5), 10)


class TestESSExperiment:
    def test_all_instances_are_ess(self):
        rows = run_registered(
            "ess", m_values=(3,), k_values=(2, 3), n_random_mutants=5, seed=0
        ).rows
        assert rows
        for row in rows:
            assert row.is_ess
            assert row.worst_margin > 0
            assert row.mutant_suppressed
            assert row.mutant_final_share < 0.02


class TestSweeps:
    def test_coverage_ratio_sweep_shapes_and_bounds(self):
        values = SiteValues.zipf(10)
        sweep = coverage_ratio_sweep(
            values, [ExclusivePolicy(), SharingPolicy()], k_values=(2, 4, 8)
        )
        assert sweep.x_values.shape == (3,)
        assert set(sweep.curves) == {"exclusive", "sharing"}
        np.testing.assert_allclose(sweep.curves["exclusive"], 1.0, atol=1e-9)
        assert np.all(sweep.curves["sharing"] <= 1.0 + 1e-12)
        series = sweep.as_series()
        assert "k" in series

    def test_support_size_sweep_monotone(self):
        families = {"zipf": SiteValues.zipf(60), "uniform": SiteValues.uniform(60)}
        sweep = support_size_sweep(families, k_values=(2, 4, 8, 16))
        assert np.all(np.diff(sweep.curves["zipf"]) >= 0)
        np.testing.assert_allclose(sweep.curves["uniform"], 60)


class TestReportingHelpers:
    def test_rows_to_table(self):
        rows = run_registered(
            "observation1", m_values=(5,), k_values=(2,), n_random=0, seed=0
        ).rows
        table = rows_to_table(rows)
        assert "family" in table.splitlines()[0]
        assert len(table.splitlines()) == len(rows) + 2

    def test_rows_to_table_empty_and_invalid(self):
        assert rows_to_table([]) == "(no rows)"
        with pytest.raises(TypeError):
            rows_to_table([{"not": "a dataclass"}])

    def test_figure1_report_contains_key_numbers(self, left_panel):
        report = figure1_report({"f2=0.3": left_panel})
        assert "peak at c" in report
        assert "Figure 1 panel" in report

    def test_render_report_structure(self):
        text = render_report("Title", [("Section", "body")])
        assert text.splitlines()[0] == "Title"
        assert "Section" in text

    def test_ascii_plot_dimensions_and_symbols(self):
        x = np.linspace(0, 1, 20)
        plot = ascii_line_plot(x, {"a": x, "b": 1 - x}, width=40, height=10, title="demo")
        lines = plot.splitlines()
        assert lines[0] == "demo"
        assert any("*" in line for line in lines)
        assert any("o" in line for line in lines)

    def test_ascii_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_line_plot([], {"a": []})
        with pytest.raises(ValueError):
            ascii_line_plot([0, 1], {})
        with pytest.raises(ValueError):
            ascii_line_plot([0, 1], {"a": [1, 2, 3]})
        with pytest.raises(ValueError):
            ascii_line_plot([0, 1], {"a": [1, 2]}, width=2, height=2)

    def test_ascii_plot_constant_curve(self):
        plot = ascii_line_plot([0, 1, 2], {"flat": [1.0, 1.0, 1.0]})
        assert "flat" in plot

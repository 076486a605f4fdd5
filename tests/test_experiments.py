"""Experiment harness: every module at small scale, its table, and the
paper's claims as shape asserts (growth, ordering, ratio)."""

from __future__ import annotations

import pytest

from repro.experiments.ablation import VARIANTS, format_ablation, run_ablation
from repro.experiments.asynchrony import format_asynchrony, run_asynchrony
from repro.experiments.baseline import format_baseline, run_baseline
from repro.experiments.economy import format_economy, run_economy
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import format_fig6, run_fig6
from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.join_leave import format_join_leave, run_join_leave
from repro.experiments.lookup import format_lookup, run_lookup
from repro.experiments.messages import format_messages, run_messages
from repro.experiments.phases import format_phases, run_phases
from repro.experiments.runner import MeanStd, format_sweep, mean_std, sweep_sizes
from repro.experiments.scaling import format_scaling, run_scaling
from repro.experiments.usability import format_usability, run_usability

#: Figs. 5-7 sizes: the smallest ladder whose shapes hold with margin
FIG_SIZES = (5, 25, 45)
#: Theorems 1.1/4.1/4.2: one 4x step is enough to see sublinear growth
SUBLINEAR_SIZES = (8, 32)
#: asynchrony and proof phases
ASYNC_SIZES = (8, 16)


class TestRunner:
    def test_mean_std_singleton(self):
        ms = mean_std([4.0])
        assert ms.mean == 4.0 and ms.std == 0.0 and ms.count == 1

    def test_mean_std_sample(self):
        ms = mean_std([1.0, 3.0])
        assert ms.mean == 2.0 and ms.std == pytest.approx(1.4142, rel=1e-3)

    def test_mean_std_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_meanstd_format(self):
        assert f"{MeanStd(1.25, 0.5, 2):.1f}" == "1.2±0.5"

    def test_sweep_derives_independent_seeds(self):
        seen = []

        def measure(n, seed):
            seen.append(seed)
            return {"x": n}

        result = sweep_sizes(measure, sizes=(2, 3), seeds=2, label="t")
        assert len(set(seen)) == 4
        assert result[2]["x"].mean == 2.0

    def test_sweep_requires_seeds(self):
        with pytest.raises(ValueError):
            sweep_sizes(lambda n, s: {}, sizes=(2,), seeds=0)

    def test_format_sweep_table(self):
        result = {4: {"a": mean_std([1.0, 2.0])}}
        table = format_sweep(result, columns=("a", "missing"), title="T")
        assert "T" in table and "1.5" in table and "-" in table


class TestFigureModules:
    """Every paper claim, checked at the smallest sizes that show its shape."""

    def test_fig5(self):
        result = run_fig5(sizes=FIG_SIZES, seeds=2)
        for n in FIG_SIZES:
            assert result[n]["virtual_nodes"].mean > 0
            assert result[n]["connection_edges"].mean >= 0
        # virtual nodes grow with n
        virtuals = [result[n]["virtual_nodes"].mean for n in FIG_SIZES]
        assert all(a < b for a, b in zip(virtuals, virtuals[1:]))
        # connection edges overtake normal edges as n grows
        ratio = [
            result[n]["connection_edges"].mean / result[n]["normal_edges"].mean
            for n in FIG_SIZES
        ]
        assert ratio[-1] > ratio[0]
        out = format_fig5(result)
        assert "Fig. 5" in out and "connection_edges" in out

    def test_fig6(self):
        sizes = (FIG_SIZES[0], FIG_SIZES[-1])
        result = run_fig6(sizes=sizes, seeds=2)
        for n in sizes:
            assert result[n]["rounds_almost"].mean <= result[n]["rounds_stable"].mean
        # growth stays far below the O(n log n) bound: at most linear
        first, last = (result[n]["rounds_stable"].mean for n in sizes)
        assert last / max(1.0, first) <= sizes[-1] / sizes[0]
        assert "almost" in format_fig6(result)

    def test_fig7(self):
        result = run_fig7(sizes=FIG_SIZES, seeds=2)
        assert len(result.points) == 2 * len(FIG_SIZES)
        # total edges grow at a rate comparable to total nodes
        assert 2.0 <= result.slope <= 20.0
        assert result.edges_per_node() >= 2.0
        assert "total edges" in format_fig7(result)

    def test_scaling(self):
        """Theorem 1.1: the O(n log n) bound is loose, so the normalized
        rounds fall as n grows (the paper's own observation)."""
        result = run_scaling(sizes=SUBLINEAR_SIZES, seeds=2)
        assert result[SUBLINEAR_SIZES[0]]["rounds"].mean >= 1
        norm = [result[n]["rounds_over_nlogn"].mean for n in SUBLINEAR_SIZES]
        assert norm[-1] < norm[0]
        assert "Theorem 1.1" in format_scaling(result)

    def test_join_leave(self):
        """Theorems 4.1/4.2: join and leave recovery scale sublinearly,
        and a leave costs no more than a join (O(log n) vs O(log^2 n))."""
        result = run_join_leave(sizes=SUBLINEAR_SIZES, seeds=2)
        for n in SUBLINEAR_SIZES:
            row = result[n]
            assert row["join_rounds"].mean > 0
            assert row["leave_rounds"].mean >= 0
            assert row["leave_rounds"].mean <= row["join_rounds"].mean + 2
        first, last = SUBLINEAR_SIZES
        for column in ("join_rounds", "leave_rounds"):
            growth = result[last][column].mean / max(1.0, result[first][column].mean)
            assert growth < last / first, f"{column} must scale sublinearly"
        assert "Theorems 4.1/4.2" in format_join_leave(result)

    def test_lookup(self):
        """Fact 2.1 holds and greedy routes stay O(log n)."""
        sizes = (16, 64)
        result = run_lookup(sizes=sizes, seeds=2)
        for n in sizes:
            assert result[n]["chord_coverage"].mean == 1.0
            assert result[n]["max_hops"].mean >= 1
        assert max(result[n]["hops_over_log2"].mean for n in sizes) < 1.5
        assert "Fact 2.1" in format_lookup(result)

    def test_baseline(self):
        result = run_baseline(sizes=(6,), seeds=2, root_seed=1)
        row = result[6]
        assert row["chord_tworing_recovered"].mean == 0.0
        assert row["rechord_tworing_recovered"].mean == 1.0
        assert row["rechord_random_recovered"].mean == 1.0
        assert "E8" in format_baseline(result)

    def test_ablation(self):
        rows = run_ablation(
            n=8, seeds=2, budget_rounds=800, variants=("full", "no_ring", "no_overlap")
        )
        by_name = {r.variant: r for r in rows}
        assert by_name["full"].ideal_fraction == 1.0
        assert by_name["no_ring"].ideal_fraction == 0.0  # a list, not a ring
        assert by_name["no_ring"].chord_coverage.mean < 1.0
        # rule 2 is a shortcut: removing it never speeds convergence up
        assert by_name["no_overlap"].rounds.mean >= by_name["full"].rounds.mean
        assert "E10" in format_ablation(rows)

    def test_ablation_variant_names(self):
        assert set(VARIANTS) >= {"full", "no_ring", "no_wrap", "no_overlap", "no_connection"}

    def test_messages(self):
        profile = run_messages(n=8)
        assert profile.peak >= profile.steady_rate > 0
        # the flow ramps up from the sparse initial graph: round 1 is never the peak
        assert profile.series[0] < profile.peak
        assert profile.total == sum(profile.series)
        out = format_messages(profile)
        assert "msgs/round" in out

    def test_phases(self):
        """Lemmas 3.2-3.11 in proof order: connection and ring before cleanup."""
        result = run_phases(sizes=ASYNC_SIZES, seeds=2)
        for n in ASYNC_SIZES:
            row = result[n]
            assert row["connection"].mean <= row["cleanup"].mean
            assert row["ring"].mean <= row["cleanup"].mean
        assert "Lemmas" in format_phases(result)

    def test_economy(self):
        """The economical broadcast keeps convergence speed and cuts steady traffic."""
        result = run_economy(sizes=(16,), seeds=2)
        row = result[16]
        assert row["rounds_eco"].mean <= row["rounds_full"].mean + 2
        assert row["steady_saving"].mean > 0.1
        assert "economical" in format_economy(result)

    def test_asynchrony(self):
        """Convergence survives fair partial activation, stretched sub-4/p."""
        result = run_asynchrony(sizes=ASYNC_SIZES, seeds=2)
        for n in ASYNC_SIZES:
            row = result[n]
            assert row["rounds_p40"].mean >= row["rounds_p100"].mean
            assert row["stretch_p40"].mean <= 10.0
        assert "activation" in format_asynchrony(result)

    def test_usability(self):
        """Lookups route everywhere before the configuration fixpoint."""
        profile = run_usability(n=16)
        assert profile.series[-1] == 1.0
        assert profile.first_full_routability() <= profile.rounds_to_stable
        assert "Routability" in format_usability(profile)


class TestTrafficExperiment:
    def test_traffic_churn_profile(self):
        from repro.experiments.traffic import format_traffic, run_traffic, runs_to_json

        runs = run_traffic(sizes=(12,), seeds=1, root_seed=5)
        (run,) = runs
        assert run.n == 12
        assert sum(run.churn_events.values()) >= 4
        assert run.buckets, "no ops completed"
        assert sum(row.issued for row in run.buckets) == run.totals["completed"]
        assert run.totals["outstanding"] == 0  # the run drains fully
        assert 0.0 <= run.totals["success_rate"] <= 1.0
        text = format_traffic(runs)
        assert "rounds-since-churn" in text
        assert "latency histogram" in text
        blob = runs_to_json(runs)
        import json

        json.dumps(blob)  # must be serializable
        assert blob["runs"][0]["n"] == 12

    def test_traffic_deterministic_per_seed(self):
        from repro.experiments.traffic import run_traffic, runs_to_json

        a = runs_to_json(run_traffic(sizes=(10,), seeds=1, root_seed=9))
        b = runs_to_json(run_traffic(sizes=(10,), seeds=1, root_seed=9))
        assert a == b

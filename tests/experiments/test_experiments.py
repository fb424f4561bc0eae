"""Smoke + shape tests for every experiment module at test scale.

Stronger, paper-shape assertions run at default scale inside the
benchmark harness; here we verify every module runs end to end and
produces structurally sound output.
"""

import pytest

from repro.experiments import EXPERIMENTS, registry
from repro.experiments import (
    ablations,
    fig2_result_page,
    fig5_adoption,
    fig8_clustering,
    fig9_live_domains,
    fig10_ratio,
    fig11_crawl,
    fig12_country_cases,
    fig13_peer_bias,
    fig14_15_temporal,
    sec72_prior_study,
    sec75_ab_stats,
    sec76_alexa400,
    table1_performance,
    table2_countries,
    table3_extremes,
    table4_country_rank,
    table5_percentages,
)
from repro.workloads.deployment import DeploymentConfig

SCALE = "test"


class TestExperimentTable:
    def test_reproduce_all_order(self):
        assert list(EXPERIMENTS) == [
            "table1", "table2", "table3", "table4", "table5",
            "fig2", "fig5", "fig8a", "fig8b", "fig8c", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14-15", "sec75", "sec76",
            "ablation-dispatch", "ablation-doppelganger",
            "ablation-secure-kmeans", "ablation-diffstorage", "sec72",
        ]

    def test_live_preset_is_a_deployment_config(self):
        assert registry.scale(SCALE).live == DeploymentConfig.test_scale()
        assert registry.live_dataset(SCALE).config is registry.scale(SCALE).live


class TestRegistry:
    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            registry.scale("huge")

    def test_live_dataset_cached(self):
        a = registry.live_dataset(SCALE)
        b = registry.live_dataset(SCALE)
        assert a is b

    def test_scales_defined(self):
        for name in ("test", "default", "paper"):
            assert registry.scale(name).name == name


class TestTables:
    def test_table1(self):
        result = table1_performance.run(SCALE)
        assert len(result.rows) == 5
        out = result.render()
        assert "Old Version" in out and "New Version" in out

    def test_table2(self):
        result = table2_countries.run(SCALE)
        assert result.top10
        assert result.top10[0][0] == "ES"  # Spain leads
        assert "Table 2" in result.render()

    def test_table3(self):
        result = table3_extremes.run(SCALE)
        assert result.rows
        assert result.rows[0].relative_times >= result.rows[-1].relative_times
        assert "Relative" in result.render()

    def test_table4(self):
        result = table4_country_rank.run(SCALE)
        assert result.expensive and result.cheapest
        assert "Rank" in result.render()

    def test_table5(self):
        result = table5_percentages.run(SCALE)
        assert set(result.percentages) == {
            "chegg.com", "jcpenney.com", "amazon.com"
        }
        # chegg runs no A/B test in France
        assert result.value("chegg.com", "FR") == 0.0
        assert "%" in result.render()


class TestFigures:
    def test_fig2(self):
        result = fig2_result_page.run(SCALE)
        page = result.render()
        assert "You" in page
        assert len(result.currencies_observed) >= 3  # geo currencies

    def test_fig5(self):
        result = fig5_adoption.run(SCALE)
        assert result.series.spike_days()
        assert "Downloads" in result.render()

    def test_fig8a(self):
        result = fig8_clustering.run_fig8a(SCALE)
        assert len(result.m_values) == len(result.alexa_top_scores)
        assert all(-1 <= s <= 1 for s in result.alexa_top_scores)

    def test_fig8b(self):
        result = fig8_clustering.run_fig8b(SCALE)
        assert len(result.k_values) == len(result.scores)

    def test_fig8c(self):
        result = fig8_clustering.run_fig8c(SCALE)
        assert result.points
        assert all(p.seconds > 0 for p in result.points)
        # both worker settings present for every (m, k)
        for p in result.points:
            assert result.seconds_for(p.m, p.k, 1) is not None
            assert result.seconds_for(p.m, p.k, 4) is not None

    def test_fig9(self):
        result = fig9_live_domains.run(SCALE)
        assert result.stats
        assert result.n_domains_with_difference <= result.n_domains_checked
        assert "%" in result.render()

    def test_fig10(self):
        result = fig10_ratio.run(SCALE)
        assert result.points
        assert all(r >= 1.0 for _, r in result.points)

    def test_fig11(self):
        result = fig11_crawl.run(SCALE)
        assert result.n_requests > 0
        assert result.stats

    def test_fig12(self):
        result = fig12_country_cases.run(SCALE)
        assert ("jcpenney.com", "GB") in result.scatter
        assert "Country" in result.render()

    def test_fig13(self):
        result = fig13_peer_bias.run(SCALE)
        # distributions exist for at least one of the two panels
        assert result.uk or result.france
        assert "Peer" in result.render()

    def test_fig14_15(self):
        result = fig14_15_temporal.run(SCALE)
        assert result.jcpenney.trends and result.chegg.trends
        assert result.jcpenney.mean_fluctuation >= 0
        assert "Temporal" in result.render()


class TestSections:
    def test_sec72(self):
        from repro.analysis.comparison import MIKIANS_2013_REPORTS

        result = sec72_prior_study.run(SCALE)
        domains = [c.domain for c in result.comparison.comparisons]
        assert domains == [r.domain for r in MIKIANS_2013_REPORTS]
        # the live roster still prices the [24] retailers differently
        assert result.comparison.still_discriminating()
        for c in result.comparison.still_discriminating():
            assert c.current_ratio > 1.0 and c.relative_change is not None
        assert "Relative change" in result.render()

    def test_sec75(self):
        result = sec75_ab_stats.run(SCALE)
        assert set(result.verdicts) == {"jcpenney.com", "chegg.com"}
        assert "Verdict" in result.render()

    def test_sec76(self):
        result = sec76_alexa400.run(SCALE)
        assert result.n_requests > 0
        assert result.domains_with_in_country_difference() == []


class TestAblations:
    def test_dispatch(self):
        result = ablations.run_dispatch_ablation(SCALE)
        assert result.improvement() > 1.0  # least-jobs wins
        assert "Policy" in result.render()

    def test_doppelganger(self):
        result = ablations.run_doppelganger_ablation(SCALE)
        assert result.polluting_visits_with < result.polluting_visits_without
        assert result.pollution_reduction() > 0.5

    def test_secure_kmeans(self):
        result = ablations.run_secure_kmeans_ablation(SCALE)
        assert result.identical_output
        assert result.overhead() > 10  # privacy is expensive

    def test_diffstorage(self):
        result = ablations.run_diffstorage_ablation(SCALE)
        assert 0.0 < result.savings() < 1.0
        assert result.stored_chars < result.naive_chars

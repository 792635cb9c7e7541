"""Tests for the experiment drivers (tables, runner, figure modules).

Training-based drivers are exercised with tiny epoch counts and reduced
workload subsets; the full paper-shaped sweeps live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.experiments import configs, runner, tables
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import format_fig6, run_fig6
from repro.experiments.fig7 import FIG7_STRATEGIES, format_fig7, run_fig7
from repro.experiments.headline import format_headline, run_headline
from repro.experiments.sweeps import RunSpec, execute_spec
from repro.hardware.config import DEFAULT_CONFIG


class TestConfigs:
    def test_scales(self):
        ci = configs.scale_settings("ci")
        paper = configs.scale_settings("paper")
        assert ci.epochs < paper.epochs
        assert ci.crossbar_size <= paper.crossbar_size
        with pytest.raises(ValueError):
            configs.scale_settings("huge")

    def test_training_config(self):
        cfg = configs.training_config("reddit", "ci", seed=1, epochs=3)
        assert cfg.epochs == 3
        assert cfg.learning_rate == 0.01
        assert cfg.seed == 1

    def test_hardware_config(self):
        ci = configs.hardware_config("ci")
        paper = configs.hardware_config("paper")
        assert ci.crossbar_rows == 64
        assert paper.crossbar_rows == 128

    def test_fig_pairs_match_paper(self):
        assert ("reddit", "gcn") in configs.fig5_pairs()
        assert len(configs.fig5_pairs()) == 6
        assert len(configs.fig6_pairs()) == 3
        assert configs.FIG5_FAULT_DENSITIES == (0.01, 0.03, 0.05)
        assert configs.FIG6_FAULT_DENSITIES == (0.01, 0.02, 0.03)

    def test_strategy_kwargs(self):
        assert "clipping_threshold" in configs.strategy_kwargs_for("fare", "ci")
        assert configs.strategy_kwargs_for("fault_unaware", "ci") == {}

    def test_dataset_spec_lookup(self):
        assert configs.dataset_spec("PPI").name == "ppi"
        with pytest.raises(KeyError):
            configs.dataset_spec("cora")


class TestTables:
    def test_table1_has_fare_row(self):
        rows = tables.table1_rows()
        assert len(rows) == 7
        assert any("FARe" in row[0] for row in rows)
        assert "Ref." in tables.format_table1()

    def test_table2_without_surrogate_stats(self):
        rows = tables.table2_rows(include_surrogate_stats=False)
        assert len(rows) == 4
        ppi = next(row for row in rows if row[0] == "ppi")
        assert ppi[1] == 56_944
        assert ppi[3] == 5 and ppi[4] == 250

    def test_table2_with_surrogate_stats(self):
        rows = tables.table2_rows(scale="ci", seed=0)
        for row in rows:
            assert row[6] > 0 and row[7] > 0
        assert "Dataset" in tables.format_table2(scale="ci")

    def test_table3_matches_config(self):
        rows = tables.table3_rows(DEFAULT_CONFIG)
        rendered = tables.format_table3()
        assert any("128x128" in str(value) for _, value in rows)
        assert "2-bit/cell" in rendered
        assert "10 MHz" in rendered


class TestRunner:
    def test_cache_hits(self):
        runner.clear_cache()
        first = runner.run_single("reddit", "gcn", "fault_free", 0.0, scale="ci", seed=0, epochs=1)
        size_after_first = runner.cache_size()
        second = runner.run_single("reddit", "gcn", "fault_free", 0.0, scale="ci", seed=0, epochs=1)
        assert runner.cache_size() == size_after_first
        assert first is second

    def test_execute_spec_bypasses_memo(self):
        runner.clear_cache()
        a = execute_spec(
            RunSpec.make(
                dataset="reddit", model="gcn", strategy="fault_free",
                fault_density=0.0, scale="ci", seed=0, epochs=1,
            )
        )
        assert runner.cache_size() == 0
        assert a.final_test_accuracy >= 0

    def test_fault_region_restriction(self):
        hardware = runner.build_hardware("ci", 0.1, (1.0, 1.0), seed=0, fault_region="weights")
        assert all(x.fault_map.is_fault_free() for x in hardware.adjacency_crossbars)
        assert any(not x.fault_map.is_fault_free() for x in hardware.weight_crossbars)
        hardware = runner.build_hardware("ci", 0.1, (1.0, 1.0), seed=0, fault_region="adjacency")
        assert all(x.fault_map.is_fault_free() for x in hardware.weight_crossbars)

    def test_invalid_fault_region(self):
        with pytest.raises(ValueError):
            runner.build_hardware("ci", 0.1, (1.0, 1.0), seed=0, fault_region="everything")

    def test_result_metadata(self):
        result = runner.run_single(
            "ppi", "gat", "clipping", 0.03, scale="ci", seed=0, epochs=1
        )
        assert result.dataset == "ppi"
        assert result.model == "gat"
        assert result.strategy == "clipping"
        assert result.fault_density == pytest.approx(0.03, rel=0.6)
        assert result.summary_row()[0] == "ppi"


class TestFigureDrivers:
    def test_fig3_shape(self):
        result = run_fig3(scale="ci", seed=0, epochs=2)
        assert set(result.accuracies) == {
            ("weights", "SA0 only"),
            ("weights", "SA1 only"),
            ("adjacency", "SA0 only"),
            ("adjacency", "SA1 only"),
        }
        assert len(result.rows()) == 5
        assert "Fig. 3" in format_fig3(result)

    def test_fig4_curves(self):
        result = run_fig4(densities=(0.05,), scale="ci", seed=0, epochs=2)
        assert len(result.fault_free_curve) == 2
        assert len(result.fare_curves[0.05]) == 2
        assert np.isfinite(result.final_gap("fare", 0.05))
        assert "Fig. 4" in format_fig4(result)

    def test_fig5_single_pair(self):
        result = run_fig5(
            densities=(0.05,), pairs=(("reddit", "gcn"),), scale="ci", seed=0, epochs=2
        )
        for strategy in ("fault_free", "fault_unaware", "nr", "clipping", "fare"):
            assert ("reddit", "gcn", 0.05, strategy) in result.accuracies
        assert len(result.rows()) == 1
        assert np.isfinite(result.accuracy_drop("reddit", "gcn", 0.05, "fare"))
        assert "Fig. 5" in format_fig5(result)

    def test_fig6_single_pair(self):
        result = run_fig6(
            densities=(0.02,), pairs=(("reddit", "gcn"),), scale="ci", seed=0, epochs=2
        )
        assert result.post_deployment_extra == configs.FIG6_POST_DEPLOYMENT_EXTRA
        assert ("reddit", "gcn", 0.02, "fare") in result.accuracies
        assert "Fig. 6" in format_fig6(result)

    def test_fig7_shape(self):
        result = run_fig7()
        assert len(result.rows()) == 4
        for workload, _ in result.normalized:
            assert result.time(workload, "fault_free") == pytest.approx(1.0)
            assert result.time(workload, "clipping") < 1.1
            assert result.time(workload, "fare") < 1.1
            assert result.time(workload, "nr") > 1.5
            assert result.speedup_over_nr(workload) > 1.5
        assert "Fig. 7" in format_fig7(result)
        assert FIG7_STRATEGIES[0] == "fault_free"

    def test_headline_claims(self):
        result = run_headline(scale="ci", seed=0, epochs=2, density=0.05)
        names = {claim.name for claim in result.claims}
        assert "accuracy_restoration_reddit_1to1" in names
        assert "fare_speedup_over_nr" in names
        assert result.claim("fare_timing_overhead").measured_value < 0.1
        with pytest.raises(KeyError):
            result.claim("nonexistent")
        assert "paper" in format_headline(result).lower()

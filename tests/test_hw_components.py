"""Tests for crossbars, tiles, BIST, endurance and the cost model."""

import numpy as np
import pytest

from repro.hardware.bist import BISTController
from repro.hardware.config import DEFAULT_CONFIG, ReRAMConfig
from repro.hardware.crossbar import Crossbar
from repro.hardware.endurance import EnduranceModel, PostDeploymentSchedule
from repro.hardware.energy import TileCostModel
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.tile import CrossbarPool, Tile

from reference.faults import seed_bist_scan


class TestConfig:
    def test_table3_defaults(self):
        cfg = DEFAULT_CONFIG
        assert cfg.crossbar_rows == cfg.crossbar_cols == 128
        assert cfg.bits_per_cell == 2
        assert cfg.crossbars_per_tile == 96
        assert cfg.adcs_per_tile == 96 and cfg.adc_bits == 8
        assert cfg.clock_frequency_hz == 10e6
        assert cfg.tile_power_w == pytest.approx(0.34)
        assert cfg.tile_area_mm2 == pytest.approx(0.157)

    def test_derived_quantities(self):
        cfg = DEFAULT_CONFIG
        assert cfg.cells_per_weight == 8
        assert cfg.cell_levels == 4
        assert cfg.cells_per_crossbar == 128 * 128
        assert cfg.weights_per_crossbar_row == 16

    def test_invalid_weight_bits(self):
        with pytest.raises(ValueError):
            ReRAMConfig(weight_bits=15, bits_per_cell=2)

    def test_describe_rows(self):
        desc = DEFAULT_CONFIG.describe()
        assert "Crossbars" in desc and "Tile power" in desc


class TestCrossbar:
    def test_program_and_read_ideal(self):
        xbar = Crossbar(0, rows=8, cols=8, cell_levels=4)
        values = np.arange(64).reshape(8, 8) % 4
        xbar.program(values)
        np.testing.assert_array_equal(xbar.read(), values)

    def test_program_clips_to_cell_levels(self):
        xbar = Crossbar(0, rows=2, cols=2, cell_levels=4)
        xbar.program(np.array([[9, 1], [2, 3]]))
        assert xbar.read_ideal()[0, 0] == 3

    def test_faults_applied_on_read(self):
        fmap = FaultMap.from_indices((4, 4), sa0_indices=[(0, 0)], sa1_indices=[(1, 1)])
        xbar = Crossbar(0, rows=4, cols=4, cell_levels=4, fault_map=fmap)
        xbar.program(np.full((4, 4), 2))
        read = xbar.read()
        assert read[0, 0] == 0 and read[1, 1] == 3 and read[2, 2] == 2

    def test_write_counting(self):
        xbar = Crossbar(0, rows=4, cols=4)
        xbar.program(np.zeros((4, 4)))
        xbar.program(np.zeros((2, 2)), row_offset=1, col_offset=1)
        assert xbar.total_writes == 2
        assert xbar.max_cell_writes == 2

    def test_program_out_of_bounds(self):
        xbar = Crossbar(0, rows=4, cols=4)
        with pytest.raises(ValueError):
            xbar.program(np.zeros((4, 4)), row_offset=2)

    def test_binary_roundtrip_with_permutation(self):
        rng = np.random.default_rng(0)
        block = (rng.random((8, 8)) > 0.6).astype(float)
        perm = rng.permutation(8)
        xbar = Crossbar(0, rows=8, cols=8)
        xbar.program_binary(block, row_permutation=perm)
        np.testing.assert_array_equal(xbar.read_binary(row_permutation=perm), block)

    def test_binary_permutation_moves_fault_exposure(self):
        # A fault on crossbar row 0 corrupts whichever block row is stored there.
        fmap = FaultMap.from_indices((4, 4), sa1_indices=[(0, 0)])
        xbar = Crossbar(0, rows=4, cols=4, fault_map=fmap)
        block = np.zeros((4, 4))
        perm = np.array([1, 0, 2, 3])  # block row 1 stored on crossbar row 0
        xbar.program_binary(block, row_permutation=perm)
        read = xbar.read_binary(row_permutation=perm)
        assert read[1, 0] == 1.0 and read[0, 0] == 0.0

    def test_binary_requires_full_block(self):
        xbar = Crossbar(0, rows=4, cols=4)
        with pytest.raises(ValueError):
            xbar.program_binary(np.zeros((2, 4)))

    def test_fault_map_shape_checked(self):
        with pytest.raises(ValueError):
            Crossbar(0, rows=4, cols=4, fault_map=FaultMap.empty(8, 8))


class TestTileAndPool:
    def test_tile_crossbar_ids(self, tiny_config):
        tile = Tile(1, tiny_config)
        ids = [x.crossbar_id for x in tile.crossbars]
        assert ids[0] == tiny_config.crossbars_per_tile
        assert len(ids) == tiny_config.crossbars_per_tile

    def test_pool_size_and_split(self, tiny_config):
        pool = CrossbarPool(tiny_config)
        assert len(pool) == tiny_config.crossbar_count
        weights, adjacency = pool.split(5)
        assert len(weights) == 5
        assert len(adjacency) == len(pool) - 5

    def test_pool_fault_injection(self, tiny_config):
        pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.1, seed=0))
        assert pool.overall_density() > 0

    def test_pool_post_deployment_requires_model(self, tiny_config):
        pool = CrossbarPool(tiny_config)
        with pytest.raises(RuntimeError):
            pool.inject_post_deployment(0.01)

    def test_pool_post_deployment_increases_density(self, tiny_config):
        pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.02, seed=1))
        before = pool.overall_density()
        pool.inject_post_deployment(0.05)
        assert pool.overall_density() > before

    def test_allocate_too_many(self, tiny_config):
        pool = CrossbarPool(tiny_config, num_crossbars=4)
        with pytest.raises(ValueError):
            pool.allocate(10)


class TestBIST:
    def test_full_coverage_reports_truth(self, tiny_config):
        pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.05, seed=0), num_crossbars=6)
        bist = BISTController(tiny_config)
        report = bist.scan(pool.crossbars)
        for crossbar, detected in zip(pool.crossbars, report.fault_maps):
            np.testing.assert_array_equal(detected.sa0, crossbar.fault_map.sa0)
            np.testing.assert_array_equal(detected.sa1, crossbar.fault_map.sa1)

    def test_scan_matches_copying_seed(self, tiny_config):
        pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.1, seed=4), num_crossbars=9)
        pool.inject_post_deployment(0.05)
        report = BISTController(tiny_config).scan(pool.crossbars[2:])
        maps, detected = seed_bist_scan(pool.crossbars[2:])
        assert report.detected_faults == detected
        assert report.density() == detected / sum(m.sa0.size for m in maps)
        for got, want in zip(report.fault_maps, maps):
            np.testing.assert_array_equal(got.sa0, want.sa0)
            np.testing.assert_array_equal(got.sa1, want.sa1)

    def test_later_injection_leaves_earlier_report(self, tiny_config):
        pool = CrossbarPool(tiny_config, fault_model=FaultModel(0.05, seed=2), num_crossbars=6)
        bist = BISTController(tiny_config)
        first = bist.scan(pool.crossbars)
        copies = [(m.sa0.copy(), m.sa1.copy()) for m in first.fault_maps]
        detected = first.detected_faults
        for _ in range(3):
            pool.inject_post_deployment(0.2)
        second = bist.scan(pool.crossbars)
        assert second.detected_faults > detected
        assert first.detected_faults == detected
        for fmap, (sa0, sa1) in zip(first.fault_maps, copies):
            np.testing.assert_array_equal(fmap.sa0, sa0)
            np.testing.assert_array_equal(fmap.sa1, sa1)

    def test_overheads_match_paper(self, tiny_config):
        bist = BISTController(tiny_config)
        assert bist.area_overhead_fraction == pytest.approx(0.0013)
        pool = CrossbarPool(tiny_config, num_crossbars=2)
        report = bist.scan(pool.crossbars)
        assert report.time_overhead_fraction == pytest.approx(0.0013)

    def test_scan_counter(self, tiny_config):
        pool = CrossbarPool(tiny_config, num_crossbars=2)
        bist = BISTController(tiny_config)
        bist.scan(pool.crossbars)
        bist.scan(pool.crossbars)
        assert bist.scan_count == 2
        assert bist.last_report.scan_index == 1


class TestEndurance:
    def test_failure_probability_monotone(self):
        model = EnduranceModel(mean_endurance=1e9)
        probs = [model.failure_probability(w) for w in (1e3, 1e6, 1e9, 1e12)]
        assert probs == sorted(probs)
        assert probs[0] < 0.01
        assert 0.4 < model.failure_probability(1e9) < 0.6

    def test_zero_writes(self):
        assert EnduranceModel().failure_probability(0) == 0.0

    def test_expected_new_faults(self):
        model = EnduranceModel(mean_endurance=1e6)
        assert model.expected_new_faults(1e6, 1000) == pytest.approx(500, rel=0.1)

    def test_schedule_sums_to_total(self):
        schedule = PostDeploymentSchedule(total_extra_density=0.01, num_epochs=50)
        assert sum(schedule.densities()) == pytest.approx(0.01)
        assert schedule.cumulative()[-1] == pytest.approx(0.01)
        assert len(schedule.densities()) == 50

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PostDeploymentSchedule(total_extra_density=2.0)


class TestCostModel:
    def test_cycle_time(self):
        model = TileCostModel()
        assert model.cycle_time_s == pytest.approx(1e-7)

    def test_latencies_positive(self):
        model = TileCostModel()
        assert model.mvm_latency_s() > 0
        assert model.crossbar_write_latency_s() > model.mvm_latency_s()
        assert model.clipping_latency_s(10_000) > 0

    def test_pipeline_stage_waves(self):
        model = TileCostModel()
        single = model.pipeline_stage_latency_s(10)
        double = model.pipeline_stage_latency_s(2 * DEFAULT_CONFIG.crossbar_count)
        assert double > single

    def test_stage_latency_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TileCostModel().pipeline_stage_latency_s(0)

    def test_area_includes_bist(self):
        model = TileCostModel()
        assert model.total_area_mm2(include_bist=True) > model.total_area_mm2(False)

    def test_energy_scaling(self):
        model = TileCostModel()
        assert model.mvm_energy_j(10) == pytest.approx(10 * model.energy_per_mvm_j)
        assert model.write_energy_j(3) == pytest.approx(3 * model.energy_per_write_j)

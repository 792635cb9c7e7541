"""Tests for the weight/adjacency crossbar mappers and HardwareEnvironment."""

import numpy as np
import pytest

from repro.core.mapping import sequential_mapping
from repro.core.strategies import FaReStrategy
from repro.graph.sparse import CSRMatrix
from repro.hardware.faults import FaultMap, FaultModel
from repro.hardware.quantization import FixedPointFormat
from repro.nn.factory import build_model
from repro.pipeline.mapping_engine import (
    AdjacencyCrossbarMapper,
    HardwareEnvironment,
    WeightCrossbarMapper,
)


@pytest.fixture
def environment(tiny_config):
    return HardwareEnvironment(
        config=tiny_config,
        fault_model=FaultModel(0.05, (9, 1), seed=0),
        weight_fraction=0.5,
    )


@pytest.fixture
def clean_environment(tiny_config):
    return HardwareEnvironment(config=tiny_config, fault_model=None, weight_fraction=0.5)


class TestHardwareEnvironment:
    def test_split_is_disjoint(self, environment):
        weight_ids = {x.crossbar_id for x in environment.weight_crossbars}
        adjacency_ids = {x.crossbar_id for x in environment.adjacency_crossbars}
        assert not weight_ids & adjacency_ids
        assert len(weight_ids) + len(adjacency_ids) == len(environment.pool)

    def test_fault_density_reported(self, environment, clean_environment):
        assert environment.overall_fault_density() > 0
        assert clean_environment.overall_fault_density() == 0

    def test_post_deployment_increases_density(self, environment):
        before = environment.overall_fault_density()
        environment.inject_post_deployment(0.05)
        assert environment.overall_fault_density() > before

    def test_weight_fraction_validation(self, tiny_config):
        with pytest.raises(ValueError):
            HardwareEnvironment(config=tiny_config, weight_fraction=1.5)

    def test_default_format_from_config(self, tiny_config):
        env = HardwareEnvironment(config=tiny_config)
        assert env.fmt.total_bits == tiny_config.weight_bits
        assert env.fmt.bits_per_cell == tiny_config.bits_per_cell


class TestWeightCrossbarMapper:
    @staticmethod
    def _mapper(env, model):
        return WeightCrossbarMapper(model, env.weight_crossbars, env.fmt, env.config)

    def test_layouts_cover_all_2d_params(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        expected = {p.name for _, p in model.named_parameters() if p.data.ndim == 2}
        assert set(mapper.layouts) == expected
        assert mapper.num_weight_crossbars > 0

    def test_fault_free_weights_match_quantization_only(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        values = params[name].data
        effective = mapper.effective_weights(name, values)
        assert np.max(np.abs(effective - values)) <= clean_environment.fmt.scale

    def test_faults_change_weights(self, environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        values = params[name].data
        effective = mapper.effective_weights(name, values)
        assert np.max(np.abs(effective - values)) > 10 * environment.fmt.scale

    def test_row_permutation_is_transparent_without_faults(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        values = params[name].data
        perm = np.random.default_rng(0).permutation(values.shape[0])
        np.testing.assert_allclose(
            mapper.effective_weights(name, values, row_permutation=perm),
            mapper.effective_weights(name, values),
        )

    def test_invalid_permutation_rejected(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        with pytest.raises(ValueError):
            mapper.effective_weights(
                name, params[name].data, row_permutation=np.zeros(params[name].data.shape[0], int)
            )

    def test_unknown_parameter_rejected(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        with pytest.raises(KeyError):
            mapper.layout("nonexistent")

    def test_write_events_counted(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        before = mapper.weight_write_events
        mapper.effective_weights(name, params[name].data)
        assert mapper.weight_write_events > before
        mapper.effective_weights(name, params[name].data, count_write=False)
        assert mapper.weight_write_events == before + mapper.layout(name).num_crossbars

    def test_refresh_fault_masks_tracks_new_faults(self, clean_environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(clean_environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        values = params[name].data
        baseline = mapper.effective_weights(name, values)
        # Make every weight crossbar fully SA1-faulty and refresh.
        for crossbar in clean_environment.weight_crossbars:
            crossbar.set_fault_map(
                FaultMap(np.zeros((crossbar.rows, crossbar.cols), bool),
                         np.ones((crossbar.rows, crossbar.cols), bool))
            )
        mapper.refresh_fault_masks()
        saturated = mapper.effective_weights(name, values)
        assert not np.allclose(saturated, baseline)
        assert np.all(saturated >= values.max() - 1e-9)

    def test_row_mismatch_cost_shape(self, environment):
        model = build_model("gcn", 12, 8, 4, rng=0)
        mapper = self._mapper(environment, model)
        name = next(iter(mapper.layouts))
        params = {p.name: p for _, p in model.named_parameters()}
        cost = mapper.row_mismatch_cost(name, params[name].data)
        rows = params[name].data.shape[0]
        assert cost.shape == (rows, rows)
        assert np.all(cost >= 0)

    def test_insufficient_crossbars_rejected(self, tiny_config):
        env = HardwareEnvironment(config=tiny_config, num_crossbars=3, weight_fraction=0.4)
        model = build_model("gcn", 64, 32, 8, rng=0)
        with pytest.raises(ValueError):
            WeightCrossbarMapper(model, env.weight_crossbars, env.fmt, env.config)


class TestAdjacencyCrossbarMapper:
    @staticmethod
    def _random_adjacency(n, seed=0, density=0.1):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < density).astype(float)
        dense = np.maximum(dense, dense.T)
        np.fill_diagonal(dense, 0.0)
        return CSRMatrix.from_dense(dense)

    def test_decompose_pads_blocks(self, clean_environment):
        mapper = AdjacencyCrossbarMapper(
            clean_environment.adjacency_crossbars, clean_environment.config
        )
        adjacency = self._random_adjacency(20)
        blocks, grid = mapper.decompose(adjacency)
        assert grid == (2, 2)
        assert len(blocks) == 4
        assert all(b.shape == (16, 16) for b in blocks)

    def test_decompose_reassembles_exactly(self, clean_environment):
        mapper = AdjacencyCrossbarMapper(
            clean_environment.adjacency_crossbars, clean_environment.config
        )
        adjacency = self._random_adjacency(20, seed=1)
        blocks, grid = mapper.decompose(adjacency)
        rebuilt = np.zeros((32, 32))
        for index, block in enumerate(blocks):
            bi, bj = divmod(index, grid[1])
            rebuilt[bi * 16 : (bi + 1) * 16, bj * 16 : (bj + 1) * 16] = block
        np.testing.assert_array_equal(rebuilt[:20, :20], adjacency.to_dense())

    def test_fault_free_mapping_preserves_adjacency(self, clean_environment):
        mapper = AdjacencyCrossbarMapper(
            clean_environment.adjacency_crossbars, clean_environment.config
        )
        adjacency = self._random_adjacency(30, seed=2)
        blocks, _ = mapper.decompose(adjacency)
        plan = sequential_mapping(len(blocks), 16, len(mapper.crossbars))
        for m in plan.blocks:
            m.crossbar_index = mapper.crossbar_ids[m.crossbar_index % len(mapper.crossbars)]
        faulty = mapper.apply_mapping(adjacency, plan)
        np.testing.assert_array_equal(faulty.to_dense(), adjacency.to_dense())

    def test_faulty_mapping_changes_adjacency(self, environment):
        mapper = AdjacencyCrossbarMapper(
            environment.adjacency_crossbars, environment.config
        )
        adjacency = self._random_adjacency(30, seed=3)
        blocks, _ = mapper.decompose(adjacency)
        plan = sequential_mapping(len(blocks), 16, len(mapper.crossbars))
        for m in plan.blocks:
            m.crossbar_index = mapper.crossbar_ids[m.crossbar_index % len(mapper.crossbars)]
        faulty = mapper.apply_mapping(adjacency, plan)
        assert not np.array_equal(faulty.to_dense(), adjacency.to_dense())
        # No self-loops may be introduced by faults.
        assert np.all(np.diag(faulty.to_dense()) == 0)

    def test_fare_mapping_reduces_corruption(self, environment):
        mapper = AdjacencyCrossbarMapper(
            environment.adjacency_crossbars, environment.config
        )
        adjacency = self._random_adjacency(30, seed=4, density=0.05)
        blocks, _ = mapper.decompose(adjacency)
        naive = sequential_mapping(len(blocks), 16, len(mapper.crossbars))
        for m in naive.blocks:
            m.crossbar_index = mapper.crossbar_ids[m.crossbar_index % len(mapper.crossbars)]
        fare_plan = FaReStrategy(row_method="hungarian").plan_adjacency(
            [blocks], mapper.fault_maps(), mapper.crossbar_ids, 16
        )[0]

        def corruption(plan):
            faulty = mapper.apply_mapping(adjacency, plan)
            return np.abs(faulty.to_dense() - adjacency.to_dense()).sum()

        assert corruption(fare_plan) <= corruption(naive)

    def test_write_events_counted(self, clean_environment):
        mapper = AdjacencyCrossbarMapper(
            clean_environment.adjacency_crossbars, clean_environment.config
        )
        adjacency = self._random_adjacency(16, seed=5)
        blocks, _ = mapper.decompose(adjacency)
        plan = sequential_mapping(len(blocks), 16, len(mapper.crossbars))
        for m in plan.blocks:
            m.crossbar_index = mapper.crossbar_ids[m.crossbar_index % len(mapper.crossbars)]
        mapper.apply_mapping(adjacency, plan)
        assert mapper.block_write_events == len(blocks)

    def test_mapping_block_count_mismatch(self, clean_environment):
        mapper = AdjacencyCrossbarMapper(
            clean_environment.adjacency_crossbars, clean_environment.config
        )
        adjacency = self._random_adjacency(30, seed=6)
        plan = sequential_mapping(1, 16, len(mapper.crossbars))
        with pytest.raises(ValueError):
            mapper.apply_mapping(adjacency, plan)

    def test_requires_crossbars(self, tiny_config):
        with pytest.raises(ValueError):
            AdjacencyCrossbarMapper([], tiny_config)

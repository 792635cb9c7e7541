"""End-to-end integration tests exercising the public API.

These are the "does the whole stack hold together" checks: train on faulty
hardware through :mod:`repro.api`, verify the headline orderings at a small
scale, and make sure every strategy/dataset/model combination at least runs.
"""

import pytest

from repro import api
from repro.experiments import runner, sweeps


@pytest.fixture(autouse=True)
def _fresh_cache():
    runner.clear_cache()
    yield


class TestTrainOnFaultyHardware:
    def test_returns_training_result(self):
        result = api.train_on_faulty_hardware(
            dataset="reddit", model="gcn", strategy="fare",
            fault_density=0.05, epochs=2, scale="ci", seed=0,
        )
        assert result.strategy == "fare"
        assert 0.0 <= result.final_test_accuracy <= 1.0
        assert len(result.test_accuracy_history) == 2

    def test_strategy_kwargs_forwarded(self):
        result = api.train_on_faulty_hardware(
            dataset="reddit", model="gcn", strategy="fare",
            fault_density=0.05, epochs=1, scale="ci", seed=0,
            clipping_threshold=0.5, sa1_weight=2.0,
        )
        assert result.strategy == "fare"

    def test_post_deployment_option(self):
        result = api.train_on_faulty_hardware(
            dataset="ppi", model="gcn", strategy="fare",
            fault_density=0.02, epochs=2, scale="ci", seed=0,
            post_deployment_extra=0.01,
        )
        assert result.epochs_run == 2

    @pytest.mark.parametrize(
        "dataset,model",
        [("ppi", "gat"), ("amazon2m", "sage"), ("ogbl", "sage")],
    )
    def test_all_paper_workloads_run(self, dataset, model):
        result = api.train_on_faulty_hardware(
            dataset=dataset, model=model, strategy="fare",
            fault_density=0.03, epochs=1, scale="ci", seed=0,
        )
        assert result.dataset == dataset
        assert result.model == model

    @pytest.mark.parametrize("density", [-0.05, 1.5, float("nan")])
    def test_invalid_fault_density_raises(self, density):
        """An out-of-range or NaN density raises instead of training fault-free."""
        with pytest.raises(ValueError, match="fault_density"):
            api.train_on_faulty_hardware(
                dataset="ppi", model="gcn", strategy="fault_unaware",
                fault_density=density, epochs=2, scale="ci", seed=0,
            )


class TestRunSweep:
    @pytest.mark.parametrize("density", [-0.05, 1.5, float("nan")])
    def test_invalid_fault_density_raises_before_any_run(self, density, monkeypatch):
        """A bad density is a caller error: it raises, and is not quarantined."""
        executed = []

        def recording_execute(spec, artifacts=None):
            executed.append(spec)
            raise AssertionError("a spec executed despite a bad density")

        monkeypatch.setattr(sweeps, "execute_spec", recording_execute)
        with pytest.raises(ValueError, match="fault_density"):
            api.run_sweep(
                datasets=(("ppi", "gcn"),),
                strategies=("fault_free", "fault_unaware"),
                fault_densities=(0.05, density),
                epochs=1,
            )
        assert executed == []


class TestCompareStrategies:
    def test_returns_all_requested(self):
        results = api.compare_strategies(
            dataset="reddit", model="gcn",
            strategies=("fault_free", "fault_unaware", "fare"),
            fault_density=0.05, epochs=2, scale="ci", seed=0,
        )
        assert set(results) == {"fault_free", "fault_unaware", "fare"}

    def test_headline_ordering_at_five_percent(self):
        """The paper's core qualitative claim: at 5 % faults (1:1 ratio) FARe
        is close to fault-free while fault-unaware training is far below."""
        results = api.compare_strategies(
            dataset="reddit", model="gcn",
            strategies=("fault_free", "fault_unaware", "fare"),
            fault_density=0.05, sa_ratio=(1.0, 1.0),
            epochs=6, scale="ci", seed=0,
        )
        fault_free = results["fault_free"].final_test_accuracy
        unaware = results["fault_unaware"].final_test_accuracy
        fare = results["fare"].final_test_accuracy
        assert fare > unaware
        assert fault_free - fare < 0.12
        assert fault_free - unaware > 0.1

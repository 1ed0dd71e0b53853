"""Sweep selection contracts and convergence studies."""

import numpy as np
import pytest

from helpers import pooled_r2
from surrkit.errors import InputError
from surrkit.gpr import KernelSpec, gpr_fit
from surrkit.metrics import rmse
from surrkit.mlp import MlpArchitecture, TrainConfig, mlp_train
from surrkit.preprocess import SplitSpec, inverse_transform, preprocess_data_pipeline
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, trig4_pair
from surrkit.tuner import (
    ConvergenceCurve,
    GprGrid,
    MlpGrid,
    SweepEntry,
    convergence_study,
    select_winner,
    tune_gpr,
    tune_mlp,
)


def entry(index, val_rmse, param_count, label="k"):
    return SweepEntry(
        index=index, label=label, params={}, val_rmse=val_rmse,
        param_count=param_count, fit_seconds=0.0,
    )


class TestWinnerSelection:
    def test_argmin(self):
        entries = (entry(0, 2.0, 5), entry(1, 1.0, 9), entry(2, 3.0, 2))
        assert select_winner(entries) == 1

    def test_tie_prefers_fewer_parameters(self):
        entries = (entry(0, 1.0, 9), entry(1, 1.0, 3), entry(2, 2.0, 1))
        assert select_winner(entries) == 1

    def test_tie_within_tolerance_prefers_fewer_parameters(self):
        entries = (entry(0, 1.0, 9), entry(1, 1.0 + 1e-13, 3))
        assert select_winner(entries) == 1

    def test_full_tie_prefers_earlier_index(self):
        entries = (entry(0, 1.0, 3), entry(1, 1.0, 3))
        assert select_winner(entries) == 0

    def test_reselection_reproduces_winner(self):
        entries = (entry(0, 0.4, 2), entry(1, 0.7, 1), entry(2, 0.4 + 5e-13, 1))
        selected = select_winner(entries)
        assert select_winner(entries) == selected == 2


def prepared_trig4(n=120, seed=0):
    _, hf = generate_pair_dataset(trig4_pair(), n, n, Sampler(seed=seed))
    return preprocess_data_pipeline(hf, SplitSpec(seed=seed))


class TestTuneGpr:
    def test_singleton_grid_wins(self):
        prepared = prepared_trig4(40, seed=1)
        grid = GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=1)
        result = tune_gpr(prepared, grid)
        assert result.selected == 0
        assert len(result.entries) == 1

    def test_identical_candidates_tie_break_to_first(self):
        prepared = prepared_trig4(30, seed=2)
        spec = KernelSpec(kind="constant*rbf")
        grid = GprGrid(kernels=(spec, spec), restarts=1, seed=2)
        result = tune_gpr(prepared, grid)
        assert result.entries[0].val_rmse == result.entries[1].val_rmse
        assert result.selected == 0

    def test_exhaustive_one_entry_per_candidate(self):
        prepared = prepared_trig4(30, seed=3)
        grid = GprGrid(
            kernels=(
                KernelSpec(kind="constant*rbf"),
                KernelSpec(kind="constant*matern", nu=1.5),
                KernelSpec(kind="constant*matern", nu=2.5),
            ),
            restarts=1,
            seed=3,
        )
        result = tune_gpr(prepared, grid)
        assert [e.index for e in result.entries] == [0, 1, 2]

    def test_winner_accurate_on_smooth_data(self):
        prepared = prepared_trig4(120, seed=4)
        grid = GprGrid(
            kernels=(
                KernelSpec(kind="constant*rbf"),
                KernelSpec(kind="constant*matern", nu=2.5),
            ),
            restarts=2,
            seed=4,
        )
        result = tune_gpr(prepared, grid)
        pred = inverse_transform(
            prepared.y_scaler, result.model.predict(prepared.X_val.values)
        )
        truth = inverse_transform(prepared.y_scaler, prepared.Y_val.values)
        assert pooled_r2(truth, pred) > 0.99

    def test_model_is_bit_identical_to_a_refit_of_the_winner(self):
        prepared = prepared_trig4(60, seed=5)
        grid = GprGrid(
            kernels=(
                KernelSpec(kind="constant*rbf"),
                KernelSpec(kind="constant*matern", nu=1.5),
            ),
            restarts=2,
            seed=5,
        )
        result = tune_gpr(prepared, grid)
        params = result.winner.params
        spec = KernelSpec(
            kind=params["kind"],
            length_scale=params["length_scale"][0],
            signal_variance=params["signal_variance"],
            nu=params["nu"],
            noise=params["noise"],
        )
        refit = gpr_fit(prepared.X_train.values, prepared.Y_train.values, spec)
        for name in ("X_train", "L", "alpha"):
            assert getattr(result.model, name).tobytes() == getattr(refit, name).tobytes()
        assert result.model.lml == refit.lml == params["lml"]
        assert result.model.kernel.describe() == refit.kernel.describe()


class TestTuneMlp:
    def quick_cfg(self, seed=0):
        return TrainConfig(
            learning_rate=1e-2, max_epochs=400, batch_size=64,
            early_stop_patience=100, seed=seed,
        )

    def linear_prepared(self, seed=0):
        rng = np.random.default_rng(seed)
        from surrkit.data import DataTensor, FidelityDataset

        X = rng.uniform(-1, 1, (80, 2))
        Y = X @ np.array([[2.0], [-1.0]]) + 0.5
        ds = FidelityDataset(
            "HF", DataTensor.from_values(X[:, :, None]), DataTensor.from_values(Y[:, :, None])
        )
        return preprocess_data_pipeline(ds, SplitSpec(seed=seed))

    def test_singleton_grid(self):
        prepared = self.linear_prepared(1)
        grid = MlpGrid(layer_counts=(1,), widths=(16,), train=self.quick_cfg(1))
        result = tune_mlp(prepared, grid)
        assert result.selected == 0
        assert result.winner.params["hidden_layers"] == [16]

    def test_parsimony_on_equal_scores(self):
        entries = (entry(0, 0.25, 500), entry(1, 0.25, 60))
        assert select_winner(entries) == 1

    def test_linear_target_sweep(self):
        prepared = self.linear_prepared(2)
        grid = MlpGrid(layer_counts=(1,), widths=(8, 16), train=self.quick_cfg(2))
        result = tune_mlp(prepared, grid)
        assert len(result.entries) == 2
        # score the winner on the held-out test bin
        pred = inverse_transform(
            prepared.y_scaler, result.model.predict(prepared.X_test.values)
        )
        truth = inverse_transform(prepared.y_scaler, prepared.Y_test.values)
        assert pooled_r2(truth, pred) > 0.999

    def test_model_is_bit_identical_to_a_retrain_of_the_winner(self):
        prepared = self.linear_prepared(3)
        grid = MlpGrid(layer_counts=(1, 2), widths=(4, 8), train=self.quick_cfg(3))
        result = tune_mlp(prepared, grid)
        hidden = tuple(result.winner.params["hidden_layers"])
        retrained = mlp_train(
            MlpArchitecture(2, hidden, 1), grid.train,
            prepared.X_train.values, prepared.Y_train.values,
            prepared.X_val.values, prepared.Y_val.values,
        )
        assert result.model.architecture == retrained.architecture
        for got, want in zip(result.model.weights + result.model.biases,
                             retrained.weights + retrained.biases):
            assert got.tobytes() == want.tobytes()
        assert result.model.training_history == retrained.training_history


class TestConvergence:
    def forrester_hf(self, n=120, seed=5):
        _, hf = generate_pair_dataset(forrester_pair(), n, n, Sampler(seed=seed))
        return hf

    def test_single_size(self):
        curve = convergence_study(
            self.forrester_hf(40), "gpr", [10], SplitSpec(seed=5), restarts=1
        )
        assert len(curve.points) == 1
        assert curve.points[0].size == 10

    def test_subsets_nested(self):
        curve = convergence_study(
            self.forrester_hf(60), "gpr", [10, 20], SplitSpec(seed=6), restarts=1
        )
        assert set(curve.subset_indices[0]).issubset(set(curve.subset_indices[1]))

    def test_rmse_improves_with_more_data(self):
        curve = convergence_study(
            self.forrester_hf(120), "gpr", [8, 64], SplitSpec(seed=7), restarts=2
        )
        assert curve.points[1].test_rmse <= curve.points[0].test_rmse

    def test_size_exceeding_train_bin(self):
        with pytest.raises(InputError, match="exceeds"):
            convergence_study(self.forrester_hf(20), "gpr", [50], SplitSpec(seed=8))

    def test_reproducible(self):
        a = convergence_study(
            self.forrester_hf(60), "gpr", [8, 16], SplitSpec(seed=9), restarts=1
        )
        b = convergence_study(
            self.forrester_hf(60), "gpr", [8, 16], SplitSpec(seed=9), restarts=1
        )
        assert a.points == b.points

    def test_sizes_must_increase(self):
        with pytest.raises(InputError, match="increasing"):
            convergence_study(self.forrester_hf(60), "gpr", [16, 8], SplitSpec(seed=1))

"""Sweep selection contracts and convergence studies."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import pooled_r2
from surrkit import tuner
from surrkit.errors import InputError, NumericError
from surrkit.gpr import KernelSpec, gpr_fit
from surrkit.data import flatten
from surrkit.metrics import r_squared, rmse
from surrkit.mlp import MlpArchitecture, TrainConfig, mlp_forward, mlp_train
from surrkit.preprocess import (
    SplitSpec,
    _prepare,
    inverse_transform,
    preprocess_data_pipeline,
    split_data_cv,
)
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, trig4_pair
from surrkit.tuner import (
    ConvergenceCurve,
    ConvergencePoint,
    GprGrid,
    MlpGrid,
    SweepEntry,
    convergence_study,
    select_winner,
    tune,
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
        plan = result.model.serving_plan(prepared.x_scaler, prepared.y_scaler)
        assert pooled_r2(prepared.Y_val_raw, plan(prepared.X_val_raw)) > 0.99

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
        refit = gpr_fit(prepared.X_train, prepared.Y_train, spec)
        for name in ("X_train", "L", "alpha"):
            assert getattr(result.model, name).tobytes() == getattr(refit, name).tobytes()
        assert result.model.lml == refit.lml == params["lml"]
        assert result.model.kernel.describe() == refit.kernel.describe()

    def test_model_is_the_one_the_optimizer_returned(self, monkeypatch):
        """The sweep keeps the optimizer's model: nothing is fitted again."""
        returned, inner = [], tuner.optimize_hyperparameters

        def recorded(*args, **kwargs):
            returned.append(inner(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(tuner, "optimize_hyperparameters", recorded)
        grid = GprGrid(
            kernels=(KernelSpec(kind="constant*rbf"), KernelSpec(kind="constant*matern")),
            restarts=1,
            seed=6,
        )
        result = tune_gpr(prepared_trig4(30, seed=6), grid)
        assert len(returned) == 2
        assert result.model is returned[result.selected]


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
        pred = inverse_transform(prepared.y_scaler, mlp_forward(result.model, prepared.X_test))
        truth = inverse_transform(prepared.y_scaler, prepared.Y_test)
        assert pooled_r2(truth, pred) > 0.999

    def test_model_is_bit_identical_to_a_retrain_of_the_winner(self):
        prepared = self.linear_prepared(3)
        grid = MlpGrid(layer_counts=(1, 2), widths=(4, 8), train=self.quick_cfg(3))
        result = tune_mlp(prepared, grid)
        hidden = tuple(result.winner.params["hidden_layers"])
        retrained = mlp_train(
            MlpArchitecture(2, hidden, 1), grid.train,
            prepared.X_train, prepared.Y_train,
            prepared.X_val, prepared.Y_val,
        )
        assert result.model.architecture == retrained.architecture
        for got, want in zip(result.model.weights + result.model.biases,
                             retrained.weights + retrained.biases):
            assert got.tobytes() == want.tobytes()
        assert result.model.training_history == retrained.training_history


class TestFailedCandidates:
    """A candidate whose fit raises NumericError is recorded with an infinite
    RMSE and ``failed: True``, and never wins; a sweep where all fail raises."""

    def sweep(self, monkeypatch, kind, fails):
        name = {"gpr": "optimize_hyperparameters", "mlp": "mlp_train"}[kind]
        inner = getattr(tuner, name)

        def failing(first, *args, **kwargs):
            label = first.hidden_layers if kind == "mlp" else args[1].kind
            if label in fails:
                raise NumericError("forced failure")
            return inner(first, *args, **kwargs)

        monkeypatch.setattr(tuner, name, failing)
        if kind == "gpr":
            grid = GprGrid(
                kernels=(KernelSpec(kind="constant*rbf"), KernelSpec(kind="rbf")),
                restarts=1, seed=4,
            )
            return tune_gpr(prepared_trig4(30, seed=4), grid)
        cfg = TrainConfig(max_epochs=5, early_stop_patience=5, seed=4)
        return tune_mlp(prepared_trig4(30, seed=4), MlpGrid((1,), (4, 8), cfg))

    @pytest.mark.parametrize("kind, first, failed_params", [
        ("gpr", "constant*rbf", {"kind": "constant*rbf", "failed": True}),
        ("mlp", (4,), {"hidden_layers": [4], "failed": True}),
    ])
    def test_failed_candidate_is_recorded_and_loses(self, monkeypatch, kind, first,
                                                    failed_params):
        result = self.sweep(monkeypatch, kind, {first})
        failed, fitted = result.entries
        assert (failed.val_rmse, failed.params, failed.param_count) == (
            float("inf"), failed_params, 0
        )
        assert np.isfinite(fitted.val_rmse) and "failed" not in fitted.params
        assert result.selected == 1 and result.model is not None

    @pytest.mark.parametrize("kind, labels", [
        ("gpr", {"constant*rbf", "rbf"}), ("mlp", {(4,), (8,)}),
    ])
    def test_every_candidate_failing_raises(self, monkeypatch, kind, labels):
        with pytest.raises(NumericError, match="every sweep candidate failed.*forced failure$"):
            self.sweep(monkeypatch, kind, labels)


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

    def test_a_size_may_not_repeat(self):
        """A repeated size would train its subset twice and write two rows."""
        with pytest.raises(InputError, match="increasing"):
            convergence_study(self.forrester_hf(60), "gpr", [8, 8, 16], SplitSpec(seed=1))


class TestConvergenceRunsTheTrainingPath:
    """At each size, a convergence study prepares the size's bins and sweeps
    them as training does: the nested prefix of the seeded permutation of the
    training bin trains, the split's validation bin picks and the winner's
    serving plan scores it on the raw test rows, bit for bit."""

    GPR_GRID = GprGrid(
        kernels=(KernelSpec(kind="constant*rbf"), KernelSpec(kind="constant*matern", nu=2.5)),
        restarts=1, seed=6,
    )
    MLP_GRID = MlpGrid((1,), (4, 8), TrainConfig(max_epochs=5, early_stop_patience=5, seed=6))

    @pytest.mark.parametrize("kind", ["gpr", "mlp"])
    def test_each_point_is_the_sweep_winner_on_its_bins(self, kind):
        _, data = generate_pair_dataset(forrester_pair(), 60, 60, Sampler(seed=5))
        split = SplitSpec(seed=6)
        sizes = [8, 16, 32]
        curve = convergence_study(data, kind, sizes, split, self.GPR_GRID, self.MLP_GRID)
        train, test, val = split_data_cv(data.n, split)
        order = np.random.default_rng(split.seed).permutation(train)
        Y_test = flatten(data.Y)[test]
        for size, subset, point in zip(sizes, curve.subset_indices, curve.points):
            assert subset == tuple(order[:size].tolist())
            prepared = _prepare(data, (order[:size], test, val))
            sweep = tune(prepared, kind, self.GPR_GRID, self.MLP_GRID)
            plan = sweep.model.serving_plan(prepared.x_scaler, prepared.y_scaler)
            y_pred = plan(flatten(data.X)[test])
            assert point == ConvergencePoint(size, rmse(Y_test, y_pred), r_squared(Y_test, y_pred))

    def test_restarts_overrides_the_grid(self, monkeypatch):
        _, data = generate_pair_dataset(forrester_pair(), 40, 40, Sampler(seed=8))
        grids, inner = [], tuner.tune

        def recorded(prepared, kind, gpr_grid, mlp_grid):
            grids.append(gpr_grid)
            return inner(prepared, kind, gpr_grid, mlp_grid)

        monkeypatch.setattr(tuner, "tune", recorded)
        convergence_study(data, "gpr", [8, 16], SplitSpec(seed=6), self.GPR_GRID, restarts=2)
        assert grids == [replace(self.GPR_GRID, restarts=2)] * 2

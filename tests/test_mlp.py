"""Feed-forward network: forward pass, gradients, training behavior."""

import math
import warnings

import numpy as np
import pytest

from helpers import max_gradient_error, pooled_r2, scipy_blas_threads
from surrkit import mlp
from surrkit.data import DataTensor, FidelityDataset
from surrkit.errors import InputError, NumericError
from surrkit.mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    init_model,
    mlp_forward,
    mlp_train,
)
from surrkit.multifid import FittedSurrogate, TensorLayout
from surrkit.preprocess import (
    SplitSpec,
    StandardScaler,
    inverse_transform,
    preprocess_data_pipeline,
    transform,
)
from surrkit.tuner import MlpGrid, tune_mlp


class TestForward:
    def test_single_neuron(self):
        arch = MlpArchitecture(2, (1,), 1, "identity")
        model = MlpModel(
            arch,
            weights=[np.array([[1.0], [2.0]]), np.array([[1.0]])],
            biases=[np.array([0.5]), np.array([0.0])],
        )
        out = mlp_forward(model, np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(3.5, abs=1e-15)

    def test_relu_clips_negative_preactivation(self):
        arch = MlpArchitecture(1, (1,), 1, "relu")
        model = MlpModel(
            arch,
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([-1.0]), np.array([0.0])],
        )
        out = mlp_forward(model, np.array([[0.0]]))
        assert out[0, 0] == 0.0

    def test_zero_weights_give_output_bias(self):
        arch = MlpArchitecture(3, (4,), 2, "tanh")
        model = init_model(arch, 0)
        for W in model.weights:
            W[:] = 0.0
        model.biases[-1][:] = [1.5, -2.5]
        out = mlp_forward(model, np.random.default_rng(0).standard_normal((6, 3)))
        np.testing.assert_allclose(out, np.tile([1.5, -2.5], (6, 1)), atol=1e-15)

    def test_dimension_mismatch(self):
        model = init_model(MlpArchitecture(3, (4,), 1), 0)
        with pytest.raises(InputError, match="^X has 5 columns, expected 3$"):
            mlp_forward(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 3, 3)])
    @pytest.mark.parametrize("entry", ["predict", "mlp_forward"])
    def test_rank_3_input_rejected(self, entry, shape):
        """A tensor is no matrix: refused, not broadcast through the layers,
        by a stage's ``predict_raw`` and by ``mlp_forward``."""
        model = init_model(MlpArchitecture(3, (4,), 1), 0)
        stage = FittedSurrogate(model, StandardScaler.identity(3), StandardScaler.identity(1),
                                TensorLayout(("y",), ("0",)))
        call = stage.predict_raw if entry == "predict" else lambda X: mlp_forward(model, X)
        with pytest.raises(InputError, match=r"^(X|design sites) must be a 2-D matrix, got rank 3$"):
            call(np.zeros(shape))

    def test_predict_is_forward(self):
        """The plan between identity scalers is the forward pass, bit for bit."""
        model = init_model(MlpArchitecture(2, (5,), 2), 1)
        X = np.random.default_rng(1).standard_normal((4, 2))
        plan = model.serving_plan(StandardScaler.identity(2), StandardScaler.identity(2))
        assert plan(X).tobytes() == mlp_forward(model, X).tobytes()


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_backprop_matches_finite_differences(self, activation, depth):
        arch = MlpArchitecture(3, (8,) * depth, 2, activation)
        assert max_gradient_error(arch, seed=depth) < 1e-5


class TestTraining:
    def test_linear_target_high_accuracy(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (50, 1))
        y = 3.0 * x + 1.0
        xs = (x - x.mean()) / x.std()
        ys = (y - y.mean()) / y.std()
        model = mlp_train(
            MlpArchitecture(1, (16,), 1), TrainConfig(seed=0),
            xs[:40], ys[:40], xs[40:], ys[40:],
        )
        assert pooled_r2(ys[40:], mlp_forward(model, xs[40:])) > 0.999

    def test_deterministic_initialization_and_history(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        Y = rng.standard_normal((30, 1))
        cfg = TrainConfig(max_epochs=20, seed=11)
        arch = MlpArchitecture(2, (6,), 1)
        a = mlp_train(arch, cfg, X, Y, X[:8], Y[:8])
        b = mlp_train(arch, cfg, X, Y, X[:8], Y[:8])
        init_a = init_model(arch, 11)
        init_b = init_model(arch, 11)
        for wa, wb in zip(init_a.weights, init_b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert np.array(a.training_history).tobytes() == np.array(b.training_history).tobytes()
        assert _parameter_bytes(a) == _parameter_bytes(b)

    def test_full_batch_descent_monotone_on_convex_problem(self):
        """L-BFGS-B's line search accepts only steps that lower the training
        loss, here on a linear, identity-activation network."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        Y = X @ np.array([[1.0], [-2.0]]) + 0.5
        model = mlp_train(
            MlpArchitecture(2, (3,), 1, "identity"), TrainConfig(max_epochs=200, seed=4),
            X, Y, X[:0], Y[:0],
        )
        losses = [row[1] for row in model.training_history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 1))
        Y = np.sin(3 * X)
        Xv = rng.standard_normal((10, 1))
        Yv = np.sin(3 * Xv)
        cfg = TrainConfig(max_epochs=300, seed=6)
        model = mlp_train(MlpArchitecture(1, (8,), 1), cfg, X, Y, Xv, Yv)
        best_recorded = min(row[2] for row in model.training_history)
        final_val = float(np.mean((mlp_forward(model, Xv) - Yv) ** 2))
        assert final_val == pytest.approx(best_recorded, rel=1e-12)

    def test_empty_training_set_rejected(self):
        cfg = TrainConfig(seed=0)
        with pytest.raises(InputError, match="empty"):
            mlp_train(
                MlpArchitecture(1, (2,), 1), cfg,
                np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)),
            )


def _two_output_problem(n=45, n_val=11, seed=3):
    """A 3-input, 2-output regression with a validation set drawn apart."""
    rng = np.random.default_rng(seed)

    def target(X):
        return np.column_stack([np.sin(X[:, 0]), X[:, 1] * X[:, 2]])

    X, Xv = rng.standard_normal((n, 3)), rng.standard_normal((n_val, 3))
    return X, target(X), Xv, target(Xv)


def _parameter_bytes(model):
    return [p.tobytes() for p in model.weights + model.biases]


@pytest.mark.parametrize("with_val", [True, False], ids=["val", "no-val"])
@pytest.mark.parametrize("hidden", [(6,), (5, 4, 3)], ids=["1-layer", "3-layer"])
@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
class TestTrainingGrid:
    """The trainer's contract for every activation, a shallow and a deep
    network, and a present and an empty validation bin."""

    @staticmethod
    def _train(activation, hidden, with_val, **cfg):
        X, Y, Xv, Yv = _two_output_problem()
        if not with_val:
            Xv, Yv = Xv[:0], Yv[:0]
        cfg = TrainConfig(**{"max_epochs": 60, "seed": 4, **cfg})
        model = mlp_train(MlpArchitecture(3, hidden, 2, activation), cfg, X, Y, Xv, Yv)
        return model, (X, Y, Xv, Yv)

    def test_history_descends_to_the_kept_iterate(self, activation, hidden, with_val):
        """Rows are numbered per iteration, the line search only lowers the
        training loss, and the model is the lowest-validation iterate, or the
        last one when the validation bin is empty."""
        model, (X, Y, Xv, Yv) = self._train(activation, hidden, with_val)
        rows = model.training_history
        assert [row[0] for row in rows] == list(range(1, len(rows) + 1))
        losses = [row[1] for row in rows]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        if with_val:
            best = int(np.argmin([row[2] for row in rows]))
            assert mlp.mse_loss(model, Xv, Yv) == rows[best][2]
        else:
            best = len(rows) - 1
            assert all(math.isnan(row[2]) for row in rows)
        assert mlp.mse_loss(model, X, Y) == rows[best][1]

    def test_seed_alone_fixes_the_bytes(self, activation, hidden, with_val):
        a, _ = self._train(activation, hidden, with_val)
        b, _ = self._train(activation, hidden, with_val)
        c, _ = self._train(activation, hidden, with_val, seed=5)
        assert _parameter_bytes(a) == _parameter_bytes(b)
        assert np.array(a.training_history).tobytes() == np.array(b.training_history).tobytes()
        assert _parameter_bytes(a) != _parameter_bytes(c)

    def test_unread_fields_leave_the_bytes(self, activation, hidden, with_val):
        """``learning_rate``, ``batch_size`` and ``early_stop_patience`` load
        but change nothing, even at values no optimizer could use."""
        a, _ = self._train(activation, hidden, with_val)
        b, _ = self._train(
            activation, hidden, with_val,
            learning_rate=1e12, batch_size=1, early_stop_patience=0,
        )
        assert _parameter_bytes(a) == _parameter_bytes(b)
        assert np.array(a.training_history).tobytes() == np.array(b.training_history).tobytes()


class TestTrainingContract:
    @pytest.mark.parametrize("with_val", [True, False], ids=["val", "no-val"])
    def test_trained_model_shares_no_buffer_with_later_training(self, with_val):
        X, Y, Xv, Yv = _two_output_problem()
        if not with_val:
            Xv, Yv = Xv[:0], Yv[:0]
        cfg = TrainConfig(max_epochs=30, seed=2)
        arch = MlpArchitecture(3, (6,), 2)
        first = mlp_train(arch, cfg, X, Y, Xv, Yv)
        kept = _parameter_bytes(first)
        second = mlp_train(arch, cfg, X, -Y, Xv, -Yv)
        data = FidelityDataset(
            "HF",
            DataTensor.from_values(np.vstack([X, Xv])[:, :, np.newaxis]),
            DataTensor.from_values(np.vstack([Y, Yv])[:, :, np.newaxis]),
        )
        grid = MlpGrid(layer_counts=(1,), widths=(6, 4), train=cfg)
        tune_mlp(preprocess_data_pipeline(data, SplitSpec(seed=0)), grid)
        assert _parameter_bytes(first) == kept
        for a in first.weights + first.biases:
            assert not any(np.shares_memory(a, b) for b in second.weights + second.biases)


def _overfit_problem():
    """20 noisy training rows and 10 clean validation rows: a 16-wide net
    fits the noise, so validation loss is lowest well before the last
    L-BFGS-B iteration."""
    rng = np.random.default_rng(8)
    X, Xv = rng.standard_normal((20, 1)), rng.standard_normal((10, 1))
    return X, np.sin(3 * X) + 0.3 * rng.standard_normal((20, 1)), Xv, np.sin(3 * Xv)


def _recording_minimize(monkeypatch):
    """Patch ``mlp.minimize`` to keep every result it returns."""
    results = []
    exact = mlp.minimize

    def recording(*args, **kwargs):
        results.append(exact(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(mlp, "minimize", recording)
    return results


class TestLbfgsTraining:
    @pytest.mark.parametrize("max_epochs", [1, 7, 2000])
    def test_one_history_row_per_iteration(self, monkeypatch, max_epochs):
        results = _recording_minimize(monkeypatch)
        X, Y, Xv, Yv = _two_output_problem()
        cfg = TrainConfig(max_epochs=max_epochs, seed=4)
        model = mlp_train(MlpArchitecture(3, (6,), 2), cfg, X, Y, Xv, Yv)
        (result,) = results
        rows = model.training_history
        assert result.nit <= max_epochs
        assert [row[0] for row in rows] == list(range(1, result.nit + 1))
        assert rows[-1][1] == result.fun
        if max_epochs < 2000:
            assert result.nit == max_epochs

    def test_restores_the_lowest_validation_iterate(self):
        X, Y, Xv, Yv = _overfit_problem()
        cfg = TrainConfig(max_epochs=200, seed=6)
        model = mlp_train(MlpArchitecture(1, (16,), 1), cfg, X, Y, Xv, Yv)
        rows = model.training_history
        val = [row[2] for row in rows]
        best = int(np.argmin(val))
        assert best < len(rows) - 1
        assert mlp.mse_loss(model, Xv, Yv) == val[best]
        assert mlp.mse_loss(model, X, Y) == rows[best][1]

    def test_empty_validation_bin_keeps_the_final_iterate(self, monkeypatch):
        results = _recording_minimize(monkeypatch)
        X, Y, Xv, Yv = _overfit_problem()
        cfg = TrainConfig(max_epochs=200, seed=6)
        model = mlp_train(MlpArchitecture(1, (16,), 1), cfg, X, Y, Xv[:0], Yv[:0])
        (result,) = results
        assert all(math.isnan(row[2]) for row in model.training_history)
        layers = zip(model.weights, model.biases)
        assert np.concatenate([p.ravel() for pair in layers for p in pair]).tobytes() == (
            result.x.tobytes()
        )
        assert mlp.mse_loss(model, X, Y) == model.training_history[-1][1]

    def test_non_finite_loss_raises_numeric_error(self, monkeypatch):
        calls = []
        exact = mlp.loss_gradients

        def failing(*args, **kwargs):
            calls.append(1)
            loss, grads_w, grads_b = exact(*args, **kwargs)
            return (math.nan if len(calls) == 6 else loss), grads_w, grads_b

        monkeypatch.setattr(mlp, "loss_gradients", failing)
        X, Y, Xv, Yv = _two_output_problem()
        with pytest.raises(NumericError, match=r"diverged at iteration \d+$"):
            mlp_train(MlpArchitecture(3, (6,), 2), TrainConfig(seed=4), X, Y, Xv, Yv)

    def test_loss_gradients_called_through_the_module_with_a_new_gradient(self, monkeypatch):
        """Tracing wraps ``mlp.loss_gradients``; scipy keeps the last gradient
        it was given, so no call writes into an earlier call's array."""
        outs = []
        exact = mlp.loss_gradients

        def recording(*args, out=None, **kwargs):
            outs.append(out)
            return exact(*args, out=out, **kwargs)

        monkeypatch.setattr(mlp, "loss_gradients", recording)
        X, Y, Xv, Yv = _two_output_problem()
        model = mlp_train(MlpArchitecture(3, (6,), 2), TrainConfig(max_epochs=20, seed=4),
                          X, Y, Xv, Yv)
        assert len(outs) > len(model.training_history)
        assert len({id(out) for out in outs}) == len(outs)

    def test_scipy_blas_runs_one_thread_while_training(self, monkeypatch):
        """Where scipy bundles its own OpenBLAS, L-BFGS-B runs it on one thread
        (``surrkit.blas``), so its pool does not spin against numpy's, and the
        caller's thread count is back afterwards, also when training fails."""
        seen = []
        exact = mlp.loss_gradients

        with scipy_blas_threads(2) as get:

            def recording(*args, **kwargs):
                seen.append(get())
                loss, grads_w, grads_b = exact(*args, **kwargs)
                return (math.nan if len(seen) == 30 else loss), grads_w, grads_b

            monkeypatch.setattr(mlp, "loss_gradients", recording)
            X, Y, Xv, Yv = _two_output_problem()
            mlp_train(MlpArchitecture(3, (6,), 2), TrainConfig(max_epochs=20, seed=4),
                      X, Y, Xv, Yv)
            assert get() == 2
            with pytest.raises(NumericError):
                mlp_train(MlpArchitecture(3, (6,), 2), TrainConfig(seed=4), X, Y, Xv, Yv)
            assert get() == 2
        assert len(seen) >= 30 and set(seen) == {1}


class TestTrainingInputs:
    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d.update(Y_val=d["Y_val"][:, :1]),
             "validation target matrix has 1 columns, expected 2"),
            (lambda d: d.update(Y_train=d["Y_train"][:-1]), "training set has 45 input rows"),
            (lambda d: d.update(X_val=d["X_val"][:-2]), "validation set has 9 input rows"),
            (lambda d: d["X_train"].__setitem__((3, 1), np.nan),
             "training input matrix contains non-finite entries"),
            (lambda d: d["Y_val"].__setitem__((0, 0), np.inf),
             "validation target matrix contains non-finite entries"),
        ],
        ids=["val-columns", "train-rows", "val-rows", "nan-input", "inf-val-target"],
    )
    def test_rejected_before_training(self, edit, match):
        X, Y, Xv, Yv = _two_output_problem()
        bins = {"X_train": X, "Y_train": Y, "X_val": Xv, "Y_val": Yv}
        edit(bins)
        cfg = TrainConfig(max_epochs=5, seed=0)
        with pytest.raises(InputError, match=match):
            mlp_train(MlpArchitecture(3, (6,), 2), cfg, **bins)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            TrainConfig(max_epochs=0)
        with pytest.raises(InputError):
            MlpArchitecture(1, (), 1)
        with pytest.raises(InputError):
            MlpArchitecture(1, (4,), 1, activation="sigmoid")

    def test_defaults(self):
        assert TrainConfig().max_epochs == 500

    def test_removed_optimizer_field_refused(self):
        """Training has one optimizer; the field that chose among several is gone."""
        with pytest.raises(TypeError):
            TrainConfig(optimizer="adam")

    def test_parameter_count(self):
        arch = MlpArchitecture(3, (8, 8), 2, "tanh")
        assert arch.parameter_count() == (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)


class TestServingPlan:
    """An MLP stage's plan: its scalers folded into the network's first and
    last layers, and a bound on the sites below which no step overflows."""

    def test_the_plan_is_the_network_between_its_scalers(self):
        model = init_model(MlpArchitecture(2, (5, 4), 2, "tanh"), seed=3)
        x_scaler = StandardScaler(np.array([5.0, -3.0]), np.array([0.01, 100.0]), 2)
        y_scaler = StandardScaler(np.array([1.0, 2.0]), np.array([1e3, 1e-3]), 2)
        X = np.random.default_rng(4).normal(size=(20, 2)) * [0.01, 100.0] + [5.0, -3.0]
        expected = inverse_transform(y_scaler, mlp_forward(model, transform(x_scaler, X)))
        got = model.serving_plan(x_scaler, y_scaler)(X)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected).max(axis=0))

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_the_bound_keeps_every_step_below_a_quarter_of_the_float_range(self, activation):
        """With equal positive weights and equal x stds the bound is tight
        for identity and relu: a site just under it gives an output of
        fmax / 4, so a bound a few times larger would overflow inside a BLAS
        product, which does not warn. A tanh network saturates instead."""
        arch = MlpArchitecture(2, (3, 3), 2, activation)
        dims = arch.layer_dims()
        model = MlpModel(arch, [np.full((a, b), 7.0) for a, b in zip(dims, dims[1:])],
                         [np.zeros(b) for b in dims[1:]])
        plan = model.serving_plan(StandardScaler(np.zeros(2), np.full(2, 0.25), 2),
                                  StandardScaler(np.zeros(2), np.array([2.0, 3.0]), 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = plan(np.full((1, 2), np.nextafter(plan.bound, 0.0)))
        assert np.isfinite(out).all()
        if activation != "tanh":
            assert out.max() == pytest.approx(np.finfo(np.float64).max / 4.0, rel=1e-12)
        with pytest.raises(InputError, match="^X_star holds a value of magnitude"):
            plan(np.full((1, 2), plan.bound))

"""Feed-forward network: forward pass, gradients, training behavior."""

import numpy as np
import pytest

from helpers import max_gradient_error, pooled_r2
from surrkit.errors import InputError, NumericError
from surrkit.mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    init_model,
    mlp_forward,
    mlp_train,
)


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
        with pytest.raises(InputError, match="features"):
            mlp_forward(model, np.zeros((2, 5)))

    def test_predict_is_forward(self):
        model = init_model(MlpArchitecture(2, (5,), 2), 1)
        X = np.random.default_rng(1).standard_normal((4, 2))
        np.testing.assert_array_equal(model.predict(X), mlp_forward(model, X))


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
        cfg = TrainConfig(
            learning_rate=1e-2, max_epochs=2000, batch_size=64,
            early_stop_patience=300, seed=0,
        )
        model = mlp_train(
            MlpArchitecture(1, (16,), 1), cfg, xs[:40], ys[:40], xs[40:], ys[40:]
        )
        assert pooled_r2(ys[40:], mlp_forward(model, xs[40:])) > 0.999

    def test_patience_zero_single_epoch(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 2))
        Y = rng.standard_normal((20, 1))
        cfg = TrainConfig(max_epochs=1, early_stop_patience=0, seed=0)
        model = mlp_train(MlpArchitecture(2, (4,), 1), cfg, X, Y, X[:5], Y[:5])
        assert len(model.training_history) == 1

    def test_deterministic_initialization_and_history(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        Y = rng.standard_normal((30, 1))
        cfg = TrainConfig(max_epochs=20, early_stop_patience=20, seed=11)
        arch = MlpArchitecture(2, (6,), 1)
        a = mlp_train(arch, cfg, X, Y, X[:8], Y[:8])
        b = mlp_train(arch, cfg, X, Y, X[:8], Y[:8])
        init_a = init_model(arch, 11)
        init_b = init_model(arch, 11)
        for wa, wb in zip(init_a.weights, init_b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.training_history == b.training_history
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_full_batch_descent_monotone_on_convex_problem(self):
        """Plain gradient descent on a linear, identity-activation network."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        Y = X @ np.array([[1.0], [-2.0]]) + 0.5
        cfg = TrainConfig(
            learning_rate=1e-4, max_epochs=200, batch_size=40,
            early_stop_patience=200, seed=4, optimizer="sgd",
        )
        model = mlp_train(
            MlpArchitecture(2, (3,), 1, "identity"), cfg, X, Y, X[:0], Y[:0]
        )
        losses = [row[1] for row in model.training_history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 1))
        Y = np.sin(3 * X)
        Xv = rng.standard_normal((10, 1))
        Yv = np.sin(3 * Xv)
        cfg = TrainConfig(max_epochs=300, early_stop_patience=10, seed=6)
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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 1)) * 10
        Y = rng.standard_normal((20, 1)) * 10
        cfg = TrainConfig(
            learning_rate=1e12, max_epochs=50, batch_size=20,
            early_stop_patience=50, seed=0, optimizer="sgd",
        )
        with pytest.raises(NumericError, match="diverged at epoch"):
            mlp_train(MlpArchitecture(1, (8,), 1, "relu"), cfg, X, Y, X[:5], Y[:5])


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InputError):
            TrainConfig(max_epochs=0)
        with pytest.raises(InputError):
            TrainConfig(early_stop_patience=100, max_epochs=10)
        with pytest.raises(InputError):
            MlpArchitecture(1, (), 1)
        with pytest.raises(InputError):
            MlpArchitecture(1, (4,), 1, activation="sigmoid")

    def test_parameter_count(self):
        arch = MlpArchitecture(3, (8, 8), 2, "tanh")
        assert arch.parameter_count() == (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)

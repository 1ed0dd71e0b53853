"""Gaussian process regression against closed forms and direct-solve oracles."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import direct_gpr_oracle, pooled_r2
from surrkit.errors import InputError
from surrkit.gpr import (
    HyperBounds,
    KernelSpec,
    default_kernel_grid,
    gpr_fit,
    gpr_predict,
    kernel_eval,
    kernel_from_name,
    optimize_hyperparameters,
)


class TestKernelEval:
    def test_rbf_at_zero_distance(self):
        k = kernel_eval(KernelSpec(kind="rbf"), np.array([[0.3]]), np.array([[0.3]]))
        assert k[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_rbf_closed_form(self):
        k = kernel_eval(KernelSpec(kind="rbf"), np.array([[0.0]]), np.array([[1.0]]))
        assert k[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_matern_half_closed_form(self):
        spec = KernelSpec(kind="matern", nu=0.5)
        k = kernel_eval(spec, np.array([[0.0]]), np.array([[1.0]]))
        assert k[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_matern_three_halves_closed_form(self):
        spec = KernelSpec(kind="matern", nu=1.5)
        r = 0.7
        k = kernel_eval(spec, np.array([[0.0]]), np.array([[r]]))
        t = np.sqrt(3) * r
        assert k[0, 0] == pytest.approx((1 + t) * np.exp(-t), abs=1e-12)

    def test_matern_five_halves_closed_form(self):
        spec = KernelSpec(kind="matern", nu=2.5)
        r = 1.3
        k = kernel_eval(spec, np.array([[0.0]]), np.array([[r]]))
        t = np.sqrt(5) * r
        expected = (1 + t + 5 * r * r / 3) * np.exp(-t)
        assert k[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_signal_variance_scales(self):
        spec = KernelSpec(kind="constant*rbf", signal_variance=4.0)
        k = kernel_eval(spec, np.array([[0.0]]), np.array([[0.0]]))
        assert k[0, 0] == pytest.approx(4.0, abs=1e-14)

    def test_per_dimension_length_scales(self):
        spec = KernelSpec(kind="rbf", length_scale=np.array([1.0, 10.0]))
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 1.0]])
        r2 = 1.0 + 0.01
        assert kernel_eval(spec, a, b)[0, 0] == pytest.approx(np.exp(-r2 / 2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="share dimension"):
            kernel_eval(KernelSpec(), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nonpositive_length_scale(self):
        with pytest.raises(InputError, match="length_scale"):
            KernelSpec(length_scale=0.0)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        for spec in default_kernel_grid():
            K = kernel_eval(spec, X, X)
            np.testing.assert_allclose(K, K.T, atol=1e-14)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() > -1e-10


class TestFit:
    def test_single_point_exact(self):
        model = gpr_fit(np.array([[0.0]]), np.array([[5.0]]), KernelSpec(kind="rbf"))
        np.testing.assert_allclose(model.alpha, [[5.0]], atol=1e-12)
        pred = gpr_predict(model, np.array([[0.0]]))
        assert pred.mean[0, 0] == pytest.approx(5.0, abs=1e-10)

    def test_two_point_mean_matches_direct_inverse(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0.0], [1.0]])
        spec = KernelSpec(kind="rbf", noise=0.1)
        model = gpr_fit(X, Y, spec)
        pred = gpr_predict(model, np.array([[0.5]]))
        K = kernel_eval(spec, X, X) + 0.1 * np.eye(2)
        Ks = kernel_eval(spec, X, np.array([[0.5]]))
        mean, _, _ = direct_gpr_oracle(K, Ks, np.array([1.0]), Y)
        assert pred.mean[0, 0] == pytest.approx(mean[0, 0], rel=1e-10)
        assert pred.mean[0, 0] == pytest.approx(0.517, abs=1e-3)

    def test_lml_matches_direct_determinant(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0.0], [1.0]])
        spec = KernelSpec(kind="rbf", noise=0.1)
        model = gpr_fit(X, Y, spec)
        K = kernel_eval(spec, X, X) + 0.1 * np.eye(2)
        _, _, lml = direct_gpr_oracle(K, np.zeros((2, 0)), np.zeros(0), Y)
        assert model.lml == pytest.approx(lml, rel=1e-10)

    def test_cholesky_reconstructs_kernel(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (25, 2))
        Y = rng.standard_normal((25, 1))
        spec = KernelSpec(kind="matern", nu=1.5, noise=0.01)
        model = gpr_fit(X, Y, spec)
        K = kernel_eval(spec, X, X) + 0.01 * np.eye(25)
        rebuilt = model.L @ model.L.T
        rel = np.linalg.norm(rebuilt - K) / np.linalg.norm(K)
        assert rel < 1e-8

    def test_alpha_solves_system(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (20, 2))
        Y = rng.standard_normal((20, 3))
        spec = KernelSpec(kind="rbf", noise=1e-3)
        model = gpr_fit(X, Y, spec)
        K = kernel_eval(spec, X, X) + 1e-3 * np.eye(20)
        residual = np.linalg.norm(K @ model.alpha - Y) / np.linalg.norm(Y)
        assert residual < 1e-8

    def test_duplicate_points_get_jitter(self):
        X = np.array([[0.0], [0.0], [1.0]])
        Y = np.array([[1.0], [1.0], [2.0]])
        model = gpr_fit(X, Y, KernelSpec(kind="rbf"))
        assert model.jitter_used > 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            gpr_fit(np.array([[np.nan]]), np.array([[1.0]]), KernelSpec())


class TestPredict:
    def test_interpolation_at_training_sites(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (15, 2))
        Y = rng.standard_normal((15, 2))
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.5))
        pred = gpr_predict(model, X)
        assert np.abs(pred.mean - Y).max() < 1e-6
        assert pred.variance.max() <= 1e-8

    def test_prior_reversion_far_away(self):
        X = np.array([[0.0]])
        Y = np.array([[3.0]])
        model = gpr_fit(X, Y, KernelSpec(kind="rbf"))
        pred = gpr_predict(model, np.array([[50.0]]))
        assert abs(pred.mean[0, 0]) < 1e-8
        assert pred.variance[0] == pytest.approx(1.0, abs=1e-8)

    def test_oracle_equivalence_random_points(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (18, 3))
        Y = rng.standard_normal((18, 2))
        spec = KernelSpec(kind="matern", nu=2.5, noise=0.05)
        model = gpr_fit(X, Y, spec)
        Xq = rng.uniform(-1, 1, (20, 3))
        pred = gpr_predict(model, Xq)
        K = kernel_eval(spec, X, X) + 0.05 * np.eye(18)
        Ks = kernel_eval(spec, X, Xq)
        mean, var, _ = direct_gpr_oracle(K, Ks, np.full(20, 1.0), Y)
        np.testing.assert_allclose(pred.mean, mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(pred.variance, np.maximum(var, 0), rtol=1e-8, atol=1e-10)

    def test_multi_output_matches_per_column_fits(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (12, 2))
        Y = rng.standard_normal((12, 3))
        spec = KernelSpec(kind="rbf", length_scale=0.7, noise=1e-4)
        joint = gpr_predict(gpr_fit(X, Y, spec), X + 0.05)
        for j in range(3):
            single = gpr_predict(gpr_fit(X, Y[:, [j]], spec), X + 0.05)
            np.testing.assert_allclose(joint.mean[:, j], single.mean[:, 0], atol=1e-10)
            np.testing.assert_allclose(joint.variance, single.variance, atol=1e-10)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (30, 1))
        Y = np.sin(6 * X)
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.2))
        pred = gpr_predict(model, rng.uniform(0, 1, (200, 1)))
        assert (pred.variance >= 0).all()

    def test_dimension_mismatch(self):
        model = gpr_fit(np.zeros((2, 2)) + [[0, 0], [1, 1]], np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="dims"):
            gpr_predict(model, np.zeros((1, 3)))

    def test_dimension_mismatch_on_mean_path(self):
        model = gpr_fit(np.zeros((2, 2)) + [[0, 0], [1, 1]], np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="dims"):
            model.predict(np.zeros((1, 3)))

    def test_non_finite_query_rejected_on_mean_path(self):
        model = gpr_fit(np.array([[0.0], [1.0]]), np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="non-finite"):
            model.predict(np.array([[np.nan]]))


ALL_KERNELS = [
    KernelSpec(kind="rbf"),
    KernelSpec(kind="constant*rbf", signal_variance=2.3),
    *(KernelSpec(kind="matern", nu=nu) for nu in (0.5, 1.5, 2.5)),
    *(KernelSpec(kind="constant*matern", nu=nu, signal_variance=0.7) for nu in (0.5, 1.5, 2.5)),
]


class TestMeanPath:
    """``GprModel.predict`` is the mean of ``gpr_predict``, to the last bit."""

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda s: f"{s.kind}-{s.nu}")
    @pytest.mark.parametrize("length_scale", [0.4, np.array([0.3, 0.8, 1.7])],
                             ids=["isotropic", "per-dim"])
    def test_mean_bytes_equal_gpr_predict_mean(self, base, length_scale):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, (30, 3))
        Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2], np.cos(X.sum(axis=1))])
        spec = replace(base, length_scale=length_scale, noise=1e-4)
        model = gpr_fit(X, Y, spec)
        batch = rng.uniform(-0.2, 1.2, (17, 3))
        for Xq in (batch[:1], batch):
            mean = model.predict(Xq)
            assert mean.shape == (len(Xq), 3)
            assert mean.tobytes() == gpr_predict(model, Xq).mean.tobytes()
            # The cached training side gives the bytes a fresh kernel does.
            assert mean.tobytes() == (kernel_eval(spec, X, Xq).T @ model.alpha).tobytes()


class TestLmlDirection:
    def test_gross_noise_lowers_lml_on_noiseless_data(self):
        rng = np.random.default_rng(7)
        X = np.sort(rng.uniform(0, 4, 25))[:, None]
        Y = np.sin(X)
        clean = gpr_fit(X, Y, KernelSpec(kind="rbf", noise=1e-8))
        noisy = gpr_fit(X, Y, KernelSpec(kind="rbf", noise=0.5))
        assert noisy.lml < clean.lml


class TestOptimize:
    def test_monotone_improvement(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (20, 1))
        Y = np.sin(4 * X) + 0.01 * rng.standard_normal((20, 1))
        start = KernelSpec(kind="constant*rbf", length_scale=0.3, noise=1e-4)
        start_lml = gpr_fit(X, Y, start).lml
        tuned = optimize_hyperparameters(X, Y, start, restarts=3, seed=0)
        assert gpr_fit(X, Y, tuned).lml >= start_lml - 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (15, 2))
        Y = rng.standard_normal((15, 1))
        spec = KernelSpec(kind="constant*matern", nu=1.5, noise=1e-4)
        a = optimize_hyperparameters(X, Y, spec, restarts=3, seed=5)
        b = optimize_hyperparameters(X, Y, spec, restarts=3, seed=5)
        assert np.atleast_1d(a.length_scale)[0] == np.atleast_1d(b.length_scale)[0]
        assert a.noise == b.noise
        assert a.signal_variance == b.signal_variance

    def test_recovers_sine(self):
        rng = np.random.default_rng(10)
        X = np.sort(rng.uniform(0, 6, 15))[:, None]
        Y = np.sin(X)
        tuned = optimize_hyperparameters(
            X, Y, KernelSpec(kind="constant*rbf", noise=1e-6), restarts=3, seed=0
        )
        model = gpr_fit(X, Y, tuned)
        Xq = np.linspace(0, 6, 120)[:, None]
        pred = gpr_predict(model, Xq)
        assert pooled_r2(np.sin(Xq), pred.mean) > 0.99

    def test_nu_never_modified(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (10, 1))
        Y = rng.standard_normal((10, 1))
        spec = KernelSpec(kind="constant*matern", nu=2.5, noise=1e-4)
        tuned = optimize_hyperparameters(X, Y, spec, restarts=2, seed=1)
        assert tuned.nu == 2.5
        assert tuned.kind == "constant*matern"

    def test_result_within_bounds(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (12, 1))
        Y = rng.standard_normal((12, 1))
        bounds = HyperBounds(length_scale=(0.1, 10.0), noise=(1e-8, 0.5))
        tuned = optimize_hyperparameters(
            X, Y, KernelSpec(kind="rbf", noise=1e-4), restarts=2, bounds=bounds, seed=2
        )
        ls = float(np.atleast_1d(tuned.length_scale)[0])
        assert 0.1 <= ls <= 10.0
        assert 1e-8 <= tuned.noise <= 0.5

    def test_restarts_validated(self):
        with pytest.raises(InputError, match="restarts"):
            optimize_hyperparameters(
                np.zeros((2, 1)), np.zeros((2, 1)), KernelSpec(), restarts=0
            )


class TestKernelNames:
    def test_tokens_round_trip(self):
        assert kernel_from_name("rbf").kind == "rbf"
        assert kernel_from_name("matern0.5").nu == 0.5
        assert kernel_from_name("constant*matern2.5").kind == "constant*matern"
        with pytest.raises(InputError):
            kernel_from_name("spline")

"""Gaussian process regression against closed forms and direct-solve oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import direct_gpr_oracle, pooled_r2
from surrkit.errors import InputError, NumericError
from surrkit.gpr import (
    HyperBounds,
    KernelSpec,
    _lml_evaluator,
    _pack_bounds,
    _theta_to_spec,
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


def _fit_lml(X, Y, spec, theta):
    return gpr_fit(X, Y, _theta_to_spec(spec, theta)).lml


class TestLeanLml:
    """The optimizer's lml evaluator returns ``gpr_fit``'s lml, to the last bit."""

    # 35 rows of 4 inputs: there numpy's A @ A.T (a rank-k update) rounds
    # differently from a product of two distinct arrays.
    _rng = np.random.default_rng(41)
    X = _rng.uniform(0, 1, (35, 4))
    Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2], np.cos(X.sum(axis=1))])

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from(ALL_KERNELS),
        per_dim=st.booleans(),
        q=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_equals_gpr_fit_within_bounds(self, base, per_dim, q, data):
        spec = replace(base, length_scale=np.full(4, 0.5) if per_dim else 0.5)
        theta = np.array([
            data.draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
            for lo, hi in _pack_bounds(spec, 4, HyperBounds())
        ])
        X, Y = self.X, self.Y[:, :q]
        assert _lml_evaluator(X, Y, spec)(theta) == _fit_lml(X, Y, spec, theta)

    def test_duplicate_rows_give_the_jittered_lml(self):
        X = np.array([[0.1], [0.1], [0.5], [0.9]])
        Y = np.array([[1.0], [1.0], [0.0], [2.0]])
        spec = KernelSpec(kind="rbf")
        # Noise at the lower edge of HyperBounds(noise=(1e-20, 1.0)).
        theta = np.log([0.3, 1e-20])
        assert gpr_fit(X, Y, _theta_to_spec(spec, theta)).jitter_used > 0.0
        assert _lml_evaluator(X, Y, spec)(theta) == _fit_lml(X, Y, spec, theta)

    def test_unfactorable_kernel_gives_minus_inf(self):
        # Far from the origin the expanded distance loses the small gaps, and
        # K is indefinite beyond what the largest jitter repairs.
        X = 1e4 + np.linspace(0.0, 1e-3, 8)[:, np.newaxis]
        Y = np.sin(np.arange(8.0))[:, np.newaxis]
        spec = KernelSpec(kind="rbf")
        theta = np.log([1e-2, 1e-10])
        with pytest.raises(NumericError):
            gpr_fit(X, Y, _theta_to_spec(spec, theta))
        assert _lml_evaluator(X, Y, spec)(theta) == -np.inf


# optimize_hyperparameters results on one problem, as float.hex of the length
# scales, sf2 and noise. They pin the optimizer's path: an edit to the lml
# evaluation or the search that changes any bit of a trained model shows here.
PINNED_OPTIMA = {
    ("rbf", 1.5, "isotropic"):
        "0x1.ecb57cff82e1cp-2 0x1.0000000000000p+0 0x1.12e9d96432ec7p-28",
    ("rbf", 1.5, "per-dim"):
        "0x1.b3a32e60d73e9p-2 0x1.67647cf8cefc8p-1 0x1.0000000000000p+0 0x1.692ca9f32453cp-18",
    ("constant*rbf", 1.5, "isotropic"):
        "0x1.0657b22344d25p-1 0x1.7133a1469e53bp+0 0x1.5d6024c339dd7p-27",
    ("constant*rbf", 1.5, "per-dim"):
        "0x1.c92133b6bbfeap-2 0x1.741df396d7ec9p-1 0x1.5afc52f364f02p+0 0x1.225475afb7120p-18",
    ("matern", 0.5, "isotropic"):
        "0x1.eb196210c9980p+0 0x1.0000000000000p+0 0x1.a2e5078285034p-14",
    ("matern", 0.5, "per-dim"):
        "0x1.913bfcbc2360ap+0 0x1.7d9cfbc3f1aafp+1 0x1.0000000000000p+0 0x1.a20837c99b3c6p-14",
    ("matern", 1.5, "isotropic"):
        "0x1.a4e589ce5d819p-1 0x1.0000000000000p+0 0x1.fcdd053f9053fp-27",
    ("matern", 1.5, "per-dim"):
        "0x1.6e438e0b266cdp-1 0x1.38504ee7de57ep+0 0x1.0000000000000p+0 0x1.d7db254410acep-29",
    ("matern", 2.5, "isotropic"):
        "0x1.58d44c2ebe931p-1 0x1.0000000000000p+0 0x1.03d7c5dd14f1ap-27",
    ("matern", 2.5, "per-dim"):
        "0x1.33ceaef4f491dp-1 0x1.0740f1d5bd8eap+0 0x1.0000000000000p+0 0x1.f79b48b421111p-30",
    ("constant*matern", 0.5, "isotropic"):
        "0x1.e45359d152f49p-1 0x1.0dfae69d524cep-1 0x1.9fc0cf0a2602ep-14",
    ("constant*matern", 0.5, "per-dim"):
        "0x1.84fe434a3a407p-2 0x1.6c2dd4ec8a0fap-1 0x1.469ed545b38dfp-2 0x1.a2c3a0b3766d5p-14",
    ("constant*matern", 1.5, "isotropic"):
        "0x1.d2b38f873414fp-1 0x1.4657683c0b566p+0 0x1.15ffd475b1c4ap-27",
    ("constant*matern", 1.5, "per-dim"):
        "0x1.e33e0095afd6bp-1 0x1.a2a6d70477772p+0 0x1.f74ae05a30e78p+0 0x1.4eff9e0159fc4p-27",
    ("constant*matern", 2.5, "isotropic"):
        "0x1.94e1604a80ef5p-1 0x1.affb4def5286ep+0 0x1.2592b97f1869ep-28",
    ("constant*matern", 2.5, "per-dim"):
        "0x1.da416e7ed14b2p-1 0x1.b1babf0fff678p+0 0x1.297a6b5d90e67p+2 0x1.b7cdfd9d7bdb8p-34",
}


@pytest.mark.parametrize("kind, nu, scales", PINNED_OPTIMA)
def test_optimizer_results_pinned(kind, nu, scales):
    rng = np.random.default_rng(31)
    X = rng.uniform(0, 1, (16, 2))
    Y = np.column_stack([np.sin(5 * X[:, 0]) + X[:, 1], np.cos(3 * X.sum(axis=1))])
    length_scale = 0.5 if scales == "isotropic" else np.array([0.5, 0.5])
    spec = KernelSpec(kind=kind, nu=nu, length_scale=length_scale, noise=1e-4)
    tuned = optimize_hyperparameters(X, Y, spec, restarts=2, seed=3)
    values = [*np.atleast_1d(tuned.length_scale), tuned.signal_variance, tuned.noise]
    assert " ".join(float(v).hex() for v in values) == PINNED_OPTIMA[kind, nu, scales]


class TestKernelNames:
    def test_tokens_round_trip(self):
        assert kernel_from_name("rbf").kind == "rbf"
        assert kernel_from_name("matern0.5").nu == 0.5
        assert kernel_from_name("constant*matern2.5").kind == "constant*matern"
        with pytest.raises(InputError):
            kernel_from_name("spline")

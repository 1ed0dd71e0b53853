"""Gaussian process regression against closed forms and direct-solve oracles."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import OptimizeResult, minimize

from helpers import REFERENCE_RTOL, direct_gpr_oracle, pooled_r2, scipy_blas_threads
from surrkit import gpr
from surrkit.errors import InputError, NumericError
from surrkit.gpr import (
    GprModel,
    HyperBounds,
    KernelSpec,
    _lml_evaluator,
    _search_space,
    _theta_to_spec,
    _unpack_theta,
    default_kernel_grid,
    gpr_fit,
    gpr_predict,
    kernel_eval,
    kernel_from_name,
    optimize_hyperparameters,
)
from surrkit.metrics import uq_report
from surrkit.multifid import FittedSurrogate, TensorLayout
from surrkit.preprocess import (
    SplitSpec,
    StandardScaler,
    fit_scaler,
    preprocess_data_pipeline,
    transform,
)
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset


def model_ks(model, Xq):
    """The model's own Ks at the queries ``Xq``, in its own units: its kernel
    core weighted by the identity, which gives Ks^T exactly, on the query
    ``gpr_predict``'s identity plan forms, Xq times 1/l."""
    return model._predict(Xq * (1.0 / model._length_scales), np.eye(model.n_train)).T


def identity_plan(model):
    """The model's serving plan between identity scalers, as ``gpr_predict``
    runs it: its mean path, in the model's own units."""
    return model.serving_plan(StandardScaler.identity(model.input_dim),
                              StandardScaler.identity(model.y_dim))


def identity_stage(model):
    """The model as a stage between identity scalers."""
    layout = TensorLayout(tuple(f"y{j}" for j in range(model.y_dim)), ("0",))
    return FittedSurrogate(model, StandardScaler.identity(model.input_dim),
                           StandardScaler.identity(model.y_dim), layout)


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
        with pytest.raises(InputError, match="^B has 3 columns, expected 2$"):
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


# The one wording of a length-scale count that fits neither one scale nor
# one per input dimension, whichever call meets it.
LS_COUNT_MISMATCH = "length_scale has 3 entries for 2 input dims"


class TestKernelSpec:
    """A spec stores its length scales once, as a read-only 1-D float64 copy."""

    def test_empty_length_scale_is_refused(self):
        with pytest.raises(InputError, match="length_scale"):
            KernelSpec(length_scale=[])

    @pytest.mark.parametrize("given", [0.5, 2, [0.5], np.array([0.3, 0.8])])
    def test_length_scale_is_a_read_only_float64_vector(self, given):
        ls = KernelSpec(length_scale=given).length_scale
        assert ls.dtype == np.float64 and ls.ndim == 1
        assert ls.tolist() == np.ravel(given).astype(float).tolist()
        assert not ls.flags.writeable

    def test_the_callers_array_does_not_reach_the_spec(self):
        given = np.array([0.3, 0.8])
        spec = KernelSpec(length_scale=given)
        given[0] = 5.0
        assert spec.length_scale.tolist() == [0.3, 0.8]

    def test_a_count_mismatch_reads_the_same_from_fit_and_optimizer(self):
        X, Y = np.array([[0.1, 0.2], [0.5, 0.9]]), np.array([[1.0], [2.0]])
        spec = KernelSpec(kind="constant*rbf", length_scale=[0.3, 0.8, 1.7])
        with pytest.raises(InputError, match=f"^{LS_COUNT_MISMATCH}$"):
            gpr_fit(X, Y, spec)
        with pytest.raises(InputError, match=f"^{LS_COUNT_MISMATCH}$"):
            optimize_hyperparameters(X, Y, spec, restarts=1)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["rbf", "constant*rbf"]),
        scales=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=3).filter(
            lambda scales: len(scales) != 2),  # one scale, or one per input dim
        sf2=st.floats(1e-5, 1e5),
        noise=st.one_of(st.just(0.0), st.floats(1e-14, 10.0)),
    )
    def test_search_space_start_unpacks_to_the_clipped_spec(self, kind, scales, sf2, noise):
        spec = KernelSpec(kind=kind, length_scale=scales, signal_variance=sf2, noise=noise)
        bounds = HyperBounds()
        theta0, log_box = _search_space(spec, 3, bounds)
        assert log_box.shape == (theta0.size, 2)
        assert ((log_box[:, 0] <= theta0) & (theta0 <= log_box[:, 1])).all()
        ls, sf2_back, noise_back = _unpack_theta(spec, theta0)
        np.testing.assert_allclose(ls, np.clip(scales, *bounds.length_scale), rtol=1e-13)
        if spec.tunes_signal_variance:
            assert sf2_back == pytest.approx(np.clip(sf2, *bounds.signal_variance), rel=1e-13)
        else:
            assert sf2_back == sf2
        assert noise_back == pytest.approx(np.clip(noise, *bounds.noise), rel=1e-13)


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

    def test_variance_bytes_equal_those_of_solve_triangular(self):
        """The variance solve calls LAPACK's dtrtrs itself, the routine
        scipy's solve_triangular calls for a Fortran-ordered factor: on the
        model's own Ks the bytes agree, and on a fresh ``kernel_eval`` Ks the
        variance agrees within ``REFERENCE_RTOL`` of sf2."""
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (60, 3))
        spec = KernelSpec(kind="constant*matern", nu=2.5, length_scale=0.4, noise=1e-6)
        model = gpr_fit(X, np.sin(X.sum(axis=1, keepdims=True)), spec)
        assert model.L.flags.f_contiguous

        def variance_of(Ks):
            v = solve_triangular(model.L, Ks, lower=True)
            variance = np.full(Ks.shape[1], spec.signal_variance)
            variance -= np.einsum("ij,ij->j", v, v)
            return np.maximum(variance, 0.0, out=variance)

        for Xq in [*rng.uniform(-0.2, 1.2, (30, 1, 3)), rng.uniform(-0.2, 1.2, (40, 3))]:
            got = gpr_predict(model, Xq).variance
            assert got.tobytes() == variance_of(model_ks(model, Xq)).tobytes()
            fresh = variance_of(kernel_eval(spec, X, Xq))
            assert np.max(np.abs(got - fresh)) <= REFERENCE_RTOL * spec.signal_variance

    def test_fit_hands_its_factor_to_the_model(self, monkeypatch):
        """A fitted model's variance reuses the fit's factor; only a model
        built without one factors on its first variance request."""
        real_cholesky, calls = gpr.cholesky, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real_cholesky(*args, **kwargs)

        monkeypatch.setattr(gpr, "cholesky", counted)
        X = np.linspace(0, 1, 12)[:, None]
        model = gpr_fit(X, np.sin(6 * X), KernelSpec(kind="rbf", length_scale=0.3, noise=1e-6))
        gpr_predict(model, X + 0.05)
        assert len(calls) == 1

    def test_dimension_mismatch(self):
        model = gpr_fit(np.zeros((2, 2)) + [[0, 0], [1, 1]], np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="^X_star has 3 columns, expected 2$"):
            gpr_predict(model, np.zeros((1, 3)))

    def test_dimension_mismatch_on_mean_path(self):
        """The mean-only path is a stage's ``predict_raw``."""
        model = gpr_fit(np.zeros((2, 2)) + [[0, 0], [1, 1]], np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="^design sites has 3 columns, expected 2$"):
            identity_stage(model).predict_raw(np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(1, 2, 1), (1, 2, 2)])
    def test_rank_3_query_rejected(self, shape):
        model = gpr_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones((2, 1)), KernelSpec())
        for name, predict in (("design sites", identity_stage(model).predict_raw),
                              ("X_star", lambda X: gpr_predict(model, X))):
            with pytest.raises(InputError, match=f"^{name} must be a 2-D matrix, got rank 3$"):
                predict(np.zeros(shape))

    def test_non_finite_query_rejected_on_mean_path(self):
        model = gpr_fit(np.array([[0.0], [1.0]]), np.ones((2, 1)), KernelSpec())
        with pytest.raises(InputError, match="non-finite"):
            identity_stage(model).predict_raw(np.array([[np.nan]]))


ALL_KERNELS = [
    KernelSpec(kind="rbf"),
    KernelSpec(kind="constant*rbf", signal_variance=2.3),
    *(KernelSpec(kind="matern", nu=nu) for nu in (0.5, 1.5, 2.5)),
    *(KernelSpec(kind="constant*matern", nu=nu, signal_variance=0.7) for nu in (0.5, 1.5, 2.5)),
]


class TestMeanPath:
    """A plan's mean without the variance is its mean with it
    (``gpr_predict``), to the last bit, in one block and across blocks."""

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda s: f"{s.kind}-{s.nu}")
    @pytest.mark.parametrize("length_scale", [0.4, np.array([0.3, 0.8, 1.7])],
                             ids=["isotropic", "per-dim"])
    def test_mean_bytes_equal_gpr_predict_mean(self, base, length_scale, monkeypatch):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, (30, 3))
        Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2], np.cos(X.sum(axis=1))])
        spec = replace(base, length_scale=length_scale, noise=1e-4)
        model = gpr_fit(X, Y, spec)
        batch = rng.uniform(-0.2, 1.2, (17, 3))
        # 8 query points per block: the batch takes blocks of 8, 8 and 1.
        monkeypatch.setattr(gpr, "_KS_BLOCK_BYTES", 64 * len(X))
        for Xq in (batch[:1], batch):
            mean = identity_plan(model)(Xq)
            assert mean.shape == (len(Xq), 3)
            assert mean.tobytes() == gpr_predict(model, Xq).mean.tobytes()
            # The one product with the cached training side agrees with a
            # fresh kernel's mean in its last bits, not byte for byte.
            fresh = kernel_eval(spec, X, Xq).T @ model.alpha
            assert np.max(np.abs(mean - fresh)) <= REFERENCE_RTOL * np.max(np.abs(fresh))


def _out_of_place_kernel(spec, A, B):
    """K(A, B) as the textbook expressions give it, one new array per step.

    With one array on both sides the self-distances are exactly 0.
    """
    ls = spec.length_scale_vector(A.shape[1])
    As, Bs = A / ls, B / ls
    sq = np.sum(As * As, axis=1)[:, np.newaxis] - 2.0 * As @ Bs.T + np.sum(Bs * Bs, axis=1)
    sq = np.maximum(sq, 0.0)
    if B is A:
        np.fill_diagonal(sq, 0.0)
    sf2 = spec.signal_variance
    if not spec.is_matern:
        return sf2 * np.exp(-0.5 * sq)
    r = np.sqrt(sq)
    if spec.nu == 0.5:
        return sf2 * np.exp(-r)
    if spec.nu == 1.5:
        t = math.sqrt(3.0) * r
        return sf2 * (1.0 + t) * np.exp(-t)
    t = math.sqrt(5.0) * r
    return sf2 * (1.0 + t + (5.0 / 3.0) * sq) * np.exp(-t)


def _kernel_id(spec):
    return f"{spec.kind}-{spec.nu}"


SCALES = pytest.mark.parametrize(
    "length_scale", [0.4, np.array([0.3, 0.8, 1.7])], ids=["isotropic", "per-dim"]
)


class TestInPlaceKernel:
    """The kernel built in one buffer has the out-of-place expressions' bytes."""

    rng = np.random.default_rng(23)
    A = rng.uniform(-1.0, 2.0, (37, 3))
    B = rng.uniform(-1.0, 2.0, (23, 3))

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    @SCALES
    @pytest.mark.parametrize("shape", ["square", "rectangular"])
    def test_kernel_bytes(self, base, length_scale, shape):
        spec = replace(base, length_scale=length_scale)
        B = self.A if shape == "square" else self.B
        K = kernel_eval(spec, self.A, B)
        assert K.tobytes() == _out_of_place_kernel(spec, self.A, B).tobytes()

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    @SCALES
    def test_fit_bytes(self, base, length_scale):
        """gpr_fit adds the noise in place: the bytes of K + sn2 * I."""
        spec = replace(base, length_scale=length_scale, noise=1e-3)
        Y = np.column_stack([np.sin(self.A.sum(axis=1)), self.A[:, 0] * self.A[:, 2]])
        model = gpr_fit(self.A, Y, spec)
        K_noisy = _out_of_place_kernel(spec, self.A, self.A) + spec.noise * np.eye(len(self.A))
        L = cholesky(K_noisy, lower=True)
        assert model.jitter_used == 0.0
        assert model.L.tobytes() == L.tobytes()
        assert model.alpha.tobytes() == cho_solve((L, True), Y).tobytes()

    def test_training_terms_unchanged_by_prediction(self):
        """The cached training side of the Ks product, one per model, is
        read and never written."""
        for kind in ("constant*rbf", "constant*matern"):
            model = gpr_fit(self.A, np.sin(self.A[:, :1]), KernelSpec(kind=kind, nu=2.5))
            cached = model._train_side
            before = cached.copy()
            identity_plan(model)(self.B)
            gpr_predict(model, self.B)
            assert model._train_side is cached
            assert cached.tobytes() == before.tobytes()


class TestFarField:
    """Far from every training row each family's Ks underflows to exactly 0
    without a warning: the mean is the output offset and the variance sf2."""

    rng = np.random.default_rng(41)
    X = rng.uniform(0, 1, (25, 3))
    Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] - X[:, 2]])
    # Matern 0.5's sf2 exp(-r) falls slowest and underflows past r = 745; a
    # site 1000 length scales past every training row in each input is at
    # r >= 1000 sqrt(3).
    REACH = 1000.0

    def stage(self, base, length_scale):
        spec = replace(base, length_scale=length_scale, noise=1e-4)
        x_scaler, y_scaler = fit_scaler(self.X), fit_scaler(self.Y)
        model = gpr_fit(transform(x_scaler, self.X), transform(y_scaler, self.Y), spec)
        return FittedSurrogate(model, x_scaler, y_scaler, TensorLayout(("a", "b"), ("0",)))

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    @SCALES
    def test_far_site(self, base, length_scale):
        stage = self.stage(base, length_scale)
        model, sf2 = stage.model, stage.model.kernel.signal_variance
        ls = model._length_scales
        scaled = (model.X_train.max(axis=0) + self.REACH * ls)[np.newaxis]
        raw = (self.X.max(axis=0) + self.REACH * ls * stage.x_scaler.divisor)[np.newaxis]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (model_ks(model, scaled) == 0.0).all()
            pred = gpr_predict(model, scaled)
            report = uq_report(stage, raw)
            mean = stage.predict_raw(raw)
        assert (pred.mean == 0.0).all() and (pred.variance == sf2).all()
        assert (mean == stage.y_scaler.means).all()
        assert (report.mean == stage.y_scaler.means).all()
        assert (report.std == math.sqrt(sf2) * stage.y_scaler.stds).all()

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    def test_site_just_under_the_plan_bound(self, base):
        stage = self.stage(base, np.array([0.3, 0.8, 1.7]))
        below = np.nextafter(stage._plan.bound, 0.0)
        for sign in (1.0, -1.0):
            site = np.full((1, 3), sign * below)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = uq_report(stage, site)
                mean = stage.predict_raw(site)
            assert np.isfinite(mean).all() and np.isfinite(report.std).all()
            assert mean.tobytes() == report.mean.tobytes()

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    def test_gpr_predict_has_one_overflow_rule(self, base):
        """``gpr_predict`` checks a query once, against its identity plan's
        bound, half of min(l) times ``_unit_bound``: a hair under it gives
        finite values without a warning; a hair over it, NaN and infinities
        each raise one ``InputError``, as do rank-3 and wrong-width queries."""
        model = self.stage(base, np.array([0.3, 0.8, 1.7])).model
        bound = identity_plan(model).bound
        assert bound == 0.5 * model._unit_bound * model._length_scales.min()
        for sign in (1.0, -1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pred = gpr_predict(model, np.full((1, 3), sign * np.nextafter(bound, 0.0)))
            assert np.isfinite(pred.mean).all() and np.isfinite(pred.variance).all()
            over = np.full((1, 3), sign * np.nextafter(bound, np.inf))
            with pytest.raises(InputError, match="^X_star holds a value of magnitude"):
                gpr_predict(model, over)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="^X_star contains non-finite entries$"):
                gpr_predict(model, np.array([[0.5, 0.5, bad]]))
        for query in (np.zeros((1, 3, 1)), np.zeros((1, 2))):
            with pytest.raises(InputError, match="^X_star (must be a 2-D|has 2 columns)"):
                gpr_predict(model, query)

    def test_rbf_exponent_is_capped_at_log_sf2(self):
        """Training rows 1e10 length scales from the origin: rounding in the
        product of such rows can leave the exponent far above log sf2, which
        would overflow exp, where the rows meet. The cap keeps each Ks in
        [0, sf2], as the clipped r^2 of the training kernel does."""
        rng = np.random.default_rng(43)
        X = 1e10 + rng.uniform(-1e9, 1e9, (40, 3))
        spec = KernelSpec(kind="constant*rbf", signal_variance=2.3, noise=1e-4)
        model = gpr_fit(X, np.sin(np.arange(40.0))[:, np.newaxis], spec)
        queries = np.vstack([X, X + rng.uniform(-1.0, 1.0, X.shape)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Ks = model_ks(model, queries)
            pred = gpr_predict(model, queries)
        assert model._exponent_cap == math.log(spec.signal_variance)
        assert (Ks >= 0.0).all() and (Ks <= spec.signal_variance * (1 + 1e-15)).all()
        assert np.isfinite(pred.mean).all()
        assert ((pred.variance >= 0.0) & (pred.variance <= spec.signal_variance)).all()

    def test_no_cap_where_rounding_cannot_reach_it(self):
        """Rows within hundreds of length scales of the origin skip the
        pass: the exponent exceeds log sf2 by under 1e-9 there."""
        rng = np.random.default_rng(47)
        spec = KernelSpec(kind="constant*rbf", signal_variance=2.3, length_scale=0.01)
        X = rng.uniform(-1.0, 1.0, (40, 3))
        model = gpr_fit(X, np.sin(X.sum(axis=1, keepdims=True)), spec)
        assert model._exponent_cap == math.inf
        queries = np.vstack([X, X + rng.uniform(-0.01, 0.01, X.shape)])
        assert model_ks(model, queries).max() <= spec.signal_variance * (1 + 2e-9)


class TestBlockedPrediction:
    """Batches beyond one block: per-block bytes, bounded memory."""

    rng = np.random.default_rng(29)
    X = rng.uniform(0, 1, (30, 3))
    Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2]])
    Xq = rng.uniform(-0.2, 1.2, (17, 3))

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    def test_blocks_of_a_batch(self, base, monkeypatch):
        spec = replace(base, length_scale=0.4, noise=1e-4)
        whole = gpr_fit(self.X, self.Y, spec)
        one_shot = [identity_plan(whole)(self.Xq), gpr_predict(whole, self.Xq)]
        # 8 query points per block: 17 points take blocks of 8, 8 and 1.
        monkeypatch.setattr(gpr, "_KS_BLOCK_BYTES", 64 * len(self.X))
        model = gpr_fit(self.X, self.Y, spec)
        blocks, inner = [], gpr.GprModel._predict_block

        def counted(self, Z, *args):
            blocks.append(len(Z))
            return inner(self, Z, *args)

        monkeypatch.setattr(gpr.GprModel, "_predict_block", counted)
        plan = identity_plan(model)
        mean = plan(self.Xq)
        pred = gpr_predict(model, self.Xq)
        assert blocks == [8, 8, 1, 8, 8, 1]
        parts = [slice(0, 8), slice(8, 16), slice(16, 17)]
        per_block = [gpr_predict(model, self.Xq[p]) for p in parts]
        assert mean.tobytes() == np.vstack([plan(self.Xq[p]) for p in parts]).tobytes()
        assert pred.mean.tobytes() == np.vstack([p.mean for p in per_block]).tobytes()
        assert pred.variance.tobytes() == np.concatenate(
            [p.variance for p in per_block]
        ).tobytes()
        # The batch in one step, as the formulas in gpr.py's docstring.
        Ks = kernel_eval(model.kernel, self.X, self.Xq)
        v = solve_triangular(model.L, Ks, lower=True)
        variance = np.maximum(model.kernel.signal_variance - np.sum(v * v, axis=0), 0.0)
        for got, want in ((mean, Ks.T @ model.alpha), (pred.mean, one_shot[1].mean),
                          (pred.variance, variance), (mean, one_shot[0])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind, nu", [("constant*rbf", 1.5), ("constant*matern", 2.5)])
    def test_memory_of_a_large_batch_is_bounded(self, kind, nu):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, (560, 4))
        model = gpr_fit(X, np.sin(X @ np.ones((4, 1))),
                        KernelSpec(kind=kind, nu=nu, length_scale=0.5, noise=1e-4))
        Xq = rng.uniform(0, 1, (10_000, 4))
        plan = identity_plan(model)
        plan(Xq[:1])  # the cached training terms are not the batch's
        tracemalloc.start()
        try:
            mean = plan(Xq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mean.shape == (10_000, 1)
        # One 10k x 560 Ks alone is 45 MB; a block's kernel buffers, 1 MiB
        # together whatever the family, the 80 kB mean and the helpers fit.
        assert peak < 2e6

    # n_train x rows buffers that ``_kernel_from_sq`` holds at once, by family.
    BUFFERS = {"rbf": 1, 0.5: 1, 1.5: 2, 2.5: 3}

    @staticmethod
    def block_rows(spec, n_train):
        X = np.random.default_rng(37).uniform(0, 1, (n_train, 4))
        return gpr.GprModel(kernel=spec, X_train=X, alpha=np.ones((n_train, 1)),
                            y_dim=1, lml=0.0, jitter_used=0.0)._block_rows

    @pytest.mark.parametrize("n_train", [34, 560])
    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    def test_block_buffers_fit_the_budget(self, base, n_train):
        """A block is the largest multiple of 8 rows, and at least 8, whose
        kernel buffers fit in ``_KS_BLOCK_BYTES`` together."""
        rows = self.block_rows(base, n_train)
        assert rows >= 8 and rows % 8 == 0
        buffers = self.BUFFERS[base.nu if base.is_matern else "rbf"]
        block_bytes = 8 * n_train * rows
        assert buffers * block_bytes <= gpr._KS_BLOCK_BYTES
        assert buffers * (block_bytes + 64 * n_train) > gpr._KS_BLOCK_BYTES
        # The count is the kernel's own: a block's r^2 plus what building the
        # kernel from it allocates.
        sq = np.random.default_rng(39).uniform(0, 4, (n_train, rows))
        tracemalloc.start()
        try:
            gpr._kernel_from_sq(base, sq, base.signal_variance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (buffers - 1) * block_bytes <= peak < (buffers - 1) * block_bytes + 4096

    @pytest.mark.parametrize("n_train", [34, 560])
    def test_matern_five_halves_takes_a_third_of_the_rows(self, n_train):
        rbf = self.block_rows(KernelSpec(kind="constant*rbf"), n_train)
        matern = self.block_rows(KernelSpec(kind="constant*matern", nu=2.5), n_train)
        assert rbf / 3 - 8 <= matern <= rbf / 3


class TestCholesky:
    """``gpr.cholesky`` is scipy's ``cholesky(K, lower=True)`` without its checks."""

    def test_bytes_equal_scipy_cholesky(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, (40, 2))
        K = kernel_eval(KernelSpec(kind="constant*matern", nu=1.5, length_scale=0.3), X, X)
        K = K + 1e-6 * np.eye(40)
        before = K.copy()
        L = gpr.cholesky(K)
        assert L.flags.f_contiguous
        assert L.tobytes() == cholesky(K, lower=True).tobytes()
        assert K.tobytes() == before.tobytes()

    def test_indefinite_matrix_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            gpr.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
        tuned = optimize_hyperparameters(X, Y, start, restarts=3, seed=0).kernel
        assert gpr_fit(X, Y, tuned).lml >= start_lml - 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (15, 2))
        Y = rng.standard_normal((15, 1))
        spec = KernelSpec(kind="constant*matern", nu=1.5, noise=1e-4)
        a = optimize_hyperparameters(X, Y, spec, restarts=3, seed=5).kernel
        b = optimize_hyperparameters(X, Y, spec, restarts=3, seed=5).kernel
        assert np.atleast_1d(a.length_scale)[0] == np.atleast_1d(b.length_scale)[0]
        assert a.noise == b.noise
        assert a.signal_variance == b.signal_variance

    def test_recovers_sine(self):
        rng = np.random.default_rng(10)
        X = np.sort(rng.uniform(0, 6, 15))[:, None]
        Y = np.sin(X)
        tuned = optimize_hyperparameters(
            X, Y, KernelSpec(kind="constant*rbf", noise=1e-6), restarts=3, seed=0
        ).kernel
        model = gpr_fit(X, Y, tuned)
        Xq = np.linspace(0, 6, 120)[:, None]
        pred = gpr_predict(model, Xq)
        assert pooled_r2(np.sin(Xq), pred.mean) > 0.99

    def test_nu_never_modified(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (10, 1))
        Y = rng.standard_normal((10, 1))
        spec = KernelSpec(kind="constant*matern", nu=2.5, noise=1e-4)
        tuned = optimize_hyperparameters(X, Y, spec, restarts=2, seed=1).kernel
        assert tuned.nu == 2.5
        assert tuned.kind == "constant*matern"

    def test_result_within_bounds(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (12, 1))
        Y = rng.standard_normal((12, 1))
        bounds = HyperBounds(length_scale=(0.1, 10.0), noise=(1e-8, 0.5))
        tuned = optimize_hyperparameters(
            X, Y, KernelSpec(kind="rbf", noise=1e-4), restarts=2, bounds=bounds, seed=2
        ).kernel
        ls = float(np.atleast_1d(tuned.length_scale)[0])
        assert 0.1 <= ls <= 10.0
        assert 1e-8 <= tuned.noise <= 0.5

    def test_restarts_validated(self):
        with pytest.raises(InputError, match="restarts"):
            optimize_hyperparameters(
                np.zeros((2, 1)), np.zeros((2, 1)), KernelSpec(), restarts=0
            )

    @pytest.mark.parametrize("case", ["ard", "jittered"])
    def test_returns_the_model_gpr_fit_gives_at_its_kernel(self, case):
        if case == "ard":
            rng = np.random.default_rng(13)
            X = rng.uniform(0, 1, (18, 3))
            Y = np.column_stack([np.sin(4 * X[:, 0]) + X[:, 1], X[:, 2] ** 2])
            spec = KernelSpec(kind="constant*matern", nu=2.5, length_scale=np.full(3, 0.5))
            bounds = HyperBounds()
        else:
            # Duplicate rows and noise held near 1e-20: no fit without jitter.
            X = np.array([[0.1], [0.1], [0.4], [0.7], [0.7], [0.9]])
            Y = np.sin(6.0 * X)
            spec = KernelSpec(kind="rbf", noise=1e-20)
            bounds = HyperBounds(noise=(1e-20, 1e-19))
        model = optimize_hyperparameters(X, Y, spec, restarts=2, bounds=bounds, seed=4)
        assert (model.jitter_used > 0.0) == (case == "jittered")
        refit = gpr_fit(X, Y, model.kernel)
        for name in ("X_train", "L", "alpha"):
            assert getattr(model, name).tobytes() == getattr(refit, name).tobytes()
        assert model.lml == refit.lml
        assert model.jitter_used == refit.jitter_used
        assert model.kernel.describe() == refit.kernel.describe()


class TestOneFit:
    """``_lbfgsb``'s results carry the values of their own end points, and
    ``optimize_hyperparameters`` fits the best of those points alone."""

    LOG_BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    CENTRE = np.array([0.5, -1.0])

    @pytest.mark.parametrize("status", [0, 2])
    def test_an_abnormal_stop_is_evaluated_at_its_end_point(self, status, monkeypatch):
        """scipy ends an abnormal line search at the restored x but with the
        f and g of its last trial point; the result carries x's own, at the
        cost of one evaluation. A normal stop is not evaluated again."""
        calls = []

        def objective(theta):
            calls.append(theta.copy())
            step = theta - self.CENTRE
            return float(step @ step), 2.0 * step

        fun, jac = (3.0, np.array([4.0, -4.0])) if status == 2 else (0.0, np.zeros(2))
        stop = OptimizeResult(x=self.CENTRE.copy(), fun=fun, jac=jac, status=status)
        monkeypatch.setattr(gpr, "minimize", lambda *args, **kwargs: stop)
        result = gpr._lbfgsb(objective, np.zeros(2), self.LOG_BOX)
        assert (result.fun, result.jac.tolist()) == (0.0, [0.0, 0.0])
        assert len(calls) == (status == 2)

    def test_gpr_fit_runs_once_per_call(self, monkeypatch):
        fitted, fit = [], gpr.gpr_fit
        monkeypatch.setattr(gpr, "gpr_fit",
                            lambda X, Y, spec: fitted.append(spec) or fit(X, Y, spec))
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (20, 1))
        model = optimize_hyperparameters(X, np.sin(4 * X), KernelSpec(kind="constant*rbf"),
                                         restarts=3, seed=0)
        assert fitted == [model.kernel]

    def test_fits_the_lowest_end_point_and_the_earliest_on_a_tie(self, monkeypatch):
        ends = iter([(-1.0, [0.1, -2.0]), (-2.0, [0.2, -3.0]), (-2.0, [0.3, -4.0])])

        def run(objective, theta0, log_box):
            fun, x = next(ends)
            return OptimizeResult(fun=fun, x=np.array(x))

        monkeypatch.setattr(gpr, "_lbfgsb", run)
        X = np.linspace(0.0, 1.0, 6)[:, np.newaxis]
        spec = KernelSpec(kind="rbf")
        model = optimize_hyperparameters(X, np.sin(4 * X), spec, restarts=3)
        assert model.kernel.record() == _theta_to_spec(spec, np.array([0.2, -3.0])).record()

    def test_runs_that_end_at_the_failure_value_raise(self, monkeypatch):
        """No run found a finite lml: the starts are not fitted instead."""
        monkeypatch.setattr(gpr, "_lbfgsb", lambda objective, theta0, log_box:
                            OptimizeResult(fun=gpr._NO_LML, x=theta0))
        X = np.linspace(0.0, 1.0, 6)[:, np.newaxis]
        with pytest.raises(NumericError, match="all 3 hyperparameter restarts failed"):
            optimize_hyperparameters(X, np.sin(4 * X), KernelSpec(kind="rbf"), restarts=3)


@pytest.mark.parametrize("train", [
    lambda X, Y: gpr_fit(X, Y, KernelSpec()),
    lambda X, Y: optimize_hyperparameters(X, Y, KernelSpec(), restarts=1),
], ids=["gpr_fit", "optimize_hyperparameters"])
def test_zero_training_rows_rejected(train):
    with pytest.raises(InputError, match="empty"):
        train(np.zeros((0, 2)), np.zeros((0, 1)))


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
            for lo, hi in _search_space(spec, 4, HyperBounds())[1]
        ])
        X, Y = self.X, self.Y[:, :q]
        assert _lml_evaluator(X, Y, spec)(theta)[0] == _fit_lml(X, Y, spec, theta)

    def test_duplicate_rows_give_the_jittered_lml(self):
        X = np.array([[0.1], [0.1], [0.5], [0.9]])
        Y = np.array([[1.0], [1.0], [0.0], [2.0]])
        spec = KernelSpec(kind="rbf")
        # Noise at the lower edge of HyperBounds(noise=(1e-20, 1.0)).
        theta = np.log([0.3, 1e-20])
        assert gpr_fit(X, Y, _theta_to_spec(spec, theta)).jitter_used > 0.0
        assert _lml_evaluator(X, Y, spec)(theta)[0] == _fit_lml(X, Y, spec, theta)

    def test_unfactorable_kernel_gives_minus_inf(self):
        # Far from the origin the expanded distance loses the small gaps, and
        # K is indefinite beyond what the largest jitter repairs.
        X = 1e4 + np.linspace(0.0, 1e-3, 8)[:, np.newaxis]
        Y = np.sin(np.arange(8.0))[:, np.newaxis]
        spec = KernelSpec(kind="rbf")
        theta = np.log([1e-2, 1e-10])
        with pytest.raises(NumericError):
            gpr_fit(X, Y, _theta_to_spec(spec, theta))
        assert _lml_evaluator(X, Y, spec)(theta)[0] == -np.inf


def _theta_within(log_box):
    """Log-hyperparameters inside ``log_box``, their edges drawn often."""
    return st.tuples(*(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
                       for lo, hi in log_box)).map(np.array)


class TestEvaluatorWorkspace:
    """An evaluator overwrites one set of n x n buffers at every evaluation;
    nothing it returns, and nothing a caller keeps, lives in them."""

    X, Y = TestLeanLml.X, TestLeanLml.Y
    # TestLeanLml's 1-D problems whose kernels at ``theta`` need jitter and
    # do not factor at all: (X, Y, theta); the kernel is rbf.
    SPECIAL = {
        "jittered": (np.array([[0.1], [0.1], [0.5], [0.9]]),
                     np.array([[1.0], [1.0], [0.0], [2.0]]), np.log([0.3, 1e-20])),
        "unfactorable": (1e4 + np.linspace(0.0, 1e-3, 8)[:, np.newaxis],
                         np.sin(np.arange(8.0))[:, np.newaxis], np.log([1e-2, 1e-10])),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(ALL_KERNELS),
        per_dim=st.booleans(),
        q=st.sampled_from([1, 3]),
        case=st.sampled_from(["plain", "jittered", "unfactorable"]),
        data=st.data(),
    )
    def test_each_evaluation_has_a_fresh_evaluators_bits(self, base, per_dim, q, case, data):
        """Over a sequence of thetas, one evaluator returns the lml and the
        gradient a new evaluator returns at each, also right after an
        evaluation that took the jitter ladder or did not factor."""
        if case == "plain":
            X, Y, special = self.X, self.Y[:, :q], None
            spec = replace(base, length_scale=np.full(4, 0.5) if per_dim else 0.5)
            bounds = HyperBounds()
        else:
            X, Y, special = self.SPECIAL[case]
            spec = KernelSpec(kind="rbf")
            bounds = HyperBounds(noise=(1e-20, 1.0))
        thetas = data.draw(st.lists(_theta_within(_search_space(spec, X.shape[1], bounds)[1]),
                                    min_size=1, max_size=5))
        if special is not None:
            for at in data.draw(st.lists(st.integers(0, len(thetas)), min_size=1, max_size=2)):
                thetas.insert(at, special)
        lml_at = _lml_evaluator(X, Y, spec)
        for theta in thetas:
            lml, grad = lml_at(theta)
            fresh_lml, fresh_grad = _lml_evaluator(X, Y, spec)(theta)
            assert np.float64(lml).tobytes() == np.float64(fresh_lml).tobytes()
            assert grad.tobytes() == fresh_grad.tobytes()
            if theta is special and case == "unfactorable":
                assert lml == -np.inf

    @pytest.mark.parametrize("base", ALL_KERNELS[1::2], ids=_kernel_id)
    def test_returned_model_does_not_share_the_workspace(self, base, monkeypatch):
        """The model ``optimize_hyperparameters`` returns keeps its ``L`` and
        ``alpha`` while its optimizer's evaluator runs on."""
        evaluators, make = [], gpr._lml_evaluator
        monkeypatch.setattr(gpr, "_lml_evaluator",
                            lambda *args: evaluators.append(make(*args)) or evaluators[-1])
        X, Y = self.X[:20], self.Y[:20, :2]
        spec = replace(base, length_scale=0.5)
        model = optimize_hyperparameters(X, Y, spec, restarts=1, seed=2)
        L, alpha = model.L.tobytes(), model.alpha.tobytes()
        log_box = _search_space(spec, 4, HyperBounds())[1]
        for theta in np.random.default_rng(3).uniform(*log_box.T, (4, len(log_box))):
            evaluators[0](theta)
        assert model.L.tobytes() == L and model.alpha.tobytes() == alpha

    @pytest.mark.parametrize("per_dim", [False, True], ids=["isotropic", "per-dim"])
    @pytest.mark.parametrize("base", ALL_KERNELS[1::2], ids=_kernel_id)
    def test_a_later_evaluation_allocates_less_than_one_n_by_n_array(self, base, per_dim):
        rng = np.random.default_rng(47)
        X = rng.uniform(0, 1, (200, 3))
        Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2]])
        spec = replace(base, length_scale=np.full(3, 0.5) if per_dim else 0.5)
        lml_at = _lml_evaluator(X, Y, spec)
        theta = np.log([*np.atleast_1d(spec.length_scale),
                        *([1.3] if spec.tunes_signal_variance else []), 1e-4])
        lml_at(theta)
        tracemalloc.start()
        try:
            lml, _ = lml_at(theta + 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(lml)
        assert peak < 200 * 200 * 8

    def test_candidate_fits_do_not_hold_the_workspace_too(self):
        """An rbf optimize call holds at most the three n x n arrays of one
        evaluation at once: the workspace is freed before the fit of the
        best run's end point allocates its own."""
        rng = np.random.default_rng(53)
        X = rng.uniform(0, 1, (200, 3))
        tracemalloc.start()
        try:
            optimize_hyperparameters(X, np.sin(4 * X[:, :1]), KernelSpec(kind="constant*rbf"),
                                     restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 200 * 200 * 8


class TestLmlGradient:
    """The evaluator's gradient is the lml's, and the optimizer runs on it."""

    _rng = np.random.default_rng(43)
    X = _rng.uniform(0, 1, (30, 3))
    Y = np.column_stack([np.sin(4 * X[:, 0]), X[:, 1] * X[:, 2]])

    @pytest.mark.parametrize("base", ALL_KERNELS, ids=_kernel_id)
    @SCALES
    def test_matches_central_differences(self, base, length_scale):
        spec = replace(base, length_scale=length_scale)
        lml_at = _lml_evaluator(self.X, self.Y, spec)
        theta = np.log([*np.atleast_1d(length_scale),
                        *([0.7] if spec.tunes_signal_variance else []), 1e-3])
        lml, grad = lml_at(theta)
        assert lml == lml_at(theta)[0]
        eps = 1e-5
        numeric = np.array([
            (lml_at(theta + step)[0] - lml_at(theta - step)[0]) / (2.0 * eps)
            for step in eps * np.eye(len(theta))
        ])
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-6

    def test_jittered_evaluation_has_the_jittered_factors_gradient(self):
        X = np.array([[0.1], [0.1], [0.5], [0.9]])
        Y = np.array([[1.0], [1.0], [0.0], [2.0]])
        spec = KernelSpec(kind="rbf")
        theta = np.log([0.3, 1e-20])
        model = gpr_fit(X, Y, _theta_to_spec(spec, theta))
        assert model.jitter_used > 0.0
        lml, grad = _lml_evaluator(X, Y, spec)(theta)
        assert lml == model.lml
        # 1/2 tr((alpha alpha^T - K^-1) dK/dtheta) with the jittered factor.
        K_inv = cho_solve((model.L, True), np.eye(4))
        W = model.alpha @ model.alpha.T - K_inv
        K_f = kernel_eval(model.kernel, X, X)
        r2 = (X - X.T) ** 2 / 0.3**2
        want = 0.5 * np.array([np.sum(W * K_f * r2), 1e-20 * np.trace(W)])
        np.testing.assert_allclose(grad, want, rtol=1e-9)

    def test_unfactorable_kernel_gives_a_zero_gradient(self):
        X = 1e4 + np.linspace(0.0, 1e-3, 8)[:, np.newaxis]
        Y = np.sin(np.arange(8.0))[:, np.newaxis]
        lml, grad = _lml_evaluator(X, Y, KernelSpec(kind="rbf"))(np.log([1e-2, 1e-10]))
        assert lml == -np.inf
        assert grad.tobytes() == np.zeros(2).tobytes()

    def test_a_stalled_run_is_resumed(self):
        """From the second start, one L-BFGS-B run stalls on a steep slope of
        this 6-row lml (a multi-fidelity stage of a Forrester chain); resumed,
        it reaches the optimum."""
        X = np.array([[1.681607, 1.46385], [0.602682, 0.29277], [-0.719446, -0.87831],
                      [-1.512849, -1.46385], [-0.05153, -0.29277], [-0.000464, 0.87831]])
        Y = np.array([[0.460139], [0.737189], [0.425173], [-0.051384], [0.597773],
                      [-2.168889]])
        spec = KernelSpec(kind="constant*rbf")
        log_box = _search_space(spec, 2, HyperBounds())[1]
        theta0 = np.random.default_rng(500).uniform(*log_box.T)
        lml_at = _lml_evaluator(X, Y, spec)

        def neg_lml(theta):
            lml, grad = lml_at(theta)
            return -lml, -grad

        one_run = minimize(neg_lml, theta0, jac=True, method="L-BFGS-B", bounds=log_box)
        assert -one_run.fun < -4.0 and np.max(np.abs(one_run.jac)) > 1.0
        tuned = optimize_hyperparameters(X, Y, spec, restarts=2, seed=500).kernel
        assert gpr_fit(X, Y, tuned).lml > -0.8

    def test_forrester_lf_tune_evaluates_less_than_half_as_often(self, monkeypatch):
        """626 evaluations with finite-difference gradients; fewer than half now."""
        lf, _ = generate_pair_dataset(forrester_pair(), 50, 8, Sampler("uniform-grid", 1))
        prepared = preprocess_data_pipeline(lf, SplitSpec(seed=1))
        X, Y = prepared.X_train, prepared.Y_train
        assert X.shape == (34, 1)
        calls, inner = [], gpr._lml_evaluator

        def counted(*args):
            lml_at = inner(*args)

            def evaluate(*a, **kw):
                calls.append(1)
                return lml_at(*a, **kw)

            return evaluate

        monkeypatch.setattr(gpr, "_lml_evaluator", counted)
        optimize_hyperparameters(X, Y, KernelSpec(kind="constant*rbf"), restarts=3, seed=1)
        assert 0 < len(calls) < 626 / 2


# optimize_hyperparameters results on one problem, as float.hex of the length
# scales, sf2 and noise. They pin the optimizer's path: an edit to the lml
# evaluation or the search that changes any bit of a trained model shows
# here. The optimizer runs scipy's LAPACK on one thread whatever the caller's
# BLAS runs (``surrkit.blas``), so these are its results on one BLAS thread
# and on two alike; LAPACK's dpotri, behind the gradient's K^-1, rounds
# differently on two threads even at 16 rows.
PINNED_OPTIMA = {
    ("rbf", 1.5, "isotropic"):
        "0x1.ecb581a9a49e2p-2 0x1.0000000000000p+0 0x1.47b589fb6ba9fp-30",
    ("rbf", 1.5, "per-dim"):
        "0x1.b3a2194ce708cp-2 0x1.67652d25fce03p-1 0x1.0000000000000p+0 0x1.6924a1f98c6cfp-18",
    ("constant*rbf", 1.5, "isotropic"):
        "0x1.06569fa2c0bf6p-1 0x1.7132a47e4dd8ap+0 0x1.b7cdfd9d7bdb8p-34",
    ("constant*rbf", 1.5, "per-dim"):
        "0x1.c921f43b7f2b0p-2 0x1.741e2c10fab98p-1 0x1.5afb974a7c23dp+0 0x1.22c3f2a2b06f8p-18",
    ("matern", 0.5, "isotropic"):
        "0x1.eb0afab6aeb9ap+0 0x1.0000000000000p+0 0x1.90faff5913098p-26",
    ("matern", 0.5, "per-dim"):
        "0x1.90f768daf6136p+0 0x1.7d2c69642b4a1p+1 0x1.0000000000000p+0 0x1.3ced50d2ccd38p-31",
    ("matern", 1.5, "isotropic"):
        "0x1.a4e58d83e3708p-1 0x1.0000000000000p+0 0x1.f1f428f0371eap-28",
    ("matern", 1.5, "per-dim"):
        "0x1.6e429576682d8p-1 0x1.3850a4e2e9c2cp+0 0x1.0000000000000p+0 0x1.cfdd302a72f7cp-29",
    ("matern", 2.5, "isotropic"):
        "0x1.58d4495d29753p-1 0x1.0000000000000p+0 0x1.b7cdfd9d7bdb8p-34",
    ("matern", 2.5, "per-dim"):
        "0x1.33ceae24eb5e0p-1 0x1.07412106ca1fdp+0 0x1.0000000000000p+0 0x1.b7cdfd9d7bdb8p-34",
    ("constant*matern", 0.5, "isotropic"):
        "0x1.11e58be7681d6p+0 0x1.229113a12af91p-1 0x1.58422c9abfd18p-32",
    ("constant*matern", 0.5, "per-dim"):
        "0x1.b7cfdb6a19758p-1 0x1.a132589e7c53ep+0 0x1.1ca1223d8216bp-1 0x1.16e88278d7cf9p-31",
    ("constant*matern", 1.5, "isotropic"):
        "0x1.d2a9d2d8d8a4bp-1 0x1.464968a0128d9p+0 0x1.d6ddfadafe5d4p-32",
    ("constant*matern", 1.5, "per-dim"):
        "0x1.e33f500850883p-1 0x1.a2a81efd25b42p+0 0x1.f74dd75f92ae8p+0 0x1.b7cdfd9d7bdb8p-34",
    ("constant*matern", 2.5, "isotropic"):
        "0x1.94e1f9124ff1fp-1 0x1.b000ad39efb49p+0 0x1.b9a499a70a585p-34",
    ("constant*matern", 2.5, "per-dim"):
        "0x1.da42ca5cfc17ep-1 0x1.b1bbfc08a2340p+0 0x1.297d31b8647d8p+2 0x1.b7cdfd9d7bdb8p-34",
}


# The lml each of those problems reached when L-BFGS-B ran on finite-difference
# gradients: the exact gradient must reach it too.
FINITE_DIFFERENCE_LML = {
    ("rbf", 1.5, "isotropic"): 10.147572103739066,
    ("rbf", 1.5, "per-dim"): 18.625410665950383,
    ("constant*rbf", 1.5, "isotropic"): 10.441621040262596,
    ("constant*rbf", 1.5, "per-dim"): 18.915714319811627,
    ("matern", 0.5, "isotropic"): -16.440554189361077,
    ("matern", 0.5, "per-dim"): -14.989205806987176,
    ("matern", 1.5, "isotropic"): -5.351045640225692,
    ("matern", 1.5, "per-dim"): -1.8400735986835315,
    ("matern", 2.5, "isotropic"): -0.0927230945456543,
    ("matern", 2.5, "per-dim"): 5.430033547227225,
    ("constant*matern", 0.5, "isotropic"): -16.15888651354896,
    ("constant*matern", 0.5, "per-dim"): -15.891460142360273,
    ("constant*matern", 1.5, "isotropic"): -5.298693949014453,
    ("constant*matern", 1.5, "per-dim"): -1.5189392804835897,
    ("constant*matern", 2.5, "isotropic"): 0.19051542814834121,
    ("constant*matern", 2.5, "per-dim"): 7.134286936819464,
}


def _pinned_problem(kind, nu, scales):
    rng = np.random.default_rng(31)
    X = rng.uniform(0, 1, (16, 2))
    Y = np.column_stack([np.sin(5 * X[:, 0]) + X[:, 1], np.cos(3 * X.sum(axis=1))])
    length_scale = 0.5 if scales == "isotropic" else np.array([0.5, 0.5])
    spec = KernelSpec(kind=kind, nu=nu, length_scale=length_scale, noise=1e-4)
    return X, Y, optimize_hyperparameters(X, Y, spec, restarts=2, seed=3).kernel


def _pinned_hex(kind, nu, scales):
    _, _, tuned = _pinned_problem(kind, nu, scales)
    values = [*np.atleast_1d(tuned.length_scale), tuned.signal_variance, tuned.noise]
    return " ".join(float(v).hex() for v in values)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def pinned_results():
    """Every pinned problem's optimum, by BLAS thread count (1 and 2), each
    count's computed in one child process whose BLAS pools start with that
    many threads, whatever this process runs."""
    tests = Path(__file__).resolve().parent
    src = Path(gpr.__file__).resolve().parent.parent
    script = ("import json, test_gpr as t; print(json.dumps("
              "[t._pinned_hex(*key) for key in t.PINNED_OPTIMA]))")
    results = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(src)]),
                   **{name: str(threads) for name in BLAS_THREAD_VARIABLES})
        child = subprocess.run([sys.executable, "-c", script], cwd=tests, env=env,
                               capture_output=True, text=True, check=True)
        results[threads] = dict(zip(PINNED_OPTIMA, json.loads(child.stdout)))
    return results


@pytest.mark.parametrize("kind, nu, scales", PINNED_OPTIMA)
def test_optimizer_results_pinned(pinned_results, kind, nu, scales):
    key = kind, nu, scales
    assert pinned_results[1][key] == PINNED_OPTIMA[key]
    assert pinned_results[2][key] == PINNED_OPTIMA[key]


def _unfactored(model):
    """``model`` without its factor, as ``modelstore.load_model`` builds one."""
    return GprModel(kernel=model.kernel, X_train=model.X_train, alpha=model.alpha,
                    y_dim=model.y_dim, lml=model.lml, jitter_used=model.jitter_used)


def test_scipy_blas_runs_one_thread_while_fitting(monkeypatch):
    """Where scipy bundles its own OpenBLAS, the optimizer's lml evaluations,
    ``gpr_fit``'s factorization and a loaded model's rebuild of ``L`` run it
    on one thread (``surrkit.blas``), and the caller's count is back after
    each, also after a ``NumericError``."""
    X = np.linspace(0.0, 1.0, 12)[:, None]
    Y = np.sin(6.0 * X)
    spec = KernelSpec(kind="constant*rbf", noise=1e-6)
    fitted = gpr_fit(X, Y, spec)
    seen, failing = {}, []
    evaluator, factor = gpr._lml_evaluator, gpr.cholesky

    with scipy_blas_threads(2) as get:

        def recorded_evaluator(*args):
            lml_at = evaluator(*args)

            def evaluate(theta):
                seen["lml"].append(get())
                if failing:
                    raise NumericError("injected")
                return lml_at(theta)

            return evaluate

        def recorded_cholesky(*args, **kwargs):
            seen[step].append(get())
            if failing:
                raise np.linalg.LinAlgError("injected")
            return factor(*args, **kwargs)

        monkeypatch.setattr(gpr, "_lml_evaluator", recorded_evaluator)
        monkeypatch.setattr(gpr, "cholesky", recorded_cholesky)
        steps = {
            "lml": lambda: optimize_hyperparameters(X, Y, spec, restarts=2),
            "fit": lambda: gpr_fit(X, Y, spec),
            "rebuild": lambda: _unfactored(fitted).L,
        }
        for step, run in steps.items():
            seen[step] = []
            run()
            assert get() == 2
            failing.append(True)
            with pytest.raises(NumericError):
                run()
            failing.clear()
            assert get() == 2
    assert all(counts and set(counts) == {1} for counts in seen.values()), seen


def test_loaded_model_rebuilds_the_fits_factor_whatever_scipys_thread_count():
    """A model fitted with the caller's scipy pool on one thread and loaded
    with it on two rebuilds the fit's ``L`` bit for bit. 128 rows is the
    smallest count at which OpenBLAS's two-thread dpotrf rounds differently."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, (128, 4))
    Y = np.sin(X.sum(axis=1, keepdims=True))
    with scipy_blas_threads(1):
        fitted = gpr_fit(X, Y, KernelSpec(kind="constant*rbf", length_scale=0.5, noise=1e-6))
    with scipy_blas_threads(2):
        rebuilt = _unfactored(fitted).L
    assert rebuilt.tobytes() == fitted.L.tobytes()


@pytest.mark.parametrize("kind, nu, scales", FINITE_DIFFERENCE_LML)
def test_optimum_reaches_the_finite_difference_lml(kind, nu, scales):
    X, Y, tuned = _pinned_problem(kind, nu, scales)
    assert gpr_fit(X, Y, tuned).lml >= FINITE_DIFFERENCE_LML[kind, nu, scales]


class TestKernelNames:
    def test_tokens_round_trip(self):
        assert kernel_from_name("rbf").kind == "rbf"
        assert kernel_from_name("matern0.5").nu == 0.5
        assert kernel_from_name("constant*matern2.5").kind == "constant*matern"
        with pytest.raises(InputError):
            kernel_from_name("spline")

"""Evaluation metrics, scatter export, and uncertainty reporting."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrkit.data import DataTensor
from surrkit.errors import InputError, UnsupportedModelError
from surrkit.gpr import KernelSpec, gpr_fit
from surrkit.metrics import (
    evaluate,
    one_to_one_export,
    r_squared,
    rmse,
    throughput_benchmark,
    uq_report,
)
from surrkit.mlp import MlpArchitecture, init_model
from surrkit.multifid import FittedSurrogate, MfComposite, TensorLayout, predict_tensor
from surrkit.preprocess import StandardScaler


def identity_surrogate(model, d, q, names=None):
    return FittedSurrogate(
        model=model,
        x_scaler=StandardScaler.identity(d),
        y_scaler=StandardScaler.identity(q),
        y_layout=TensorLayout(
            tuple(names or (f"y{i}" for i in range(q))), ("0",)
        ),
    )


def evaluate_model(surr, X, Y):
    return evaluate(surr.describe(), Y, predict_tensor(surr, X))


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 10.0])
        assert r_squared(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_worked_case(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_constant_truth_undefined(self):
        with pytest.raises(InputError, match="undefined"):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="shape"):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=-1e3, max_value=1e3),
    seed=st.integers(0, 2**31),
)
def test_r_squared_affine_invariance(scale, shift, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(20)
    p = y + 0.3 * rng.standard_normal(20)
    base = r_squared(y, p)
    mapped = r_squared(scale * y + shift, scale * p + shift)
    # tolerance loose enough for cancellation at extreme scale/shift ratios
    assert mapped == pytest.approx(base, rel=1e-7, abs=1e-7)


class TestEvaluate:
    def test_interpolating_gpr_on_training_set(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (20, 2))
        Y = rng.standard_normal((20, 2))
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.5))
        surr = identity_surrogate(model, 2, 2)
        report = evaluate_model(
            surr,
            DataTensor.from_values(X[:, :, None]),
            DataTensor.from_values(Y[:, :, None]),
        )
        assert report.global_r2 > 0.999999

    def test_one_entry_per_scalar_block(self):
        rng = np.random.default_rng(1)
        n, m, l = 25, 7, 12
        X = rng.uniform(0, 1, (n, 3))
        Y = rng.standard_normal((n, m * l))
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.8, noise=1e-6))
        surr = FittedSurrogate(
            model,
            StandardScaler.identity(3),
            StandardScaler.identity(m * l),
            TensorLayout(tuple(f"q{i}" for i in range(m)), tuple(map(str, range(l)))),
        )
        report = evaluate_model(
            surr,
            DataTensor.from_values(X[:, :, None]),
            DataTensor.from_values(
                Y.reshape(n, m, l), [f"q{i}" for i in range(m)]
            ),
        )
        assert len(report.per_scalar) == 7
        assert [s.name for s in report.per_scalar] == [f"q{i}" for i in range(7)]

    def test_report_serializes(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (10, 1))
        Y = rng.standard_normal((10, 1))
        model = gpr_fit(X, Y, KernelSpec(kind="rbf"))
        report = evaluate_model(
            identity_surrogate(model, 1, 1),
            DataTensor.from_values(X[:, :, None]),
            DataTensor.from_values(Y[:, :, None]),
        )
        report.write(tmp_path)
        assert (tmp_path / "eval_report.txt").exists()
        assert (tmp_path / "eval_report.json").exists()


class TestOneToOneExport:
    def test_row_count(self, tmp_path):
        y_true = DataTensor.from_values(np.arange(6, dtype=float).reshape(2, 1, 3), ["q"])
        y_pred = DataTensor.from_values(np.arange(6, dtype=float).reshape(2, 1, 3) + 0.5, ["q"])
        path = one_to_one_export(y_true, y_pred, tmp_path / "scatter.csv")
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["qoi_name", "true", "pred", "normalized_true", "normalized_pred"]
        assert len(rows) == 1 + 6

    def test_perfect_model_rows_match(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((4, 2, 2))
        tensor = DataTensor.from_values(values, ["a", "b"])
        path = one_to_one_export(tensor, tensor, tmp_path / "scatter.csv")
        for row in list(csv.reader(open(path)))[1:]:
            assert row[1] == row[2]
            assert row[3] == row[4]

    def test_reparse_reproduces_r_squared_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        y_true = DataTensor.from_values(rng.standard_normal((8, 3, 2)))
        y_pred = DataTensor.from_values(
            y_true.values + 0.1 * rng.standard_normal((8, 3, 2))
        )
        path = one_to_one_export(y_true, y_pred, tmp_path / "scatter.csv")
        rows = list(csv.reader(open(path)))[1:]
        t = np.array([float(r[1]) for r in rows])
        p = np.array([float(r[2]) for r in rows])
        assert r_squared(t, p) == r_squared(y_true.values.ravel(), y_pred.values.ravel())

    def test_global_r2_recomputable_from_export(self, tmp_path):
        """The report's global R^2 equals R^2 of the exported normalized columns."""
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (20, 2))
        Y = rng.standard_normal((20, 4)) * np.array([1.0, 10.0, 100.0, 0.1])
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.6, noise=1e-4))
        surr = FittedSurrogate(
            model,
            StandardScaler.identity(2),
            StandardScaler.identity(4),
            TensorLayout(("a", "b", "c", "d"), ("0",)),
        )
        X_t = DataTensor.from_values(X[:, :, None])
        Y_t = DataTensor.from_values(Y.reshape(20, 4, 1), ["a", "b", "c", "d"])
        pred = predict_tensor(surr, X_t)
        report = evaluate(surr.describe(), Y_t, pred)
        path = one_to_one_export(Y_t, pred, tmp_path / "scatter.csv")
        rows = list(csv.reader(open(path)))[1:]
        nt = np.array([float(r[3]) for r in rows])
        npred = np.array([float(r[4]) for r in rows])
        assert abs(report.global_r2 - r_squared(nt, npred)) < 1e-12


class TestUqReport:
    def test_training_site_std_near_zero(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (12, 1))
        Y = np.sin(4 * X)
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", length_scale=0.5))
        surr = identity_surrogate(model, 1, 1)
        report = uq_report(surr, X)
        assert report.std.max() <= 1e-4

    def test_prior_reversion_far_from_data(self):
        model = gpr_fit(np.array([[0.0]]), np.array([[1.0]]), KernelSpec(kind="rbf"))
        surr = identity_surrogate(model, 1, 1)
        report = uq_report(surr, np.array([[40.0]]))
        assert report.std[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_std_monotone_along_line_from_isolated_point(self):
        sf2 = 2.5
        spec = KernelSpec(kind="constant*rbf", signal_variance=sf2)
        model = gpr_fit(np.array([[0.0]]), np.array([[1.0]]), spec)
        surr = identity_surrogate(model, 1, 1)
        line = np.linspace(0, 3, 40)[:, None]
        report = uq_report(surr, line)
        stds = report.std[:, 0]
        assert (np.diff(stds) >= -1e-12).all()
        # closed form for one training point: var = sf2 - k^2 / sf2
        k = sf2 * np.exp(-0.5 * line.ravel() ** 2)
        expected = np.sqrt(np.maximum(sf2 - k * k / sf2, 0.0))
        np.testing.assert_allclose(stds, expected, atol=1e-10)

    def test_output_scaling_by_y_std(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (10, 1))
        Y = rng.standard_normal((10, 2))
        model = gpr_fit(X, Y, KernelSpec(kind="rbf", noise=1e-4))
        y_scaler = StandardScaler(np.array([0.0, 0.0]), np.array([2.0, 8.0]), 2)
        surr = FittedSurrogate(
            model, StandardScaler.identity(1), y_scaler,
            TensorLayout(("a", "b"), ("0",)),
        )
        report = uq_report(surr, np.array([[0.5]]))
        assert report.std[0, 1] == pytest.approx(4.0 * report.std[0, 0], rel=1e-12)

    def test_std_on_fixed_model_unchanged(self):
        """Values recorded before the variance solve dropped ``check_finite``."""
        X = np.linspace(0.0, 1.0, 9)[:, None] ** 1.5
        Y = np.hstack([np.sin(6 * X), np.cos(3 * X)])
        spec = KernelSpec(kind="constant*matern", nu=2.5, length_scale=0.3,
                          signal_variance=1.7, noise=1e-4)
        surr = FittedSurrogate(
            gpr_fit(X, Y, spec),
            StandardScaler(np.array([0.2]), np.array([0.5]), 1),
            StandardScaler(np.array([0.0, 1.0]), np.array([2.0, 0.5]), 2),
            TensorLayout(("a", "b"), ("0",)),
        )
        report = uq_report(surr, np.array([[-0.2], [0.3], [0.55], [1.4]]))
        expected = [2.6001823839711418, 0.06517943836429166, 0.1908605764078444,
                    2.6076768580287384]
        np.testing.assert_allclose(report.std[:, 0], expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.std[:, 1], 0.25 * report.std[:, 0], rtol=1e-15)

    def test_mlp_unsupported(self):
        surr = identity_surrogate(init_model(MlpArchitecture(1, (4,), 1), 0), 1, 1)
        with pytest.raises(UnsupportedModelError, match="GPR"):
            uq_report(surr, np.zeros((1, 1)))

    def test_bare_gpr_model_unsupported(self):
        """A model without its scalers has no raw units to report in."""
        X = np.array([[0.0], [1.0]])
        with pytest.raises(
            UnsupportedModelError,
            match="^uncertainty reporting takes a single-stage surrogate with a GPR model, "
                  "got GprModel$",
        ):
            uq_report(gpr_fit(X, X, KernelSpec()), X)

    def test_composite_unsupported(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        stage = identity_surrogate(gpr_fit(X[:, :1], X[:, :1], KernelSpec()), 1, 1)
        composite = MfComposite(
            lf=stage,
            mf=identity_surrogate(gpr_fit(X, X[:, :1], KernelSpec()), 2, 1),
        )
        with pytest.raises(UnsupportedModelError, match="GPR model, got MfComposite"):
            uq_report(composite, np.zeros((1, 1)))


class TestThroughput:
    def test_positive_rate(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (10, 2))
        Y = rng.standard_normal((10, 1))
        surr = identity_surrogate(gpr_fit(X, Y, KernelSpec(noise=1e-6)), 2, 1)
        rate = throughput_benchmark(surr, X, repeats=1)
        assert rate > 0

    def test_zero_sites_rejected(self):
        X = np.array([[0.0], [1.0]])
        surr = identity_surrogate(gpr_fit(X, X, KernelSpec(noise=1e-6)), 1, 1)
        with pytest.raises(InputError, match="no sites to time"):
            throughput_benchmark(surr, np.zeros((0, 1)))

    def test_rmse_helper(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

"""Splitting and standardization contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surrkit.data import DataTensor, FidelityDataset
from surrkit import preprocess
from surrkit.errors import InputError, NumericError
from surrkit.preprocess import (
    SplitSpec,
    StandardScaler,
    fit_scaler,
    inverse_transform,
    preprocess_data_pipeline,
    split_data_cv,
    transform,
)


def make_dataset(n, mx=4, lx=1, my=2, ly=3, seed=0):
    rng = np.random.default_rng(seed)
    return FidelityDataset(
        "HF",
        DataTensor.from_values(rng.standard_normal((n, mx, lx))),
        DataTensor.from_values(rng.standard_normal((n, my, ly))),
    )


class TestSplit:
    def test_exact_division(self):
        train, test, val = split_data_cv(100, SplitSpec(seed=1))
        assert (len(train), len(test), len(val)) == (70, 15, 15)

    def test_dataset_sized_split(self):
        train, test, val = split_data_cv(400, SplitSpec(seed=1))
        assert (len(train), len(test), len(val)) == (280, 60, 60)

    def test_deterministic(self):
        a = split_data_cv(57, SplitSpec(seed=9))
        b = split_data_cv(57, SplitSpec(seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_disjoint_exhaustive(self):
        train, test, val = split_data_cv(101, SplitSpec(seed=3))
        combined = np.concatenate([train, test, val])
        assert len(combined) == 101
        np.testing.assert_array_equal(np.sort(combined), np.arange(101))

    def test_small_n_bins_nonempty(self):
        for n in (3, 4, 8):
            train, test, val = split_data_cv(n, SplitSpec(seed=0))
            assert min(len(train), len(test), len(val)) >= 1
            assert len(train) + len(test) + len(val) == n

    def test_too_small(self):
        with pytest.raises(InputError, match="at least 3"):
            split_data_cv(2, SplitSpec())

    def test_invalid_fractions(self):
        with pytest.raises(InputError, match="sum to 1"):
            SplitSpec(train_frac=0.5, test_frac=0.1, val_frac=0.1)
        with pytest.raises(InputError, match="train_frac"):
            SplitSpec(train_frac=1.5, test_frac=-0.25, val_frac=-0.25)


class TestScaler:
    def test_mean_and_population_std(self):
        scaler = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
        assert scaler.means[0] == pytest.approx(2.0, abs=1e-15)
        assert scaler.stds[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_constant_column_std_zero(self):
        scaler = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
        assert scaler.means[0] == 5.0
        assert scaler.stds[0] == 0.0

    def test_columns_scale_independently(self):
        M = np.array([[1.0, 100.0], [2.0, 200.0], [3.0, 300.0]])
        scaler = fit_scaler(M)
        out = transform(scaler, M)
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)

    def test_transform_worked_example(self):
        M = np.array([[1.0], [2.0], [3.0]])
        out = transform(fit_scaler(M), M)
        expected = (M - 2.0) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert out[0, 0] == pytest.approx(-1.224744871391589, abs=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((40, 6)) * 100 + 17
        scaler = fit_scaler(M)
        back = inverse_transform(scaler, transform(scaler, M))
        assert np.max(np.abs(back - M) / np.maximum(1.0, np.abs(M))) < 1e-12

    def test_constant_column_round_trip(self):
        M = np.array([[5.0], [5.0], [5.0]])
        scaler = fit_scaler(M)
        out = transform(scaler, M)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        np.testing.assert_array_equal(inverse_transform(scaler, out), M)

    def test_column_count_checked(self):
        scaler = fit_scaler(np.zeros((3, 2)))
        with pytest.raises(InputError, match="columns"):
            transform(scaler, np.zeros((3, 5)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError, match="empty"):
            fit_scaler(np.zeros((0, 3)))

    def test_identity_scaler(self):
        scaler = StandardScaler.identity(3)
        M = np.arange(6, dtype=float).reshape(2, 3)
        np.testing.assert_array_equal(transform(scaler, M), M)


class TestPipeline:
    def test_field_sized_shapes(self):
        data = make_dataset(400, mx=4, lx=1, my=7, ly=1828, seed=1)
        prepared = preprocess_data_pipeline(data, SplitSpec(seed=0))
        assert prepared.X_train.shape == (280, 4)
        assert prepared.Y_train.shape == (280, 12796)
        assert prepared.X_test.shape == (60, 4)
        assert prepared.X_val.shape == (60, 4)

    def test_bins_are_read_only_float64_arrays(self):
        prepared = preprocess_data_pipeline(make_dataset(50, seed=3), SplitSpec(seed=3))
        for bin_ in (prepared.X_train, prepared.X_test, prepared.X_val,
                     prepared.Y_train, prepared.Y_test, prepared.Y_val):
            assert bin_.dtype == np.float64 and not bin_.flags.writeable

    def test_train_bin_standardized(self):
        prepared = preprocess_data_pipeline(make_dataset(200), SplitSpec(seed=2))
        for bin_ in (prepared.X_train, prepared.Y_train):
            assert np.abs(bin_.mean(axis=0)).max() < 1e-10
            assert np.abs(bin_.std(axis=0) - 1.0).max() < 1e-10

    def test_test_bin_mean_generally_nonzero(self):
        prepared = preprocess_data_pipeline(make_dataset(60, seed=5), SplitSpec(seed=5))
        assert np.abs(prepared.X_test.mean(axis=0)).max() > 1e-6

    def test_rerun_identical(self):
        a = preprocess_data_pipeline(make_dataset(50, seed=3), SplitSpec(seed=4))
        b = preprocess_data_pipeline(make_dataset(50, seed=3), SplitSpec(seed=4))
        np.testing.assert_array_equal(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.split_indices[0], b.split_indices[0])

    def test_split_indices_partition(self):
        prepared = preprocess_data_pipeline(make_dataset(83, seed=6), SplitSpec(seed=6))
        combined = np.sort(np.concatenate(prepared.split_indices))
        np.testing.assert_array_equal(combined, np.arange(83))

    def test_inverse_that_misses_by_a_std_perturbation_raises(self, monkeypatch):
        """The round-trip check still catches an inverse whose std is off by 1e-9."""
        exact = preprocess.inverse_transform

        def perturbed(scaler, matrix):
            off = StandardScaler(scaler.means, scaler.stds * (1.0 + 1e-9), scaler.fitted_on)
            return exact(off, matrix)

        monkeypatch.setattr(preprocess, "inverse_transform", perturbed)
        with pytest.raises(NumericError, match="inverse transform failed to restore X train"):
            preprocess_data_pipeline(make_dataset(50, seed=8), SplitSpec(seed=8))

    def test_inverse_identity_on_every_bin(self):
        data = make_dataset(50, seed=8)
        prepared = preprocess_data_pipeline(data, SplitSpec(seed=8))
        from surrkit.data import flatten

        raw_x = flatten(data.X)
        for bin_idx, scaled in zip(
            prepared.split_indices,
            (prepared.X_train, prepared.X_test, prepared.X_val),
        ):
            restored = inverse_transform(prepared.x_scaler, scaled)
            raw = raw_x[bin_idx]
            assert np.max(np.abs(restored - raw) / np.maximum(1.0, np.abs(raw))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**31))
# A round-trip error of 1.26e-12 |raw|, within 4e-16 (|raw| + |mean|).
@example(scale=68102.0, seed=1056)
def test_standardization_invariance(scale, seed):
    """Pre-scaling the raw data by any positive constant leaves the
    transformed training bin unchanged."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((30, 3, 2))
    base = FidelityDataset(
        "LF",
        DataTensor.from_values(values),
        DataTensor.from_values(values[:, :2, :]),
    )
    scaled = FidelityDataset(
        "LF",
        DataTensor.from_values(values * scale),
        DataTensor.from_values(values[:, :2, :] * scale),
    )
    spec = SplitSpec(seed=seed % 1000)
    a = preprocess_data_pipeline(base, spec)
    b = preprocess_data_pipeline(scaled, spec)
    np.testing.assert_allclose(a.X_train, b.X_train, atol=1e-10)
    np.testing.assert_allclose(a.Y_train, b.Y_train, atol=1e-10)

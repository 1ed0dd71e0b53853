"""Deterministic three-way splits and invertible per-column standardization.

Splitting shuffles ``0..n-1`` with numpy's ``default_rng`` (PCG64) and
partitions the permutation into train/test/validation bins, so the same seed
reproduces the same bins on any machine. Scalers are fit on the training bin
only and applied to every bin; standardization uses the population standard
deviation (divide by n). A scaler builds its divisor (the stds, with 1 for a
constant column) once, when it is made, so applying it costs its arithmetic.
``transform`` scales the bins training reads, and ``inverse_transform``
serves ``_verify_inverse`` and callers: a model's serving plan folds the
scalers into its constants (``multifid.FittedSurrogate._plan``), and sweeps
score with it on the raw validation rows that ``PreparedData`` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from surrkit.data import FidelityDataset, as_matrix, flatten
from surrkit.errors import InputError, NumericError


@dataclass(frozen=True)
class SplitSpec:
    """Fractions and seed for the train/test/validation partition."""

    train_frac: float = 0.70
    test_frac: float = 0.15
    val_frac: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        for name, frac in (
            ("train_frac", self.train_frac),
            ("test_frac", self.test_frac),
            ("val_frac", self.val_frac),
        ):
            if not 0.0 < frac < 1.0:
                raise InputError(f"{name} must lie in (0, 1), got {frac}")
        total = self.train_frac + self.test_frac + self.val_frac
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"split fractions must sum to 1, got {total!r}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _round_half_up(x: float) -> int:
    # Documented rounding rule so splits reproduce across implementations.
    return int(math.floor(x + 0.5))


def split_data_cv(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition the sample indices ``0..n-1`` into disjoint
    train/test/validation bins.

    Bin sizes are round(frac * n) with the remainder assigned to train; a bin
    that rounds to zero is bumped to one sample (taken from train) so all
    three bins are nonempty whenever n >= 3.
    """
    if n < 3:
        raise InputError(f"need at least 3 samples to form three bins, got {n}")
    n_test = _round_half_up(spec.test_frac * n)
    n_val = _round_half_up(spec.val_frac * n)
    n_test = max(n_test, 1)
    n_val = max(n_val, 1)
    n_train = n - n_test - n_val
    if n_train < 1:
        raise InputError(
            f"split of {n} samples leaves no training rows "
            f"(test={n_test}, val={n_val})"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    train = perm[:n_train]
    test = perm[n_train : n_train + n_test]
    val = perm[n_train + n_test :]
    return train, test, val


@dataclass(frozen=True, eq=False)
class StandardScaler:
    """Per-column mean/std map fitted once and frozen.

    Constant columns are recorded with std 0; they transform to 0 and
    inverse-transform back to the stored mean. ``divisor`` is ``stds`` with
    1 in place of 0, built once here, read-only like the parameters.
    """

    means: np.ndarray
    stds: np.ndarray
    fitted_on: int
    divisor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != (self.fitted_on,) or stds.shape != (self.fitted_on,):
            raise InputError("scaler parameter lengths must match fitted_on")
        if (stds < 0).any():
            raise InputError("scaler stds must be nonnegative")
        divisor = np.where(stds == 0.0, 1.0, stds)
        for name, value in (("means", means), ("stds", stds), ("divisor", divisor)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, n_cols: int) -> "StandardScaler":
        return cls(np.zeros(n_cols), np.ones(n_cols), n_cols)


def fit_scaler(matrix: np.ndarray) -> StandardScaler:
    """Fit per-column means and population stds of a finite 2-D array."""
    values = as_matrix(matrix, "scaler input")
    if values.shape[0] < 1:
        raise InputError("cannot fit a scaler on an empty matrix")
    means = values.mean(axis=0)
    stds = values.std(axis=0)  # population (ddof=0)
    return StandardScaler(means, stds, values.shape[1])


def transform(scaler: StandardScaler, matrix: np.ndarray) -> np.ndarray:
    """Standardize the columns of a 2-D array into a new array:
    (v - mean) / std, constant columns to 0."""
    values = as_matrix(matrix, "scaler input", scaler.fitted_on, finite=False)
    # A finite value too large to scale becomes inf without a warning; the
    # model's check of its query reports it as an InputError.
    with np.errstate(over="ignore"):
        return (values - scaler.means) / scaler.divisor


def inverse_transform(scaler: StandardScaler, matrix: np.ndarray) -> np.ndarray:
    """Undo :func:`transform`; constant columns return to the stored mean."""
    values = as_matrix(matrix, "scaler input", scaler.fitted_on, finite=False)
    return values * scaler.divisor + scaler.means


@dataclass(frozen=True, eq=False)
class PreparedData:
    """Scaled train/test/validation bins and the raw validation bin, each a
    read-only ``(rows, m*l)`` float64 array, plus the scalers that made them."""

    X_train: np.ndarray
    X_test: np.ndarray
    X_val: np.ndarray
    Y_train: np.ndarray
    Y_test: np.ndarray
    Y_val: np.ndarray
    X_val_raw: np.ndarray
    Y_val_raw: np.ndarray
    x_scaler: StandardScaler
    y_scaler: StandardScaler
    split_indices: tuple[np.ndarray, np.ndarray, np.ndarray]


def _verify_inverse(
    scaler: StandardScaler, raw: np.ndarray, scaled: np.ndarray, label: str
) -> None:
    """``NumericError`` unless ``scaler`` maps ``scaled`` back to ``raw``."""
    # The round trip subtracts and adds the column mean, so its rounding error
    # scales with |raw| + |mean|, not with |raw| alone.
    restored = inverse_transform(scaler, scaled)
    scale = np.maximum(1.0, np.abs(raw) + np.abs(scaler.means))
    if not (np.abs(restored - raw) <= 1e-12 * scale).all():
        worst = float(np.max(np.abs(restored - raw) / scale))
        raise NumericError(
            f"inverse transform failed to restore {label} bin "
            f"(worst relative error {worst:.3e})"
        )


def preprocess_data_pipeline(data: FidelityDataset, spec: SplitSpec) -> PreparedData:
    """Flatten, split, fit scalers on the training bin, and scale every bin.

    After scaling, each bin is checked to restore its raw values through the
    inverse transform to within 1e-12 of max(1, |raw| + |column mean|).
    """
    return _prepare(data, split_data_cv(data.n, spec))


def _prepare(
    data: FidelityDataset, bins: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> PreparedData:
    """:func:`preprocess_data_pipeline` on the given ``(train, test, val)``
    row indices instead of a seeded split."""
    X = flatten(data.X)
    Y = flatten(data.Y)
    x_scaler = fit_scaler(X[bins[0]])
    y_scaler = fit_scaler(Y[bins[0]])
    arrays = {}
    for label, idx in zip(("train", "test", "val"), bins):
        for name, raw, scaler in (("X", X[idx], x_scaler), ("Y", Y[idx], y_scaler)):
            values = transform(scaler, raw)
            _verify_inverse(scaler, raw, values, f"{name} {label}")
            values.setflags(write=False)
            arrays[f"{name}_{label}"] = values
            if label == "val":
                raw.setflags(write=False)
                arrays[f"{name}_val_raw"] = raw
    return PreparedData(
        **arrays, x_scaler=x_scaler, y_scaler=y_scaler, split_indices=tuple(bins)
    )

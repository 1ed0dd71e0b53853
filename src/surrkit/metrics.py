"""Model evaluation: R^2/RMSE, scatter exports, and GPR uncertainty reports.

Per-scalar metrics are computed in original units. The global figures pool
every entry after normalizing each scalar block by the mean/std of its true
values, so quantities with different units share one scale. R^2 is invariant
under a shared affine map, which makes the per-block numbers agree between
raw and normalized views.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from surrkit.data import DataTensor, as_matrix, write_csv
from surrkit.errors import InputError, UnsupportedModelError
from surrkit.gpr import GprModel


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot over all entries."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise InputError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size < 2:
        raise InputError("r_squared needs at least 2 values")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        raise InputError("r_squared is undefined for constant true values (SS_tot = 0)")
    return 1.0 - ss_res / ss_tot


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise InputError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def _block_norms(y_true_blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One (mean, std) pair per scalar block, from the true values; a constant
    # block keeps scale 1 so normalization stays defined.
    mu = y_true_blocks.mean(axis=(0, 2))
    sd = y_true_blocks.std(axis=(0, 2))
    sd = np.where(sd == 0.0, 1.0, sd)
    return mu, sd


@dataclass(frozen=True)
class ScalarMetrics:
    name: str
    r2: float
    rmse: float


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary for one model on one evaluation set."""

    model_id: str
    n_points: int
    global_r2: float
    global_rmse: float
    per_scalar: tuple[ScalarMetrics, ...]

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "n_points": self.n_points,
            "global_r2": self.global_r2,
            "global_rmse": self.global_rmse,
            "per_scalar": [
                {"name": s.name, "r2": s.r2, "rmse": s.rmse} for s in self.per_scalar
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"model:            {self.model_id}",
            f"evaluation rows:  {self.n_points}",
            f"global R^2:       {self.global_r2:.6f}   (pooled, per-scalar normalized)",
            f"global RMSE:      {self.global_rmse:.6e} (pooled, per-scalar normalized)",
            "",
            f"{'scalar':<20} {'R^2':>12} {'RMSE':>14}",
        ]
        for s in self.per_scalar:
            lines.append(f"{s.name:<20} {s.r2:>12.6f} {s.rmse:>14.6e}")
        return "\n".join(lines) + "\n"

    def write(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "eval_report.txt").write_text(self.to_text(), encoding="utf-8")
        (directory / "eval_report.json").write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )


def evaluate(model_id: str, Y: DataTensor, y_pred: DataTensor) -> EvalReport:
    """Score a prediction in original units, globally and per scalar block.

    ``y_pred`` is the model's prediction at the sites behind ``Y`` (see
    ``multifid.predict_tensor``); ``model_id`` names the model in the report.
    """
    if (y_pred.n, y_pred.m * y_pred.l) != (Y.n, Y.m * Y.l):
        raise InputError(f"prediction has shape {y_pred.shape}, expected {Y.shape}")
    y_true = Y.values
    y_hat = y_pred.values.reshape(Y.shape)
    per_scalar = tuple(
        ScalarMetrics(
            name=Y.scalar_names[j],
            r2=r_squared(y_true[:, j, :], y_hat[:, j, :]),
            rmse=rmse(y_true[:, j, :], y_hat[:, j, :]),
        )
        for j in range(Y.m)
    )
    mu, sd = _block_norms(y_true)
    norm_true = (y_true - mu[:, np.newaxis]) / sd[:, np.newaxis]
    norm_pred = (y_hat - mu[:, np.newaxis]) / sd[:, np.newaxis]
    return EvalReport(
        model_id=model_id,
        n_points=Y.n,
        global_r2=r_squared(norm_true, norm_pred),
        global_rmse=rmse(norm_true, norm_pred),
        per_scalar=per_scalar,
    )


def one_to_one_export(y_true: DataTensor, y_pred: DataTensor, path: str | Path) -> Path:
    """Write scatter data: one row per (sample, scalar, coordinate).

    Columns: qoi_name, true, pred, normalized_true, normalized_pred. Values
    use shortest round-trip formatting so metrics recomputed from the file
    match exactly.
    """
    if y_true.shape != y_pred.shape:
        raise InputError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    mu, sd = _block_norms(y_true.values)

    def row(i: int, j: int, k: int) -> list[str]:
        t = float(y_true.values[i, j, k])
        p = float(y_pred.values[i, j, k])
        return [
            y_true.scalar_names[j],
            repr(t),
            repr(p),
            repr(float((t - mu[j]) / sd[j])),
            repr(float((p - mu[j]) / sd[j])),
        ]

    return write_csv(
        path,
        ["qoi_name", "true", "pred", "normalized_true", "normalized_pred"],
        (row(i, j, k) for i, j, k in np.ndindex(y_true.shape)),
    )


@dataclass(frozen=True, eq=False)
class UqReport:
    """Predictive mean and standard deviation per site, in original units."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if (self.std < 0).any():
            raise InputError("predictive std must be nonnegative")


def uq_report(surrogate, X_raw: np.ndarray) -> UqReport:
    """GPR-only uncertainty: latent std scaled per output by the y-scaler.

    The shared latent standard deviation is multiplied by each output's
    scaler std, the back-map consistent with one kernel serving all outputs.
    The sites are checked as ``predict_raw`` checks them, and take the
    stage's serving plan with the variance added: the mean is
    ``predict_raw``'s, bit for bit, and the variance comes from the kernel
    core ``gpr_predict`` runs.
    Anything but a single-stage surrogate with a GPR model, such as a
    composite or a bare ``GprModel`` with no scalers, is unsupported.
    """
    model = getattr(surrogate, "model", None)
    if not isinstance(model, GprModel):
        got = type(surrogate if model is None else model).__name__
        raise UnsupportedModelError(
            "uncertainty reporting takes a single-stage surrogate with a GPR model, "
            f"got {got}"
        )
    X_raw = as_matrix(X_raw, "design sites", surrogate.input_dim, finite=False)
    variance = np.empty(X_raw.shape[0])
    mean = surrogate._plan(X_raw, variance=variance)
    std = np.sqrt(variance)[:, np.newaxis] * surrogate.y_scaler.stds
    return UqReport(mean=mean, std=std)


def throughput_benchmark(surrogate, X_raw: np.ndarray, repeats: int = 1) -> float:
    """Single-site predictions per second over ``repeats`` sweeps of X."""
    if repeats < 1:
        raise InputError(f"repeats must be >= 1, got {repeats}")
    X_raw = as_matrix(X_raw, "design sites", surrogate.input_dim)
    if X_raw.shape[0] == 0:
        raise InputError("no sites to time")
    rows = [X_raw[i : i + 1] for i in range(X_raw.shape[0])]
    # Warm-up outside the timed window.
    surrogate.predict_raw(rows[0])
    count = 0
    start = time.perf_counter()
    for _ in range(repeats):
        for row in rows:
            surrogate.predict_raw(row)
            count += 1
    elapsed = time.perf_counter() - start
    return count / max(elapsed, 1e-12)

"""Hyperparameter sweeps and training-set-size convergence studies.

Sweeps are plain grids: every candidate is fitted with a shared seed and
scored by validation RMSE in original units. The winner is the argmin, with
ties (within 1e-12 absolute RMSE) broken by smaller parameter count and then
by earlier grid position, so a larger model never wins over an equally
accurate smaller one. A sweep returns the winner's fitted model; nothing is
trained twice. Convergence studies fit on nested prefixes of a seeded
permutation of the training bin and score against a fixed test bin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from surrkit.data import FidelityDataset, flatten, write_csv
from surrkit.errors import InputError, NumericError
from surrkit.gpr import (
    GprModel,
    HyperBounds,
    KernelSpec,
    default_kernel_grid,
    gpr_fit,
    optimize_hyperparameters,
)
from surrkit.metrics import r_squared, rmse
from surrkit.mlp import MlpArchitecture, MlpModel, TrainConfig, mlp_train
from surrkit.preprocess import (
    PreparedData,
    SplitSpec,
    fit_scaler,
    inverse_transform,
    split_data_cv,
    transform,
)

MODEL_KINDS = ("gpr", "mlp")
RMSE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class GprGrid:
    kernels: tuple[KernelSpec, ...] = field(default_factory=default_kernel_grid)
    restarts: int = 3
    bounds: HyperBounds = field(default_factory=HyperBounds)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.kernels) == 0:
            raise InputError("GPR grid must contain at least one kernel")


@dataclass(frozen=True)
class MlpGrid:
    layer_counts: tuple[int, ...] = (1, 2, 3)
    widths: tuple[int, ...] = (16, 32, 64, 128)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if len(self.layer_counts) == 0 or len(self.widths) == 0:
            raise InputError("MLP grid must contain at least one candidate")
        if any(c < 1 for c in self.layer_counts) or any(w < 1 for w in self.widths):
            raise InputError("layer counts and widths must be >= 1")

    def hidden_candidates(self) -> list[tuple[int, ...]]:
        return [(w,) * c for c in self.layer_counts for w in self.widths]


@dataclass(frozen=True)
class SweepEntry:
    index: int
    label: str
    params: dict
    val_rmse: float
    param_count: int
    fit_seconds: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Every candidate's score, the selected index, and the winner's fitted model."""

    entries: tuple[SweepEntry, ...]
    selected: int
    model: GprModel | MlpModel

    @property
    def winner(self) -> SweepEntry:
        return self.entries[self.selected]


def select_winner(entries: tuple[SweepEntry, ...], tol: float = RMSE_TIE_TOL) -> int:
    """Argmin validation RMSE with parsimony tie-breaking.

    Pure function of recorded scores: re-running it on a stored result
    reproduces the selection.
    """
    finite = [e for e in entries if np.isfinite(e.val_rmse)]
    if not finite:
        raise NumericError("every sweep candidate failed to fit")
    best_rmse = min(e.val_rmse for e in finite)
    contenders = [e for e in finite if e.val_rmse <= best_rmse + tol]
    winner = min(contenders, key=lambda e: (e.param_count, e.index))
    return winner.index


def _val_rmse_original_units(prepared: PreparedData, pred_scaled: np.ndarray) -> float:
    y_true = inverse_transform(prepared.y_scaler, prepared.Y_val.values)
    y_pred = inverse_transform(prepared.y_scaler, pred_scaled)
    return rmse(y_true, y_pred)


def _sweep_result(entries: list[SweepEntry], models: list) -> SweepResult:
    entries = tuple(entries)
    selected = select_winner(entries)
    return SweepResult(entries=entries, selected=selected, model=models[selected])


def tune_gpr(prepared: PreparedData, grid: GprGrid) -> SweepResult:
    """Optimize each candidate kernel's lml, then score by validation RMSE."""
    entries, models = [], []
    for index, spec in enumerate(grid.kernels):
        start = time.perf_counter()
        try:
            tuned = optimize_hyperparameters(
                prepared.X_train.values,
                prepared.Y_train.values,
                spec,
                restarts=grid.restarts,
                bounds=grid.bounds,
                seed=grid.seed,
            )
            model = gpr_fit(prepared.X_train.values, prepared.Y_train.values, tuned)
            score = _val_rmse_original_units(prepared, model.predict(prepared.X_val.values))
            params = {
                "kind": tuned.kind,
                "length_scale": np.atleast_1d(tuned.length_scale).tolist(),
                "signal_variance": tuned.signal_variance,
                "nu": tuned.nu,
                "noise": tuned.noise,
                "lml": model.lml,
            }
            count = model.parameter_count()
        except NumericError:
            model = None
            score, params, count = float("inf"), {"kind": spec.kind, "failed": True}, 0
        models.append(model)
        entries.append(
            SweepEntry(
                index=index,
                label=spec.kind + (f"(nu={spec.nu})" if spec.is_matern else ""),
                params=params,
                val_rmse=score,
                param_count=count,
                fit_seconds=time.perf_counter() - start,
            )
        )
    return _sweep_result(entries, models)


def tune_mlp(prepared: PreparedData, grid: MlpGrid) -> SweepResult:
    """Train each layer/width candidate with a shared config and compare."""
    d = prepared.X_train.cols
    q = prepared.Y_train.cols
    entries, models = [], []
    for index, hidden in enumerate(grid.hidden_candidates()):
        arch = MlpArchitecture(input_dim=d, hidden_layers=hidden, output_dim=q)
        start = time.perf_counter()
        try:
            model = mlp_train(
                arch,
                grid.train,
                prepared.X_train.values,
                prepared.Y_train.values,
                prepared.X_val.values,
                prepared.Y_val.values,
            )
            score = _val_rmse_original_units(prepared, model.predict(prepared.X_val.values))
            count = arch.parameter_count()
            params = {"hidden_layers": list(hidden), "activation": arch.activation}
        except NumericError:
            model = None
            score, params, count = float("inf"), {"hidden_layers": list(hidden), "failed": True}, 0
        models.append(model)
        entries.append(
            SweepEntry(
                index=index,
                label="x".join(map(str, hidden)),
                params=params,
                val_rmse=score,
                param_count=count,
                fit_seconds=time.perf_counter() - start,
            )
        )
    return _sweep_result(entries, models)


def tune(
    prepared: PreparedData, kind: str, gpr_grid: GprGrid, mlp_grid: MlpGrid
) -> SweepResult:
    """Run the sweep for one model kind."""
    if kind == "gpr":
        return tune_gpr(prepared, gpr_grid)
    if kind == "mlp":
        return tune_mlp(prepared, mlp_grid)
    raise InputError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class ConvergencePoint:
    size: int
    test_rmse: float
    test_r2: float


@dataclass(frozen=True, eq=False)
class ConvergenceCurve:
    points: tuple[ConvergencePoint, ...]
    subset_indices: tuple[tuple[int, ...], ...]


def convergence_study(
    data: FidelityDataset,
    model_kind: str,
    sizes: list[int],
    split: SplitSpec,
    kernel: KernelSpec | None = None,
    restarts: int = 3,
    arch_hidden: tuple[int, ...] = (32,),
    train_cfg: TrainConfig | None = None,
) -> ConvergenceCurve:
    """Learning curve over nested training subset sizes.

    Subsets are prefixes of one seeded permutation of the training bin, so
    each larger subset contains every smaller one. Scalers are refit per
    subset; the test bin stays fixed and is scored in original units.
    """
    if model_kind not in MODEL_KINDS:
        raise InputError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InputError(f"sizes must be positive integers, got {sizes}")
    if sorted(sizes) != sizes:
        raise InputError(f"sizes must be increasing, got {sizes}")

    X = flatten(data.X).values
    Y = flatten(data.Y).values
    train_idx, test_idx, _ = split_data_cv(data.n, split)
    if max(sizes) > len(train_idx):
        raise InputError(
            f"largest size {max(sizes)} exceeds the {len(train_idx)}-row training bin"
        )
    order = np.random.default_rng(split.seed).permutation(train_idx)

    points = []
    subsets = []
    for size in sizes:
        idx = order[:size]
        subsets.append(tuple(int(i) for i in idx))
        x_scaler = fit_scaler(X[idx])
        y_scaler = fit_scaler(Y[idx])
        x_tr = transform(x_scaler, X[idx])
        y_tr = transform(y_scaler, Y[idx])
        x_te = transform(x_scaler, X[test_idx])
        if model_kind == "gpr":
            spec = kernel or KernelSpec(kind="rbf")
            tuned = optimize_hyperparameters(
                x_tr, y_tr, spec, restarts=restarts, seed=split.seed
            )
            model = gpr_fit(x_tr, y_tr, tuned)
        else:
            cfg = train_cfg or TrainConfig(seed=split.seed)
            arch = MlpArchitecture(X.shape[1], arch_hidden, Y.shape[1])
            model = mlp_train(arch, cfg, x_tr, y_tr, x_te[:0], Y[test_idx][:0])
        y_pred = inverse_transform(y_scaler, model.predict(x_te))
        points.append(
            ConvergencePoint(
                size=size,
                test_rmse=rmse(Y[test_idx], y_pred),
                test_r2=r_squared(Y[test_idx], y_pred),
            )
        )
    return ConvergenceCurve(points=tuple(points), subset_indices=tuple(subsets))


def export_sweep_csv(result: SweepResult, path) -> None:
    """Sweep entries plus the selected flag, one row per candidate."""
    write_csv(
        path,
        ["index", "label", "val_rmse", "param_count", "fit_seconds", "selected"],
        (
            [
                e.index,
                e.label,
                repr(e.val_rmse),
                e.param_count,
                f"{e.fit_seconds:.6f}",
                int(e.index == result.selected),
            ]
            for e in result.entries
        ),
    )


def export_convergence_csv(curve: ConvergenceCurve, path) -> None:
    write_csv(
        path,
        ["size", "test_rmse", "test_r2"],
        (
            [p.size, repr(p.test_rmse), repr(p.test_r2)]
            for p in curve.points
        ),
    )

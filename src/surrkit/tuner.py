"""Hyperparameter sweeps and training-set-size convergence studies.

Sweeps are plain grids: every candidate is fitted with a shared seed and
scored by validation RMSE in original units, by the serving plan it would
serve with, on the raw validation rows, so a stage built from the winner
reproduces its score bit for bit. The winner is the argmin, with
ties (within 1e-12 absolute RMSE) broken by smaller parameter count and then
by earlier grid position, so a larger model never wins over an equally
accurate smaller one. A sweep returns the winner's fitted model; nothing is
trained twice. A convergence study runs that same prepare step and sweep at
each training-set size: the training rows are nested prefixes of a seeded
permutation of the split's training bin, the split's validation bin picks
each size's winner, and that winner's plan scores it on the fixed test bin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from surrkit.data import FidelityDataset, flatten, write_csv
from surrkit.errors import InputError, NumericError
# gpr_fit is not used here; perfbench/test_perfbench.py checks that its
# tracer rebinds it in this module.
from surrkit.gpr import (  # noqa: F401
    GprModel,
    HyperBounds,
    KernelSpec,
    default_kernel_grid,
    gpr_fit,
    optimize_hyperparameters,
)
from surrkit.metrics import r_squared, rmse
from surrkit.mlp import MlpArchitecture, MlpModel, TrainConfig, mlp_train
from surrkit.preprocess import PreparedData, SplitSpec, _prepare, split_data_cv

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
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")


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


def select_winner(entries: tuple[SweepEntry, ...]) -> int:
    """Argmin validation RMSE with parsimony tie-breaking.

    Pure function of recorded scores: re-running it on a stored result
    reproduces the selection.
    """
    finite = [e for e in entries if np.isfinite(e.val_rmse)]
    if not finite:
        raise NumericError("every sweep candidate failed to fit")
    best_rmse = min(e.val_rmse for e in finite)
    contenders = [e for e in finite if e.val_rmse <= best_rmse + RMSE_TIE_TOL]
    winner = min(contenders, key=lambda e: (e.param_count, e.index))
    return winner.index


def _sweep(
    prepared: PreparedData, candidates: list[tuple[str, dict, object]], fit
) -> SweepResult:
    """Fit and score every ``(label, failed_params, candidate)``.

    ``fit(candidate)`` returns the fitted model, whose ``parameter_count()``
    the entry records, and the entry's params. A candidate that raises
    ``NumericError`` is recorded with ``failed_params``, an infinite RMSE and
    no model; when every candidate does, the error names the last one's cause.
    """
    entries, models, failure = [], [], None
    for index, (label, failed_params, candidate) in enumerate(candidates):
        start = time.perf_counter()
        try:
            model, params = fit(candidate)
            plan = model.serving_plan(prepared.x_scaler, prepared.y_scaler)
            score = rmse(prepared.Y_val_raw, plan(prepared.X_val_raw))
        except NumericError as exc:
            model, failure = None, exc
            score, params = float("inf"), {**failed_params, "failed": True}
        models.append(model)
        entries.append(
            SweepEntry(
                index=index,
                label=label,
                params=params,
                val_rmse=score,
                param_count=0 if model is None else model.parameter_count(),
                fit_seconds=time.perf_counter() - start,
            )
        )
    entries = tuple(entries)
    if all(model is None for model in models):
        raise NumericError(f"every sweep candidate failed to fit; the last: {failure}")
    selected = select_winner(entries)
    return SweepResult(entries=entries, selected=selected, model=models[selected])


def tune_gpr(prepared: PreparedData, grid: GprGrid) -> SweepResult:
    """Optimize each candidate kernel's lml, then score by validation RMSE."""

    def fit(spec: KernelSpec):
        model = optimize_hyperparameters(
            prepared.X_train,
            prepared.Y_train,
            spec,
            restarts=grid.restarts,
            bounds=grid.bounds,
            seed=grid.seed,
        )
        return model, {**model.kernel.record(), "lml": model.lml}

    candidates = [
        (spec.kind + (f"(nu={spec.nu})" if spec.is_matern else ""), {"kind": spec.kind}, spec)
        for spec in grid.kernels
    ]
    return _sweep(prepared, candidates, fit)


def tune_mlp(prepared: PreparedData, grid: MlpGrid) -> SweepResult:
    """Train each layer/width candidate with a shared config and compare."""
    d = prepared.X_train.shape[1]
    q = prepared.Y_train.shape[1]

    def fit(hidden: tuple[int, ...]):
        arch = MlpArchitecture(input_dim=d, hidden_layers=hidden, output_dim=q)
        model = mlp_train(
            arch, grid.train, prepared.X_train, prepared.Y_train, prepared.X_val, prepared.Y_val
        )
        return model, {"hidden_layers": list(hidden), "activation": arch.activation}

    candidates = [
        ("x".join(map(str, hidden)), {"hidden_layers": list(hidden)}, hidden)
        for hidden in grid.hidden_candidates()
    ]
    return _sweep(prepared, candidates, fit)


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


def check_sizes(sizes, name: str = "sizes") -> list[int]:
    """Convergence subset sizes as integers, if there are any and they are
    positive and strictly increasing (no size repeats); else ``InputError``
    naming them ``name``."""
    sizes = [int(s) for s in sizes]
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise InputError(f"{name} must be positive, increasing integers, got {sizes}")
    return sizes


def convergence_study(
    data: FidelityDataset,
    model_kind: str,
    sizes: list[int],
    split: SplitSpec,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
    restarts: int | None = None,
) -> ConvergenceCurve:
    """Learning curve over nested training subset sizes.

    Each size runs the prepare step and the sweep that training runs, with
    the grids defaulted as ``multifid.train_single_fidelity`` defaults them;
    ``restarts``, where given, overrides the GPR grid's. The training rows
    are a prefix of one seeded permutation of the split's training bin, so
    each larger subset contains every smaller one; the split's validation
    bin picks the winner and its fixed test bin scores it in original units.
    """
    if model_kind not in MODEL_KINDS:
        raise InputError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    sizes = check_sizes(sizes)
    gpr_grid = gpr_grid or GprGrid(seed=split.seed)
    if restarts is not None:
        gpr_grid = replace(gpr_grid, restarts=restarts)
    mlp_grid = mlp_grid or MlpGrid()

    train_idx, test_idx, val_idx = split_data_cv(data.n, split)
    if max(sizes) > len(train_idx):
        raise InputError(
            f"largest size {max(sizes)} exceeds the {len(train_idx)}-row training bin"
        )
    order = np.random.default_rng(split.seed).permutation(train_idx)
    X_test, Y_test = flatten(data.X)[test_idx], flatten(data.Y)[test_idx]

    points = []
    for size in sizes:
        prepared = _prepare(data, (order[:size], test_idx, val_idx))
        sweep = tune(prepared, model_kind, gpr_grid, mlp_grid)
        y_pred = sweep.model.serving_plan(prepared.x_scaler, prepared.y_scaler)(X_test)
        points.append(
            ConvergencePoint(
                size=size, test_rmse=rmse(Y_test, y_pred), test_r2=r_squared(Y_test, y_pred)
            )
        )
    subsets = tuple(tuple(int(i) for i in order[:size]) for size in sizes)
    return ConvergenceCurve(points=tuple(points), subset_indices=subsets)


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

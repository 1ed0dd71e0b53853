"""Two-level (and foldable N-level) multi-fidelity surrogate composition.

The chain trains a low-fidelity surrogate on the plentiful LF data, evaluates
it at the high-fidelity input sites, concatenates those predictions (in raw
units, predictions first) onto the raw HF inputs, and trains the
multi-fidelity surrogate on that augmented matrix:

    train LF:   F_lf(X_lf)                    -> Y_lf
    augment:    A = [F_lf(X_hf) | X_hf]       (raw units)
    train MF:   F_mf(A)                       -> Y_hf
    predict:    F_mf([F_lf(x) | x])           at new design sites

Each stage owns its own scalers: concatenation always happens in raw units
and the augmented matrix is standardized by a scaler fit only on it, which
keeps every transform single-purpose and auditable. Deeper fidelity stacks
fold the same step, treating the previous composite as the next level's
low-fidelity model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surrkit.data import DataTensor, FidelityDataset, FlatMatrix, flatten, unflatten
from surrkit.errors import InputError
# gpr_fit and gpr_predict are not used here; perfbench/test_perfbench.py
# checks that its tracer rebinds them in this module.
from surrkit.gpr import GprModel, gpr_fit, gpr_predict  # noqa: F401
from surrkit.mlp import MlpModel
from surrkit.preprocess import (
    SplitSpec,
    StandardScaler,
    inverse_transform,
    preprocess_data_pipeline,
    transform,
)
from surrkit.tuner import GprGrid, MlpGrid, SweepResult, tune


@dataclass(frozen=True)
class TensorLayout:
    """Shape and naming of an output tensor, minus the values."""

    scalar_names: tuple[str, ...]
    coord_labels: tuple[str, ...]
    units: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.scalar_names)

    @property
    def l(self) -> int:
        return len(self.coord_labels)

    @classmethod
    def of(cls, tensor: DataTensor) -> "TensorLayout":
        return cls(tensor.scalar_names, tensor.coord_labels, tensor.units)

    def tensor_from_flat(self, values: np.ndarray) -> DataTensor:
        return unflatten(
            np.asarray(values, dtype=np.float64),
            self.m,
            self.l,
            scalar_names=self.scalar_names,
            coord_labels=self.coord_labels,
            units=self.units,
        )

    def column_names(self, prefix: str = "") -> list[str]:
        """Flat column headers: ``name`` when l = 1, else ``name@label``."""
        if self.l == 1:
            return [f"{prefix}{name}" for name in self.scalar_names]
        return [
            f"{prefix}{name}@{label}"
            for name in self.scalar_names
            for label in self.coord_labels
        ]


@dataclass(eq=False)
class FittedSurrogate:
    """One trained model plus the scalers and output layout to use it raw-in, raw-out."""

    model: GprModel | MlpModel
    x_scaler: StandardScaler
    y_scaler: StandardScaler
    y_layout: TensorLayout
    fidelity: str = ""

    @property
    def input_dim(self) -> int:
        return self.x_scaler.fitted_on

    @property
    def output_dim(self) -> int:
        return self.y_scaler.fitted_on

    def predict_raw(self, X_raw: np.ndarray) -> np.ndarray:
        X_raw = np.asarray(X_raw, dtype=np.float64)
        if X_raw.ndim == 1:
            X_raw = X_raw[:, np.newaxis]
        if not np.isfinite(X_raw).all():
            raise InputError("design sites contain non-finite values")
        pred = self.model.predict(transform(self.x_scaler, X_raw))
        return inverse_transform(self.y_scaler, pred)

    def describe(self) -> str:
        tag = f"[{self.fidelity}] " if self.fidelity else ""
        return tag + self.model.describe()


@dataclass(eq=False)
class MfComposite:
    """Low-fidelity model, multi-fidelity model, and the scalers between them.

    ``lf`` may itself be a composite, which is how deeper fidelity stacks
    fold: each level treats everything below it as one low-fidelity model.
    """

    lf: "FittedSurrogate | MfComposite"
    mf: FittedSurrogate
    input_dim: int
    lf_output_dim: int
    hf_output_dim: int
    lf_sweep: SweepResult | None = None
    mf_sweep: SweepResult | None = None

    def __post_init__(self) -> None:
        expected = self.input_dim + self.lf_output_dim
        if self.mf.input_dim != expected:
            raise InputError(
                f"multi-fidelity model expects {self.mf.input_dim} inputs, but "
                f"d + q_lf = {expected}"
            )

    @property
    def output_dim(self) -> int:
        return self.hf_output_dim

    @property
    def y_layout(self) -> TensorLayout:
        return self.mf.y_layout

    def predict_raw(self, X_raw: np.ndarray) -> np.ndarray:
        augmented = build_mf_input(self.lf, X_raw)
        return self.mf.predict_raw(augmented.values)

    def describe(self) -> str:
        return f"mf-composite(lf={self.lf.describe()}, mf={self.mf.describe()})"


def predict_tensor(
    surrogate: "FittedSurrogate | MfComposite", sites: DataTensor
) -> DataTensor:
    """Predict at design sites given as a tensor, in raw units.

    The one online path for every surrogate: the sites are flattened, run
    through ``predict_raw`` and reshaped to the model's output layout.
    """
    d = sites.m * sites.l
    if d != surrogate.input_dim:
        raise InputError(
            f"design sites have {d} input columns, model expects {surrogate.input_dim}"
        )
    pred = surrogate.predict_raw(sites.values.reshape(sites.n, d))
    return surrogate.y_layout.tensor_from_flat(pred)


def _unique_names(names: list[str]) -> tuple[str, ...]:
    if len(set(names)) == len(names):
        return tuple(names)
    return tuple(f"c{i}_{name}" for i, name in enumerate(names))


def build_mf_input(
    lf: "FittedSurrogate | MfComposite", X_raw: FlatMatrix | np.ndarray
) -> FlatMatrix:
    """Column-concatenate raw LF predictions ahead of the raw inputs.

    Column order is fixed: the q_lf prediction columns come first, then the d
    original input columns.
    """
    values = X_raw.values if isinstance(X_raw, FlatMatrix) else np.asarray(X_raw, dtype=np.float64)
    if values.ndim != 2:
        raise InputError(f"expected a 2-D input matrix, got rank {values.ndim}")
    if values.shape[1] != lf.input_dim:
        raise InputError(
            f"inputs have {values.shape[1]} columns, LF model expects {lf.input_dim}"
        )
    lf_pred = lf.predict_raw(values)
    return FlatMatrix.from_array(np.hstack([lf_pred, values]))


def train_single_fidelity(
    data: FidelityDataset,
    kind: str,
    split: SplitSpec,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
) -> tuple[FittedSurrogate, SweepResult]:
    """Preprocess, sweep, and fit one surrogate on one fidelity level."""
    prepared = preprocess_data_pipeline(data, split)
    sweep = tune(prepared, kind, gpr_grid or GprGrid(seed=split.seed), mlp_grid or MlpGrid())
    surrogate = FittedSurrogate(
        model=sweep.model,
        x_scaler=prepared.x_scaler,
        y_scaler=prepared.y_scaler,
        y_layout=TensorLayout.of(data.Y),
        fidelity=data.fidelity,
    )
    return surrogate, sweep


def compose_with_lf(
    lf_surr: "FittedSurrogate | MfComposite",
    hf_data: FidelityDataset,
    mf_kind: str = "gpr",
    split: SplitSpec | None = None,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
    lf_sweep: SweepResult | None = None,
) -> MfComposite:
    """Augment HF inputs with an already-trained LF model and fit the MF stage."""
    d_hf = hf_data.X.m * hf_data.X.l
    if lf_surr.input_dim != d_hf:
        raise InputError(
            f"fidelity levels disagree on input dimension: LF model takes "
            f"{lf_surr.input_dim}, HF data has {d_hf}"
        )
    split = split or SplitSpec()
    augmented = build_mf_input(lf_surr, flatten(hf_data.X))
    aug_names = _unique_names(
        lf_surr.y_layout.column_names("lf_") + TensorLayout.of(hf_data.X).column_names()
    )
    aug_tensor = DataTensor.from_values(augmented.values[:, :, np.newaxis], aug_names)
    aug_dataset = FidelityDataset(
        fidelity=hf_data.fidelity,
        X=aug_tensor,
        Y=hf_data.Y,
        provenance=f"{hf_data.provenance} + LF predictions",
    )
    mf_surr, mf_sweep = train_single_fidelity(
        aug_dataset, mf_kind, split, gpr_grid, mlp_grid
    )
    return MfComposite(
        lf=lf_surr,
        mf=mf_surr,
        input_dim=d_hf,
        lf_output_dim=lf_surr.output_dim,
        hf_output_dim=mf_surr.output_dim,
        lf_sweep=lf_sweep,
        mf_sweep=mf_sweep,
    )


def train_mf(
    lf_data: FidelityDataset,
    hf_data: FidelityDataset,
    lf_kind: str = "gpr",
    mf_kind: str = "gpr",
    split: SplitSpec | None = None,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
) -> MfComposite:
    """Run the full two-level composition: LF surrogate, augmentation, MF surrogate."""
    d_lf = lf_data.X.m * lf_data.X.l
    d_hf = hf_data.X.m * hf_data.X.l
    if d_lf != d_hf:
        raise InputError(
            f"fidelity levels disagree on input dimension: LF has {d_lf}, HF has {d_hf}"
        )
    split = split or SplitSpec()
    lf_surr, lf_sweep = train_single_fidelity(lf_data, lf_kind, split, gpr_grid, mlp_grid)
    return compose_with_lf(
        lf_surr, hf_data, mf_kind, split, gpr_grid, mlp_grid, lf_sweep=lf_sweep
    )


def train_mf_chain(
    datasets: list[FidelityDataset],
    kinds: list[str] | str = "gpr",
    split: SplitSpec | None = None,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
) -> "FittedSurrogate | MfComposite":
    """Fold the two-level step over N fidelity levels, lowest first.

    Level k consumes the composite of levels below it as its low-fidelity
    model. A single dataset degenerates to plain single-fidelity training.
    """
    if not datasets:
        raise InputError("fidelity chain needs at least one dataset")
    if isinstance(kinds, str):
        kinds = [kinds] * len(datasets)
    if len(kinds) != len(datasets):
        raise InputError(
            f"{len(datasets)} fidelity levels but {len(kinds)} model kinds"
        )
    split = split or SplitSpec()
    model, _ = train_single_fidelity(datasets[0], kinds[0], split, gpr_grid, mlp_grid)
    result: FittedSurrogate | MfComposite = model
    for data, kind in zip(datasets[1:], kinds[1:]):
        result = compose_with_lf(result, data, kind, split, gpr_grid, mlp_grid)
    return result

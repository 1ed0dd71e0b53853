"""Multi-fidelity surrogate composition: a two-level step folded over N levels.

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

A prediction checks its raw sites' shape once per call, with
``data.as_matrix``: the outermost ``predict_raw`` (or ``build_mf_input``)
checks them, and passes ``checked=True`` to the stages inside it. A stage
(``FittedSurrogate.predict_raw``) then runs its serving plan, which its
model derives from the stage's scalers on the first prediction and the
stage keeps (``FittedSurrogate._plan``; bundles do not store it, and
``modelstore.load_model`` does not build it). The plan folds the scalers
into the model's constants, so it takes raw sites to raw outputs with no
scaling pass of its own, and checks their values once, against a bound
below which none of its steps can overflow: a NaN, an infinity or a site
past the bound raises ``InputError``, never a numpy warning. That the
model's widths are its scalers' is checked when the stage is made.
``build_mf_input`` writes ``[F_lf(x) | x]`` into one preallocated array,
the LF stage its predictions straight into the first q columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from surrkit.data import DataTensor, FidelityDataset, as_matrix, check_names, flatten, unflatten
from surrkit.errors import InputError
# gpr_fit and gpr_predict are not used here; perfbench/test_perfbench.py
# checks that its tracer rebinds them in this module.
from surrkit.gpr import GprModel, GprPlan, gpr_fit, gpr_predict  # noqa: F401
from surrkit.mlp import MlpModel, MlpPlan
from surrkit.preprocess import (
    SplitSpec,
    StandardScaler,
    preprocess_data_pipeline,
)
from surrkit.tuner import GprGrid, MlpGrid, SweepResult, tune


@dataclass(frozen=True)
class TensorLayout:
    """Shape and naming of an output tensor, minus the values; the names
    follow the rule a tensor's do (``data.check_names``)."""

    scalar_names: tuple[str, ...]
    coord_labels: tuple[str, ...]
    units: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_names(self.scalar_names, self.coord_labels, self.units)

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
            values,
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


@dataclass(frozen=True, eq=False)
class FittedSurrogate:
    """One trained model plus the scalers and output layout to use it raw-in, raw-out.

    The model's input and output widths are its scalers' column counts,
    checked here, once: ``predict_raw`` relies on them.
    """

    model: GprModel | MlpModel
    x_scaler: StandardScaler
    y_scaler: StandardScaler
    y_layout: TensorLayout
    fidelity: str = ""

    def __post_init__(self) -> None:
        model = self.model
        if isinstance(model, GprModel):
            n_in, n_out = model.input_dim, model.y_dim
        else:
            n_in, n_out = model.architecture.input_dim, model.architecture.output_dim
        for side, axis, width, scaler in (("inputs", "x", n_in, self.x_scaler),
                                          ("outputs", "y", n_out, self.y_scaler)):
            if width != scaler.fitted_on:
                raise InputError(
                    f"{model.describe()} has {width} {side}, but its {axis} scaler "
                    f"has {scaler.fitted_on} columns"
                )

    @property
    def input_dim(self) -> int:
        return self.x_scaler.fitted_on

    @property
    def output_dim(self) -> int:
        return self.y_scaler.fitted_on

    @cached_property
    def _plan(self) -> GprPlan | MlpPlan:
        """The stage from raw sites to raw outputs, its scalers folded into
        its model's constants; derived on the first prediction, never stored."""
        return self.model.serving_plan(self.x_scaler, self.y_scaler)

    def predict_raw(
        self, X_raw: np.ndarray, *, checked: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Predictions at raw sites, in raw units, written into ``out`` if
        given, else into a new array.

        ``checked=True`` says ``X_raw`` already passed ``as_matrix``. The
        stage's plan checks the sites' values, once, against its bound.
        """
        if not checked:
            X_raw = as_matrix(X_raw, "design sites", self.input_dim, finite=False)
        return self._plan(X_raw, out)

    def describe(self) -> str:
        tag = f"[{self.fidelity}] " if self.fidelity else ""
        return tag + self.model.describe()


@dataclass(frozen=True, eq=False)
class MfComposite:
    """Low-fidelity model, multi-fidelity model, and the scalers between them.

    ``lf`` may itself be a composite, which is how deeper fidelity stacks
    fold: each level treats everything below it as one low-fidelity model.
    A composite holds only its stages, so a trained one and a loaded one are
    the same; ``train_mf_chain`` hands back the sweeps that chose them.
    """

    lf: "FittedSurrogate | MfComposite"
    mf: FittedSurrogate

    def __post_init__(self) -> None:
        expected = self.input_dim + self.lf_output_dim
        if self.mf.input_dim != expected:
            raise InputError(
                f"multi-fidelity model expects {self.mf.input_dim} inputs, but "
                f"d + q_lf = {expected}"
            )

    @property
    def input_dim(self) -> int:
        return self.lf.input_dim

    @property
    def lf_output_dim(self) -> int:
        return self.lf.output_dim

    @property
    def output_dim(self) -> int:
        return self.mf.output_dim

    @property
    def y_layout(self) -> TensorLayout:
        return self.mf.y_layout

    def predict_raw(
        self, X_raw: np.ndarray, *, checked: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Predictions at raw sites, in raw units, written into ``out`` if
        given; ``build_mf_input`` checks the sites unless ``checked`` says
        they passed ``as_matrix``."""
        augmented = build_mf_input(self.lf, X_raw, checked=checked)
        return self.mf.predict_raw(augmented, checked=True, out=out)

    def describe(self) -> str:
        return f"mf-composite(lf={self.lf.describe()}, mf={self.mf.describe()})"


def predict_tensor(
    surrogate: "FittedSurrogate | MfComposite", sites: DataTensor
) -> DataTensor:
    """Predict at design sites given as a tensor, in raw units.

    The one online path for every surrogate: the sites are flattened, run
    through ``predict_raw`` (which checks their column count) and reshaped to
    the model's output layout.
    """
    pred = surrogate.predict_raw(flatten(sites))
    pred.setflags(write=False)  # the tensor's own array, so it is not copied
    return surrogate.y_layout.tensor_from_flat(pred)


def _unique_names(names: list[str]) -> tuple[str, ...]:
    if len(set(names)) == len(names):
        return tuple(names)
    return tuple(f"c{i}_{name}" for i, name in enumerate(names))


def build_mf_input(
    lf: "FittedSurrogate | MfComposite",
    X_raw: np.ndarray,
    *,
    checked: bool = False,
) -> np.ndarray:
    """Raw LF predictions ahead of the raw input array, in one new array.

    Column order is fixed: the q_lf prediction columns come first, then the d
    original input columns; ``lf`` writes its predictions into the first q_lf
    columns. The sites are checked with ``as_matrix`` against
    ``lf.input_dim`` unless ``checked`` says they already were.
    """
    if not checked:
        X_raw = as_matrix(X_raw, "design sites", lf.input_dim, finite=False)
    q = lf.output_dim
    augmented = np.empty((X_raw.shape[0], q + X_raw.shape[1]))
    lf.predict_raw(X_raw, checked=True, out=augmented[:, :q])
    augmented[:, q:] = X_raw
    return augmented


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
    return train_mf_chain([lf_data, hf_data], [lf_kind, mf_kind], split, gpr_grid, mlp_grid)[0]


def train_mf_chain(
    datasets: list[FidelityDataset],
    kinds: list[str] | str = "gpr",
    split: SplitSpec | None = None,
    gpr_grid: GprGrid | None = None,
    mlp_grid: MlpGrid | None = None,
) -> tuple["FittedSurrogate | MfComposite", tuple[SweepResult, ...]]:
    """Fold the two-level step over N fidelity levels, lowest first.

    Level k consumes the composite of levels below it as its low-fidelity
    model. A single dataset degenerates to plain single-fidelity training.
    The model kinds and every level's input dimension are checked before any
    level is trained. Returns the model and one sweep per level, lowest
    first; level k's sweep chose the model of its stage.
    """
    if not datasets:
        raise InputError("fidelity chain needs at least one dataset")
    if isinstance(kinds, str):
        kinds = [kinds] * len(datasets)
    if len(kinds) != len(datasets):
        raise InputError(
            f"{len(datasets)} fidelity levels but {len(kinds)} model kinds"
        )
    dims = [data.X.m * data.X.l for data in datasets]
    for level, d in enumerate(dims):
        if d != dims[0]:
            raise InputError(
                f"fidelity levels disagree on input dimension: level 0 "
                f"({datasets[0].fidelity}) has {dims[0]}, level {level} "
                f"({datasets[level].fidelity}) has {d}"
            )
    split = split or SplitSpec()
    result, sweep = train_single_fidelity(datasets[0], kinds[0], split, gpr_grid, mlp_grid)
    sweeps = [sweep]
    for data, kind in zip(datasets[1:], kinds[1:]):
        augmented = build_mf_input(result, flatten(data.X))
        augmented.setflags(write=False)  # the tensor's own array, so it is not copied
        names = result.y_layout.column_names("lf_") + TensorLayout.of(data.X).column_names()
        aug_data = FidelityDataset(
            fidelity=data.fidelity,
            X=DataTensor.from_values(augmented[:, :, np.newaxis], _unique_names(names)),
            Y=data.Y,
        )
        mf, sweep = train_single_fidelity(aug_data, kind, split, gpr_grid, mlp_grid)
        sweeps.append(sweep)
        result = MfComposite(lf=result, mf=mf)
    return result, tuple(sweeps)

"""Run configuration: a strict JSON schema for the pipeline commands.

Every key is validated before any stage runs; unknown keys are rejected with
their full path. CLI flags (``--seed``, ``--out``, the split fractions and
``mf-train``'s data paths) override config values.
The schema, with every section optional unless a command needs it::

    {
      "seed": 7,
      "out_dir": "runs/demo",
      "split":   {"train_frac": 0.7, "test_frac": 0.15, "val_frac": 0.15},
      "data":    {"x": "x.txt", "y": "y.txt", "format": "tensor-text",
                  "fidelity": "HF"},
      "lf_data": {...like data...},
      "hf_data": {...like data...},
      "fidelity_chain": [{...like data, plus "model"...}, ...],
      "model":    {"kind": "gpr"},
      "lf_model": {"kind": "gpr"},
      "mf_model": {"kind": "gpr"},
      "gpr": {"kernels": ["rbf", "matern0.5", "matern1.5", "matern2.5"],
              "restarts": 3,
              "length_scale_bounds": [1e-2, 1e2],
              "signal_variance_bounds": [1e-3, 1e3],
              "noise_bounds": [1e-10, 1.0]},
      "mlp": {"layers": [1, 2, 3], "widths": [16, 32, 64, 128],
              "learning_rate": 1e-3, "max_epochs": 500, "batch_size": 32,
              "early_stop_patience": 50, "optimizer": "adam"},
      "convergence": {"sizes": [8, 16, 32], "model": "gpr"}
    }

    ``fidelity_chain`` lists two or more levels, lowest fidelity first;
    lf_data/hf_data (tagged "LF"/"HF" by default) with lf_model/mf_model is
    the two-level chain written another way. A config uses one form. The
    ``--lf-*``/``--hf-*`` flags replace the lowest/highest level's x/y.
    A relative data path or ``out_dir`` is read against the config file's
    directory, or, given by a flag, against the working directory;
    ``RunConfig.raw`` holds every data path and ``out_dir`` made absolute.

Kernel tokens: ``rbf``, ``maternNU`` with NU in {0.5, 1.5, 2.5}, and
``constant*`` prefixes of either to make the signal variance tunable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from surrkit.errors import InputError
from surrkit.gpr import HyperBounds, default_kernel_grid, kernel_from_name
from surrkit.mlp import TrainConfig
from surrkit.preprocess import SplitSpec
from surrkit.tuner import MODEL_KINDS, GprGrid, MlpGrid

_SCHEMA: dict[str, tuple[str, ...]] = {
    "": ("seed", "out_dir", "split", "data", "lf_data", "hf_data",
         "fidelity_chain", "model", "lf_model", "mf_model", "gpr", "mlp",
         "convergence"),
    "split": ("train_frac", "test_frac", "val_frac"),
    "data": ("x", "y", "format", "fidelity"),
    "lf_data": ("x", "y", "format", "fidelity"),
    "hf_data": ("x", "y", "format", "fidelity"),
    "fidelity_chain[]": ("x", "y", "format", "fidelity", "model"),
    "model": ("kind",),
    "lf_model": ("kind",),
    "mf_model": ("kind",),
    "gpr": ("kernels", "restarts", "length_scale_bounds",
            "signal_variance_bounds", "noise_bounds"),
    "mlp": ("layers", "widths", "learning_rate", "max_epochs", "batch_size",
            "early_stop_patience", "optimizer"),
    "convergence": ("sizes", "model"),
}


@dataclass(frozen=True)
class DataSource:
    x: Path
    y: Path
    format: str = "tensor-text"
    fidelity: str = ""


@dataclass(frozen=True, eq=False)
class RunConfig:
    seed: int
    out_dir: Path | None
    split: SplitSpec
    data: DataSource | None
    fidelity_chain: tuple[tuple[DataSource, str], ...]
    model_kind: str
    gpr_grid: GprGrid
    mlp_grid: MlpGrid
    convergence_sizes: tuple[int, ...]
    convergence_model: str
    raw: dict


def _reject_unknown(section: dict, path: str) -> None:
    allowed = _SCHEMA[path]
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise InputError(
                f"unknown config key {where!r}; allowed here: {sorted(allowed)}"
            )


def _require(section: dict, key: str, path: str):
    if key not in section:
        where = f"{path}.{key}" if path else key
        raise InputError(f"missing required config key {where!r}")
    return section[key]


def _section(raw: dict, key: str) -> dict:
    """The top-level object ``key`` (empty when absent), checked against the schema."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise InputError(f"config key {key!r} must be an object")
    _reject_unknown(section, key)
    return section


def _given(overrides: dict | None) -> dict:
    return {k: v for k, v in (overrides or {}).items() if v is not None}


def _absolute_paths(section: dict, base: Path) -> dict:
    """``section`` with its ``x``/``y`` data paths made absolute, a relative one
    read against ``base``."""
    return {
        key: os.path.abspath(base / str(value)) if key in ("x", "y") else value
        for key, value in section.items()
    }


def _data_source(section: dict, path: str, default_fidelity: str = "") -> DataSource:
    fmt = section.get("format", "tensor-text")
    if fmt not in ("tensor-text", "csv"):
        raise InputError(f"{path}.format must be 'tensor-text' or 'csv', got {fmt!r}")
    return DataSource(
        x=Path(_require(section, "x", path)),
        y=Path(_require(section, "y", path)),
        format=fmt,
        fidelity=str(section.get("fidelity", "")) or default_fidelity,
    )


def _model_kind(value, where: str) -> str:
    kind = str(value)
    if kind not in MODEL_KINDS:
        raise InputError(f"{where} must be one of {MODEL_KINDS}, got {kind!r}")
    return kind


def _bounds_pair(raw, name: str) -> tuple[float, float]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, (int, float)) for v in raw)
    ):
        raise InputError(f"gpr.{name} must be a [lo, hi] pair of numbers")
    return float(raw[0]), float(raw[1])


_CHAIN_ENDS = {"lf_data": 0, "hf_data": -1}


def _fidelity_chain(
    raw: dict, base: Path, data_overrides: dict | None
) -> tuple[tuple[DataSource, str], ...]:
    """The fidelity levels to fuse, lowest first, each with its model kind.

    Makes the levels' data paths in ``raw`` absolute and folds the
    ``lf_data``/``hf_data`` path overrides, read against the working
    directory, into the lowest/highest level, in whichever of the two forms
    ``raw`` gives the levels.
    """
    flags = {
        key: _absolute_paths(_given((data_overrides or {}).get(key)), Path())
        for key in _CHAIN_ENDS
    }
    if "fidelity_chain" not in raw:
        for key in _CHAIN_ENDS:
            if key in raw or flags[key]:
                raw[key] = {**_absolute_paths(_section(raw, key), base), **flags[key]}
        kinds = [
            _model_kind(_section(raw, key).get("kind", "gpr"), f"{key}.kind")
            for key in ("lf_model", "mf_model")
        ]
        if not any(key in raw for key in _CHAIN_ENDS):
            return ()
        return tuple(
            (_data_source(_section(raw, key), key, fidelity), kind)
            for key, fidelity, kind in zip(_CHAIN_ENDS, ("LF", "HF"), kinds)
        )

    mixed = [key for key in ("lf_data", "hf_data", "lf_model", "mf_model") if key in raw]
    if mixed:
        raise InputError(
            f"config gives both 'fidelity_chain' and {mixed[0]!r}; "
            "give the fidelity levels in one form"
        )
    levels = raw["fidelity_chain"]
    if not isinstance(levels, list) or len(levels) < 2:
        raise InputError("fidelity_chain must list at least two fidelity levels")
    for i, level in enumerate(levels):
        if not isinstance(level, dict):
            raise InputError(f"fidelity_chain[{i}] must be an object")
        _reject_unknown(level, "fidelity_chain[]")
    levels = raw["fidelity_chain"] = [_absolute_paths(level, base) for level in levels]
    for key, end in _CHAIN_ENDS.items():
        if flags[key]:
            levels[end] = {**levels[end], **flags[key]}
    return tuple(
        (
            _data_source(level, "fidelity_chain[]", f"level{i}"),
            _model_kind(level.get("model", "gpr"), f"fidelity_chain[{i}].model"),
        )
        for i, level in enumerate(levels)
    )


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
    split_overrides: dict | None = None,
    data_overrides: dict | None = None,
) -> RunConfig:
    """Parse and fully validate a config file before any stage runs.

    ``split_overrides`` maps ``split`` keys to values and ``data_overrides``
    maps ``lf_data``/``hf_data`` to ``x``/``y`` paths, relative ones read
    against the working directory; ``None`` values are ignored. The returned
    ``raw`` is the effective config: the file's sections with the seed and
    every override folded in, and every data path and ``out_dir`` absolute
    (a relative one in the file is read against the file's directory), so a
    copy of it reruns the run from any directory.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config {path} must be a JSON object")
    _reject_unknown(raw, "")
    base = path.parent

    seed = seed_override if seed_override is not None else int(raw.get("seed", 0))
    raw["seed"] = seed

    split_raw = _section(raw, "split")
    if _given(split_overrides):
        split_raw = raw["split"] = {**split_raw, **_given(split_overrides)}
    split = SplitSpec(
        train_frac=float(split_raw.get("train_frac", 0.70)),
        test_frac=float(split_raw.get("test_frac", 0.15)),
        val_frac=float(split_raw.get("val_frac", 0.15)),
        seed=seed,
    )

    data = None
    if "data" in raw:
        raw["data"] = _absolute_paths(_section(raw, "data"), base)
        data = _data_source(raw["data"], "data", "data")
    chain = _fidelity_chain(raw, base, data_overrides)
    model_kind = _model_kind(_section(raw, "model").get("kind", "gpr"), "model.kind")

    gpr_raw = _section(raw, "gpr")
    kernel_names = gpr_raw.get("kernels")
    if kernel_names is not None:
        if not isinstance(kernel_names, list) or not kernel_names:
            raise InputError("gpr.kernels must be a nonempty list of kernel tokens")
        kernels = tuple(kernel_from_name(str(k)) for k in kernel_names)
    else:
        kernels = default_kernel_grid()
    bounds = HyperBounds(
        length_scale=_bounds_pair(
            gpr_raw.get("length_scale_bounds", [1e-2, 1e2]), "length_scale_bounds"
        ),
        signal_variance=_bounds_pair(
            gpr_raw.get("signal_variance_bounds", [1e-3, 1e3]), "signal_variance_bounds"
        ),
        noise=_bounds_pair(gpr_raw.get("noise_bounds", [1e-10, 1.0]), "noise_bounds"),
    )
    gpr_grid = GprGrid(
        kernels=kernels,
        restarts=int(gpr_raw.get("restarts", 3)),
        bounds=bounds,
        seed=seed,
    )

    mlp_raw = _section(raw, "mlp")
    train_cfg = TrainConfig(
        learning_rate=float(mlp_raw.get("learning_rate", 1e-3)),
        max_epochs=int(mlp_raw.get("max_epochs", 500)),
        batch_size=int(mlp_raw.get("batch_size", 32)),
        early_stop_patience=int(mlp_raw.get("early_stop_patience", 50)),
        seed=seed,
        optimizer=str(mlp_raw.get("optimizer", "adam")),
    )
    mlp_grid = MlpGrid(
        layer_counts=tuple(int(c) for c in mlp_raw.get("layers", [1, 2, 3])),
        widths=tuple(int(w) for w in mlp_raw.get("widths", [16, 32, 64, 128])),
        train=train_cfg,
    )

    conv_raw = _section(raw, "convergence")
    sizes = tuple(int(s) for s in conv_raw.get("sizes", []))
    conv_model = _model_kind(conv_raw.get("model", model_kind), "convergence.model")

    if raw.get("out_dir") is not None:
        raw["out_dir"] = os.path.abspath(base / str(raw["out_dir"]))
    out_dir = out_override or raw.get("out_dir")
    return RunConfig(
        seed=seed,
        out_dir=Path(out_dir) if out_dir is not None else None,
        split=split,
        data=data,
        fidelity_chain=chain,
        model_kind=model_kind,
        gpr_grid=gpr_grid,
        mlp_grid=mlp_grid,
        convergence_sizes=sizes,
        convergence_model=conv_model,
        raw=raw,
    )

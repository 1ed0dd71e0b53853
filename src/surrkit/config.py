"""Run configuration: a strict JSON schema for the pipeline commands.

Every key is validated before any stage runs; unknown keys are rejected with
their full path. CLI flags (``--seed``, ``--out``) override config values.
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

    ``fidelity_chain`` orders datasets lowest fidelity first and replaces
    lf_data/hf_data when more than two levels are fused.

Kernel tokens: ``rbf``, ``maternNU`` with NU in {0.5, 1.5, 2.5}, and
``constant*`` prefixes of either to make the signal variance tunable.
"""

from __future__ import annotations

import json
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
    lf_data: DataSource | None
    hf_data: DataSource | None
    fidelity_chain: tuple[tuple[DataSource, str], ...]
    model_kind: str
    lf_kind: str
    mf_kind: str
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


def _data_source(section: dict, path: str, base: Path) -> DataSource:
    _reject_unknown(section, path)
    fmt = section.get("format", "tensor-text")
    if fmt not in ("tensor-text", "csv"):
        raise InputError(f"{path}.format must be 'tensor-text' or 'csv', got {fmt!r}")
    return DataSource(
        x=base / str(_require(section, "x", path)),
        y=base / str(_require(section, "y", path)),
        format=fmt,
        fidelity=str(section.get("fidelity", "")),
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


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
    split_overrides: dict | None = None,
) -> RunConfig:
    """Parse and fully validate a config file before any stage runs."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config {path} must be a JSON object")
    return build_run_config(raw, path.parent, seed_override, out_override, split_overrides)


def build_run_config(
    raw: dict,
    base: Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
    split_overrides: dict | None = None,
) -> RunConfig:
    _reject_unknown(raw, "")

    seed = seed_override if seed_override is not None else int(raw.get("seed", 0))

    split_raw = dict(raw.get("split", {}))
    _reject_unknown(split_raw, "split")
    if split_overrides:
        split_raw.update({k: v for k, v in split_overrides.items() if v is not None})
    split = SplitSpec(
        train_frac=float(split_raw.get("train_frac", 0.70)),
        test_frac=float(split_raw.get("test_frac", 0.15)),
        val_frac=float(split_raw.get("val_frac", 0.15)),
        seed=seed,
    )

    sources: dict[str, DataSource | None] = {}
    for key in ("data", "lf_data", "hf_data"):
        section = raw.get(key)
        if section is None:
            sources[key] = None
        elif isinstance(section, dict):
            sources[key] = _data_source(section, key, base)
        else:
            raise InputError(f"config key {key!r} must be an object")

    chain: list[tuple[DataSource, str]] = []
    chain_raw = raw.get("fidelity_chain")
    if chain_raw is not None:
        if not isinstance(chain_raw, list) or len(chain_raw) < 2:
            raise InputError("fidelity_chain must list at least two fidelity levels")
        for i, section in enumerate(chain_raw):
            if not isinstance(section, dict):
                raise InputError(f"fidelity_chain[{i}] must be an object")
            _reject_unknown(section, "fidelity_chain[]")
            kind = _model_kind(section.get("model", "gpr"), f"fidelity_chain[{i}].model")
            source_raw = {k: v for k, v in section.items() if k != "model"}
            chain.append((_data_source(source_raw, "data", base), kind))

    kinds = {}
    for key in ("model", "lf_model", "mf_model"):
        section = dict(raw.get(key, {}))
        _reject_unknown(section, key)
        kinds[key] = _model_kind(section.get("kind", "gpr"), f"{key}.kind")

    gpr_raw = dict(raw.get("gpr", {}))
    _reject_unknown(gpr_raw, "gpr")
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

    mlp_raw = dict(raw.get("mlp", {}))
    _reject_unknown(mlp_raw, "mlp")
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

    conv_raw = dict(raw.get("convergence", {}))
    _reject_unknown(conv_raw, "convergence")
    sizes = tuple(int(s) for s in conv_raw.get("sizes", []))
    conv_model = _model_kind(conv_raw.get("model", kinds["model"]), "convergence.model")

    out_dir = out_override or raw.get("out_dir")
    return RunConfig(
        seed=seed,
        out_dir=Path(out_dir) if out_dir is not None else None,
        split=split,
        data=sources["data"],
        lf_data=sources["lf_data"],
        hf_data=sources["hf_data"],
        fidelity_chain=tuple(chain),
        model_kind=kinds["model"],
        lf_kind=kinds["lf_model"],
        mf_kind=kinds["mf_model"],
        gpr_grid=gpr_grid,
        mlp_grid=mlp_grid,
        convergence_sizes=sizes,
        convergence_model=conv_model,
        raw=raw,
    )

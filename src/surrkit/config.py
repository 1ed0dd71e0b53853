"""Run configuration: a strict JSON schema for the pipeline commands.

``_SCHEMA`` lists every key once, with the reader that checks its JSON type
(a bool is no number, and an integer key takes a float only if it is
integral and at most 2**53 in magnitude) and, for ``gpr.restarts``,
``gpr.length_scale_bounds``, ``mlp.widths`` and ``mlp.layers``, its range
(``MAX_RESTARTS``, ``LENGTH_SCALE_RANGE``, ``MAX_WIDTH``, ``MAX_LAYERS``),
and that ``convergence.sizes`` are positive and strictly increasing; README's
"Configuration" shows a full config. Every key is checked before any stage
runs, an unknown key is rejected with its full path, and an omitted key keeps
the default of the dataclass field it sets. A key that training does not read
(``UNREAD_MLP_KEYS``) loads with one warning.
CLI flags (``--seed``, ``--out``, the split fractions and ``mf-train``'s
data paths) override config values.

``fidelity_chain`` lists two or more levels, lowest fidelity first;
lf_data/hf_data (tagged "LF"/"HF" by default) with lf_model/mf_model is the
two-level chain written another way. A config uses one form. The
``--lf-*``/``--hf-*`` flags replace the lowest/highest level's x/y. A
relative data path or ``out_dir`` is read against the config file's
directory, or, given by a flag, against the working directory;
``RunConfig.raw`` holds every data path and ``out_dir`` made absolute.

Kernel tokens: ``rbf``, ``maternNU`` with NU in {0.5, 1.5, 2.5}, and
``constant*`` prefixes of either to make the signal variance tunable.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from surrkit.errors import InputError
from surrkit.gpr import HyperBounds, KernelSpec, kernel_from_name
from surrkit.mlp import TrainConfig
from surrkit.preprocess import SplitSpec
from surrkit.tuner import MODEL_KINDS, GprGrid, MlpGrid, check_sizes


# Each restart is an L-BFGS-B run of its own, so a count far past this one
# would not finish.
MAX_RESTARTS = 1000
# The optimizer works in log length scales and the kernel divides by their
# squares; length-scale bounds in this range keep both normal floats.
LENGTH_SCALE_RANGE = (1e-150, 1e150)
# An MLP candidate of MAX_LAYERS hidden layers of MAX_WIDTH neurons has about
# 7.3M parameters, and L-BFGS-B keeps about 25 vectors of that length (1.5 GB);
# each width or layer past these caps multiplies that, so a value such as
# 10**9 would allocate without bound. The default grid stops at 3 layers of 128.
MAX_WIDTH = 1024
MAX_LAYERS = 8
# ``TrainConfig`` fields that configs may set but that full-batch L-BFGS-B
# training does not read; a config that sets one loads with a warning.
UNREAD_MLP_KEYS = ("learning_rate", "batch_size", "early_stop_patience")


def _wrong(where: str, expected: str, value) -> InputError:
    return InputError(f"config key {where!r} must be {expected}, got {value!r}")


def _integer(value, where: str) -> int:
    # Past 2**53 a float no longer counts by ones: refused as written, not
    # echoed by a later check as a 309-digit integer.
    if type(value) is int or (type(value) is float and abs(value) <= 2**53 and value.is_integer()):
        return int(value)
    raise _wrong(where, "an integer (as a float, at most 2**53 in magnitude)", value)


def _number(value, where: str) -> float:
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise _wrong(where, "a number", value)


def _string(value, where: str) -> str:
    if type(value) is not str:
        raise _wrong(where, "a string", value)
    return value


def _string_or_null(value, where: str) -> str | None:
    return None if value is None else _string(value, where)


def _one_of(*options: str):
    def read(value, where: str) -> str:
        if value not in options:
            raise _wrong(where, f"one of {options}", value)
        return value

    return read


def _list_of(read, items: str):
    def read_list(value, where: str) -> tuple:
        if type(value) is not list or not value:
            raise _wrong(where, f"a nonempty list of {items}", value)
        return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(value))

    return read_list


def _pair(value, where: str) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise _wrong(where, "a [lo, hi] pair of numbers", value)
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


def _integer_to(cap: int):
    """A reader of an integer from 1 to ``cap``."""

    def read(value, where: str) -> int:
        number = _integer(value, where)
        if not 1 <= number <= cap:
            raise _wrong(where, f"an integer from 1 to {cap}", value)
        return number

    return read


def _length_scale_pair(value, where: str) -> tuple[float, float]:
    pair = _pair(value, where)
    lo, hi = LENGTH_SCALE_RANGE
    for i, bound in enumerate(pair):
        if not lo <= bound <= hi:
            raise _wrong(f"{where}[{i}]", f"a number from {lo:g} to {hi:g}", value[i])
    return pair


def _sizes(value, where: str) -> tuple[int, ...]:
    sizes = _list_of(_integer, "integers")(value, where)
    return tuple(check_sizes(sizes, f"config key {where!r}"))


def _kernel(value, where: str) -> KernelSpec:
    token = _string(value, where)
    try:
        return kernel_from_name(token)
    except InputError as exc:
        raise InputError(f"config key {where!r}: {exc}") from None


def _object(readers: dict):
    """A reader of an object whose keys ``readers`` lists; it returns the
    checked values by dataclass field name."""

    def read(value, where: str) -> dict:
        if type(value) is not dict:
            raise InputError(f"config key {where!r} must be an object")
        paths = {key: f"{where}.{key}" if where else key for key in value}
        for key, path in paths.items():
            if key not in readers:
                raise InputError(
                    f"unknown config key {path!r}; allowed here: {sorted(readers)}"
                )
        return {_FIELD.get(k, k): readers[k](v, paths[k]) for k, v in value.items()}

    return read


# Config keys that set a dataclass field of another name.
_FIELD = {"layers": "layer_counts", "length_scale_bounds": "length_scale",
          "signal_variance_bounds": "signal_variance", "noise_bounds": "noise"}
_DATA = {"x": _string, "y": _string, "format": _one_of("tensor-text", "csv"),
         "fidelity": _string}
_KIND = _one_of(*MODEL_KINDS)
_MODEL = _object({"kind": _KIND})
_SCHEMA = _object({
    "seed": _integer,
    "out_dir": _string_or_null,
    "split": _object({"train_frac": _number, "test_frac": _number, "val_frac": _number}),
    "data": _object(_DATA),
    "lf_data": _object(_DATA),
    "hf_data": _object(_DATA),
    "fidelity_chain": _list_of(_object({**_DATA, "model": _KIND}), "fidelity levels"),
    "model": _MODEL,
    "lf_model": _MODEL,
    "mf_model": _MODEL,
    "gpr": _object({
        "kernels": _list_of(_kernel, "kernel tokens"), "restarts": _integer_to(MAX_RESTARTS),
        "length_scale_bounds": _length_scale_pair, "signal_variance_bounds": _pair,
        "noise_bounds": _pair,
    }),
    "mlp": _object({
        "layers": _list_of(_integer_to(MAX_LAYERS), "integers"),
        "widths": _list_of(_integer_to(MAX_WIDTH), "integers"), "learning_rate": _number,
        "max_epochs": _integer, "batch_size": _integer,
        "early_stop_patience": _integer, "optimizer": _one_of("lbfgs"),
    }),
    "convergence": _object({"sizes": _sizes, "model": _KIND}),
})


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


def _build(cls, values: dict, **fixed):
    """``cls`` from ``fixed`` and the ``values`` that name its fields; a field
    that neither gives keeps its default."""
    names = {f.name for f in fields(cls)}
    return cls(**{**{k: v for k, v in values.items() if k in names}, **fixed})


def _given(overrides: dict | None) -> dict:
    return {k: v for k, v in (overrides or {}).items() if v is not None}


def _absolute_paths(section: dict, base: Path) -> dict:
    """``section`` with its ``x``/``y`` data paths made absolute, a relative one
    read against ``base``."""
    return {
        key: os.path.abspath(base / value) if key in ("x", "y") else value
        for key, value in section.items()
    }


def _data_source(level: dict, where: str, fidelity: str) -> DataSource:
    for key in ("x", "y"):
        if key not in level:
            raise InputError(f"missing required config key '{where}.{key}'")
    return _build(
        DataSource, level, x=Path(level["x"]), y=Path(level["y"]),
        fidelity=level.get("fidelity") or fidelity,
    )


_CHAIN_ENDS = {"lf_data": 0, "hf_data": -1}


def _fidelity_chain(
    raw: dict, top: dict, base: Path, data_overrides: dict | None
) -> tuple[tuple[DataSource, str], ...]:
    """The fidelity levels to fuse, lowest first, each with its model kind.

    Reads either form of the checked config ``top`` as a list of levels,
    folds the ``lf_data``/``hf_data`` path overrides, read against the
    working directory, into the lowest/highest level, and writes the levels
    back to ``raw`` in its form with every data path absolute.
    """
    flags = {
        key: _absolute_paths(_given((data_overrides or {}).get(key)), Path())
        for key in _CHAIN_ENDS
    }
    chain = "fidelity_chain" in top
    if chain:
        mixed = [k for k in ("lf_data", "hf_data", "lf_model", "mf_model") if k in top]
        if mixed:
            raise InputError(
                f"config gives both 'fidelity_chain' and {mixed[0]!r}; "
                "give the fidelity levels in one form"
            )
        levels = list(top["fidelity_chain"])
        if len(levels) < 2:
            raise InputError("fidelity_chain must list at least two fidelity levels")
        names = [f"fidelity_chain[{i}]" for i in range(len(levels))]
        kinds = [level.get("model", "gpr") for level in levels]
        fidelities = [f"level{i}" for i in range(len(levels))]
    else:
        if not any(key in top or flags[key] for key in _CHAIN_ENDS):
            return ()
        names, fidelities = list(_CHAIN_ENDS), ["LF", "HF"]
        levels = [top.get(key, {}) for key in names]
        kinds = [top.get(key, {}).get("kind", "gpr") for key in ("lf_model", "mf_model")]
    levels = [_absolute_paths(level, base) for level in levels]
    for key, end in _CHAIN_ENDS.items():
        levels[end] = {**levels[end], **flags[key]}
    if chain:
        raw["fidelity_chain"] = levels
    else:
        raw.update((key, level) for key, level in zip(names, levels) if level)
    return tuple(
        (_data_source(level, name, fidelity), kind)
        for level, name, fidelity, kind in zip(levels, names, fidelities, kinds)
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config {path} must be a JSON object")
    top = _SCHEMA(raw, "")
    base = path.parent

    if seed_override is not None:
        top["seed"] = seed_override
    split_given = {**top.get("split", {}), **_given(split_overrides)}
    # The run's seed, the file's or the default, is the split's.
    split = _build(SplitSpec, {**top, **split_given})
    raw["seed"] = seed = split.seed
    if _given(split_overrides):
        raw["split"] = split_given

    data = None
    if "data" in top:
        raw["data"] = _absolute_paths(top["data"], base)
        data = _data_source(raw["data"], "data", "data")
    chain = _fidelity_chain(raw, top, base, data_overrides)
    model_kind = top.get("model", {}).get("kind", "gpr")
    gpr = top.get("gpr", {})
    mlp = top.get("mlp", {})
    convergence = top.get("convergence", {})

    if top.get("out_dir") is not None:
        raw["out_dir"] = os.path.abspath(base / top["out_dir"])
    out_dir = out_override if out_override is not None else raw.get("out_dir")
    config = RunConfig(
        seed=seed,
        out_dir=Path(out_dir) if out_dir is not None else None,
        split=split,
        data=data,
        fidelity_chain=chain,
        model_kind=model_kind,
        gpr_grid=_build(GprGrid, gpr, bounds=_build(HyperBounds, gpr), seed=seed),
        mlp_grid=_build(MlpGrid, mlp, train=_build(TrainConfig, mlp, seed=seed)),
        convergence_sizes=convergence.get("sizes", ()),
        convergence_model=convergence.get("model", model_kind),
        raw=raw,
    )
    for key in UNREAD_MLP_KEYS:
        if key in mlp:
            warnings.warn(f"config key 'mlp.{key}' has no effect: full-batch L-BFGS-B "
                          "training does not read it")
    return config

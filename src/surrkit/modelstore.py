"""Versioned on-disk bundles for trained models, scalers, and metadata.

A bundle is a directory of three files, whatever the model:

    <project>_v<k>/
        meta.json      model type, hyperparameters, training metadata, and
                       the file, format and shape of each payload array; a
                       composite nests its stages under "lf" and "mf"
        payload.txt    every array of every stage (payload.bin if binary)
        CHECKSUMS      sha256 of the payload file and of meta.json

The payload holds the arrays in the order meta.json lists them, depth first
and "lf" before "mf". A text payload has one section per array: a ``rows
cols`` header, then one line per row of shortest round-trip floats
(``data.format_rows``), so a reloaded model predicts exactly as the saved
one. A binary payload is one little-endian float64 blob, C order, which the
shapes cut into arrays. A GPR stage stores no Cholesky factor: a loaded
model rebuilds it from ``X_train``, the kernel and ``training.jitter_used``
on its first variance request (``gpr.GprModel.L``).

Format 1 bundles still load. There each array is a file under ``payload/``,
and a composite's stages are nested bundles in ``lf_model/`` and
``mf_model/`` whose CHECKSUMS the parent's CHECKSUMS covers. Such a file is
a one-section payload, so one parser and one model builder serve both
formats; the format decides only where a stage's metadata and arrays are
found. A stored ``L`` payload is read and ignored.

Saving never overwrites and never publishes a partial bundle: it writes a
hidden staging directory and renames it to the first free
``<project>_v<k>``, moving on to the next ``k`` if a concurrent save took
the name. A save that raises removes its staging directory; a killed one
leaves it under its hidden name, never as a version. Loading reads
each file CHECKSUMS lists once, so the bytes it hashes are the bytes it
parses, and rejects a payload that CHECKSUMS does not list or that holds a
NaN or an infinity, so a loaded model's arrays are finite.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import secrets
import shutil
from bisect import bisect_right
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path

import numpy as np

from surrkit import __version__ as _tool_version
from surrkit.data import format_rows
from surrkit.errors import InputError, StoreError
from surrkit.gpr import GprModel, KernelSpec
from surrkit.mlp import MlpArchitecture, MlpModel
from surrkit.multifid import FittedSurrogate, MfComposite, TensorLayout
from surrkit.preprocess import StandardScaler
from surrkit.tuner import MODEL_KINDS

FORMAT_VERSION = 2
PAYLOAD_FORMATS = ("text", "binary")
_PAYLOAD_FILES = {"text": "payload.txt", "binary": "payload.bin"}


def _json_number(value, where: str, kinds: tuple = (int, float)):
    """``value`` if its type is one of ``kinds``; a JSON bool is no number."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{where} must be {names}, got {value!r}")
    return value


def _json_float(value, where: str) -> float:
    """``_json_number(value, where)`` as a float; an integer past the float
    range is refused under ``where``, not as "int too large to convert"."""
    try:
        return float(_json_number(value, where))
    except OverflowError:
        raise ValueError(f"{where} must be a float, got an integer past the float range") from None


def _printable(path: Path) -> str:
    """``path`` with each non-printable character backslash-escaped, so a
    name read from a bundle cannot move the terminal's cursor."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


def _parse_payload(raw: np.ndarray, path: Path, fmt: str, shapes: dict) -> dict[str, np.ndarray]:
    """The arrays of a payload file, from its bytes as a uint8 array and each
    section's key and shape in file order, all values in one conversion."""
    labels = [str(path) if len(shapes) == 1 else f"{path}[{key}]" for key in shapes]
    sizes = [rows * cols for rows, cols in shapes.values()]
    if fmt == "text":
        lines = str(raw, "utf-8").splitlines()
        tokens, at = [], 0
        for k, (label, shape) in enumerate(zip(labels, shapes.values())):
            try:
                rows, cols = map(int, lines[at].split())
            except (IndexError, ValueError):
                raise StoreError(f"{label}: text payload needs a 'rows cols' header") from None
            if (rows, cols) != shape:
                raise StoreError(
                    f"{label}: payload header {rows}x{cols} disagrees with metadata "
                    f"shape {shape}"
                )
            # The last section takes every line left, so stray lines fail its count.
            end = at + 1 + rows if k + 1 < len(sizes) else len(lines)
            section = " ".join(lines[at + 1 : end]).split()
            if len(section) != sizes[k]:
                raise StoreError(f"{label}: expected {sizes[k]} values, got {len(section)}")
            tokens += section
            at = end
        values = np.array(tokens, dtype=np.float64)
    else:
        if raw.size % 8:
            raise StoreError(f"{path}: size is not a whole number of float64 values")
        values = raw.view("<f8").astype(np.float64, copy=False)
        if values.size != sum(sizes):
            raise StoreError(f"{path}: expected {sum(sizes)} values, got {values.size}")
    bounds = list(accumulate(sizes, initial=0))
    finite = np.isfinite(values)
    if not finite.all():
        first = bisect_right(bounds, int(np.argmin(finite))) - 1
        raise StoreError(f"{labels[first]}: payload holds non-finite values")
    return {
        key: values[lo:hi].reshape(shape)
        for (key, shape), lo, hi in zip(shapes.items(), bounds, bounds[1:])
    }


def _read_raw(path: Path) -> np.ndarray:
    """A file's bytes as a uint8 array, which binary payloads are viewed through."""
    with open(path, "rb", buffering=0) as fh:
        raw = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        if fh.readinto(raw) != raw.size:
            raise StoreError(f"short read from {path}")
    return raw


def _read_bundle(bundle_dir: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A bundle directory's meta.json, parsed once its version is one this
    build reads, and every file CHECKSUMS lists by name, checked by sha256."""
    try:
        meta_raw = _read_raw(bundle_dir / "meta.json")
    except (FileNotFoundError, NotADirectoryError):
        raise StoreError(f"not a model bundle (no meta.json): {bundle_dir}") from None
    try:
        meta = json.loads(str(meta_raw, "utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers bad JSON and UTF-8
        raise StoreError(f"corrupted meta.json in {bundle_dir}: {exc}") from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if type(version) is bool or version not in (1, FORMAT_VERSION):
        raise StoreError(
            f"unsupported bundle format_version {version!r}; this build reads "
            f"versions 1 and {FORMAT_VERSION}"
        )

    checksums = bundle_dir / "CHECKSUMS"
    try:
        # Lines end at "\n" alone, so that no changed byte reads as the same list.
        lines = str(_read_raw(checksums), "utf-8").split("\n")
    except FileNotFoundError:
        raise StoreError(f"bundle is missing its CHECKSUMS file: {bundle_dir}") from None
    except UnicodeDecodeError:
        raise StoreError(f"{checksums} is not UTF-8 text") from None
    entries = [line.partition("  ") for line in lines if line.strip()]
    if "meta.json" not in {rel for _, _, rel in entries}:
        raise StoreError(f"{checksums} does not cover meta.json")
    files = {}
    for expected, _, rel in entries:
        target = bundle_dir / rel
        try:
            raw = meta_raw if rel == "meta.json" else _read_raw(target)
        # A NUL byte in a listed name is a ValueError from open.
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
            raise StoreError(f"file listed in CHECKSUMS is missing: {_printable(target)}") from None
        actual = hashlib.sha256(raw).hexdigest()
        if actual != expected:
            raise StoreError(
                f"checksum mismatch for {_printable(target)}: expected {expected[:16]}..., "
                f"got {actual[:16]}... (corrupted or edited file)"
            )
        files[rel] = raw
    return meta, files


def _load_scaler(arrays: dict[str, np.ndarray], key: str) -> StandardScaler:
    try:
        means, stds = arrays[f"{key}_means"].ravel(), arrays[f"{key}_stds"].ravel()
    except KeyError as exc:
        raise StoreError(f"bundle is missing scaler payload {exc}") from None
    if means.size != stds.size:
        raise StoreError(f"scaler {key!r} has inconsistent parameter lengths")
    return StandardScaler(means, stds, means.size)


def _load_layout(d: dict) -> TensorLayout:
    """``y_layout``: three JSON lists (``units`` may be null), whose entries
    ``TensorLayout`` checks by the rule that names a tensor's."""

    def entries(key: str) -> tuple:
        value = d[key]
        if type(value) is not list:
            raise TypeError(f"y_layout.{key} must be a list, got {value!r}")
        return tuple(value)

    units = entries("units") if d.get("units") is not None else None
    try:
        return TensorLayout(entries("scalar_names"), entries("coord_labels"), units)
    except InputError as exc:
        raise ValueError(f"y_layout: {exc}") from None


def _publish(staging: Path, project_name: str) -> Path:
    """Rename ``staging`` to the first free ``<project>_v<k>`` beside it.

    A name that exists is skipped without a rename, because renaming onto an
    empty directory would replace it. A rename that loses a name to a
    concurrent save fails, the name then being a nonempty directory, and
    moves on to the next ``k``.
    """
    version = 1
    while True:
        bundle_dir = staging.parent / f"{project_name}_v{version}"
        if not os.path.lexists(bundle_dir):
            try:
                os.rename(staging, bundle_dir)
                return bundle_dir
            except OSError as exc:
                if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST, errno.ENOTDIR):
                    raise
        version += 1


def save_model(
    obj: FittedSurrogate | MfComposite,
    path: str | Path,
    project_name: str,
    payload_format: str = "text",
) -> Path:
    """Write a versioned bundle directory and return its path.

    A save that fails partway removes what it wrote and claims no version.
    """
    if payload_format not in PAYLOAD_FORMATS:
        raise StoreError(f"payload_format must be one of {PAYLOAD_FORMATS}")
    parent = Path(path)
    parent.mkdir(parents=True, exist_ok=True)
    staging = parent / f".{project_name}.{secrets.token_hex(8)}.partial"
    staging.mkdir()
    try:
        _write_bundle(obj, staging, payload_format)
        return _publish(staging, project_name)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _write_bundle(obj, bundle_dir: Path, payload_format: str) -> None:
    """Write ``obj`` into the existing, empty directory ``bundle_dir``."""
    entry = {"file": _PAYLOAD_FILES[payload_format], "format": payload_format}
    arrays: list[np.ndarray] = []
    meta = _stage_meta(obj, arrays, entry)
    payload = bundle_dir / entry["file"]
    with open(payload, "wb") as fh:
        for arr in arrays:
            if payload_format == "text":
                header = f"{arr.shape[0]} {arr.shape[1]}"
                fh.write("\n".join([header, *format_rows(arr), ""]).encode("utf-8"))
            else:
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
    (bundle_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    lines = [
        f"{hashlib.sha256((bundle_dir / name).read_bytes()).hexdigest()}  {name}"
        for name in (entry["file"], "meta.json")
    ]
    (bundle_dir / "CHECKSUMS").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _base_meta(model_type: str, fidelity: str) -> dict:
    training = {"timestamp": datetime.now(timezone.utc).isoformat(), "tool_version": _tool_version}
    return {"format_version": FORMAT_VERSION, "model_type": model_type,
            "fidelity_level": fidelity, "training": training}


def _stage_meta(obj, arrays: list[np.ndarray], entry: dict) -> dict:
    """The meta.json tree of ``obj``. Each stage's arrays go onto ``arrays``
    in the order its "payloads" lists them, each listed as ``entry`` (file
    and format) plus its shape."""
    if isinstance(obj, MfComposite):
        meta = _base_meta("mf-composite", obj.mf.fidelity)
        meta["dims"] = {"input_dim": obj.input_dim, "lf_output_dim": obj.lf_output_dim,
                        "hf_output_dim": obj.output_dim}
        meta["lf"] = _stage_meta(obj.lf, arrays, entry)
        meta["mf"] = _stage_meta(obj.mf, arrays, entry)
        return meta
    if not isinstance(obj, FittedSurrogate):
        raise StoreError(f"cannot persist object of type {type(obj).__name__}")

    named = {"x_scaler_means": obj.x_scaler.means, "x_scaler_stds": obj.x_scaler.stds,
             "y_scaler_means": obj.y_scaler.means, "y_scaler_stds": obj.y_scaler.stds}
    model = obj.model
    if isinstance(model, GprModel):
        meta = _base_meta("gpr", obj.fidelity)
        meta["hyperparameters"] = model.kernel.record()
        named.update(X_train=model.X_train, alpha=model.alpha)
        meta["training"].update(
            lml=model.lml, jitter_used=model.jitter_used, n_train=model.n_train,
            input_dim=model.input_dim, y_dim=model.y_dim,
        )
    elif isinstance(model, MlpModel):
        meta = _base_meta("mlp", obj.fidelity)
        arch = model.architecture
        meta["hyperparameters"] = {
            "input_dim": arch.input_dim, "hidden_layers": list(arch.hidden_layers),
            "output_dim": arch.output_dim, "activation": arch.activation,
        }
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            named[f"W{i}"] = W
            named[f"b{i}"] = b
        history = model.training_history
        meta["training"].update(
            epochs_run=len(history),
            final_train_loss=history[-1][1] if history else None,
            final_val_loss=history[-1][2] if history else None,
        )
    else:
        raise StoreError(f"cannot persist model of type {type(model).__name__}")

    layout = obj.y_layout
    meta["y_layout"] = {
        "scalar_names": list(layout.scalar_names),
        "coord_labels": list(layout.coord_labels),
        "units": list(layout.units) if layout.units is not None else None,
    }
    meta["payloads"] = {}
    for name, arr in named.items():
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        arrays.append(arr)
        meta["payloads"][name] = {**entry, "shape": list(arr.shape)}
    return meta


def load_model(path: str | Path) -> FittedSurrogate | MfComposite:
    """Reconstruct a model from a bundle, verifying version and checksums."""
    bundle_dir = Path(path)
    meta, files = _read_bundle(bundle_dir)
    # A missing key, a value of the wrong type, an integer past the float
    # range or numbers that the model constructors reject: a malformed bundle.
    try:
        if meta["format_version"] == 1:
            _graft_format_1(bundle_dir, meta, files)
        return _build(bundle_dir, meta, _read_arrays(bundle_dir, meta, files))
    except KeyError as exc:
        raise StoreError(f"malformed bundle {bundle_dir}: meta.json lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError, AttributeError, RecursionError,
            InputError) as exc:
        raise StoreError(f"malformed bundle {bundle_dir}: {exc}") from None


def _graft_format_1(bundle_dir: Path, meta: dict, files: dict, prefix: str = "") -> None:
    """Put a format-1 bundle's stages where format 2 keeps them: each nested
    bundle's meta.json under its parent's "lf" or "mf" key, and its checked
    files into ``files``, every file named from ``bundle_dir``."""
    if meta.get("model_type") == "mf-composite":
        for key in ("lf", "mf"):
            child = f"{prefix}{meta['children'][key]}/"
            meta[key], child_files = _read_bundle(bundle_dir / child)
            files.update((child + rel, raw) for rel, raw in child_files.items())
            _graft_format_1(bundle_dir, meta[key], files, child)
    else:
        for entry in meta.get("payloads", {}).values():
            entry["file"] = prefix + entry["file"]


def _read_arrays(bundle_dir: Path, meta: dict, files: dict) -> dict[str, np.ndarray]:
    """Every payload array of the tree, each payload file parsed once. An
    array's key is its stage's path and its name, "lf/alpha" for instance;
    the stages are walked in payload order, depth first, "lf" before "mf"."""
    by_file: dict[tuple[str, str], dict[str, tuple]] = {}
    stack = [("", meta)]
    while stack:
        stage, node = stack.pop()
        if node.get("model_type") == "mf-composite":
            stack += [(f"{stage}mf/", node["mf"]), (f"{stage}lf/", node["lf"])]
            continue
        for name, entry in node.get("payloads", {}).items():
            shapes = by_file.setdefault((entry["file"], entry["format"]), {})
            shapes[stage + name] = tuple(entry["shape"])
    arrays = {}
    for (rel, fmt), shapes in by_file.items():
        if rel not in files:
            raise StoreError(f"payload {bundle_dir / rel} is not listed in CHECKSUMS")
        arrays.update(_parse_payload(files[rel], bundle_dir / rel, fmt, shapes))
    return arrays


def _build(bundle_dir: Path, meta: dict, arrays: dict, stage: str = ""):
    model_type = meta.get("model_type")
    if model_type in MODEL_KINDS:
        return _build_surrogate(bundle_dir, meta, arrays, stage)
    if model_type != "mf-composite":
        raise StoreError(f"unknown model_type {model_type!r} in {bundle_dir}")
    lf = _build(bundle_dir, meta["lf"], arrays, f"{stage}lf/")
    mf = _build(bundle_dir, meta["mf"], arrays, f"{stage}mf/")
    if not isinstance(mf, FittedSurrogate):
        raise StoreError("the top model of a composite must be a single-model bundle")
    dims = {"input_dim": lf.input_dim, "lf_output_dim": lf.output_dim,
            "hf_output_dim": mf.output_dim}
    for key, value in dims.items():
        if _json_number(meta["dims"][key], f"dims.{key}", (int,)) != value:
            raise StoreError(
                f"composite {bundle_dir} records dims.{key} = {meta['dims'][key]}, "
                f"but its child models give {value}"
            )
    return MfComposite(lf=lf, mf=mf)


def _build_surrogate(bundle_dir: Path, meta: dict, arrays: dict, stage: str) -> FittedSurrogate:
    x_scaler = _load_scaler(arrays, f"{stage}x_scaler")
    y_scaler = _load_scaler(arrays, f"{stage}y_scaler")
    hyper = meta["hyperparameters"]

    if meta["model_type"] == "gpr":
        X_train = arrays[f"{stage}X_train"]
        alpha = arrays[f"{stage}alpha"]
        if alpha.shape[0] != X_train.shape[0] or alpha.shape[1] != y_scaler.fitted_on:
            raise StoreError(
                f"inconsistent GPR payload shapes: X_train {X_train.shape}, "
                f"alpha {alpha.shape}, y scaler of {y_scaler.fitted_on} columns"
            )
        spec = KernelSpec(
            kind=hyper["kind"],
            length_scale=[_json_float(v, f"hyperparameters.length_scale[{i}]")
                          for i, v in enumerate(hyper["length_scale"])],
            **{key: _json_float(hyper[key], f"hyperparameters.{key}")
               for key in ("signal_variance", "nu", "noise")},
        )
        spec.length_scale_vector(X_train.shape[1])  # one entry, or one per input dim
        training = meta.get("training", {})
        # The jitter rebuilds the Cholesky factor, so it must be there.
        jitter_used = training.get("jitter_used")
        if type(jitter_used) not in (int, float) or not 0.0 <= jitter_used < math.inf:
            raise StoreError(
                f"malformed bundle {bundle_dir}: training.jitter_used must be a "
                f"finite number >= 0, got {jitter_used!r}"
            )
        jitter_used = _json_float(jitter_used, "training.jitter_used")
        # |k| <= sf2, so this bounds the stage's raw output, (Ks.T @ alpha)
        # * y std + y mean, at every site: a stage whose bound overflows
        # would fail at predict, blaming the sites.
        with np.errstate(over="ignore"):
            bound = (spec.signal_variance * np.abs(alpha).sum(axis=0) * y_scaler.divisor
                     + np.abs(y_scaler.means))
        if not np.isfinite(bound).all():
            raise StoreError(
                f"malformed bundle {bundle_dir}: {stage.replace('/', '.')}hyperparameters."
                f"signal_variance = {spec.signal_variance!r} overflows the GPR output "
                f"(signal_variance * sum |alpha| * y std + |y mean| is not finite)"
            )
        model: GprModel | MlpModel = GprModel(
            kernel=spec,
            X_train=X_train,
            alpha=alpha,
            y_dim=alpha.shape[1],
            lml=_json_float(training.get("lml", math.nan), "training.lml"),
            jitter_used=jitter_used,
        )
        # Training inputs past this bound would overflow the kernel at every
        # prediction, with an error that blames the sites.
        largest = np.abs(X_train).max(initial=0.0)
        bound = float(model._length_scales.min()) * model._unit_bound
        if not largest < bound:
            raise StoreError(
                f"malformed bundle {bundle_dir}: {stage}X_train holds a value of magnitude "
                f"{largest:.3g}; a GPR stage takes training inputs below "
                f"{bound:.3g}, where its kernel cannot overflow"
            )
    else:
        arch = MlpArchitecture(
            input_dim=_json_number(hyper["input_dim"], "hyperparameters.input_dim", (int,)),
            hidden_layers=tuple(
                _json_number(w, "hyperparameters.hidden_layers", (int,))
                for w in hyper["hidden_layers"]
            ),
            output_dim=_json_number(hyper["output_dim"], "hyperparameters.output_dim", (int,)),
            activation=hyper["activation"],
        )
        dims = arch.layer_dims()
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            W = arrays[f"{stage}W{i}"]
            b = arrays[f"{stage}b{i}"].ravel()
            if W.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise StoreError(
                    f"layer {i} payload shapes {W.shape}/{b.shape} do not match "
                    f"architecture {fan_in}->{fan_out}"
                )
            weights.append(W)
            biases.append(b)
        model = MlpModel(architecture=arch, weights=weights, biases=biases)

    layout = _load_layout(meta["y_layout"])
    if y_scaler.fitted_on != layout.m * layout.l:
        raise StoreError(
            f"y scaler covers {y_scaler.fitted_on} columns but the output layout "
            f"has {layout.m * layout.l}"
        )
    return FittedSurrogate(
        model=model,
        x_scaler=x_scaler,
        y_scaler=y_scaler,
        y_layout=layout,
        fidelity=meta.get("fidelity_level", ""),
    )

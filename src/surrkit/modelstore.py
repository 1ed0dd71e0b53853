"""Versioned on-disk bundles for trained models, scalers, and metadata.

A bundle is a directory that fully describes one trained surrogate:

    <project>_v<k>/
        meta.json        model type, hyperparameters, training metadata
        CHECKSUMS        sha256 of meta.json and of each payload file; a
                         composite's lists its meta.json and its children's
                         CHECKSUMS instead of payloads
        payload/*.txt    numeric arrays (text by default, optional binary)
        lf_model/        nested bundles, composites only
        mf_model/

Saving never overwrites: each save under the same project name claims the
first free ``_v<k>`` suffix with an exclusive ``mkdir``, so concurrent saves
get distinct versions. Text payloads store every float in its shortest
round-trip decimal form, so a reloaded model reproduces the original's
predictions exactly. Binary payloads are raw little-endian float64, C order,
with shapes recorded in the metadata. Bundles are self-describing; loading
needs no external configuration. Loading reads each file CHECKSUMS lists
once, so the bytes it hashes are the bytes it parses, and it rejects a payload
that CHECKSUMS does not list or that holds a NaN or an infinity: a loaded
model's arrays are finite, and its predictions need not re-check them.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from surrkit import __version__ as _tool_version
from surrkit.data import _format_float
from surrkit.errors import InputError, StoreError
from surrkit.gpr import GprModel, KernelSpec
from surrkit.mlp import MlpArchitecture, MlpModel
from surrkit.multifid import FittedSurrogate, MfComposite, TensorLayout
from surrkit.preprocess import StandardScaler
from surrkit.tuner import MODEL_KINDS

FORMAT_VERSION = 1
PAYLOAD_FORMATS = ("text", "binary")


def _save_array(path: Path, arr: np.ndarray, fmt: str) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "text":
        lines = [f"{arr.shape[0]} {arr.shape[1]}"]
        for row in arr:
            lines.append(" ".join(_format_float(v) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path.write_bytes(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _parse_array(raw: np.ndarray, path: Path, fmt: str, shape: tuple[int, int]) -> np.ndarray:
    """Array from a payload file's bytes, given as a uint8 array."""
    if fmt == "text":
        lines = str(raw, "utf-8").splitlines()
        header = lines[0].split()
        rows, cols = int(header[0]), int(header[1])
        if (rows, cols) != tuple(shape):
            raise StoreError(
                f"{path}: payload header {rows}x{cols} disagrees with metadata "
                f"shape {shape}"
            )
        values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    else:
        if raw.size % 8:
            raise StoreError(f"{path}: size is not a whole number of float64 values")
        values = raw.view("<f8").astype(np.float64, copy=False)
    if values.size != shape[0] * shape[1]:
        raise StoreError(f"{path}: expected {shape[0] * shape[1]} values, got {values.size}")
    if not np.isfinite(values).all():
        raise StoreError(f"{path}: payload holds non-finite values")
    return values.reshape(shape)


def _write_meta_and_checksums(bundle_dir: Path, meta: dict, files: list[Path]) -> None:
    """Write meta.json, then a CHECKSUMS covering ``files`` and meta.json."""
    meta_path = bundle_dir / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    lines = [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(bundle_dir).as_posix()}"
        for p in [*files, meta_path]
    ]
    (bundle_dir / "CHECKSUMS").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_checked(bundle_dir: Path) -> dict[str, np.ndarray]:
    """Every file CHECKSUMS lists, by its listed name: read once, as a uint8
    array that binary payloads are then viewed through without a copy, and
    checked against its sha256."""
    checksums = bundle_dir / "CHECKSUMS"
    if not checksums.exists():
        raise StoreError(f"bundle is missing its CHECKSUMS file: {bundle_dir}")
    entries = [
        line.partition("  ")
        for line in checksums.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if "meta.json" not in {rel for _, _, rel in entries}:
        raise StoreError(f"{checksums} does not cover meta.json")
    files = {}
    for expected, _, rel in entries:
        target = bundle_dir / rel
        try:
            with open(target, "rb", buffering=0) as fh:
                raw = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
                if fh.readinto(raw) != raw.size:
                    raise StoreError(f"short read from {target}")
        except (FileNotFoundError, IsADirectoryError):
            raise StoreError(f"file listed in CHECKSUMS is missing: {target}") from None
        actual = hashlib.sha256(raw).hexdigest()
        if actual != expected:
            raise StoreError(
                f"checksum mismatch for {target}: expected {expected[:16]}..., "
                f"got {actual[:16]}... (corrupted or edited file)"
            )
        files[rel] = raw
    return files


def _layout_to_dict(layout: TensorLayout) -> dict:
    return {
        "scalar_names": list(layout.scalar_names),
        "coord_labels": list(layout.coord_labels),
        "units": list(layout.units) if layout.units is not None else None,
    }


def _layout_from_dict(d: dict) -> TensorLayout:
    return TensorLayout(
        scalar_names=tuple(d["scalar_names"]),
        coord_labels=tuple(d["coord_labels"]),
        units=tuple(d["units"]) if d.get("units") is not None else None,
    )


class _PayloadWriter:
    def __init__(self, bundle_dir: Path, fmt: str):
        self.bundle_dir = bundle_dir
        self.fmt = fmt
        self.entries: dict[str, dict] = {}
        self.files: list[Path] = []

    def add(self, name: str, arr: np.ndarray) -> None:
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        suffix = "txt" if self.fmt == "text" else "bin"
        rel = f"payload/{name}.{suffix}"
        path = self.bundle_dir / rel
        _save_array(path, arr, self.fmt)
        self.entries[name] = {"file": rel, "format": self.fmt, "shape": list(arr.shape)}
        self.files.append(path)


def _scaler_payloads(writer: _PayloadWriter, prefix: str, scaler: StandardScaler) -> None:
    writer.add(f"{prefix}_means", scaler.means)
    writer.add(f"{prefix}_stds", scaler.stds)


def _load_scaler(read, payloads: dict, prefix: str) -> StandardScaler:
    for key in (f"{prefix}_means", f"{prefix}_stds"):
        if key not in payloads:
            raise StoreError(f"bundle is missing scaler payload {key!r}")
    means = read(f"{prefix}_means").ravel()
    stds = read(f"{prefix}_stds").ravel()
    if means.size != stds.size:
        raise StoreError(f"scaler {prefix!r} has inconsistent parameter lengths")
    return StandardScaler(means, stds, means.size)


def _read_payload(
    bundle_dir: Path, files: dict[str, np.ndarray], payloads: dict, name: str
) -> np.ndarray:
    entry = payloads[name]
    path = bundle_dir / entry["file"]
    if entry["file"] not in files:
        raise StoreError(f"payload {path} is not listed in CHECKSUMS")
    return _parse_array(files[entry["file"]], path, entry["format"], tuple(entry["shape"]))


def _claim_version_dir(path: Path, project_name: str) -> Path:
    """Create and return the first free ``<project>_v<k>`` under ``path``.

    The exclusive ``mkdir`` is the claim, so concurrent saves under one
    project name each get their own version.
    """
    path.mkdir(parents=True, exist_ok=True)
    version = 1
    while True:
        bundle_dir = path / f"{project_name}_v{version}"
        try:
            bundle_dir.mkdir()
            return bundle_dir
        except FileExistsError:
            version += 1


def save_model(
    obj: FittedSurrogate | MfComposite,
    path: str | Path,
    project_name: str,
    payload_format: str = "text",
) -> Path:
    """Write a versioned bundle directory and return its path."""
    if payload_format not in PAYLOAD_FORMATS:
        raise StoreError(f"payload_format must be one of {PAYLOAD_FORMATS}")
    bundle_dir = _claim_version_dir(Path(path), project_name)
    _write_bundle(obj, bundle_dir, payload_format)
    return bundle_dir


def _write_bundle(obj, bundle_dir: Path, payload_format: str) -> None:
    """Write ``obj`` into the existing, empty directory ``bundle_dir``."""
    if isinstance(obj, MfComposite):
        _write_composite(obj, bundle_dir, payload_format)
    elif isinstance(obj, FittedSurrogate):
        _write_surrogate(obj, bundle_dir, payload_format)
    else:
        raise StoreError(f"cannot persist object of type {type(obj).__name__}")


def _base_meta(model_type: str, fidelity: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "fidelity_level": fidelity,
        "training": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "tool_version": _tool_version,
        },
    }


def _write_surrogate(surr: FittedSurrogate, bundle_dir: Path, payload_format: str) -> None:
    writer = _PayloadWriter(bundle_dir, payload_format)
    _scaler_payloads(writer, "x_scaler", surr.x_scaler)
    _scaler_payloads(writer, "y_scaler", surr.y_scaler)

    model = surr.model
    if isinstance(model, GprModel):
        meta = _base_meta("gpr", surr.fidelity)
        spec = model.kernel
        meta["hyperparameters"] = {
            "kind": spec.kind,
            "length_scale": np.atleast_1d(spec.length_scale).tolist(),
            "signal_variance": spec.signal_variance,
            "nu": spec.nu,
            "noise": spec.noise,
        }
        writer.add("X_train", model.X_train)
        writer.add("L", model.L)
        writer.add("alpha", model.alpha)
        meta["training"].update(
            {
                "lml": model.lml,
                "jitter_used": model.jitter_used,
                "n_train": model.n_train,
                "input_dim": model.input_dim,
                "y_dim": model.y_dim,
            }
        )
    elif isinstance(model, MlpModel):
        meta = _base_meta("mlp", surr.fidelity)
        arch = model.architecture
        meta["hyperparameters"] = {
            "input_dim": arch.input_dim,
            "hidden_layers": list(arch.hidden_layers),
            "output_dim": arch.output_dim,
            "activation": arch.activation,
        }
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            writer.add(f"W{i}", W)
            writer.add(f"b{i}", b)
        history = model.training_history
        meta["training"].update(
            {
                "epochs_run": len(history),
                "final_train_loss": history[-1][1] if history else None,
                "final_val_loss": history[-1][2] if history else None,
            }
        )
    else:
        raise StoreError(f"cannot persist model of type {type(model).__name__}")

    meta["y_layout"] = _layout_to_dict(surr.y_layout)
    meta["payloads"] = writer.entries
    _write_meta_and_checksums(bundle_dir, meta, writer.files)


def _write_composite(comp: MfComposite, bundle_dir: Path, payload_format: str) -> None:
    meta = _base_meta("mf-composite", comp.mf.fidelity)
    meta["dims"] = {
        "input_dim": comp.input_dim,
        "lf_output_dim": comp.lf_output_dim,
        "hf_output_dim": comp.hf_output_dim,
    }
    meta["children"] = {"lf": "lf_model", "mf": "mf_model"}
    meta["payloads"] = {}
    # Children first, so this bundle's CHECKSUMS can cover theirs.
    for child, model in (("lf_model", comp.lf), ("mf_model", comp.mf)):
        (bundle_dir / child).mkdir()
        _write_bundle(model, bundle_dir / child, payload_format)
    children = [bundle_dir / child / "CHECKSUMS" for child in ("lf_model", "mf_model")]
    _write_meta_and_checksums(bundle_dir, meta, children)


def load_model(path: str | Path) -> FittedSurrogate | MfComposite:
    """Reconstruct a model from a bundle, verifying version and checksums."""
    bundle_dir = Path(path)
    meta_path = bundle_dir / "meta.json"
    if not meta_path.exists():
        raise StoreError(f"not a model bundle (no meta.json): {bundle_dir}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupted meta.json in {bundle_dir}: {exc}") from None

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"unsupported bundle format_version {version!r}; this build reads "
            f"version {FORMAT_VERSION}"
        )
    files = _read_checked(bundle_dir)

    # A key missing from meta.json, a value of the wrong type, or numbers
    # that the model constructors reject all mean a malformed bundle.
    try:
        model_type = meta.get("model_type")
        if model_type == "mf-composite":
            return _load_composite(bundle_dir, meta)
        if model_type in MODEL_KINDS:
            return _load_surrogate(bundle_dir, meta, model_type, files)
    except KeyError as exc:
        raise StoreError(f"malformed bundle {bundle_dir}: meta.json lacks key {exc}") from None
    except (TypeError, ValueError, InputError) as exc:
        raise StoreError(f"malformed bundle {bundle_dir}: {exc}") from None
    raise StoreError(f"unknown model_type {model_type!r} in {bundle_dir}")


def _load_composite(bundle_dir: Path, meta: dict) -> MfComposite:
    children = meta.get("children", {})
    lf = load_model(bundle_dir / children.get("lf", "lf_model"))
    mf = load_model(bundle_dir / children.get("mf", "mf_model"))
    if not isinstance(mf, FittedSurrogate):
        raise StoreError("the top model of a composite must be a single-model bundle")
    dims = {
        "input_dim": lf.input_dim,
        "lf_output_dim": lf.output_dim,
        "hf_output_dim": mf.output_dim,
    }
    for key, value in dims.items():
        if int(meta["dims"][key]) != value:
            raise StoreError(
                f"composite {bundle_dir} records dims.{key} = {meta['dims'][key]}, "
                f"but its child models give {value}"
            )
    return MfComposite(lf=lf, mf=mf, **dims)


def _load_surrogate(
    bundle_dir: Path, meta: dict, model_type: str, files: dict[str, np.ndarray]
) -> FittedSurrogate:
    payloads = meta.get("payloads", {})
    read = partial(_read_payload, bundle_dir, files, payloads)
    x_scaler = _load_scaler(read, payloads, "x_scaler")
    y_scaler = _load_scaler(read, payloads, "y_scaler")
    hyper = meta["hyperparameters"]

    if model_type == "gpr":
        X_train = read("X_train")
        L = read("L")
        alpha = read("alpha")
        n = X_train.shape[0]
        if L.shape != (n, n) or alpha.shape[0] != n:
            raise StoreError(
                f"inconsistent GPR payload shapes: X_train {X_train.shape}, "
                f"L {L.shape}, alpha {alpha.shape}"
            )
        ls = hyper["length_scale"]
        spec = KernelSpec(
            kind=hyper["kind"],
            length_scale=float(ls[0]) if len(ls) == 1 else np.asarray(ls),
            signal_variance=float(hyper["signal_variance"]),
            nu=float(hyper["nu"]),
            noise=float(hyper["noise"]),
        )
        training = meta.get("training", {})
        model: GprModel | MlpModel = GprModel(
            kernel=spec,
            X_train=X_train,
            L=L,
            alpha=alpha,
            y_dim=alpha.shape[1],
            lml=float(training.get("lml", float("nan"))),
            jitter_used=float(training.get("jitter_used", 0.0)),
        )
    else:
        arch = MlpArchitecture(
            input_dim=int(hyper["input_dim"]),
            hidden_layers=tuple(int(w) for w in hyper["hidden_layers"]),
            output_dim=int(hyper["output_dim"]),
            activation=hyper["activation"],
        )
        dims = arch.layer_dims()
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            W = read(f"W{i}")
            b = read(f"b{i}").ravel()
            if W.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise StoreError(
                    f"layer {i} payload shapes {W.shape}/{b.shape} do not match "
                    f"architecture {fan_in}->{fan_out}"
                )
            weights.append(W)
            biases.append(b)
        model = MlpModel(architecture=arch, weights=weights, biases=biases)

    layout = _layout_from_dict(meta["y_layout"])
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

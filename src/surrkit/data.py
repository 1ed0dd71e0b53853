"""Tensor data standard, flattened training layout, and text/CSV ingestion.

Every dataset enters the toolkit as a rank-3 tensor with axes
``(sample n, scalar m, coordinate l)``: ``n`` independent cases, ``m`` named
scalar fields, each resolved on a shared grid of ``l`` coordinates. Tabular
data (no spatial axis) is the degenerate case ``l = 1``. For training and
inference the tensor is flattened to an ``(n, m*l)`` matrix in scalar-major
column order: columns ``[0, l)`` hold scalar 0 at every coordinate, columns
``[l, 2l)`` hold scalar 1, and so on. Flatten and unflatten are exact
inverses.

Tensor-text file format (bit-exact round trip)::

    n m l                      <- header, ASCII integers, space separated
    # scalar_names: a,b        <- metadata comment lines, "# key: value"
    # units: K,Pa              <- optional
    v v v ... v                <- n*m data lines of l floats each,
    ...                           sample-major then scalar-major

Lines starting with ``#`` are comments; blank lines are ignored. Floats are
written with the shortest decimal representation that round-trips exactly,
so export followed by import reproduces every value bit for bit.

CSV format (RFC-4180 style): header row of scalar names, one row per
sample; implies ``l = 1``.

A uniform coordinate grid per tensor is assumed and enforced: varying-mesh
data is rejected at ingestion.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from surrkit.errors import InputError

TENSOR_TEXT = "tensor-text"
CSV_FORMAT = "csv"

_METADATA_KEYS = ("scalar_names", "coord_labels", "units")


def _format_float(v: float) -> str:
    # repr() emits the shortest decimal string that parses back to the same
    # IEEE-754 double, which is what makes text round trips exact.
    return repr(float(v))


def _default_scalar_names(m: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(m))


def _default_coord_labels(l: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(l))


@dataclass(frozen=True, eq=False)
class DataTensor:
    """Validated rank-3 array with named scalars and named coordinates.

    ``values`` has shape ``(n, m, l)`` and is stored read-only; instances are
    immutable and safe to share across threads.
    """

    values: np.ndarray
    scalar_names: tuple[str, ...]
    coord_labels: tuple[str, ...]
    units: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise InputError(f"tensor values must be rank 3, got rank {values.ndim}")
        n, m, l = values.shape
        if min(n, m, l) < 1:
            raise InputError(f"tensor axes must all be >= 1, got shape {values.shape}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise InputError(
                f"tensor contains a non-finite value at (sample={bad[0]}, "
                f"scalar={bad[1]}, coordinate={bad[2]})"
            )
        names = tuple(str(s) for s in self.scalar_names)
        labels = tuple(str(s) for s in self.coord_labels)
        if len(names) != m:
            raise InputError(f"expected {m} scalar names, got {len(names)}")
        if len(labels) != l:
            raise InputError(f"expected {l} coordinate labels, got {len(labels)}")
        if len(set(names)) != len(names):
            dupes = sorted({s for s in names if names.count(s) > 1})
            raise InputError(f"duplicate scalar names: {dupes}")
        units = self.units
        if units is not None:
            units = tuple(str(u) for u in units)
            if len(units) != m:
                raise InputError(f"expected {m} unit strings, got {len(units)}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "scalar_names", names)
        object.__setattr__(self, "coord_labels", labels)
        object.__setattr__(self, "units", units)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def l(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        scalar_names: list[str] | tuple[str, ...] | None = None,
        coord_labels: list[str] | tuple[str, ...] | None = None,
        units: list[str] | tuple[str, ...] | None = None,
    ) -> "DataTensor":
        """Build a tensor from an array, generating default names as needed."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 2:
            values = values[:, :, np.newaxis]
        if values.ndim != 3:
            raise InputError(f"expected a rank-2 or rank-3 array, got rank {values.ndim}")
        _, m, l = values.shape
        if scalar_names is None:
            scalar_names = _default_scalar_names(m)
        if coord_labels is None:
            coord_labels = _default_coord_labels(l)
        return cls(values, tuple(scalar_names), tuple(coord_labels), units=units)


@dataclass(frozen=True, eq=False)
class FlatMatrix:
    """2-D training layout of a tensor: shape ``(n, m*l)``, scalar-major.

    Column ``j`` holds scalar ``j // l`` at coordinate ``j % l``. Scalar names
    and coordinate labels are carried along so a flattened tensor can be
    reassembled without external bookkeeping.
    """

    values: np.ndarray
    scalar_names: tuple[str, ...] | None = None
    coord_labels: tuple[str, ...] | None = None
    units: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise InputError(f"flat matrix must be rank 2, got rank {values.ndim}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_array(cls, values: np.ndarray) -> "FlatMatrix":
        """Wrap a plain matrix, treating each column as its own l=1 scalar."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise InputError(f"expected a rank-2 array, got rank {values.ndim}")
        return cls(values)

    def with_values(self, values: np.ndarray) -> "FlatMatrix":
        """Same column structure, different numbers (e.g. after scaling)."""
        return FlatMatrix(values, self.scalar_names, self.coord_labels, self.units)


@dataclass(frozen=True, eq=False)
class FidelityDataset:
    """Paired input/output tensors for one fidelity level."""

    fidelity: str
    X: DataTensor
    Y: DataTensor
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.X.n != self.Y.n:
            raise InputError(
                f"input and output sample counts must match: "
                f"{self.X.n} inputs vs {self.Y.n} outputs"
            )

    @property
    def n(self) -> int:
        return self.X.n


def flatten(tensor: DataTensor) -> FlatMatrix:
    """Flatten ``(n, m, l)`` to ``(n, m*l)`` with scalar-major columns."""
    n, m, l = tensor.shape
    return FlatMatrix(
        tensor.values.reshape(n, m * l),
        tensor.scalar_names,
        tensor.coord_labels,
        tensor.units,
    )


def unflatten(
    matrix: FlatMatrix | np.ndarray,
    m: int,
    l: int | None = None,
    scalar_names: tuple[str, ...] | None = None,
    coord_labels: tuple[str, ...] | None = None,
    units: tuple[str, ...] | None = None,
) -> DataTensor:
    """Exact inverse of :func:`flatten`.

    ``l`` may be omitted when the column count determines it. Names default
    to those carried by the matrix, then to generated placeholders.
    """
    if isinstance(matrix, FlatMatrix):
        values = matrix.values
        scalar_names = scalar_names or matrix.scalar_names
        coord_labels = coord_labels or matrix.coord_labels
        units = units or matrix.units
    else:
        values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise InputError(f"expected a rank-2 matrix, got rank {values.ndim}")
    cols = values.shape[1]
    if m < 1:
        raise InputError(f"scalar count must be >= 1, got {m}")
    if cols % m != 0:
        raise InputError(f"{cols} columns cannot be split into {m} scalar blocks")
    inferred_l = cols // m
    if l is not None and l != inferred_l:
        raise InputError(f"{cols} columns is not {m} scalars x {l} coordinates")
    l = inferred_l
    tensor_values = values.reshape(values.shape[0], m, l)
    return DataTensor(
        tensor_values,
        scalar_names if scalar_names is not None else _default_scalar_names(m),
        coord_labels if coord_labels is not None else _default_coord_labels(l),
        units=units,
    )


def _parse_metadata_line(line: str) -> tuple[str, str] | None:
    body = line.lstrip("#").strip()
    if ":" not in body:
        return None
    key, _, value = body.partition(":")
    key = key.strip()
    if key in _METADATA_KEYS:
        return key, value.strip()
    return None


def _split_metadata_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(","))


def _locate_bad_token(lines: list[tuple[int, list[str]]]) -> tuple[int, int, str]:
    for lineno, tokens in lines:
        for col, tok in enumerate(tokens, start=1):
            try:
                float(tok)
            except ValueError:
                return lineno, col, tok
    raise AssertionError("no bad token found")  # pragma: no cover


def import_tensor(path: str | Path, fmt: str = TENSOR_TEXT) -> DataTensor:
    """Read a tensor-text or CSV file into a validated :class:`DataTensor`."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"data file not found: {path}")
    if fmt == TENSOR_TEXT:
        return _import_tensor_text(path)
    if fmt == CSV_FORMAT:
        return _import_csv(path)
    raise InputError(f"unknown data format {fmt!r}; use 'tensor-text' or 'csv'")


def _import_tensor_text(path: Path) -> DataTensor:
    header: tuple[int, int, int] | None = None
    data_lines: list[tuple[int, list[str]]] = []
    metadata: dict[str, str] = {}

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parsed = _parse_metadata_line(line)
                if parsed is not None:
                    metadata[parsed[0]] = parsed[1]
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 3:
                    raise InputError(
                        f"{path}:{lineno}: header must be three integers 'n m l', "
                        f"got {line!r}"
                    )
                try:
                    n, m, l = (int(p) for p in parts)
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: non-integer token in shape header {line!r}"
                    ) from None
                if min(n, m, l) < 1:
                    raise InputError(f"{path}:{lineno}: shape axes must be >= 1")
                header = (n, m, l)
                continue
            data_lines.append((lineno, line.split()))

    if header is None:
        raise InputError(f"{path}: missing 'n m l' shape header")
    n, m, l = header
    if len(data_lines) != n * m:
        raise InputError(
            f"{path}: shape header declares {n}x{m} = {n * m} data lines, "
            f"found {len(data_lines)}"
        )
    for lineno, tokens in data_lines:
        if len(tokens) != l:
            raise InputError(
                f"{path}:{lineno}: expected {l} values on data line, got {len(tokens)}"
            )

    flat_tokens = [tok for _, tokens in data_lines for tok in tokens]
    try:
        values = np.array(flat_tokens, dtype=np.float64)
    except ValueError:
        lineno, col, tok = _locate_bad_token(data_lines)
        raise InputError(
            f"{path}:{lineno}: non-numeric token {tok!r} in column {col}"
        ) from None
    if not np.isfinite(values).all():
        idx = int(np.argmin(np.isfinite(values)))
        lineno, _ = data_lines[idx // l]
        raise InputError(
            f"{path}:{lineno}: non-finite value {flat_tokens[idx]!r} in column "
            f"{idx % l + 1}"
        )

    scalar_names = (
        _split_metadata_list(metadata["scalar_names"])
        if "scalar_names" in metadata
        else _default_scalar_names(m)
    )
    coord_labels = (
        _split_metadata_list(metadata["coord_labels"])
        if "coord_labels" in metadata
        else _default_coord_labels(l)
    )
    units = _split_metadata_list(metadata["units"]) if "units" in metadata else None
    if len(scalar_names) != m:
        raise InputError(
            f"{path}: scalar_names metadata lists {len(scalar_names)} names "
            f"for {m} scalars"
        )
    if len(coord_labels) != l:
        raise InputError(
            f"{path}: coord_labels metadata lists {len(coord_labels)} labels "
            f"for {l} coordinates"
        )
    return DataTensor(values.reshape(n, m, l), scalar_names, coord_labels, units=units)


def _import_csv(path: Path) -> DataTensor:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty CSV file") from None
        names = tuple(name.strip() for name in header)
        if len(set(names)) != len(names):
            dupes = sorted({s for s in names if names.count(s) > 1})
            raise InputError(f"{path}: duplicate scalar names in CSV header: {dupes}")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                raise InputError(
                    f"{path}:{lineno}: expected {len(names)} cells, got {len(row)}"
                )
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: non-numeric token {cell!r} in column {col}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: CSV file has a header but no data rows")
    values = np.array(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise InputError(f"{path}:{int(r) + 2}: non-finite value in column {int(c) + 1}")
    return DataTensor(values[:, :, np.newaxis], names, ("0",))


def export_tensor(tensor: DataTensor, path: str | Path, fmt: str = TENSOR_TEXT) -> Path:
    """Write a tensor so that re-import reproduces it exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == TENSOR_TEXT:
        _export_tensor_text(tensor, path)
    elif fmt == CSV_FORMAT:
        _export_csv(tensor, path)
    else:
        raise InputError(f"unknown data format {fmt!r}; use 'tensor-text' or 'csv'")
    return path


def _check_metadata_tokens(label: str, tokens: tuple[str, ...]) -> None:
    for tok in tokens:
        if "," in tok or "\n" in tok or "\r" in tok:
            raise InputError(f"{label} entry {tok!r} may not contain commas or newlines")


def _export_tensor_text(tensor: DataTensor, path: Path) -> None:
    n, m, l = tensor.shape
    _check_metadata_tokens("scalar name", tensor.scalar_names)
    _check_metadata_tokens("coordinate label", tensor.coord_labels)
    lines = [f"{n} {m} {l}"]
    lines.append("# scalar_names: " + ",".join(tensor.scalar_names))
    if tensor.coord_labels != _default_coord_labels(l):
        lines.append("# coord_labels: " + ",".join(tensor.coord_labels))
    if tensor.units is not None:
        _check_metadata_tokens("unit", tensor.units)
        lines.append("# units: " + ",".join(tensor.units))
    flat = tensor.values.reshape(n * m, l)
    for row in flat:
        lines.append(" ".join(_format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _export_csv(tensor: DataTensor, path: Path) -> None:
    if tensor.l != 1:
        raise InputError(
            f"CSV export requires l=1 (tabular data), tensor has l={tensor.l}"
        )
    write_csv(
        path,
        tensor.scalar_names,
        ([_format_float(v) for v in row] for row in tensor.values[:, :, 0]),
    )


def write_csv(path: str | Path, header, rows) -> Path:
    """Write a header row and then ``rows``, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path

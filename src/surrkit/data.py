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
so export followed by import reproduces every value bit for bit. Every float
row written as text goes through :func:`format_rows`.

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


def format_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as one line. A float's ``repr`` is the
    shortest decimal that parses back to the same double: round trips are exact."""
    if values.shape[1] == 1:
        return list(map(repr, values.ravel().tolist()))
    return [" ".join(map(repr, row)) for row in values.tolist()]


def as_matrix(x, name: str, cols: int | None = None, finite: bool = True) -> np.ndarray:
    """``x`` as a float64 matrix, a rank-1 array being one column: the one
    check of a caller's matrix in every layer.

    Another rank, a column count other than ``cols`` (when given) and, if
    ``finite``, a NaN or an infinity raise ``InputError`` naming ``name``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    elif arr.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got rank {arr.ndim}")
    if cols is not None and arr.shape[1] != cols:
        raise InputError(f"{name} has {arr.shape[1]} columns, expected {cols}")
    if finite and not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def check_below(arr: np.ndarray, name: str, bound: float) -> None:
    """``InputError`` unless every entry of ``arr`` is below ``bound`` in
    magnitude, which refuses NaN and infinities too, whatever the bound: a
    model's one check of its query's values."""
    if np.abs(arr).max(initial=0.0) < bound:  # NaN fails this test
        return
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    raise InputError(
        f"{name} holds a value of magnitude {np.abs(arr).max():.3g}; this model takes "
        f"values below {bound:.3g}, where it cannot overflow"
    )


def _default_scalar_names(m: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(m))


def _default_coord_labels(l: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(l))


def check_names(
    scalar_names: tuple[str, ...],
    coord_labels: tuple[str, ...],
    units: tuple[str, ...] | None,
) -> None:
    """The data standard's naming rule, for a tensor and for a saved output
    layout alike: scalar names, coordinate labels and units (when given) are
    nonempty strings, no scalar name repeats, and each scalar has one unit."""
    for kind, entries in (
        ("scalar name", scalar_names), ("coordinate label", coord_labels), ("unit", units or ())
    ):
        for entry in entries:
            if not isinstance(entry, str) or not entry:
                raise InputError(f"{kind} {entry!r} is not a nonempty string")
    if len(set(scalar_names)) != len(scalar_names):
        dupes = sorted({s for s in scalar_names if scalar_names.count(s) > 1})
        raise InputError(f"duplicate scalar names: {dupes}")
    if units is not None and len(units) != len(scalar_names):
        raise InputError(f"expected {len(scalar_names)} unit strings, got {len(units)}")


@dataclass(frozen=True, eq=False)
class DataTensor:
    """Validated rank-3 array with named scalars and named coordinates.

    ``values`` has shape ``(n, m, l)`` and is stored read-only, and the names
    follow :func:`check_names`; instances are immutable and safe to share
    across threads. A caller's writable array is copied, so it stays writable
    and later writes to it do not reach the tensor; a read-only one, as the
    file readers hand over, is kept as is.
    """

    values: np.ndarray
    scalar_names: tuple[str, ...]
    coord_labels: tuple[str, ...]
    units: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values is self.values and values.flags.writeable:
            values = values.copy()
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
        names = tuple(self.scalar_names)
        labels = tuple(self.coord_labels)
        units = tuple(self.units) if self.units is not None else None
        if len(names) != m:
            raise InputError(f"expected {m} scalar names, got {len(names)}")
        if len(labels) != l:
            raise InputError(f"expected {l} coordinate labels, got {len(labels)}")
        check_names(names, labels, units)
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
class FidelityDataset:
    """Paired input/output tensors for one fidelity level."""

    fidelity: str
    X: DataTensor
    Y: DataTensor

    def __post_init__(self) -> None:
        if self.X.n != self.Y.n:
            raise InputError(
                f"input and output sample counts must match: "
                f"{self.X.n} inputs vs {self.Y.n} outputs"
            )

    @property
    def n(self) -> int:
        return self.X.n


def flatten(tensor: DataTensor) -> np.ndarray:
    """Flatten ``(n, m, l)`` to ``(n, m*l)`` with scalar-major columns, as a
    read-only view of the tensor's values."""
    n, m, l = tensor.shape
    return tensor.values.reshape(n, m * l)


def unflatten(
    matrix: np.ndarray,
    m: int,
    l: int | None = None,
    scalar_names: tuple[str, ...] | None = None,
    coord_labels: tuple[str, ...] | None = None,
    units: tuple[str, ...] | None = None,
) -> DataTensor:
    """Exact inverse of :func:`flatten`.

    ``l`` may be omitted when the column count determines it. The array
    carries no names: those not given are generated placeholders.
    """
    # The tensor checks the values, and names where a non-finite one sits.
    values = as_matrix(matrix, "flat matrix", finite=False)
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


def _parse_cells(path: Path, rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """Equal-length rows of numeric strings, ``(lineno, cells)``, as one
    array; ``np.array`` takes exactly the strings ``float()`` takes."""
    try:
        return np.array([cells for _, cells in rows], dtype=np.float64)
    except ValueError:
        for lineno, cells in rows:
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: non-numeric token {cell!r} in column {col}"
                    ) from None
        raise


def import_tensor(path: str | Path, fmt: str = TENSOR_TEXT) -> DataTensor:
    """Read a tensor-text or CSV file into a validated :class:`DataTensor`."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"data file not found: {path}")
    if fmt not in (TENSOR_TEXT, CSV_FORMAT):
        raise InputError(f"unknown data format {fmt!r}; use 'tensor-text' or 'csv'")
    try:
        return _import_tensor_text(path) if fmt == TENSOR_TEXT else _import_csv(path)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _import_tensor_text(path: Path) -> DataTensor:
    header: tuple[int, int, int] | None = None
    data_lines: list[tuple[int, str]] = []
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
            data_lines.append((lineno, line))

    if header is None:
        raise InputError(f"{path}: missing 'n m l' shape header")
    n, m, l = header
    if len(data_lines) != n * m:
        raise InputError(
            f"{path}: shape header declares {n}x{m} = {n * m} data lines, "
            f"found {len(data_lines)}"
        )
    # One loadtxt call rounds as float() does. It raises on ragged lines and on
    # the few tokens float() takes but it refuses (1_000, non-ASCII digits);
    # the per-token path then words the error or accepts those tokens.
    try:
        values = np.loadtxt(
            [line for _, line in data_lines], dtype=np.float64, comments=None, ndmin=2
        )
    except ValueError:
        values = None
    if values is None or values.shape != (n * m, l):
        rows = [(lineno, line.split()) for lineno, line in data_lines]
        for lineno, tokens in rows:
            if len(tokens) != l:
                raise InputError(
                    f"{path}:{lineno}: expected {l} values on data line, got {len(tokens)}"
                )
        values = _parse_cells(path, rows)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        lineno, line = data_lines[row]
        raise InputError(
            f"{path}:{lineno}: non-finite value {line.split()[col]!r} in column {col + 1}"
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
    values.setflags(write=False)  # the tensor's own array, so it is not copied
    try:
        return DataTensor(values.reshape(n, m, l), scalar_names, coord_labels, units=units)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _import_csv(path: Path) -> DataTensor:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty CSV file") from None
        names = tuple(name.strip() for name in header)
        rows: list[tuple[int, list[str]]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                _parse_cells(path, rows)  # a bad cell on an earlier row is named first
                raise InputError(
                    f"{path}:{lineno}: expected {len(names)} cells, got {len(row)}"
                )
            rows.append((lineno, row))
    if not rows:
        raise InputError(f"{path}: CSV file has a header but no data rows")
    values = _parse_cells(path, rows)
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise InputError(f"{path}:{rows[r][0]}: non-finite value in column {int(c) + 1}")
    values.setflags(write=False)  # the tensor's own array, so it is not copied
    try:
        return DataTensor(values[:, :, np.newaxis], names, ("0",))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


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
    lines += format_rows(tensor.values.reshape(n * m, l))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _export_csv(tensor: DataTensor, path: Path) -> None:
    if tensor.l != 1:
        raise InputError(
            f"CSV export requires l=1 (tabular data), tensor has l={tensor.l}"
        )
    write_csv(
        path,
        tensor.scalar_names,
        (map(repr, row) for row in tensor.values[:, :, 0].tolist()),
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

"""Tensor data standard: ingestion, flattening, and bit-exact round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import reference_format_row
from surrkit.data import (
    DataTensor,
    FidelityDataset,
    as_matrix,
    export_tensor,
    flatten,
    format_rows,
    import_tensor,
    unflatten,
    write_csv,
)
from surrkit.errors import InputError
from surrkit.modelstore import _parse_payload


def write_tensor_text(path, n, m, l, values, extra_lines=()):
    lines = [f"{n} {m} {l}", *extra_lines]
    flat = np.asarray(values, dtype=float).reshape(n * m, l)
    for row in flat:
        lines.append(" ".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


class TestImportTensorText:
    def test_table_shaped_file(self, tmp_path):
        """Header '400 4 1' with 1600 values produces a (400, 4, 1) tensor."""
        rng = np.random.default_rng(0)
        values = rng.standard_normal((400, 4, 1))
        path = tmp_path / "input.txt"
        write_tensor_text(path, 400, 4, 1, values)
        tensor = import_tensor(path)
        assert tensor.shape == (400, 4, 1)
        np.testing.assert_array_equal(tensor.values, values)

    def test_field_shaped_file(self, tmp_path):
        """400*7 rows of 1828 values produce a (400, 7, 1828) tensor."""
        rng = np.random.default_rng(1)
        values = rng.integers(0, 50, size=(400, 7, 1828)).astype(float) / 4.0
        path = tmp_path / "field.txt"
        write_tensor_text(path, 400, 7, 1828, values)
        tensor = import_tensor(path)
        assert tensor.shape == (400, 7, 1828)
        np.testing.assert_array_equal(tensor.values, values)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# a leading note\n\n2 1 2\n# scalar_names: q\n1.0 2.0\n\n3.0 4.0\n")
        tensor = import_tensor(path)
        assert tensor.shape == (2, 1, 2)
        assert tensor.scalar_names == ("q",)

    def test_shape_header_payload_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 1\n1.0\n2.0\n3.0\n4.0\n")  # header declares 6 lines
        with pytest.raises(InputError, match="data lines"):
            import_tensor(path)

    def test_wrong_line_width(self, tmp_path):
        """Named for ragged lines, which the one-call parse refuses, for even
        but narrow lines, which it reads, and before any bad token."""
        for text, lineno, width, count in [
            ("1 1 3\n1.0 2.0\n", 2, 3, 2),
            ("2 1 3\n1 2 3\n4 5\n", 3, 3, 2),
            ("2 1 3\n1 2\n3 4\n", 2, 3, 2),
            ("2 1 2\nx 2\n3\n", 3, 2, 1),
        ]:
            path = tmp_path / "bad.txt"
            path.write_text(text)
            with pytest.raises(InputError) as exc:
                import_tensor(path)
            assert str(exc.value) == (
                f"{path}:{lineno}: expected {width} values on data line, got {count}"
            )

    def test_non_numeric_token_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 2\n1.0 2.0\n3.0 oops\n")
        with pytest.raises(InputError, match=r"bad\.txt:3.*'oops'.*column 2"):
            import_tensor(path)
        path.write_text("3 1 3\n1.0 2.0 3.0\n# note\n4.0 5.0 6.0\n7.0 8.0 x9\n")
        with pytest.raises(InputError) as exc:
            import_tensor(path)
        assert str(exc.value) == f"{path}:5: non-numeric token 'x9' in column 3"

    def test_nan_and_inf_rejected(self, tmp_path):
        for token in ("nan", "NaN", "inf", "-inf", "Infinity", "1e999"):
            path = tmp_path / "bad.txt"
            path.write_text(f"2 1 3\n1 2 3\n\n4 {token} 6\n")
            with pytest.raises(InputError) as exc:
                import_tensor(path)
            assert str(exc.value) == f"{path}:4: non-finite value {token!r} in column 2"

    def test_tokens_float_takes_but_loadtxt_refuses(self, tmp_path):
        """``1_000`` and non-ASCII digits load with the values ``float()``
        gives them, in tensor files and in text bundle payloads alike."""
        body = "1_000 \u0663\n2.5 \u0661\u0662.\u0665\n"
        path = tmp_path / "t.txt"
        path.write_text("2 1 2\n" + body, encoding="utf-8")
        assert import_tensor(path).values.ravel().tolist() == [1000.0, 3.0, 2.5, 12.5]
        raw = np.frombuffer(("2 2\n" + body).encode(), np.uint8)
        assert _parse_payload(raw, path, "text", {"a": (2, 2)})["a"].ravel().tolist() == [
            1000.0, 3.0, 2.5, 12.5
        ]

    def test_duplicate_scalar_names_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 2 1\n# scalar_names: a,a\n1.0\n2.0\n")
        with pytest.raises(InputError, match="duplicate"):
            import_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            import_tensor(tmp_path / "nope.txt")


# Values whose shortest round-trip spelling is easy to get wrong.
SPECIAL_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e-5, 1e16, 1e22, 2.0**53 + 1]


@settings(max_examples=60, deadline=None)
@given(
    values=st.integers(1, 12).flatmap(
        lambda rows: st.sampled_from([1, 2, 7]).flatmap(
            lambda width: arrays(
                np.float64, (rows, width),
                elements=st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS),
            )
        )
    )
)
def test_format_rows_matches_the_per_value_reference(values):
    assert format_rows(values) == [reference_format_row(row) for row in values]


@pytest.mark.parametrize("width", [1, 3])
def test_csv_export_matches_cell_by_cell_rows(tmp_path, width):
    values = np.array(SPECIAL_FLOATS[:6], dtype=np.float64).reshape(-1, width)
    header = [f"c{j}" for j in range(width)]
    exported = export_tensor(
        DataTensor.from_values(values, header), tmp_path / "exported.csv", "csv"
    )
    cells = write_csv(
        tmp_path / "cells.csv", header, ([repr(float(v)) for v in row] for row in values)
    )
    assert exported.read_bytes() == cells.read_bytes()


def test_reader_returns_the_bytes_np_array_gives(tmp_path):
    """Unusual but valid spellings, separated by tabs and runs of spaces,
    parse to the bits ``np.array`` of their tokens gives."""
    lines = [".5\t5.   +1", "1E+05 \t 007.5\t\t1234567890123456789012345"]
    expected = np.array(" ".join(lines).split(), dtype=np.float64).reshape(2, 3)
    path = tmp_path / "t.txt"
    path.write_text("2 1 3\n" + "\n".join(lines) + "\n")
    assert import_tensor(path).values.tobytes() == expected.tobytes()
    raw = np.frombuffer((("2 3\n" + "\n".join(lines) + "\n") * 2).encode(), np.uint8)
    sections = _parse_payload(raw, path, "text", {"a": (2, 3), "b": (2, 3)})
    assert [a.tobytes() for a in sections.values()] == [expected.tobytes()] * 2


class TestImportCsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("Tw,rho,Tinf,u\n450,0.08,129,1284\n")
        tensor = import_tensor(path, "csv")
        assert tensor.shape == (1, 4, 1)
        assert tensor.scalar_names == ("Tw", "rho", "Tinf", "u")
        np.testing.assert_allclose(tensor.values[0, :, 0], [450, 0.08, 129, 1284])

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(InputError, match="duplicate"):
            import_tensor(path, "csv")

    def test_bad_cell_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(InputError, match="column 2"):
            import_tensor(path, "csv")

    def test_bad_cell_is_named_before_a_later_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,x\n4\n")
        with pytest.raises(InputError) as exc:
            import_tensor(path, "csv")
        assert str(exc.value) == f"{path}:3: non-numeric token 'x' in column 2"

    def test_non_finite_cell_is_named_by_its_file_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a\n1\n\n5\nnan\n")
        with pytest.raises(InputError) as exc:
            import_tensor(path, "csv")
        assert str(exc.value) == f"{path}:5: non-finite value in column 1"

    def test_cells_parse_as_float_does(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text('a,b,c\n1_000, 2.5 ,\u0663\n".5",5.,1E+05\n', encoding="utf-8")
        tensor = import_tensor(path, "csv")
        assert tensor.values.ravel().tolist() == [1000.0, 2.5, 3.0, 0.5, 5.0, 1e5]


class TestFlatten:
    def test_field_shape_arithmetic(self):
        tensor = DataTensor.from_values(np.zeros((400, 7, 1828)))
        flat = flatten(tensor)
        assert flat.shape == (400, 12796)

    def test_scalar_major_layout(self):
        values = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        flat = flatten(DataTensor.from_values(values, ["A", "B"]))
        np.testing.assert_array_equal(flat[0], [1, 2, 3, 4, 5, 6])

    def test_read_only_view_of_the_tensor(self):
        tensor = DataTensor.from_values(np.zeros((2, 3, 4)))
        flat = flatten(tensor)
        assert np.shares_memory(flat, tensor.values) and not flat.flags.writeable

    def test_l_equals_one_degenerate(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((6, 4, 1))
        flat = flatten(DataTensor.from_values(values))
        assert flat.shape == (6, 4)
        np.testing.assert_array_equal(flat, values[:, :, 0])


class TestUnflatten:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        tensor = DataTensor.from_values(rng.standard_normal((3, 2, 5)), ["p", "q"])
        back = unflatten(flatten(tensor), 2, 5, tensor.scalar_names, tensor.coord_labels)
        np.testing.assert_array_equal(back.values, tensor.values)
        assert back.scalar_names == tensor.scalar_names
        assert back.coord_labels == tensor.coord_labels

    def test_explicit_split(self):
        matrix = np.arange(12, dtype=float).reshape(2, 6)
        tensor = unflatten(matrix, 2, 3)
        assert tensor.shape == (2, 2, 3)
        np.testing.assert_array_equal(tensor.values[0, 1], [3, 4, 5])

    def test_indivisible_columns(self):
        matrix = np.zeros((2, 6))
        with pytest.raises(InputError, match="cannot be split"):
            unflatten(matrix, 4)


class TestExport:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((5, 3, 7)) * 10.0 ** rng.integers(-8, 8, (5, 3, 7))
        tensor = DataTensor.from_values(values, ["a", "b", "c"])
        path = export_tensor(tensor, tmp_path / "t.txt")
        again = import_tensor(path)
        np.testing.assert_array_equal(again.values, tensor.values)

    def test_header_line(self, tmp_path):
        tensor = DataTensor.from_values(np.zeros((400, 4, 1)))
        path = export_tensor(tensor, tmp_path / "t.txt")
        assert path.read_text().splitlines()[0] == "400 4 1"

    def test_unit_metadata_preserved(self, tmp_path):
        tensor = DataTensor.from_values(
            np.ones((2, 2, 1)), ["q_w", "P_w"], units=["W/m^2", "Pa"]
        )
        again = import_tensor(export_tensor(tensor, tmp_path / "t.txt"))
        assert again.units == ("W/m^2", "Pa")
        assert again.scalar_names == ("q_w", "P_w")

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tensor = DataTensor.from_values(rng.standard_normal((7, 3, 1)), ["x", "y", "z"])
        path = export_tensor(tensor, tmp_path / "t.csv", "csv")
        again = import_tensor(path, "csv")
        np.testing.assert_array_equal(again.values, tensor.values)

    def test_csv_requires_tabular(self, tmp_path):
        tensor = DataTensor.from_values(np.zeros((2, 2, 3)))
        with pytest.raises(InputError, match="l=1"):
            export_tensor(tensor, tmp_path / "t.csv", "csv")


@pytest.mark.parametrize("x, kwargs, expected", [
    ([1, 2, 3], {}, [[1.0], [2.0], [3.0]]),
    (np.float32([[1.5, 2.5]]), {"cols": 2}, [[1.5, 2.5]]),
    ([[np.nan, -np.inf]], {"finite": False}, [[np.nan, -np.inf]]),
    (5.0, {}, "X must be a 2-D matrix, got rank 0"),
    (np.zeros((2, 3, 1)), {}, "X must be a 2-D matrix, got rank 3"),
    (np.zeros((2, 3)), {"cols": 2}, "X has 3 columns, expected 2"),
    ([1.0, 2.0], {"cols": 2}, "X has 1 columns, expected 2"),
    ([[0.0, np.nan]], {}, "X contains non-finite entries"),
    ([[np.inf]], {"cols": 1}, "X contains non-finite entries"),
], ids=["rank-1-column", "float32-to-float64", "finite-off", "rank-0", "rank-3",
        "columns", "rank-1-columns", "nan", "inf"])
def test_as_matrix(x, kwargs, expected):
    """The one check of a caller's matrix: a float64 matrix back, or
    ``InputError`` naming the operand."""
    if isinstance(expected, str):
        with pytest.raises(InputError, match=f"^{re.escape(expected)}$"):
            as_matrix(x, "X", **kwargs)
        return
    out = as_matrix(x, "X", **kwargs)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.array(expected))


class TestValidation:
    def test_non_finite_values_rejected(self):
        values = np.ones((2, 2, 1))
        values[1, 0, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            DataTensor.from_values(values)

    def test_name_count_must_match(self):
        with pytest.raises(InputError, match="scalar names"):
            DataTensor(np.zeros((2, 3, 1)), ("a", "b"), ("0",))

    @pytest.mark.parametrize("names, labels, units, message", [
        ((1, "b"), ("0",), None, "scalar name 1 is not a nonempty string"),
        (("a", None), ("0",), None, "scalar name None is not a nonempty string"),
        (("a", "b"), ("",), None, "coordinate label '' is not a nonempty string"),
        (("a", "b"), ("0",), ("m", ""), "unit '' is not a nonempty string"),
        (("a", "b"), ("0",), ("m",), "expected 2 unit strings, got 1"),
    ], ids=["number-name", "null-name", "empty-label", "empty-unit", "unit-short"])
    def test_names_follow_the_naming_rule(self, names, labels, units, message):
        """Names are taken as given, not converted with ``str``: a name that
        is no nonempty string is refused, as it is in a saved layout."""
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            DataTensor(np.zeros((2, 2, 1)), names, labels, units)

    def test_sample_counts_must_match(self):
        X = DataTensor.from_values(np.zeros((3, 1, 1)))
        Y = DataTensor.from_values(np.zeros((4, 1, 1)))
        with pytest.raises(InputError, match="sample counts"):
            FidelityDataset("LF", X, Y)

    def test_values_are_read_only(self):
        tensor = DataTensor.from_values(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            tensor.values[0, 0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3)])
    def test_callers_array_stays_writable_and_apart(self, shape):
        a = np.zeros(shape)
        tensor = DataTensor.from_values(a)
        a[0, 0] = 1.0
        assert not np.shares_memory(a, tensor.values)
        assert tensor.values[0, 0, 0] == 0.0 and not tensor.values.flags.writeable

    @pytest.mark.parametrize("fmt", ["tensor-text", "csv"])
    def test_imported_array_is_not_copied(self, tmp_path, fmt):
        """The readers hand over a read-only array of their own, which the
        tensor keeps: its values are a view of the parsed array."""
        path = export_tensor(DataTensor.from_values(np.ones((3, 2, 1))), tmp_path / "t", fmt)
        values = import_tensor(path, fmt).values
        assert values.base is not None and not values.base.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 16),
    l=st.integers(1, 16),
    seed=st.integers(0, 2**31),
)
def test_flatten_unflatten_inverse_property(n, m, l, seed):
    rng = np.random.default_rng(seed)
    tensor = DataTensor.from_values(rng.standard_normal((n, m, l)))
    back = unflatten(flatten(tensor), m, l)
    np.testing.assert_array_equal(back.values, tensor.values)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_text_round_trip_property(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 5, 3))
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, shape)
    tensor = DataTensor.from_values(values)
    path = tmp_path_factory.mktemp("rt") / "t.txt"
    export_tensor(tensor, path)
    np.testing.assert_array_equal(import_tensor(path).values, tensor.values)

"""Tensor data standard: ingestion, flattening, and bit-exact round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrkit.data import (
    DataTensor,
    FidelityDataset,
    FlatMatrix,
    export_tensor,
    flatten,
    import_tensor,
    unflatten,
)
from surrkit.errors import InputError


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
        path = tmp_path / "bad.txt"
        path.write_text("1 1 3\n1.0 2.0\n")
        with pytest.raises(InputError, match="expected 3 values"):
            import_tensor(path)

    def test_non_numeric_token_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 2\n1.0 2.0\n3.0 oops\n")
        with pytest.raises(InputError, match=r"bad\.txt:3.*'oops'.*column 2"):
            import_tensor(path)

    def test_nan_and_inf_rejected(self, tmp_path):
        for token in ("nan", "inf", "-inf"):
            path = tmp_path / f"{token.strip('-')}.txt"
            path.write_text(f"1 1 2\n1.0 {token}\n")
            with pytest.raises(InputError, match="non-finite"):
                import_tensor(path)

    def test_duplicate_scalar_names_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 2 1\n# scalar_names: a,a\n1.0\n2.0\n")
        with pytest.raises(InputError, match="duplicate"):
            import_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            import_tensor(tmp_path / "nope.txt")


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


class TestFlatten:
    def test_field_shape_arithmetic(self):
        tensor = DataTensor.from_values(np.zeros((400, 7, 1828)))
        flat = flatten(tensor)
        assert (flat.rows, flat.cols) == (400, 12796)

    def test_scalar_major_layout(self):
        values = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        flat = flatten(DataTensor.from_values(values, ["A", "B"]))
        np.testing.assert_array_equal(flat.values[0], [1, 2, 3, 4, 5, 6])

    def test_l_equals_one_degenerate(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((6, 4, 1))
        flat = flatten(DataTensor.from_values(values))
        assert (flat.rows, flat.cols) == (6, 4)
        np.testing.assert_array_equal(flat.values, values[:, :, 0])


class TestUnflatten:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        tensor = DataTensor.from_values(rng.standard_normal((3, 2, 5)), ["p", "q"])
        back = unflatten(flatten(tensor), 2, 5)
        np.testing.assert_array_equal(back.values, tensor.values)
        assert back.scalar_names == tensor.scalar_names
        assert back.coord_labels == tensor.coord_labels

    def test_explicit_split(self):
        matrix = FlatMatrix.from_array(np.arange(12, dtype=float).reshape(2, 6))
        tensor = unflatten(matrix, 2, 3)
        assert tensor.shape == (2, 2, 3)
        np.testing.assert_array_equal(tensor.values[0, 1], [3, 4, 5])

    def test_indivisible_columns(self):
        matrix = FlatMatrix.from_array(np.zeros((2, 6)))
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


class TestValidation:
    def test_non_finite_values_rejected(self):
        values = np.ones((2, 2, 1))
        values[1, 0, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            DataTensor.from_values(values)

    def test_name_count_must_match(self):
        with pytest.raises(InputError, match="scalar names"):
            DataTensor(np.zeros((2, 3, 1)), ("a", "b"), ("0",))

    def test_sample_counts_must_match(self):
        X = DataTensor.from_values(np.zeros((3, 1, 1)))
        Y = DataTensor.from_values(np.zeros((4, 1, 1)))
        with pytest.raises(InputError, match="sample counts"):
            FidelityDataset("LF", X, Y)

    def test_values_are_read_only(self):
        tensor = DataTensor.from_values(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            tensor.values[0, 0, 0] = 1.0


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

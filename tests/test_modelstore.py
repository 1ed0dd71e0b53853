"""Bundle persistence: versioning, round trips, checksums, format guards."""

import json
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    NON_FINITE_HYPERPARAMETER_IDS,
    NON_FINITE_HYPERPARAMETERS,
    payload_sections,
    reference_format_row,
    resign_checksums,
)
from surrkit import gpr, modelstore
from surrkit.data import DataTensor, FidelityDataset, import_tensor
from surrkit.errors import InputError, NumericError, StoreError
from surrkit.gpr import GprModel, KernelSpec, gpr_fit, gpr_predict
from surrkit.metrics import uq_report
from surrkit.mlp import TrainConfig
from surrkit.modelstore import load_model, save_model
from surrkit.multifid import (
    MfComposite,
    TensorLayout,
    train_mf,
    train_mf_chain,
    train_single_fidelity,
)
from surrkit.preprocess import SplitSpec, StandardScaler
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, sample, trig4_pair
from surrkit.tuner import GprGrid, MlpGrid

# Format-1 bundles saved by the last release that wrote format 1, and the
# predictions it gave from them (see CHANGES.md for how they were made).
FORMAT_1 = Path(__file__).parent / "fixtures" / "format1"
FAST_GPR = GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=2)


@pytest.fixture(scope="module")
def gpr_surrogate():
    _, hf = generate_pair_dataset(forrester_pair(), 30, 30, Sampler(seed=0))
    surr, _ = train_single_fidelity(
        hf, "gpr", SplitSpec(seed=0),
        gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=0),
    )
    return surr


@pytest.fixture(scope="module")
def mlp_surrogate():
    _, hf = generate_pair_dataset(forrester_pair(), 40, 40, Sampler(seed=1))
    cfg = TrainConfig(learning_rate=1e-2, max_epochs=50, batch_size=64,
                      early_stop_patience=50, seed=1)
    surr, _ = train_single_fidelity(
        hf, "mlp", SplitSpec(seed=1),
        mlp_grid=MlpGrid(layer_counts=(1,), widths=(8,), train=cfg),
    )
    return surr


@pytest.fixture(scope="module")
def trig4_gpr_surrogate():
    lf, _ = generate_pair_dataset(trig4_pair(), 200, 8, Sampler(seed=4))
    surr, _ = train_single_fidelity(
        lf, "gpr", SplitSpec(seed=4),
        gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=4),
    )
    return surr


@pytest.fixture(scope="module")
def jittered_surrogate(gpr_surrogate):
    """A GPR stage whose fit needed jitter: duplicate rows, noise 1e-20."""
    X = np.array([[0.1], [0.1], [0.4], [0.7], [0.7], [0.9]])
    model = gpr_fit(X, np.sin(6.0 * X), KernelSpec(kind="constant*rbf", noise=1e-20))
    assert model.jitter_used > 0.0
    return replace(gpr_surrogate, model=model)


@pytest.fixture(scope="module")
def composite():
    lf, hf = generate_pair_dataset(forrester_pair(), 30, 8, Sampler(seed=2))
    return train_mf(lf, hf, split=SplitSpec(seed=2), gpr_grid=FAST_GPR)


@pytest.fixture(scope="module")
def gpr_mlp_composite():
    lf, hf = generate_pair_dataset(forrester_pair(), 30, 20, Sampler(seed=3))
    cfg = TrainConfig(learning_rate=1e-2, max_epochs=20, batch_size=64,
                      early_stop_patience=20, seed=3)
    return train_mf(lf, hf, mf_kind="mlp", split=SplitSpec(seed=3), gpr_grid=FAST_GPR,
                    mlp_grid=MlpGrid(layer_counts=(1,), widths=(4,), train=cfg))


@pytest.fixture(scope="module")
def chain():
    """A composite whose low-fidelity member is itself a composite."""
    pair = forrester_pair()
    lf, hf = generate_pair_dataset(pair, 30, 8, Sampler(seed=2))
    X_top = sample(Sampler(seed=9), pair.bounds, 10)
    top = FidelityDataset(
        "HF2",
        DataTensor.from_values(X_top[:, :, None], ("x",)),
        DataTensor.from_values(pair.hf(X_top)[:, :, None], ("y",)),
    )
    return train_mf_chain(
        [lf, hf, top], "gpr", SplitSpec(seed=9),
        gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=9),
    )[0]


def stage_arrays(obj):
    """Every array a model holds, stage by stage: scalers, then model arrays."""
    if isinstance(obj, MfComposite):
        return stage_arrays(obj.lf) + stage_arrays(obj.mf)
    model = obj.model
    arrays = [obj.x_scaler.means, obj.x_scaler.stds, obj.y_scaler.means, obj.y_scaler.stds]
    if isinstance(model, GprModel):
        return arrays + [model.X_train, model.alpha]
    return arrays + [a for pair in zip(model.weights, model.biases) for a in pair]


def queries(d, seed=3):
    return np.random.default_rng(seed).uniform(0, 1, (10, d))


class TestRoundTrip:
    def test_gpr_predictions_exact(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "gpr_demo")
        loaded = load_model(bundle)
        X = queries(1)
        np.testing.assert_allclose(
            loaded.predict_raw(X), gpr_surrogate.predict_raw(X), rtol=0, atol=1e-12
        )
        assert loaded.y_layout == gpr_surrogate.y_layout
        assert loaded.fidelity == gpr_surrogate.fidelity

    def test_mlp_predictions_exact(self, mlp_surrogate, tmp_path):
        bundle = save_model(mlp_surrogate, tmp_path, "mlp_demo")
        loaded = load_model(bundle)
        X = queries(1)
        np.testing.assert_allclose(
            loaded.predict_raw(X), mlp_surrogate.predict_raw(X), rtol=0, atol=1e-12
        )

    def test_composite_predictions_exact(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "mf_demo")
        loaded = load_model(bundle)
        X = queries(1)
        np.testing.assert_allclose(
            loaded.predict_raw(X), composite.predict_raw(X), rtol=0, atol=1e-12
        )
        assert loaded.input_dim == composite.input_dim
        assert loaded.lf_output_dim == composite.lf_output_dim

    def test_binary_payload_round_trip(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "bin_demo", payload_format="binary")
        loaded = load_model(bundle)
        X = queries(1)
        np.testing.assert_allclose(
            loaded.predict_raw(X), gpr_surrogate.predict_raw(X), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("payload_format", ["text", "binary"])
    def test_single_site_variances_equal_the_fitted_models(
        self, trig4_gpr_surrogate, tmp_path, payload_format
    ):
        """A loaded model rebuilds the fitted model's Cholesky factor, so the
        variance solve gives both the same bytes."""
        fitted = trig4_gpr_surrogate.model
        bundle = save_model(trig4_gpr_surrogate, tmp_path, "trig4", payload_format=payload_format)
        loaded = load_model(bundle).model
        assert loaded.L.tobytes() == fitted.L.tobytes()
        for site in np.random.default_rng(5).uniform(-1.5, 1.5, (50, 1, 4)):
            assert gpr_predict(loaded, site).variance.tobytes() == (
                gpr_predict(fitted, site).variance.tobytes()
            )

    @pytest.mark.parametrize("payload_format", ["text", "binary"])
    @pytest.mark.parametrize("surrogate", ["gpr_surrogate", "jittered_surrogate"])
    def test_loaded_factor_equals_the_fitted_one(
        self, request, surrogate, payload_format, tmp_path
    ):
        surr = request.getfixturevalue(surrogate)
        fitted = surr.model
        assert (fitted.jitter_used > 0.0) == (surrogate == "jittered_surrogate")
        bundle = save_model(surr, tmp_path, "factor", payload_format=payload_format)
        loaded = load_model(bundle).model
        assert loaded.jitter_used == fitted.jitter_used
        assert loaded.L.tobytes() == fitted.L.tobytes()

    def test_nested_chain_round_trip(self, chain, tmp_path):
        bundle = save_model(chain, tmp_path, "chain")
        loaded = load_model(bundle)
        X = queries(1, seed=9)
        np.testing.assert_allclose(
            loaded.predict_raw(X), chain.predict_raw(X), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("payload_format", ["text", "binary"])
    @pytest.mark.parametrize(
        "model", ["gpr_surrogate", "mlp_surrogate", "composite", "gpr_mlp_composite", "chain"]
    )
    def test_bundle_is_three_files_and_loads_every_array_exactly(
        self, request, model, payload_format, tmp_path
    ):
        obj = request.getfixturevalue(model)
        bundle = save_model(obj, tmp_path, "three", payload_format=payload_format)
        payload = "payload.txt" if payload_format == "text" else "payload.bin"
        assert sorted(p.name for p in bundle.iterdir()) == ["CHECKSUMS", "meta.json", payload]
        loaded = load_model(bundle)
        saved, back = stage_arrays(obj), stage_arrays(loaded)
        assert len(saved) == len(back)
        for a, b in zip(saved, back):
            assert np.atleast_2d(a).tobytes() == np.atleast_2d(b).tobytes()
        X = queries(1)
        assert loaded.predict_raw(X).tobytes() == obj.predict_raw(X).tobytes()


class TestVersioning:
    def test_save_twice_allocates_v1_v2(self, gpr_surrogate, tmp_path):
        first = save_model(gpr_surrogate, tmp_path, "proj")
        second = save_model(gpr_surrogate, tmp_path, "proj")
        assert first.name == "proj_v1"
        assert second.name == "proj_v2"
        assert first.exists() and second.exists()

    def test_concurrent_saves_get_distinct_versions(self, composite, tmp_path):
        # Earlier versions make each save scan, so the saves overlap in allocation.
        earlier, threads = 50, 8
        for k in range(1, earlier + 1):
            (tmp_path / f"proj_v{k}").mkdir()
        barrier = threading.Barrier(threads)

        def save(_):
            barrier.wait(timeout=30)
            return save_model(composite, tmp_path, "proj")

        with ThreadPoolExecutor(max_workers=threads) as pool:
            bundles = list(pool.map(save, range(threads), timeout=60))
        versions = range(earlier + 1, earlier + threads + 1)
        assert sorted(b.name for b in bundles) == [f"proj_v{k}" for k in versions]
        X = queries(1)
        expected = composite.predict_raw(X).tobytes()
        for bundle in bundles:
            assert load_model(bundle).predict_raw(X).tobytes() == expected

    def test_failed_save_leaves_no_version(self, composite, tmp_path, monkeypatch):
        """The sixth of the composite's twelve arrays fails to format, after
        the payload file holds five."""
        real_format_rows, written = modelstore.format_rows, []

        def fail_partway(arr):
            if len(written) == 5:
                raise OSError("disk full")
            written.append(arr)
            return real_format_rows(arr)

        monkeypatch.setattr(modelstore, "format_rows", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            save_model(composite, tmp_path, "proj")
        assert written and list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        assert save_model(composite, tmp_path, "proj").name == "proj_v1"
        assert [p.name for p in tmp_path.iterdir()] == ["proj_v1"]

    def test_metadata_records_fit_details(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "meta_demo")
        meta = json.loads((bundle / "meta.json").read_text())
        assert "jitter_used" in meta["training"]
        assert "lml" in meta["training"]
        assert meta["model_type"] == "gpr"
        assert meta["format_version"] == 2


class TestLoadGuards:
    def test_tampered_payload_fails_checksum(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "tamper")
        payload = bundle / "payload.txt"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0x01  # flip one bit
        payload.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            load_model(bundle)

    def test_future_format_version_rejected(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "future")
        edit_meta(bundle, lambda meta: meta.update(format_version=99))
        with pytest.raises(StoreError, match="format_version"):
            load_model(bundle)

    def test_missing_scaler_payload_rejected(self, gpr_surrogate, tmp_path):
        """The entry and its section, the payload's first 1x1 array, both go."""
        bundle = save_model(gpr_surrogate, tmp_path, "noscaler", payload_format="binary")
        path = bundle / "payload.bin"
        path.write_bytes(path.read_bytes()[8:])
        edit_meta(bundle, lambda meta: meta["payloads"].pop("x_scaler_means"))
        with pytest.raises(StoreError, match="scaler"):
            load_model(bundle)

    def test_length_scale_count_mismatch_reads_as_in_gpr_fit(self, gpr_surrogate, tmp_path):
        """The 1-D stage's bundle with three length scales fails to load with
        the wording ``gpr_fit`` and the optimizer give."""
        bundle = save_model(gpr_surrogate, tmp_path, "scales")
        edit_meta(bundle, lambda meta: meta["hyperparameters"].update(length_scale=[1, 2, 3]))
        with pytest.raises(StoreError, match=": length_scale has 3 entries for 1 input dims$"):
            load_model(bundle)

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(StoreError, match="meta.json"):
            load_model(tmp_path)

    def test_composite_checksums_cover_children(self, composite, tmp_path):
        """The payload's first byte belongs to the lf stage."""
        bundle = save_model(composite, tmp_path, "nested")
        payload = bundle / "payload.txt"
        data = bytearray(payload.read_bytes())
        data[0] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            load_model(bundle)


class TestIntegrity:
    def test_checksums_cover_meta_payloads_and_children(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "covered")

        def listed(directory):
            text = (directory / "CHECKSUMS").read_text()
            return [line.partition("  ")[2] for line in text.splitlines()]

        assert listed(bundle) == ["payload.txt", "meta.json"]
        assert sorted(p.name for p in bundle.iterdir()) == ["CHECKSUMS", "meta.json", "payload.txt"]
        meta = json.loads((bundle / "meta.json").read_text())
        for stage in ("lf", "mf"):
            files = {entry["file"] for entry in meta[stage]["payloads"].values()}
            assert files == {"payload.txt"}

    def test_edited_child_hyperparameter_fails_checksum(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "edited")
        meta_path = bundle / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["lf"]["hyperparameters"]["length_scale"] = [
            3.0 * v for v in meta["lf"]["hyperparameters"]["length_scale"]
        ]
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        with pytest.raises(StoreError, match="checksum mismatch.*edited_v1/meta.json"):
            load_model(bundle)

    def test_child_resigned_alone_fails_parent_checksum(self, tmp_path):
        """Format 1 nests a composite's stages as bundles of their own."""
        bundle = shutil.copytree(FORMAT_1 / "mf_text_v1", tmp_path / "resigned")
        edit_meta(bundle / "lf_model", lambda meta: meta["training"].update(lml=0.0))
        with pytest.raises(StoreError, match="checksum mismatch.*lf_model/CHECKSUMS"):
            load_model(bundle)

    def test_checksums_must_list_meta_json(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "unlisted")
        checksums = bundle / "CHECKSUMS"
        lines = checksums.read_text().splitlines()
        checksums.write_text("\n".join(l for l in lines if not l.endswith("  meta.json")) + "\n")
        with pytest.raises(StoreError, match="does not cover meta.json"):
            load_model(bundle)

    def test_payload_missing_from_checksums_rejected(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "unlisted_payload")
        checksums = bundle / "CHECKSUMS"
        lines = checksums.read_text().splitlines()
        checksums.write_text("\n".join(l for l in lines if not l.endswith("  payload.txt")) + "\n")
        with pytest.raises(StoreError, match="payload.txt is not listed in CHECKSUMS"):
            load_model(bundle)

    def test_binary_payload_of_partial_values_rejected(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "ragged", payload_format="binary")
        path = bundle / "payload.bin"
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        resign_checksums(bundle)
        with pytest.raises(StoreError, match="not a whole number of float64"):
            load_model(bundle)

    @pytest.mark.parametrize(
        "payload, value",
        [("alpha", np.nan), ("X_train", np.inf), ("X_train", np.nan), ("alpha", -np.inf),
         ("x_scaler_means", np.nan), ("y_scaler_stds", np.inf)],
    )
    def test_non_finite_payload_rejected(self, gpr_surrogate, tmp_path, payload, value):
        bundle = save_model(gpr_surrogate, tmp_path, "nonfinite", payload_format="binary")
        path = bundle / "payload.bin"
        start, (rows, cols) = payload_sections(bundle)[payload]
        values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        values[start + rows * cols - 1] = value
        path.write_bytes(values.tobytes())
        resign_checksums(bundle)
        with pytest.raises(StoreError, match=rf"payload.bin\[{payload}\]: payload holds non-finite"):
            load_model(bundle)


class TestLazyFactor:
    """Bundles store no Cholesky factor; a loaded model refactors on its
    first variance request, and only then."""

    def test_gpr_bundle_lists_no_factor(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "nofactor")
        meta = json.loads((bundle / "meta.json").read_text())
        assert sorted(meta["payloads"]) == [
            "X_train", "alpha", "x_scaler_means", "x_scaler_stds",
            "y_scaler_means", "y_scaler_stds",
        ]
        assert sorted(p.name for p in bundle.iterdir()) == ["CHECKSUMS", "meta.json", "payload.txt"]

    def test_only_the_first_variance_request_factors(
        self, trig4_gpr_surrogate, tmp_path, monkeypatch
    ):
        bundle = save_model(trig4_gpr_surrogate, tmp_path, "lazy")
        X = np.random.default_rng(6).uniform(-1.5, 1.5, (20, 4))
        real_cholesky, calls = gpr.cholesky, []

        def no_cholesky(*args, **kwargs):
            raise AssertionError("factored outside a variance request")

        monkeypatch.setattr(gpr, "cholesky", no_cholesky)
        loaded = load_model(bundle)
        assert loaded.predict_raw(X).tobytes() == trig4_gpr_surrogate.predict_raw(X).tobytes()

        def counted(*args, **kwargs):
            calls.append(1)
            return real_cholesky(*args, **kwargs)

        monkeypatch.setattr(gpr, "cholesky", counted)
        first = gpr_predict(loaded.model, X)
        assert len(calls) == 1
        second = gpr_predict(loaded.model, X)
        assert len(calls) == 1
        expected = gpr_predict(trig4_gpr_surrogate.model, X).variance.tobytes()
        assert first.variance.tobytes() == second.variance.tobytes() == expected

    @pytest.mark.parametrize("payload_format", ["text", "binary"])
    def test_bundle_with_a_stored_factor_still_loads(self, tmp_path, payload_format):
        """Format-1 bundles saved before the factor was dropped list an ``L``
        payload; it is read as listed and then ignored."""
        fixture = FORMAT_1 / f"mf_{payload_format}_v1"
        plain = load_model(fixture)
        L = plain.lf.model.L
        bundle = shutil.copytree(fixture, tmp_path / "old")
        stage = bundle / "lf_model"
        suffix = "txt" if payload_format == "text" else "bin"
        if payload_format == "text":
            rows = [f"{L.shape[0]} {L.shape[1]}", *map(reference_format_row, L)]
            (stage / "payload" / "L.txt").write_text("\n".join(rows) + "\n")
        else:
            (stage / "payload" / "L.bin").write_bytes(np.ascontiguousarray(L, "<f8").tobytes())
        checksums = stage / "CHECKSUMS"
        checksums.write_text(checksums.read_text() + f"0  payload/L.{suffix}\n")
        edit_meta(stage, lambda meta: meta["payloads"].update(
            L={"file": f"payload/L.{suffix}", "format": payload_format, "shape": list(L.shape)}))
        resign_checksums(bundle)
        loaded = load_model(bundle)
        X = queries(1)
        assert loaded.predict_raw(X).tobytes() == plain.predict_raw(X).tobytes()
        assert gpr_predict(loaded.lf.model, X).variance.tobytes() == (
            gpr_predict(plain.lf.model, X).variance.tobytes()
        )

    def test_a_factor_that_fails_is_a_numeric_error(self, jittered_surrogate, tmp_path):
        """The jittered fit's kernel does not factor without its jitter."""
        bundle = save_model(jittered_surrogate, tmp_path, "nojitter")
        edit_meta(bundle, lambda meta: meta["training"].update(jitter_used=0.0))
        loaded = load_model(bundle)
        X = queries(1)
        assert loaded.predict_raw(X).tobytes() == jittered_surrogate.predict_raw(X).tobytes()
        with pytest.raises(NumericError, match="Cholesky"):
            gpr_predict(loaded.model, X)


def edit_meta(bundle, change, stage=()):
    """Edit the meta.json of a saved bundle, at the stage its keys ``stage``
    lead to, and re-sign the bundle's CHECKSUMS, so the edit gets past
    checksum verification to the schema checks."""
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    node = meta
    for key in stage:
        node = node[key]
    change(node)
    meta_path.write_text(json.dumps(meta))
    resign_checksums(bundle)


class TestSchemaErrors:
    @pytest.mark.parametrize("stage, key", [
        pytest.param(("mf",), "y_layout", id="mf_model-y_layout"),
        pytest.param(("lf",), "hyperparameters", id="lf_model-hyperparameters"),
        pytest.param((), "dims", id=".-dims"),
    ])
    def test_missing_meta_key_is_store_error(self, composite, tmp_path, stage, key):
        bundle = save_model(composite, tmp_path, "schema")
        edit_meta(bundle, lambda meta: meta.pop(key), stage)
        with pytest.raises(StoreError, match=key):
            load_model(bundle)

    @pytest.mark.parametrize("key", ["input_dim", "lf_output_dim", "hf_output_dim"])
    def test_composite_dims_checked_against_children(self, composite, tmp_path, key):
        bundle = save_model(composite, tmp_path, "dims")
        edit_meta(bundle, lambda meta: meta["dims"].update({key: 2}))
        with pytest.raises(StoreError, match=f"dims.{key}"):
            load_model(bundle)

    @pytest.mark.parametrize("key, value", NON_FINITE_HYPERPARAMETERS,
                             ids=NON_FINITE_HYPERPARAMETER_IDS)
    def test_non_finite_hyperparameter_is_store_error(self, gpr_surrogate, tmp_path, key, value):
        bundle = save_model(gpr_surrogate, tmp_path, "hyper")
        edit_meta(bundle, lambda meta: meta["hyperparameters"].update({key: value}))
        with pytest.raises(StoreError, match=f"{key}.* must be .*finite"):
            load_model(bundle)

    @pytest.mark.parametrize(
        "jitter_used", [None, float("nan"), float("inf"), -1e-12, "0.0", True],
        ids=["missing", "nan", "inf", "negative", "string", "bool"],
    )
    def test_jitter_used_must_be_a_finite_nonnegative_number(
        self, gpr_surrogate, tmp_path, jitter_used
    ):
        def change(meta):
            if jitter_used is None:
                del meta["training"]["jitter_used"]
            else:
                meta["training"]["jitter_used"] = jitter_used

        bundle = save_model(gpr_surrogate, tmp_path, "jitter")
        edit_meta(bundle, change)
        with pytest.raises(StoreError, match="training.jitter_used must be a finite number"):
            load_model(bundle)

    # Scaler payloads widened in a single-stage binary bundle, the meta.json
    # edit that keeps the y layout as wide as the y scaler, and the width
    # mismatch the stage is refused for.
    SCALER_WIDTHS = {
        "gpr-x": ("gpr_surrogate", "x_scaler", 2, "has 1 inputs, but its x scaler has 2"),
        "mlp-x": ("mlp_surrogate", "x_scaler", 2, "has 1 inputs, but its x scaler has 2"),
        "mlp-y": ("mlp_surrogate", "y_scaler", 3, "has 1 outputs, but its y scaler has 3"),
    }

    @pytest.mark.parametrize("fixture, key, width, message", SCALER_WIDTHS.values(),
                             ids=SCALER_WIDTHS.keys())
    def test_scaler_wider_than_its_model_is_store_error(
        self, request, tmp_path, fixture, key, width, message
    ):
        bundle = save_model(request.getfixturevalue(fixture), tmp_path, "widths",
                            payload_format="binary")
        path = bundle / "payload.bin"
        values = np.frombuffer(path.read_bytes(), dtype="<f8")
        pieces = []
        for name, (start, (rows, cols)) in payload_sections(bundle).items():
            piece = values[start : start + rows * cols]
            if name.startswith(key):
                piece = np.full(width, 1.0 if name.endswith("stds") else 0.0)
            pieces.append(piece)
        path.write_bytes(np.concatenate(pieces).astype("<f8").tobytes())

        def change(meta):
            for name in (f"{key}_means", f"{key}_stds"):
                meta["payloads"][name]["shape"] = [1, width]
            if key == "y_scaler":
                meta["y_layout"]["scalar_names"] = [f"y{i}" for i in range(width)]

        edit_meta(bundle, change)
        with pytest.raises(StoreError, match=f"^malformed bundle .*{message} columns$") as caught:
            load_model(bundle)
        assert "\n" not in str(caught.value)

    # Where an integer past the float range can sit in a GPR bundle, as the
    # key path into meta.json and the name the error gives it.
    HUGE_INTEGER_KEYS = {
        "signal_variance": (("hyperparameters", "signal_variance"),
                            "hyperparameters.signal_variance"),
        "noise": (("hyperparameters", "noise"), "hyperparameters.noise"),
        "length_scale": (("hyperparameters", "length_scale", 0),
                         "hyperparameters.length_scale[0]"),
        "lml": (("training", "lml"), "training.lml"),
        "jitter_used": (("training", "jitter_used"), "training.jitter_used"),
    }

    @pytest.mark.parametrize("keys, name", HUGE_INTEGER_KEYS.values(),
                             ids=HUGE_INTEGER_KEYS.keys())
    def test_integer_past_the_float_range_is_refused_by_its_key(
        self, gpr_surrogate, tmp_path, keys, name
    ):
        def change(meta):
            node = meta
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = 10**400

        bundle = save_model(gpr_surrogate, tmp_path, "huge")
        edit_meta(bundle, change)
        with pytest.raises(StoreError) as caught:
            load_model(bundle)
        assert str(caught.value).endswith(
            f"{name} must be a float, got an integer past the float range"
        )

    # Edits of a 3-output layout (scalar names y1, y2, y3) and the message
    # each gives.
    LAYOUT_EDITS = {
        "names-as-one-string": (lambda y: y.update(scalar_names="y1y2y3"),
                                "y_layout.scalar_names must be a list"),
        "empty-name": (lambda y: y["scalar_names"].__setitem__(1, ""),
                       "y_layout: scalar name '' is not a nonempty string"),
        "null-label": (lambda y: y["coord_labels"].__setitem__(0, None),
                       "y_layout: coordinate label None is not a nonempty string"),
        "number-units": (lambda y: y.update(units=[1.0, 2.0, 3.0]),
                         "y_layout: unit 1.0 is not a nonempty string"),
        "repeated-name": (lambda y: y["scalar_names"].__setitem__(2, "y1"),
                          r"y_layout: duplicate scalar names: \['y1'\]"),
        "one-unit-short": (lambda y: y.update(units=["m", "s"]),
                           "y_layout: expected 3 unit strings, got 2"),
    }

    @pytest.mark.parametrize("edit, message", LAYOUT_EDITS.values(), ids=LAYOUT_EDITS.keys())
    def test_output_layout_is_checked_at_load(
        self, trig4_gpr_surrogate, tmp_path, edit, message
    ):
        bundle = save_model(trig4_gpr_surrogate, tmp_path, "layout")
        edit_meta(bundle, edit, ("y_layout",))
        with pytest.raises(StoreError, match=message):
            load_model(bundle)

    def test_output_layout_with_units_loads(self, trig4_gpr_surrogate, tmp_path):
        bundle = save_model(trig4_gpr_surrogate, tmp_path, "layout")
        edit_meta(bundle, lambda y: y.update(units=["m", "s", "K"]), ("y_layout",))
        assert load_model(bundle).y_layout.units == ("m", "s", "K")

    def test_gpr_output_that_can_overflow_is_store_error(self, composite, tmp_path):
        """An LF amplitude whose bound on the stage's raw output, sf2 * sum
        |alpha| * y std + |y mean|, is not finite is refused at load, naming
        the bundle and the stage; just under that limit the bundle loads. The
        LF y scaler's stds are made four times larger, so an amplitude that
        keeps sf2 * sum |alpha| at half the float range is refused too."""
        lf = composite.lf
        wide = StandardScaler(lf.y_scaler.means, 4.0 * lf.y_scaler.divisor, lf.output_dim)
        obj = replace(composite, lf=replace(lf, y_scaler=wide))
        fmax = np.finfo(np.float64).max
        sums = np.abs(lf.model.alpha).sum(axis=0)
        limit = fmax / (sums * wide.divisor).max()
        for sf2, refused in ((2.0 * limit, True), (0.5 * limit, False),
                             (0.5 * fmax / sums.max(), True)):
            bundle = save_model(obj, tmp_path, "overflow")
            edit_meta(bundle, lambda hyper: hyper.update(signal_variance=sf2),
                      ("lf", "hyperparameters"))
            if refused:
                with pytest.raises(StoreError, match="lf.hyperparameters.signal_variance") as info:
                    load_model(bundle)
                assert str(bundle) in str(info.value)
            else:
                assert load_model(bundle).lf.model.kernel.signal_variance == sf2


class TestOutputNames:
    """Save and load apply the data standard's one naming rule: a layout
    that the data readers accept is saved and loads back as it was, and a
    data file whose names break the rule is refused when it is read."""

    def test_every_layout_a_tensor_accepts_loads_back(self, trig4_gpr_surrogate, tmp_path):
        Y = DataTensor.from_values(
            np.zeros((2, 3, 1)), ["C L", "\u00b5-flux", "y3"], ["x=0"], units=["-", " ", "\u00b0C"]
        )
        layout = TensorLayout.of(Y)
        bundle = save_model(replace(trig4_gpr_surrogate, y_layout=layout), tmp_path, "names")
        assert load_model(bundle).y_layout == layout

    @pytest.mark.parametrize("text, message", [
        ("2 1 1\n# units:\n1.0\n2.0\n", "unit '' is not a nonempty string"),
        ("2 2 1\n# units: m, \n1.0\n2.0\n3.0\n4.0\n", "unit '' is not a nonempty string"),
        ("1 3 1\n# scalar_names: a, , c\n1.0\n2.0\n3.0\n",
         "scalar name '' is not a nonempty string"),
        ("1 1 2\n# coord_labels: ,b\n1.0 2.0\n", "coordinate label '' is not a nonempty string"),
    ], ids=["blank-units", "trailing-comma-units", "blank-name", "blank-label"])
    def test_blank_tensor_text_entry_is_refused_at_read(self, tmp_path, text, message):
        path = tmp_path / "y.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"^{path}: {message}$"):
            import_tensor(path)

    def test_blank_csv_header_cell_is_refused_at_read(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(InputError, match=f"^{path}: scalar name '' is not a nonempty string$"):
            import_tensor(path, "csv")


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def resign_format_1(stage):
    """Re-sign a format-1 stage's CHECKSUMS, then its parent bundle's."""
    resign_checksums(stage)
    resign_checksums(stage.parent)


def drop_header(path):
    path.write_text(path.read_text().partition("\n")[2])
    resign_format_1(path.parent.parent)


def pad_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    resign_format_1(path.parent.parent)


def nan_value(path):
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[0] = np.nan
    path.write_bytes(values.tobytes())
    resign_format_1(path.parent.parent)


def unlist(path):
    checksums = path.parent.parent / "CHECKSUMS"
    lines = checksums.read_text().splitlines()
    checksums.write_text("\n".join(l for l in lines if not l.endswith(path.name)) + "\n")
    resign_checksums(checksums.parent.parent)


# A guard of format-1 loading, by the bundle and the lf stage payload it
# edits, and the message that names it.
FORMAT_1_GUARDS = {
    "checksum": ("mf_text_v1", "alpha.txt", flip_byte,
                 "checksum mismatch for .*lf_model/payload/alpha.txt"),
    "header": ("mf_text_v1", "alpha.txt", drop_header,
               "lf_model/payload/alpha.txt: text payload needs a 'rows cols' header"),
    "partial": ("mf_binary_v1", "alpha.bin", pad_bytes,
                "lf_model/payload/alpha.bin: size is not a whole number of float64"),
    "non-finite": ("mf_binary_v1", "X_train.bin", nan_value,
                   "lf_model/payload/X_train.bin: payload holds non-finite"),
    "unlisted": ("mf_text_v1", "alpha.txt", unlist,
                 "lf_model/payload/alpha.txt is not listed in CHECKSUMS"),
}


# The largest change from a format-1 fixture's saved means and LF stds
# allowed, relative to the largest saved |mean|. The fixtures' GPR stages are
# ill-conditioned (50 LF rows, 8 HF rows): the fold moves the means by up to
# 1.3e-9 of it and the LF stds by up to 4.0e-10; the MLP's by 3.3e-16.
FORMAT_1_RTOL = 1e-8


class TestFormat1:
    """Format-1 bundles, as the last release that wrote them saved them."""

    @pytest.mark.parametrize("name", ["mf_text_v1", "mf_binary_v1", "mlp_text_v1"])
    def test_fixture_predicts_the_bytes_it_was_saved_with(self, name):
        """The means and LF stds the release that saved the fixture gave,
        within ``FORMAT_1_RTOL``: serving plans fold each stage's scalers
        into its model's constants, which moves them in their last bits,
        and a std near a training site is a small difference of large
        terms."""
        expected = json.loads((FORMAT_1 / "expected.json").read_text())
        sites = np.array(expected["sites"])[:, None]
        loaded = load_model(FORMAT_1 / name)
        got = {"mean": loaded.predict_raw(sites).ravel()}
        if "lf_std" in expected[name]:
            got["lf_std"] = uq_report(loaded.lf, sites).std.ravel()
        scale = np.max(np.abs(expected[name]["mean"]))
        for key, values in got.items():
            assert np.max(np.abs(values - expected[name][key])) <= FORMAT_1_RTOL * scale, key

    def test_resaved_fixture_is_format_2_and_predicts_alike(self, tmp_path):
        loaded = load_model(FORMAT_1 / "mf_text_v1")
        bundle = save_model(loaded, tmp_path, "resaved")
        assert json.loads((bundle / "meta.json").read_text())["format_version"] == 2
        X = queries(1)
        assert load_model(bundle).predict_raw(X).tobytes() == loaded.predict_raw(X).tobytes()

    @pytest.mark.parametrize("fixture, payload, edit, message",
                             FORMAT_1_GUARDS.values(), ids=FORMAT_1_GUARDS.keys())
    def test_load_guards_name_the_format_1_file(self, tmp_path, fixture, payload, edit, message):
        bundle = shutil.copytree(FORMAT_1 / fixture, tmp_path / "old")
        edit(bundle / "lf_model" / "payload" / payload)
        with pytest.raises(StoreError, match=message):
            load_model(bundle)

    def test_future_format_version_rejected(self, tmp_path):
        bundle = shutil.copytree(FORMAT_1 / "mlp_text_v1", tmp_path / "old")
        edit_meta(bundle, lambda meta: meta.update(format_version=3))
        with pytest.raises(StoreError, match="unsupported bundle format_version 3"):
            load_model(bundle)

"""Bundle persistence: versioning, round trips, checksums, format guards."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import resign_checksums
from surrkit.errors import StoreError
from surrkit.gpr import KernelSpec
from surrkit.mlp import TrainConfig
from surrkit.modelstore import load_model, save_model
from surrkit.multifid import train_mf, train_single_fidelity
from surrkit.preprocess import SplitSpec
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset
from surrkit.tuner import GprGrid, MlpGrid


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
def composite():
    lf, hf = generate_pair_dataset(forrester_pair(), 30, 8, Sampler(seed=2))
    return train_mf(
        lf, hf, split=SplitSpec(seed=2),
        gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=2),
    )


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

    def test_nested_chain_round_trip(self, composite, tmp_path):
        """A composite whose low-fidelity member is itself a composite."""
        from surrkit.multifid import compose_with_lf
        from surrkit.data import DataTensor, FidelityDataset
        from surrkit.synthbench import forrester_pair, sample

        pair = forrester_pair()
        X_top = sample(Sampler(seed=9), pair.bounds, 10)
        top = FidelityDataset(
            "HF2",
            DataTensor.from_values(X_top[:, :, None], ("x",)),
            DataTensor.from_values(pair.hf(X_top)[:, :, None], ("y",)),
        )
        chain = compose_with_lf(
            composite, top, "gpr", SplitSpec(seed=9),
            gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=9),
        )
        bundle = save_model(chain, tmp_path, "chain")
        loaded = load_model(bundle)
        X = queries(1, seed=9)
        np.testing.assert_allclose(
            loaded.predict_raw(X), chain.predict_raw(X), rtol=0, atol=1e-12
        )


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

    def test_metadata_records_fit_details(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "meta_demo")
        meta = json.loads((bundle / "meta.json").read_text())
        assert "jitter_used" in meta["training"]
        assert "lml" in meta["training"]
        assert meta["model_type"] == "gpr"
        assert meta["format_version"] == 1


class TestLoadGuards:
    def test_tampered_payload_fails_checksum(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "tamper")
        payload = next((bundle / "payload").glob("*.txt"))
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
        bundle = save_model(gpr_surrogate, tmp_path, "noscaler")
        edit_meta(bundle, lambda meta: meta["payloads"].pop("x_scaler_means"))
        with pytest.raises(StoreError, match="scaler"):
            load_model(bundle)

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(StoreError, match="meta.json"):
            load_model(tmp_path)

    def test_composite_checksums_cover_children(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "nested")
        payload = next((bundle / "lf_model" / "payload").glob("*"))
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

        assert listed(bundle) == ["lf_model/CHECKSUMS", "mf_model/CHECKSUMS", "meta.json"]
        for child in ("lf_model", "mf_model"):
            payloads = sorted(p.relative_to(bundle / child).as_posix()
                              for p in (bundle / child / "payload").iterdir())
            assert sorted(listed(bundle / child)) == sorted(payloads + ["meta.json"])

    def test_edited_child_hyperparameter_fails_checksum(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "edited")
        meta_path = bundle / "lf_model" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["hyperparameters"]["length_scale"] = [
            3.0 * v for v in meta["hyperparameters"]["length_scale"]
        ]
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        with pytest.raises(StoreError, match="checksum mismatch.*lf_model/meta.json"):
            load_model(bundle)

    def test_child_resigned_alone_fails_parent_checksum(self, composite, tmp_path):
        bundle = save_model(composite, tmp_path, "resigned")
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
        checksums.write_text("\n".join(l for l in lines if not l.endswith("/L.txt")) + "\n")
        with pytest.raises(StoreError, match="L.txt is not listed in CHECKSUMS"):
            load_model(bundle)

    def test_binary_payload_of_partial_values_rejected(self, gpr_surrogate, tmp_path):
        bundle = save_model(gpr_surrogate, tmp_path, "ragged", payload_format="binary")
        path = bundle / "payload" / "alpha.bin"
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        resign_checksums(bundle)
        with pytest.raises(StoreError, match="not a whole number of float64"):
            load_model(bundle)

    @pytest.mark.parametrize(
        "payload, value",
        [("L", np.nan), ("L", np.inf), ("X_train", np.nan), ("alpha", -np.inf),
         ("x_scaler_means", np.nan), ("y_scaler_stds", np.inf)],
    )
    def test_non_finite_payload_rejected(self, gpr_surrogate, tmp_path, payload, value):
        bundle = save_model(gpr_surrogate, tmp_path, "nonfinite", payload_format="binary")
        path = bundle / "payload" / f"{payload}.bin"
        values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        values[-1] = value
        path.write_bytes(values.tobytes())
        resign_checksums(bundle)
        with pytest.raises(StoreError, match=f"{payload}.bin: payload holds non-finite"):
            load_model(bundle)


def edit_meta(bundle, change, child="."):
    """Edit the meta.json of a saved bundle (or of one of its children) and
    re-sign the bundle's checksums, so the edit gets past checksum
    verification to the schema checks."""
    meta_path = bundle / child / "meta.json"
    meta = json.loads(meta_path.read_text())
    change(meta)
    meta_path.write_text(json.dumps(meta))
    resign_checksums(bundle)


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "child, key",
        [("mf_model", "y_layout"), ("lf_model", "hyperparameters"), (".", "dims")],
    )
    def test_missing_meta_key_is_store_error(self, composite, tmp_path, child, key):
        bundle = save_model(composite, tmp_path, "schema")
        edit_meta(bundle, lambda meta: meta.pop(key), child)
        with pytest.raises(StoreError, match=key):
            load_model(bundle)

    @pytest.mark.parametrize("key", ["input_dim", "lf_output_dim", "hf_output_dim"])
    def test_composite_dims_checked_against_children(self, composite, tmp_path, key):
        bundle = save_model(composite, tmp_path, "dims")
        edit_meta(bundle, lambda meta: meta["dims"].update({key: 2}))
        with pytest.raises(StoreError, match=f"dims.{key}"):
            load_model(bundle)

"""Multi-fidelity composition: augmentation, training, and scaler routing."""

import csv
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from helpers import perdikaris_pair, pooled_r2
from surrkit.data import DataTensor, FidelityDataset, flatten
from surrkit.errors import InputError
from surrkit import gpr, multifid
from surrkit.gpr import KernelSpec
from surrkit.mlp import MlpArchitecture, MlpModel, TrainConfig, init_model
from surrkit.cli import main
from surrkit.modelstore import save_model
from surrkit.multifid import (
    FittedSurrogate,
    MfComposite,
    TensorLayout,
    build_mf_input,
    predict_tensor,
    train_mf,
    train_mf_chain,
    train_single_fidelity,
)
from surrkit.preprocess import SplitSpec, StandardScaler, split_data_cv
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, trig4_pair, truth_evaluate
from surrkit.tuner import GprGrid, MlpGrid


def constant_mlp_surrogate(d, outputs):
    """A surrogate that predicts the same raw vector everywhere (zero weights)."""
    outputs = np.asarray(outputs, dtype=float)
    q = outputs.size
    arch = MlpArchitecture(d, (1,), q, "identity")
    model = init_model(arch, 0)
    for W in model.weights:
        W[:] = 0.0
    model.biases[-1][:] = outputs
    return FittedSurrogate(
        model,
        StandardScaler.identity(d),
        StandardScaler.identity(q),
        TensorLayout(tuple(f"y{i}" for i in range(q)), ("0",)),
    )


def identity_mlp_surrogate():
    """1-d surrogate whose prediction equals its input exactly."""
    arch = MlpArchitecture(1, (1,), 1, "identity")
    model = MlpModel(
        arch,
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.array([0.0]), np.array([0.0])],
    )
    return FittedSurrogate(
        model,
        StandardScaler.identity(1),
        StandardScaler.identity(1),
        TensorLayout(("y",), ("0",)),
    )


def fast_grid(seed):
    return GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=2, seed=seed)


class TestBuildMfInput:
    def test_shape_arithmetic(self):
        rng = np.random.default_rng(0)
        lf = constant_mlp_surrogate(4, [1.0, 2.0])
        X = rng.uniform(0, 1, (400, 4))
        augmented = build_mf_input(lf, X)
        assert augmented.shape == (400, 6)

    def test_identity_model_duplicates_input(self):
        lf = identity_mlp_surrogate()
        X = np.array([[0.25], [0.5]])
        augmented = build_mf_input(lf, X)
        np.testing.assert_allclose(augmented, [[0.25, 0.25], [0.5, 0.5]], atol=1e-12)

    def test_wide_output_block(self):
        """q_lf = 12796 prediction columns ahead of d = 4 inputs."""
        q = 12796
        lf = constant_mlp_surrogate(4, np.zeros(q))
        augmented = build_mf_input(lf, np.zeros((3, 4)))
        assert augmented.shape == (3, q + 4)

    def test_prediction_block_comes_first(self):
        lf = constant_mlp_surrogate(2, [10.0, 20.0])
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        augmented = build_mf_input(lf, X)
        np.testing.assert_allclose(augmented[:, :2], [[10, 20], [10, 20]])
        np.testing.assert_allclose(augmented[:, 2:], X)

    def test_dimension_mismatch(self):
        lf = constant_mlp_surrogate(3, [0.0])
        with pytest.raises(InputError, match="columns"):
            build_mf_input(lf, np.zeros((5, 2)))


class TestTrainMf:
    def test_forrester_composite_dimensions(self):
        lf, hf = generate_pair_dataset(forrester_pair(), 50, 8, Sampler(seed=1))
        comp = train_mf(lf, hf, split=SplitSpec(seed=1), gpr_grid=fast_grid(1))
        assert comp.input_dim == 1
        assert comp.lf_output_dim == 1
        assert comp.mf.input_dim == 2

    def test_dataset_scale_mirror(self):
        """LF 800 / HF 400 sampling-point ratio trains end to end."""
        lf, hf = generate_pair_dataset(trig4_pair(), 800, 400, Sampler(seed=2))
        comp = train_mf(
            lf, hf, split=SplitSpec(seed=2),
            gpr_grid=GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=2),
        )
        assert comp.input_dim == 4
        assert comp.lf_output_dim == 3
        assert comp.mf.input_dim == 7
        assert comp.output_dim == 3

    def test_composite_accuracy_on_held_out_truth(self):
        pair = forrester_pair()
        lf, hf = generate_pair_dataset(pair, 50, 8, Sampler("uniform-grid", seed=7))
        comp = train_mf(lf, hf, split=SplitSpec(seed=7), gpr_grid=fast_grid(7))
        Xg = np.linspace(0, 1, 200)[:, None]
        assert pooled_r2(truth_evaluate(pair, Xg), comp.predict_raw(Xg)) > 0.99

    def test_input_dimension_mismatch(self):
        lf, _ = generate_pair_dataset(forrester_pair(), 20, 10, Sampler(seed=3))
        _, hf = generate_pair_dataset(trig4_pair(), 20, 10, Sampler(seed=3))
        with pytest.raises(InputError, match="input dimension"):
            train_mf(lf, hf, split=SplitSpec(seed=3))


class TestTrainMfChain:
    def three_level_datasets(self, seed=12):
        """Forrester plus a synthetic mid fidelity halfway between LF and HF."""
        pair = forrester_pair()
        sampler = Sampler("uniform-grid", seed=seed)
        lf, hf = generate_pair_dataset(pair, 60, 10, sampler)
        from surrkit.synthbench import sample

        X_mid = sample(Sampler("uniform-grid", seed=seed + 5), pair.bounds, 24)
        Y_mid = 0.5 * (pair.lf(X_mid) + pair.hf(X_mid))
        mid = FidelityDataset(
            "MF",
            DataTensor.from_values(X_mid[:, :, None], ("x",)),
            DataTensor.from_values(Y_mid[:, :, None], ("y",)),
        )
        return pair, [lf, mid, hf]

    def test_three_levels_fold(self):
        pair, datasets = self.three_level_datasets()
        chain, sweeps = train_mf_chain(
            datasets, "gpr", SplitSpec(seed=12), gpr_grid=fast_grid(12)
        )
        assert isinstance(chain, MfComposite)
        assert isinstance(chain.lf, MfComposite)
        assert chain.input_dim == 1
        # One sweep per level, lowest first, each the one that chose its stage.
        stages = [chain.lf.lf, chain.lf.mf, chain.mf]
        assert len(sweeps) == 3
        assert all(sweep.model is stage.model for sweep, stage in zip(sweeps, stages))
        # The composite holds its stages and nothing else, and they stay put.
        assert [f.name for f in fields(MfComposite)] == ["lf", "mf"]
        with pytest.raises(FrozenInstanceError):
            chain.mf = chain.lf
        Xg = np.linspace(0, 1, 120)[:, None]
        assert pooled_r2(truth_evaluate(pair, Xg), chain.predict_raw(Xg)) > 0.99

    def test_single_level_degenerates(self):
        _, datasets = self.three_level_datasets()
        single, sweeps = train_mf_chain(
            datasets[:1], "gpr", SplitSpec(seed=12), gpr_grid=fast_grid(12)
        )
        assert isinstance(single, FittedSurrogate)
        assert len(sweeps) == 1 and sweeps[0].model is single.model

    def test_kind_count_checked(self):
        _, datasets = self.three_level_datasets()
        with pytest.raises(InputError, match="model kinds"):
            train_mf_chain(datasets, ["gpr", "mlp"], SplitSpec(seed=12))

    def test_input_dimensions_checked_before_any_level_trains(self, monkeypatch):
        _, datasets = self.three_level_datasets()
        _, wide = generate_pair_dataset(trig4_pair(), 20, 10, Sampler(seed=3))
        calls = []
        monkeypatch.setattr(
            multifid, "tune", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(InputError, match="input dimension"):
            train_mf_chain(datasets[:2] + [wide], "gpr", SplitSpec(seed=12))
        assert calls == []


def test_fusion_of_a_nonlinear_pair_beats_hf_alone():
    """On the Perdikaris pair, where f_hf is no affine map of [f_lf(x) | x],
    the composite of 50 LF and 20 HF points reaches R^2 >= 0.9 on a
    1000-point grid and beats an HF-only GPR on every seed. Over seeds 0-9
    the composite's R^2 ran from 0.939 (seed 0) to 0.9998, the HF-only
    GPR's from 0.02 to 0.48."""
    pair = perdikaris_pair()
    grid = np.linspace(0.0, 1.0, 1000)[:, None]
    truth = pair.hf(grid)
    for seed in range(10):
        lf, hf = generate_pair_dataset(pair, 50, 20, Sampler("uniform-random", seed))
        split, gpr_grid = SplitSpec(seed=seed), GprGrid(seed=seed)
        composite = train_mf(lf, hf, split=split, gpr_grid=gpr_grid)
        hf_only, _ = train_single_fidelity(hf, "gpr", split, gpr_grid)
        fused = pooled_r2(truth, composite.predict_raw(grid))
        alone = pooled_r2(truth, hf_only.predict_raw(grid))
        assert fused >= 0.9 and fused > alone, (seed, fused, alone)


class TestPredictAtDesignSites:
    def make_composite(self, seed=4):
        pair = forrester_pair()
        lf, hf = generate_pair_dataset(pair, 50, 8, Sampler("uniform-grid", seed=seed))
        comp = train_mf(lf, hf, split=SplitSpec(seed=seed), gpr_grid=fast_grid(seed))
        return pair, hf, comp

    def test_reproduces_hf_training_point(self):
        _, hf, comp = self.make_composite()
        train_idx, _, _ = split_data_cv(hf.n, SplitSpec(seed=4))
        i = int(train_idx[0])
        sites = DataTensor.from_values(hf.X.values[[i]], hf.X.scalar_names)
        pred = predict_tensor(comp, sites)
        target = hf.Y.values[i, 0, 0]
        assert pred.values[0, 0, 0] == pytest.approx(target, rel=1e-4)

    def test_forrester_left_endpoint(self):
        pair, _, comp = self.make_composite()
        sites = DataTensor.from_values(np.array([[[0.0]]]), ("x",))
        pred = predict_tensor(comp, sites)
        truth = 4 * np.sin(-4)  # about 3.0272
        assert pred.values[0, 0, 0] == pytest.approx(truth, rel=0.02)

    def test_csv_export_one_row_per_site(self, tmp_path):
        _, _, comp = self.make_composite()
        bundle = save_model(comp, tmp_path, "mf")
        x = np.linspace(0.1, 0.9, 5)
        sites = tmp_path / "sites.csv"
        sites.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model-dir", str(bundle),
                     "--sites", str(sites), "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["x", "y"]
        assert len(rows) == 1 + 5
        expected = comp.predict_raw(x[:, None])[:, 0]
        np.testing.assert_array_equal([float(r[1]) for r in rows[1:]], expected)

    def test_scaler_routing_matches_training_pipeline(self):
        """Raw HF inputs through the online chain equal the training-time
        numbers: no double scaling, no skipped inverse transform."""
        _, hf, comp = self.make_composite(seed=5)
        X_raw = flatten(hf.X)
        online = comp.predict_raw(X_raw)
        # training-time route, assembled by hand from the pieces
        augmented = build_mf_input(comp.lf, X_raw)
        manual = comp.mf.predict_raw(augmented)
        assert np.max(np.abs(online - manual)) < 1e-10

    def test_dimension_checked(self):
        _, _, comp = self.make_composite(seed=6)
        sites = DataTensor.from_values(np.zeros((2, 3, 1)))
        with pytest.raises(InputError, match="^design sites has 3 columns, expected 1$"):
            predict_tensor(comp, sites)


class TestConstantLfDegeneracy:
    def test_composite_matches_single_fidelity_plus_constant_column(self):
        """A constant LF model adds a zero-information column, so the
        composite must match the plain single-fidelity model."""
        pair = forrester_pair()
        _, hf = generate_pair_dataset(pair, 50, 16, Sampler(seed=8))
        split = SplitSpec(seed=8)
        grid = GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=8)

        lf_const = constant_mlp_surrogate(1, [7.0])
        augmented = build_mf_input(lf_const, flatten(hf.X))
        aug_ds = FidelityDataset(
            "HF", DataTensor.from_values(augmented[:, :, None]), hf.Y
        )
        mf_surr, _ = train_single_fidelity(aug_ds, "gpr", split, gpr_grid=grid)
        composite = MfComposite(lf=lf_const, mf=mf_surr)

        single, _ = train_single_fidelity(hf, "gpr", split, gpr_grid=grid)
        Xq = np.linspace(0, 1, 50)[:, None]
        np.testing.assert_allclose(
            composite.predict_raw(Xq), single.predict_raw(Xq), atol=1e-8
        )


class TestPredictSingleFidelity:
    def test_constant_model(self):
        surr = constant_mlp_surrogate(2, [3.0])
        sites = DataTensor.from_values(np.random.default_rng(0).uniform(0, 1, (5, 2, 1)))
        pred = predict_tensor(surr, sites)
        np.testing.assert_allclose(pred.values, 3.0, atol=1e-12)

    def test_interpolating_gpr_reproduces_training_targets(self):
        _, hf = generate_pair_dataset(forrester_pair(), 40, 40, Sampler(seed=9))
        surr, _ = train_single_fidelity(hf, "gpr", SplitSpec(seed=9), gpr_grid=fast_grid(9))
        train_idx, _, _ = split_data_cv(hf.n, SplitSpec(seed=9))
        sites = DataTensor.from_values(hf.X.values[train_idx], hf.X.scalar_names)
        pred = predict_tensor(surr, sites)
        assert pooled_r2(hf.Y.values[train_idx].ravel(), pred.values.ravel()) > 0.99

    def test_coefficient_table_schema(self):
        """Large steady-state coefficient table: 4940 cases, 4 inputs, 3 QoI."""
        rng = np.random.default_rng(10)
        n = 4940
        X = np.column_stack([
            rng.uniform(-20, 20, n),
            rng.uniform(0, 2, n),
            rng.uniform(0, 90, n),
            rng.uniform(1.2, 20, n),
        ])
        alpha = X[:, 0]
        Y = np.column_stack([
            0.05 * alpha, 0.01 * alpha**2 / 20 + 0.02 * X[:, 3], 0.001 * alpha,
        ])
        ds = FidelityDataset(
            "HF",
            DataTensor.from_values(X[:, :, None], ("alpha", "beta", "altitude", "mach")),
            DataTensor.from_values(Y[:, :, None], ("C_L", "C_D", "C_M")),
        )
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=60, batch_size=256,
                          early_stop_patience=60, seed=10)
        surr, _ = train_single_fidelity(
            ds, "mlp", SplitSpec(seed=10),
            mlp_grid=MlpGrid(layer_counts=(1,), widths=(16,), train=cfg),
        )
        sites = DataTensor.from_values(X[:3, :, None], ds.X.scalar_names)
        pred = predict_tensor(surr, sites)
        assert pred.shape == (3, 3, 1)
        assert pred.scalar_names == ("C_L", "C_D", "C_M")


class TestAugmentedColumnOrderStability:
    def test_sentinel_columns_keep_position_through_train_and_predict(self):
        rng = np.random.default_rng(11)
        lf = constant_mlp_surrogate(2, [10.0, 20.0, 30.0])
        X_train_raw = rng.uniform(0, 1, (12, 2))
        X_query_raw = rng.uniform(0, 1, (4, 2))
        aug_train = build_mf_input(lf, X_train_raw)
        aug_query = build_mf_input(lf, X_query_raw)
        for aug, X in ((aug_train, X_train_raw), (aug_query, X_query_raw)):
            np.testing.assert_allclose(aug[:, 0], 10.0)
            np.testing.assert_allclose(aug[:, 1], 20.0)
            np.testing.assert_allclose(aug[:, 2], 30.0)
            np.testing.assert_allclose(aug[:, 3:], X)


def test_stage_widths_are_its_scalers():
    """A stage whose model does not take its x scaler's columns, or does not
    give its y scaler's, is refused when it is made, with one line:
    ``predict_raw`` checks no width after the raw sites'."""
    X = np.random.default_rng(14).uniform(0, 1, (10, 3))
    gpr_model = gpr.gpr_fit(X, X[:, :1], KernelSpec(kind="rbf"))
    mlp_model = init_model(MlpArchitecture(1, (2,), 1, "identity"), 0)
    identity = StandardScaler.identity
    layout = TensorLayout(("y",), ("0",))
    cases = [
        (gpr_model, 1, 1, "has 3 inputs, but its x scaler has 1 columns"),
        (gpr_model, 3, 2, "has 1 outputs, but its y scaler has 2 columns"),
        (mlp_model, 2, 1, "has 1 inputs, but its x scaler has 2 columns"),
        (mlp_model, 1, 3, "has 1 outputs, but its y scaler has 3 columns"),
    ]
    for model, d, q, message in cases:
        with pytest.raises(InputError, match=f"^{re.escape(model.describe())} {message}$"):
            FittedSurrogate(model, identity(d), identity(q), layout)
    stage = FittedSurrogate(gpr_model, identity(3), identity(1), layout)
    with pytest.raises(InputError, match="x scaler has 1 columns"):
        replace(stage, x_scaler=identity(1))


@pytest.mark.parametrize("kind", ["gpr", "mlp"])
def test_non_finite_sites_rejected_for_every_kind(kind):
    """The check is ``data.as_matrix``, made once per call by the
    outermost ``predict_raw``, so GPR and MLP models reject NaN/inf alike,
    and a composite rejects them before its LF stage runs."""
    _, hf = generate_pair_dataset(forrester_pair(), 20, 20, Sampler(seed=13))
    cfg = TrainConfig(max_epochs=5, early_stop_patience=5, seed=13)
    surr, _ = train_single_fidelity(
        hf, kind, SplitSpec(seed=13), gpr_grid=fast_grid(13),
        mlp_grid=MlpGrid(layer_counts=(1,), widths=(4,), train=cfg),
    )
    composite = MfComposite(lf=surr, mf=constant_mlp_surrogate(2, [0.0]))
    for model in (surr, composite):
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="non-finite"):
                model.predict_raw(np.array([[0.5], [bad]]))


def test_mean_paths_never_solve_for_the_variance(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 1, (25, 1))
    identity = StandardScaler.identity
    layout = TensorLayout(("y",), ("0",))
    lf_model = gpr.gpr_fit(X, np.sin(8 * X), KernelSpec(kind="rbf", length_scale=0.2))
    lf = FittedSurrogate(lf_model, identity(1), identity(1), layout)
    A = build_mf_input(lf, X)
    mf = FittedSurrogate(
        gpr.gpr_fit(A, np.sin(8 * X) + X, KernelSpec(kind="rbf", length_scale=0.5)),
        identity(2), identity(1), layout,
    )
    comp = MfComposite(lf=lf, mf=mf)
    Xq = rng.uniform(0, 1, (7, 1))
    plan = lf_model.serving_plan(identity(1), identity(1))
    calls = (lambda: plan(Xq), lambda: lf.predict_raw(Xq), lambda: comp.predict_raw(Xq))
    before = [call() for call in calls]

    def no_solve(*args, **kwargs):
        raise AssertionError("the mean path ran a triangular solve")

    monkeypatch.setattr(gpr, "dtrtrs", no_solve)
    for call, expected in zip(calls, before):
        assert call().tobytes() == expected.tobytes()
    with pytest.raises(AssertionError, match="triangular solve"):
        gpr.gpr_predict(lf_model, Xq)

"""One input contract for every raw-unit prediction, and its byte identity.

Every ``predict_raw`` and ``metrics.uq_report`` checks its raw sites with
one ``data.as_matrix`` call, at the outermost call: a rank-1 array is one
column, and a wrong column count, a NaN or an infinity raises
``InputError``. A finite site that overflows when a scaler divides it is
caught by the model's check of its scaled query. The stages run the
arithmetic of ``transform``, the model and ``inverse_transform`` without
those functions' checks, and must not change a byte of any prediction: the
output of GPR/GPR, GPR/MLP and 3-level composites is compared with a
reference assembled stage by stage from those public pieces.
"""

import sys

import numpy as np
import pytest

from surrkit.data import as_matrix
from surrkit.errors import InputError
from surrkit.gpr import KernelSpec, kernel_eval
from surrkit.metrics import uq_report
from surrkit.mlp import MlpModel, TrainConfig, mlp_forward
from surrkit.multifid import MfComposite, train_mf, train_mf_chain, train_single_fidelity
from surrkit.preprocess import SplitSpec, fit_scaler, inverse_transform, transform
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, trig4_pair
from surrkit.tuner import GprGrid, MlpGrid

SPLIT = SplitSpec(seed=3)
GPR_GRID = GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=3)
MLP_GRID = MlpGrid(
    layer_counts=(1,), widths=(4,),
    train=TrainConfig(max_epochs=5, early_stop_patience=5, seed=3),
)


@pytest.fixture(scope="module")
def predictors():
    """Raw-site predictors on the 1-D Forrester pair, by name."""
    pair = forrester_pair()
    lf, hf = generate_pair_dataset(pair, 30, 16, Sampler(seed=3))
    _, mid = generate_pair_dataset(pair, 30, 16, Sampler(seed=4))
    gpr_stage, _ = train_single_fidelity(hf, "gpr", SPLIT, gpr_grid=GPR_GRID)
    mlp_stage, _ = train_single_fidelity(hf, "mlp", SPLIT, mlp_grid=MLP_GRID)
    gpr_gpr = train_mf(lf, hf, "gpr", "gpr", SPLIT, GPR_GRID)
    gpr_mlp = train_mf(lf, hf, "gpr", "mlp", SPLIT, GPR_GRID, MLP_GRID)
    chain, _ = train_mf_chain([lf, mid, hf], "gpr", SPLIT, GPR_GRID)
    assert isinstance(chain.lf, MfComposite)

    def uq(X):
        report = uq_report(gpr_stage, X)
        return np.hstack([report.mean, report.std])

    return {
        "gpr": gpr_stage.predict_raw,
        "mlp": mlp_stage.predict_raw,
        "gpr/gpr": gpr_gpr.predict_raw,
        "gpr/mlp": gpr_mlp.predict_raw,
        "3-level": chain.predict_raw,
        "uq_report": uq,
    }


NAMES = ["gpr", "mlp", "gpr/gpr", "gpr/mlp", "3-level", "uq_report"]


@pytest.mark.parametrize("name", NAMES)
def test_rank_1_sites_are_one_column(predictors, name):
    x = np.linspace(-0.1, 1.1, 9)
    predict = predictors[name]
    assert predict(x).tobytes() == predict(x[:, np.newaxis]).tobytes()


@pytest.mark.parametrize(
    "bad",
    [np.zeros((3, 2)), np.array([[0.5], [np.nan]]), np.array([[0.5], [-np.inf]]),
     np.array([[1e308]])],
    ids=["two-columns", "nan", "inf", "overflow"],
)
@pytest.mark.parametrize("name", NAMES)
def test_bad_sites_raise_input_error(predictors, name, bad):
    with pytest.raises(InputError):
        predictors[name](bad)


def test_overflow_is_caught_after_scaling(predictors):
    """1e308 is finite, so the raw check passes it; the scaled query is not."""
    assert np.isfinite(as_matrix([[1e308]], "design sites", 1)).all()
    with pytest.raises(InputError, match="non-finite"):
        predictors["gpr/gpr"](np.array([[1e308]]))


def _reference(stage, x):
    """The prediction built stage by stage from public pieces.

    A GPR stage takes a batch in blocks of ``_block_rows`` sites, so the
    reference does too: OpenBLAS may round the last columns of a small tail
    block differently from the same columns inside one large product.
    """
    if isinstance(stage, MfComposite):
        return _reference(stage.mf, np.hstack([_reference(stage.lf, x), x]))
    model = stage.model
    if isinstance(model, MlpModel):
        return inverse_transform(stage.y_scaler, mlp_forward(model, transform(stage.x_scaler, x)))
    rows = model._block_rows
    means = [
        kernel_eval(model.kernel, model.X_train, transform(stage.x_scaler, x[i : i + rows])).T
        @ model.alpha
        for i in range(0, len(x), rows)
    ]
    return inverse_transform(stage.y_scaler, np.vstack(means))


def _largest_block(stage) -> int:
    """The most sites any GPR stage of ``stage`` predicts in one block."""
    if isinstance(stage, MfComposite):
        return max(_largest_block(stage.lf), _largest_block(stage.mf))
    return getattr(stage.model, "_block_rows", 1)


# Composites on the trig4 pair: GPR/GPR with the two kernels whose blocks
# differ most in size, a GPR/MLP pair and a 3-level GPR chain.
TRIG4_COMPOSITES = {
    "constant*rbf": ("gpr", KernelSpec(kind="constant*rbf")),
    "constant*matern2.5": ("gpr", KernelSpec(kind="constant*matern", nu=2.5)),
    "gpr/mlp": ("mlp", KernelSpec(kind="constant*rbf")),
    "3-level": ("3-level", KernelSpec(kind="constant*rbf")),
}


@pytest.fixture(scope="module", params=TRIG4_COMPOSITES.values(), ids=TRIG4_COMPOSITES.keys())
def trig4_composite(request):
    top, kernel = request.param
    lf, hf = generate_pair_dataset(trig4_pair(), 60, 30, Sampler(seed=5))
    grid = GprGrid(kernels=(kernel,), restarts=1, seed=5)
    if top == "3-level":
        _, mid = generate_pair_dataset(trig4_pair(), 60, 30, Sampler(seed=6))
        return train_mf_chain([lf, mid, hf], "gpr", SplitSpec(seed=5), grid)[0]
    return train_mf(lf, hf, "gpr", top, SplitSpec(seed=5), grid, MLP_GRID)


class TestByteIdentity:
    def test_single_sites(self, trig4_composite):
        sites = np.random.default_rng(6).uniform(size=(40, 4))
        for i in range(len(sites)):
            site = sites[i : i + 1]
            expected = _reference(trig4_composite, site)
            assert trig4_composite.predict_raw(site).tobytes() == expected.tobytes()

    def test_batch_beyond_one_block(self, trig4_composite):
        rows = _largest_block(trig4_composite)
        sites = np.random.default_rng(7).uniform(size=(rows + 37, 4))
        expected = _reference(trig4_composite, sites)
        assert trig4_composite.predict_raw(sites).tobytes() == expected.tobytes()


def test_raw_sites_are_checked_once(predictors, monkeypatch):
    """Every predictor checks its raw sites with one ``as_matrix`` call,
    whichever module makes it; its stages check no matrix again."""
    checked = []

    def counted(x, name, *args, **kwargs):
        checked.append(name)
        return as_matrix(x, name, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("surrkit") and getattr(module, "as_matrix", None) is as_matrix:
            monkeypatch.setattr(module, "as_matrix", counted)
    for name in NAMES:
        for sites in (np.array([[0.3]]), np.linspace(0.0, 1.0, 9)):
            checked.clear()
            predictors[name](sites)
            assert checked == ["design sites"], name


def test_no_divisor_is_built_per_call(predictors, monkeypatch):
    """The scalers' divisors exist from construction on: with ``np.where``
    broken, scaling and a GPR/GPR prediction still work."""
    scaler = fit_scaler(np.array([[1.0, 5.0], [3.0, 5.0]]))
    X = np.array([[2.0, 5.0]])
    predict = predictors["gpr/gpr"]
    expected = predict(np.array([[0.3], [0.7]]))

    def broken(*args, **kwargs):
        raise AssertionError("np.where called on the predict path")

    monkeypatch.setattr(np, "where", broken)
    assert transform(scaler, X).tolist() == [[0.0, 0.0]]
    assert inverse_transform(scaler, transform(scaler, X)).tolist() == X.tolist()
    assert predict(np.array([[0.3], [0.7]])).tobytes() == expected.tobytes()

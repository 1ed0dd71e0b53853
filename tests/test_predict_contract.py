"""One input contract for every raw-unit prediction, one overflow rule, and
the bytes a serving plan keeps.

Every ``predict_raw`` and ``metrics.uq_report`` checks its raw sites' shape
with one ``data.as_matrix`` call, at the outermost call: a rank-1 array is
one column, and a wrong column count raises ``InputError``. Each stage then
checks their values once, against its serving plan's bound (the plan folds
the stage's scalers into its model's constants): a NaN, an infinity and a
finite site past the bound raise ``InputError``, and below the bound no step
of the stage can overflow, so every site gives a finite prediction or one
``InputError``, never a numpy warning. The fold moves predictions in their
last bits: GPR/GPR, GPR/MLP and 3-level composites are compared within a
stated tolerance with a reference assembled stage by stage from the public
pieces (``transform``, the model, ``inverse_transform``), and keep their
bytes saved and loaded, as a tensor and a matrix, and between ``uq_report``
and ``predict_raw``. A plan is a model's one prediction path: sweeps and
convergence studies score with it, so a recorded score is the served
stage's, bit for bit (for convergence studies,
``test_tuner::TestConvergenceRunsTheTrainingPath``).
"""

import ast
import contextlib
import functools
import io
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import REFERENCE_RTOL
from surrkit.cli import main
from surrkit import multifid
from surrkit.data import DataTensor, as_matrix
from surrkit.errors import InputError
from surrkit.gpr import GprModel, KernelSpec, kernel_eval
from surrkit.metrics import rmse, uq_report
from surrkit.mlp import MlpModel, TrainConfig, mlp_forward
from surrkit.modelstore import load_model, save_model
from surrkit.multifid import (
    MfComposite,
    predict_tensor,
    train_mf,
    train_mf_chain,
    train_single_fidelity,
)
from surrkit.preprocess import SplitSpec, fit_scaler, inverse_transform, transform
from surrkit.synthbench import Sampler, forrester_pair, generate_pair_dataset, trig4_pair
from surrkit.tuner import GprGrid, MlpGrid

SPLIT = SplitSpec(seed=3)
GPR_GRID = GprGrid(kernels=(KernelSpec(kind="constant*rbf"),), restarts=1, seed=3)
MLP_GRID = MlpGrid(
    layer_counts=(1,), widths=(4,),
    train=TrainConfig(max_epochs=5, early_stop_patience=5, seed=3),
)


# perfbench's bound on how far a single site may stray from its batch row,
# relative to max(|batch row|, the batch's std per output).
AGREE_RTOL = 1e-6


@pytest.fixture(scope="module")
def surrogates():
    """Surrogates of every stage kind on the 1-D Forrester pair, by name."""
    pair = forrester_pair()
    lf, hf = generate_pair_dataset(pair, 30, 16, Sampler(seed=3))
    _, mid = generate_pair_dataset(pair, 30, 16, Sampler(seed=4))
    gpr_stage, _ = train_single_fidelity(hf, "gpr", SPLIT, gpr_grid=GPR_GRID)
    mlp_stage, _ = train_single_fidelity(hf, "mlp", SPLIT, mlp_grid=MLP_GRID)
    gpr_gpr = train_mf(lf, hf, "gpr", "gpr", SPLIT, GPR_GRID)
    gpr_mlp = train_mf(lf, hf, "gpr", "mlp", SPLIT, GPR_GRID, MLP_GRID)
    chain, _ = train_mf_chain([lf, mid, hf], "gpr", SPLIT, GPR_GRID)
    assert isinstance(chain.lf, MfComposite)
    return {"gpr": gpr_stage, "mlp": mlp_stage, "gpr/gpr": gpr_gpr, "gpr/mlp": gpr_mlp,
            "3-level": chain}


@pytest.fixture(scope="module")
def predictors(surrogates):
    """Raw-site predictors, by name: each surrogate's ``predict_raw``, and
    ``uq_report`` of the GPR stage as its mean and std side by side."""

    def uq(X):
        report = uq_report(surrogates["gpr"], X)
        return np.hstack([report.mean, report.std])

    return {**{name: s.predict_raw for name, s in surrogates.items()}, "uq_report": uq}


KINDS = ["gpr", "mlp", "gpr/gpr", "gpr/mlp", "3-level"]
NAMES = KINDS + ["uq_report"]


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


def test_overflow_is_caught_by_the_stage_bound(predictors):
    """1e308 is finite, so the shape check passes it; the first stage's
    bound refuses it before it is scaled."""
    assert np.isfinite(as_matrix([[1e308]], "design sites", 1)).all()
    with pytest.raises(InputError, match=r"^X_star holds a value of magnitude 1e\+308; "):
        predictors["gpr/gpr"](np.array([[1e308]]))


def _stages(surrogate) -> list:
    """The single-model stages of ``surrogate``, lowest first."""
    if isinstance(surrogate, MfComposite):
        return _stages(surrogate.lf) + [surrogate.mf]
    return [surrogate]


def _extreme_values(surrogate) -> list[float]:
    """Either sign of the float range's edge, of 1e200 and of the values a
    hair under and over each stage's plan bound, and NaN."""
    values = [1e308, 1e200]
    for stage in _stages(surrogate):
        bound = stage._plan.bound
        values += [np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    return [np.nan] + [sign * v for v in values for sign in (1.0, -1.0)]


def _finite_or_refused(predict, site: np.ndarray) -> bool:
    """Whether ``predict`` took ``site`` (its prediction must be finite) or
    refused it with ``InputError``; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pred = predict(site)
        except InputError:
            return False
    assert np.isfinite(pred).all(), (site, pred)
    return True


@pytest.mark.parametrize("name", NAMES)
def test_one_overflow_rule_for_every_stage_kind(surrogates, predictors, name):
    """Every extreme site gives a finite prediction or one ``InputError``.
    The first stage refuses NaN and a site a hair over its bound; a single
    stage predicts a hair under it, where no step can overflow, not even
    inside a BLAS product, which would not warn."""
    surrogate = surrogates[name if name in KINDS else "gpr"]
    predict = predictors[name]
    for value in _extreme_values(surrogate):
        _finite_or_refused(predict, np.array([[value]]))
    bound = _stages(surrogate)[0]._plan.bound
    assert 1.0 < bound < np.finfo(np.float64).max
    for site in (np.nan, np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf)):
        assert not _finite_or_refused(predict, np.array([[site]]))
    if not isinstance(surrogate, MfComposite):
        for site in (np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0)):
            assert _finite_or_refused(predict, np.array([[site]]))


@pytest.mark.parametrize("name", KINDS)
def test_cli_predict_of_an_extreme_site_exits_0_or_2(surrogates, name, tmp_path):
    """``surrkit predict`` on one extreme site writes a finite prediction
    and exits 0, or exits 2 with one line on stderr; a warning fails the
    test."""
    bundle = save_model(surrogates[name], tmp_path, "model")
    sites, out = tmp_path / "sites.csv", tmp_path / "pred.csv"
    for value in _extreme_values(surrogates[name]):
        sites.write_text(f"x\n{value!r}\n")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                         "--out", str(out)])
        lines = err.getvalue().strip().splitlines()
        if code == 0:
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all(), value
            out.unlink()
        else:
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (value, lines)
            assert not out.exists()


@pytest.mark.parametrize("name", KINDS)
def test_single_sites_agree_with_their_batch_rows(surrogates, name):
    """Each site of a batch longer than its largest block, predicted alone,
    is its batch row to within ``AGREE_RTOL``."""
    surrogate = surrogates[name]
    sites = np.linspace(-0.1, 1.1, _largest_block(surrogate) + 37)[:, np.newaxis]
    batch = surrogate.predict_raw(sites)
    scale = np.maximum(np.abs(batch), batch.std(axis=0))
    n = len(sites)
    for i in [*range(0, n - 37, 5), *range(n - 37, n)]:  # the tail block in full
        single = surrogate.predict_raw(sites[i : i + 1])
        assert np.max(np.abs(single[0] - batch[i]) / scale[i]) <= AGREE_RTOL, i


def test_the_plan_is_built_on_the_first_prediction_only(surrogates, tmp_path, monkeypatch):
    """``load_model`` builds no plan; the first prediction builds one per
    stage and later ones, ``uq_report`` too, build none."""
    builds = []

    def counting(inner):
        def serving_plan(self, x_scaler, y_scaler):
            builds.append(self)
            return inner(self, x_scaler, y_scaler)

        return serving_plan

    for cls in (GprModel, MlpModel):
        monkeypatch.setattr(cls, "serving_plan", counting(cls.serving_plan))
    sites = np.linspace(0.0, 1.0, 5)
    for name, surrogate in surrogates.items():
        loaded = load_model(save_model(surrogate, tmp_path, name.replace("/", "-")))
        assert builds == [], name
        for _ in range(3):
            loaded.predict_raw(sites)
            loaded.predict_raw(sites[:1])
        stages = _stages(loaded)
        if isinstance(stages[0].model, GprModel):
            uq_report(stages[0], sites)
        assert [id(model) for model in builds] == [id(stage.model) for stage in stages], name
        builds.clear()


def test_the_training_side_is_built_on_the_first_prediction_only(
    surrogates, tmp_path, monkeypatch
):
    """``load_model`` builds no GPR training side; predictions, ``uq_report``
    too, build one per GPR model, on the first, and keep it."""
    builds = []
    inner = GprModel._train_side.func

    def counted(self):
        builds.append(self)
        return inner(self)

    side = functools.cached_property(counted)
    side.__set_name__(GprModel, "_train_side")
    monkeypatch.setattr(GprModel, "_train_side", side)
    sites = np.linspace(0.0, 1.0, 5)
    for name, surrogate in surrogates.items():
        loaded = load_model(save_model(surrogate, tmp_path, name.replace("/", "-")))
        stages = _stages(loaded)
        models = [stage.model for stage in stages if isinstance(stage.model, GprModel)]
        assert builds == [] and all("_train_side" not in m.__dict__ for m in models), name
        for _ in range(3):
            loaded.predict_raw(sites)
            loaded.predict_raw(sites[:1])
        if isinstance(stages[0].model, GprModel):
            uq_report(stages[0], sites)
        assert [id(model) for model in builds] == [id(model) for model in models], name
        builds.clear()


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


def assert_near_reference(got: np.ndarray, expected: np.ndarray) -> None:
    assert np.max(np.abs(got - expected)) <= REFERENCE_RTOL * np.max(np.abs(expected))


class TestByteIdentity:
    """The fold moves predictions from the stage-by-stage reference in
    their last bits only; where a plan promises bytes, they hold: saved and
    loaded, as a tensor and as a matrix, and between ``uq_report``'s mean
    and ``predict_raw`` (and rank-1 against one-column sites, in
    ``test_rank_1_sites_are_one_column``)."""

    def test_single_sites(self, trig4_composite):
        sites = np.random.default_rng(6).uniform(size=(40, 4))
        for i in range(len(sites)):
            site = sites[i : i + 1]
            expected = _reference(trig4_composite, site)
            assert_near_reference(trig4_composite.predict_raw(site), expected)

    def test_batch_beyond_one_block(self, trig4_composite):
        rows = _largest_block(trig4_composite)
        sites = np.random.default_rng(7).uniform(size=(rows + 37, 4))
        expected = _reference(trig4_composite, sites)
        assert_near_reference(trig4_composite.predict_raw(sites), expected)

    def test_where_the_plan_keeps_its_bytes(self, trig4_composite, tmp_path):
        sites = np.random.default_rng(8).uniform(size=(_largest_block(trig4_composite) + 37, 4))
        expected = trig4_composite.predict_raw(sites).tobytes()
        for fmt in ("text", "binary"):
            loaded = load_model(save_model(trig4_composite, tmp_path, fmt, payload_format=fmt))
            assert loaded.predict_raw(sites).tobytes() == expected
        tensor = predict_tensor(trig4_composite, DataTensor.from_values(sites))
        assert tensor.values.tobytes() == expected
        lowest = _stages(trig4_composite)[0]
        assert uq_report(lowest, sites).mean.tobytes() == lowest.predict_raw(sites).tobytes()


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


TWO_KERNELS = GprGrid(
    kernels=(KernelSpec(kind="constant*rbf"), KernelSpec(kind="constant*matern", nu=2.5)),
    restarts=1, seed=3,
)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("mf_kind", ["gpr", "mlp"])
def test_each_level_records_the_score_of_the_stage_it_serves(mf_kind, monkeypatch):
    """Each chain level's winning ``val_rmse`` is the RMSE of the stage the
    chain hands over, on the level's raw validation rows, bit for bit."""
    levels, inner = [], multifid.tune

    def recorded(prepared, *args):
        levels.append(prepared)
        return inner(prepared, *args)

    monkeypatch.setattr(multifid, "tune", recorded)
    lf, hf = generate_pair_dataset(forrester_pair(), 30, 16, Sampler(seed=3))
    chain, sweeps = train_mf_chain([lf, hf], ["gpr", mf_kind], SPLIT, TWO_KERNELS, MLP_GRID)
    assert len(levels) == len(sweeps) == 2
    for prepared, sweep, stage in zip(levels, sweeps, (chain.lf, chain.mf)):
        assert stage.model is sweep.model
        served = rmse(prepared.Y_val_raw, stage.predict_raw(prepared.X_val_raw))
        assert _bits(sweep.winner.val_rmse) == _bits(served)


def _called_names(path: Path) -> list[str]:
    """The names of the functions and methods a module calls."""
    calls = [n.func for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(n, ast.Call)]
    return [f.id if isinstance(f, ast.Name) else f.attr for f in calls
            if isinstance(f, (ast.Name, ast.Attribute))]


def test_no_second_prediction_path():
    """Models predict only through their plans: neither model class has a
    ``predict``, and no module but ``preprocess`` calls ``inverse_transform``."""
    assert not hasattr(GprModel, "predict") and not hasattr(MlpModel, "predict")
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "surrkit").glob("*.py"))
    callers = {path.stem for path in sources if "inverse_transform" in _called_names(path)}
    assert callers == {"preprocess"}

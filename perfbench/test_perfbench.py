"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from surrkit import gpr, modelstore  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),       # overlaps a: covered time is the union
        (3, 0, "c", 8.0, 9.0),
        (4, 3, "d", 8.2, 8.5),
        (5, -1, "load", 20.0, 25.0),
        (6, 5, "load", 21.0, 22.0),  # recursion: not counted twice in s
    ]
    st = spans.span_stats(tree)
    assert st["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st["c"]["self_s"] == pytest.approx(0.7)
    assert st["d"]["self_s"] == pytest.approx(0.3)
    assert st["load"]["calls"] == 1
    assert st["load"]["s"] == pytest.approx(5.0)
    assert st["load"]["self_s"] == pytest.approx(4.0 + 1.0)


def _surrkit_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "surrkit" or name.startswith("surrkit.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_replace_every_binding_and_restore_cleanly():
    import surrkit.cli  # noqa: F401  (imports every layer)
    from surrkit import multifid, tuner

    before = _surrkit_bindings()
    methods = (multifid.FittedSurrogate.predict_raw, multifid.MfComposite.predict_raw)
    original_fit = gpr.gpr_fit
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        assert gpr.gpr_fit is not original_fit
        assert tuner.gpr_fit is gpr.gpr_fit and multifid.gpr_fit is gpr.gpr_fit
        assert multifid.gpr_predict is gpr.gpr_predict
        assert multifid.FittedSurrogate.predict_raw is not methods[0]
        X = np.linspace(0.0, 1.0, 5)[:, np.newaxis]
        gpr.gpr_fit(X, np.sin(X), gpr.KernelSpec(kind="rbf", noise=1e-6))
    finally:
        spans.restore(replaced)
    assert _surrkit_bindings() == before
    assert (multifid.FittedSurrogate.predict_raw, multifid.MfComposite.predict_raw) == methods
    names = {s[0]: s[2] for s in tracer.spans}
    parents = {s[2]: names.get(s[1]) for s in tracer.spans}
    assert parents == {"gpr.gpr_fit": None, "gpr.kernel_eval": "gpr.gpr_fit",
                       "gpr.cholesky": "gpr.gpr_fit"}


def _tree(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_makes_byte_identical_inputs(tmp_path):
    wl = workloads.WORKLOADS["io"]
    made = []
    for seed, tag in ((7, "a"), (7, "b"), (8, "c")):
        workloads.make_chain_inputs(wl, seed * workloads.CHAIN_STRIDE, tmp_path / tag)
        made.append((_tree(tmp_path / tag), workloads.make_sites(wl, seed).tobytes(),
                     workloads.make_field(seed, (3, 2, 5)).values.tobytes()))
    assert made[0] == made[1]
    for first, other in zip(made[0], made[2]):
        assert first != other


class _Wrong:
    """A composite whose answers are shifted: single sites only, or all."""

    def __init__(self, model, singles_only: bool):
        self.model, self.lf, self.singles_only = model, model.lf, singles_only

    def predict_raw(self, X):
        shift = 1.0 if len(X) == 1 or not self.singles_only else 0.0
        return self.model.predict_raw(X) + shift * 10.0


@pytest.fixture(scope="module")
def forrester_model(tmp_path_factory):
    """Chain seed 2 trains to R^2 = 1.0 (seed 0 is the known poor one)."""
    work = tmp_path_factory.mktemp("chain")
    config = workloads.make_chain_inputs(workloads.WORKLOADS["forrester_mf"], 2, work)
    assert workloads._quiet_cli(["mf-train", "--config", str(config), "--out",
                                 str(work / "run")]) == 0
    return modelstore.load_model(next((work / "run").glob("mf_model_v*")))


def _serve(model) -> workloads.Tally:
    sites = workloads.make_sites(workloads.WORKLOADS["forrester_mf"], 0)
    tally = workloads.Tally()
    batch = workloads.predict_batches(tally, model, sites, workloads.forrester(sites), 0.99, 1)
    if batch is not None:
        workloads.single_sites(tally, model, sites, batch, list(range(20)))
    return tally


def test_correct_model_fails_nothing(forrester_model):
    tally = _serve(forrester_model)
    assert tally.fail_share() == 0.0 and not tally.broken
    assert tally.attempted == {"batch": 1, "predict": 20, "uq": 20}


def test_wrong_single_site_predictions_count_as_failed(forrester_model):
    tally = _serve(_Wrong(forrester_model, singles_only=True))
    assert tally.failed == {"predict": 20}
    assert tally.fail_share() == pytest.approx(20 / 41)
    assert tally.broken


def test_inaccurate_model_counts_as_failed_but_not_broken(forrester_model):
    tally = _serve(_Wrong(forrester_model, singles_only=False))
    assert tally.failed == {"batch": 1}
    assert tally.fail_share() == pytest.approx(1 / 41)
    assert not tally.broken


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1100, 0, -1)]
    assert sum(v > workloads.percentile(values, 0.99) for v in values) >= 10
    assert workloads.percentile(values, 0.99) == 1089.0
    assert workloads.percentile(values, workloads.GATED_Q) == 990.0
    assert workloads.percentile(values, 0.5) == 550.0
    assert workloads.percentile([3.0, 1.0, 2.0], 0.5) == 2.0

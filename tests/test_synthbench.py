"""Analytic benchmark pairs and space-filling samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrkit.data import flatten
from surrkit.errors import InputError
from surrkit.preprocess import SplitSpec, preprocess_data_pipeline
from surrkit.synthbench import (
    AnalyticPair,
    Sampler,
    forrester_pair,
    generate_pair_dataset,
    get_pair,
    sample,
    trig4_pair,
    truth_evaluate,
)


class TestSampler:
    def test_lhs_one_point_per_stratum(self):
        pts = sample(Sampler("latin-hypercube", seed=0), [(0.0, 1.0)], 4)
        strata = np.sort(np.floor(pts.ravel() * 4).astype(int))
        np.testing.assert_array_equal(strata, [0, 1, 2, 3])

    def test_deterministic(self):
        bounds = [(0.0, 1.0), (-2.0, 2.0)]
        a = sample(Sampler("latin-hypercube", seed=3), bounds, 9)
        b = sample(Sampler("latin-hypercube", seed=3), bounds, 9)
        np.testing.assert_array_equal(a, b)

    def test_flight_envelope_bounds(self):
        bounds = [(-20.0, 20.0), (0.0, 2.0), (0.0, 90.0), (1.2, 20.0)]
        pts = sample(Sampler("latin-hypercube", seed=1), bounds, 64)
        assert pts.shape == (64, 4)
        arr = np.asarray(bounds)
        assert (pts >= arr[:, 0]).all() and (pts <= arr[:, 1]).all()

    def test_uniform_grid_1d_includes_endpoints(self):
        pts = sample(Sampler("uniform-grid", seed=0), [(2.0, 5.0)], 7)
        assert pts[0, 0] == 2.0 and pts[-1, 0] == 5.0

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_uniform_grid_1d_is_evenly_spaced(self, n):
        pts = sample(Sampler("uniform-grid", seed=0), [(2.0, 5.0)], n)
        np.testing.assert_array_equal(pts, 2.0 + np.linspace(0.0, 1.0, n)[:, None] * 3.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 5, 17, 100, 800])
    def test_uniform_grid_reaches_every_bound(self, d, n):
        """The n points spread over the whole grid, so no axis stops short
        of its upper bound, as a first-n-rows cut of the grid would."""
        bounds = np.array([(-1.0, 2.0), (0.0, 0.5), (3.0, 4.0), (-5.0, -4.0)][:d])
        pts = sample(Sampler("uniform-grid", seed=0), bounds, n)
        assert pts.shape == (n, d)
        np.testing.assert_array_equal(pts.min(axis=0), bounds[:, 0])
        np.testing.assert_array_equal(pts.max(axis=0), bounds[:, 1])
        assert len(np.unique(pts, axis=0)) == n

    @pytest.mark.parametrize("d, k", [(2, 3), (3, 4), (4, 2)])
    def test_uniform_grid_of_k_to_the_d_points_is_the_full_grid(self, d, k):
        pts = sample(Sampler("uniform-grid", seed=0), [(0.0, 1.0)] * d, k**d)
        axis = np.linspace(0.0, 1.0, k)
        full = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        np.testing.assert_array_equal(pts, full)

    def test_uniform_random_within_bounds(self):
        pts = sample(Sampler("uniform-random", seed=2), [(-1.0, 1.0)] * 3, 50)
        assert (np.abs(pts) <= 1.0).all()

    def test_degenerate_bounds(self):
        with pytest.raises(InputError, match="degenerate"):
            sample(Sampler(), [(1.0, 1.0)], 5)

    @pytest.mark.parametrize("bounds, match", [
        ([(0.0, np.inf)], "^bounds contains non-finite entries$"),
        ([0.0, 1.0], "^bounds has 1 columns, expected 2$"),
    ], ids=["infinite", "not-pairs"])
    def test_malformed_bounds(self, bounds, match):
        with pytest.raises(InputError, match=match):
            sample(Sampler(), bounds, 5)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="sampler"):
            Sampler("sobol")


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 64), d=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_lhs_stratification_property(n, d, seed):
    pts = sample(Sampler("latin-hypercube", seed=seed), [(0.0, 1.0)] * d, n)
    for j in range(d):
        strata = np.sort(np.floor(np.clip(pts[:, j], 0, 1 - 1e-12) * n).astype(int))
        np.testing.assert_array_equal(strata, np.arange(n))


class TestForrester:
    def test_high_fidelity_values(self):
        pair = forrester_pair()
        x = np.array([[0.0], [1.0], [0.5]])
        expected = (6 * x - 2) ** 2 * np.sin(12 * x - 4)
        np.testing.assert_allclose(pair.hf(x), expected, atol=1e-14)
        assert pair.hf(np.array([[0.0]]))[0, 0] == pytest.approx(4 * np.sin(-4), abs=1e-12)
        assert pair.hf(np.array([[1.0]]))[0, 0] == pytest.approx(16 * np.sin(8), abs=1e-12)
        assert pair.hf(np.array([[0.5]]))[0, 0] == pytest.approx(np.sin(2), abs=1e-12)

    def test_low_fidelity_values(self):
        pair = forrester_pair()
        assert pair.lf(np.array([[0.0]]))[0, 0] == pytest.approx(
            0.5 * 4 * np.sin(-4) - 10.0, abs=1e-12
        )

    def test_registry(self):
        assert get_pair("forrester").dim == 1
        assert get_pair("trig4").dim == trig4_pair().dim
        with pytest.raises(InputError, match=r"unknown benchmark pair 'branin'; "
                                             r"available: \['forrester', 'trig4'\]"):
            get_pair("branin")


class TestTrig4:
    def test_values_match_documented_formula(self):
        pair = trig4_pair()
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (10, 4))
        x1, x2, x3, x4 = x.T
        h1 = np.sin(2 * np.pi * x1) + 0.3 * np.cos(np.pi * x2) + 0.5 * x3**2 + 0.2 * x4
        h2 = (x1 + x2) ** 2 - 0.5 * np.sin(3 * x3) + 0.1 * x4**2
        h3 = 0.5 * np.cos(2 * x1 + x2) + x3 * x4
        np.testing.assert_allclose(pair.hf(x), np.column_stack([h1, h2, h3]), atol=1e-14)
        lf_expected = 0.8 * pair.hf(x) + 0.3 - 0.2 * (x[:, :1] - 0.5)
        np.testing.assert_allclose(pair.lf(x), lf_expected, atol=1e-14)


class TestTruthEvaluate:
    def test_analytic_point(self):
        assert truth_evaluate(forrester_pair(), np.array([[0.5]]))[0, 0] == pytest.approx(
            np.sin(2), abs=1e-12
        )

    def test_linear_pair(self):
        linear = AnalyticPair(
            name="linear", dim=1, output_dim=1, bounds=((0.0, 1.0),),
            hf=lambda x: x.copy(), lf=lambda x: 0.5 * x,
            input_names=("x",), output_names=("y",),
        )
        assert truth_evaluate(linear, np.array([[0.3]]))[0, 0] == pytest.approx(0.3)

    def test_vectorized_equals_pointwise(self):
        pair = trig4_pair()
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (7, 4))
        batch = truth_evaluate(pair, X)
        single = np.vstack([truth_evaluate(pair, X[i : i + 1]) for i in range(7)])
        np.testing.assert_array_equal(batch, single)

    def test_out_of_bounds_warns_but_evaluates(self):
        with pytest.warns(UserWarning, match="outside"):
            out = truth_evaluate(forrester_pair(), np.array([[1.5]]))
        assert np.isfinite(out).all()


class TestGeneratePairDataset:
    def test_shapes_and_labels(self):
        lf, hf = generate_pair_dataset(trig4_pair(), 30, 10, Sampler(seed=0))
        assert lf.X.shape == (30, 4, 1) and lf.Y.shape == (30, 3, 1)
        assert hf.X.shape == (10, 4, 1) and hf.Y.shape == (10, 3, 1)
        assert lf.fidelity == "LF" and hf.fidelity == "HF"
        assert lf.X.scalar_names == ("x1", "x2", "x3", "x4")

    def test_fidelity_designs_differ(self):
        lf, hf = generate_pair_dataset(forrester_pair(), 10, 10, Sampler(seed=0))
        assert not np.allclose(lf.X.values, hf.X.values)

    def test_warns_when_lf_smaller(self):
        with pytest.warns(UserWarning, match="n_lf"):
            generate_pair_dataset(forrester_pair(), 4, 8, Sampler(seed=0))

    def test_output_feeds_preprocess_pipeline(self):
        lf, _ = generate_pair_dataset(forrester_pair(), 40, 8, Sampler(seed=2))
        prepared = preprocess_data_pipeline(lf, SplitSpec(seed=2))
        assert prepared.X_train.shape == (28, 1)
        assert flatten(lf.Y).shape[1] == 1

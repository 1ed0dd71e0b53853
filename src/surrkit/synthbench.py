"""Analytic low/high-fidelity function pairs and space-filling sampling.

These benchmarks stand in for solver-generated datasets in tests and demos.
Built-in pairs:

``forrester`` (d=1, q=1, x in [0, 1])
    f_hf(x) = (6x - 2)^2 * sin(12x - 4)
    f_lf(x) = 0.5 * f_hf(x) + 10 (x - 0.5) - 5

``trig4`` (d=4, q=3, x in [0, 1]^4) - sums of scaled trigonometric and
polynomial terms, with the low-fidelity response an affine distortion of the
high-fidelity one:

    h1 = sin(2 pi x1) + 0.3 cos(pi x2) + 0.5 x3^2 + 0.2 x4
    h2 = (x1 + x2)^2 - 0.5 sin(3 x3) + 0.1 x4^2
    h3 = 0.5 cos(2 x1 + x2) + x3 x4
    lf_j = 0.8 * h_j + 0.3 - 0.2 (x1 - 0.5)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from surrkit.data import DataTensor, FidelityDataset, as_matrix
from surrkit.errors import InputError

SAMPLER_KINDS = ("latin-hypercube", "uniform-grid", "uniform-random")


@dataclass(frozen=True, eq=False)
class AnalyticPair:
    """Matched low/high-fidelity functions on a box domain.

    Both callables map an (n, d) array to an (n, q) array.
    """

    name: str
    dim: int
    output_dim: int
    bounds: tuple[tuple[float, float], ...]
    hf: Callable[[np.ndarray], np.ndarray]
    lf: Callable[[np.ndarray], np.ndarray]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]


def _forrester_hf(x: np.ndarray) -> np.ndarray:
    x = x[:, 0]
    return ((6.0 * x - 2.0) ** 2 * np.sin(12.0 * x - 4.0))[:, np.newaxis]


def _forrester_lf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _forrester_hf(x) + (10.0 * (x[:, :1] - 0.5) - 5.0)


def _trig4_hf(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    h1 = np.sin(2.0 * np.pi * x1) + 0.3 * np.cos(np.pi * x2) + 0.5 * x3**2 + 0.2 * x4
    h2 = (x1 + x2) ** 2 - 0.5 * np.sin(3.0 * x3) + 0.1 * x4**2
    h3 = 0.5 * np.cos(2.0 * x1 + x2) + x3 * x4
    return np.column_stack([h1, h2, h3])


def _trig4_lf(x: np.ndarray) -> np.ndarray:
    return 0.8 * _trig4_hf(x) + 0.3 - 0.2 * (x[:, :1] - 0.5)


def forrester_pair() -> AnalyticPair:
    return AnalyticPair(
        name="forrester",
        dim=1,
        output_dim=1,
        bounds=((0.0, 1.0),),
        hf=_forrester_hf,
        lf=_forrester_lf,
        input_names=("x",),
        output_names=("y",),
    )


def trig4_pair() -> AnalyticPair:
    return AnalyticPair(
        name="trig4",
        dim=4,
        output_dim=3,
        bounds=tuple(((0.0, 1.0),) * 4),
        hf=_trig4_hf,
        lf=_trig4_lf,
        input_names=("x1", "x2", "x3", "x4"),
        output_names=("y1", "y2", "y3"),
    )


_PAIRS = {"forrester": forrester_pair, "trig4": trig4_pair}


def get_pair(name: str) -> AnalyticPair:
    try:
        return _PAIRS[name]()
    except KeyError:
        raise InputError(
            f"unknown benchmark pair {name!r}; available: {sorted(_PAIRS)}"
        ) from None


@dataclass(frozen=True)
class Sampler:
    kind: str = "latin-hypercube"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise InputError(f"unknown sampler {self.kind!r}; use one of {SAMPLER_KINDS}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _check_bounds(bounds) -> np.ndarray:
    arr = as_matrix(bounds, "bounds", 2)
    if (arr[:, 0] >= arr[:, 1]).any():
        bad = int(np.argmax(arr[:, 0] >= arr[:, 1]))
        raise InputError(f"degenerate bounds in dimension {bad}: {tuple(arr[bad])}")
    return arr


def sample(sampler: Sampler, bounds, n: int) -> np.ndarray:
    """Draw n points in the box; Latin hypercube puts one per axis stratum,
    and a uniform grid spreads its n points over the whole smallest grid of
    at least n nodes, from the lower corner to the upper one."""
    if n < 1:
        raise InputError(f"sample count must be >= 1, got {n}")
    arr = _check_bounds(bounds)
    d = arr.shape[0]
    rng = np.random.default_rng(sampler.seed)
    if sampler.kind == "latin-hypercube":
        unit = np.empty((n, d))
        for j in range(d):
            strata = rng.permutation(n)
            unit[:, j] = (strata + rng.uniform(size=n)) / n
    elif sampler.kind == "uniform-random":
        unit = rng.uniform(size=(n, d))
    else:  # uniform-grid: n nodes of the k^d grid, evenly spaced in C order
        k = 1
        while k**d < n:
            k += 1
        flat = np.round(np.linspace(0, k**d - 1, n)).astype(np.int64)
        unit = np.linspace(0.0, 1.0, k)[np.column_stack(np.unravel_index(flat, (k,) * d))]
    return arr[:, 0] + unit * (arr[:, 1] - arr[:, 0])


def truth_evaluate(pair: AnalyticPair, X: np.ndarray) -> np.ndarray:
    """Exact high-fidelity values; warns (but evaluates) out of bounds."""
    X = as_matrix(X, f"{pair.name} sites", pair.dim, finite=False)
    arr = _check_bounds(pair.bounds)
    if ((X < arr[:, 0]) | (X > arr[:, 1])).any():
        warnings.warn(
            f"evaluating {pair.name} outside its bounds (extrapolation)",
            stacklevel=2,
        )
    return pair.hf(X)


def generate_pair_dataset(
    pair: AnalyticPair, n_lf: int, n_hf: int, sampler: Sampler
) -> tuple[FidelityDataset, FidelityDataset]:
    """Independent LF/HF sample sets evaluated through the analytic pair.

    The high-fidelity set uses a seed derived from the sampler's so the two
    designs differ but remain reproducible.
    """
    if n_hf < 1 or n_lf < 1:
        raise InputError("sample counts must be >= 1")
    if n_lf < n_hf:
        warnings.warn(
            f"n_lf={n_lf} < n_hf={n_hf}; multi-fidelity setups normally have "
            "many more low-fidelity points",
            stacklevel=2,
        )
    X_lf = sample(sampler, pair.bounds, n_lf)
    X_hf = sample(Sampler(sampler.kind, sampler.seed + 1), pair.bounds, n_hf)

    def dataset(label: str, X: np.ndarray, f) -> FidelityDataset:
        Y = f(X)
        for values in (X, Y):  # the tensors' own arrays, so they are not copied
            values.setflags(write=False)
        return FidelityDataset(
            fidelity=label,
            X=DataTensor.from_values(X[:, :, np.newaxis], pair.input_names),
            Y=DataTensor.from_values(Y[:, :, np.newaxis], pair.output_names),
        )

    return dataset("LF", X_lf, pair.lf), dataset("HF", X_hf, pair.hf)

"""Shared test utilities: independent oracles kept free of library code paths."""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from surrkit.blas import _scipy_openblas
from surrkit.mlp import MlpArchitecture, MlpModel, init_model, loss_gradients, mse_loss
from surrkit.synthbench import AnalyticPair

# Hyperparameters that json.loads reads from a bundle's meta.json (as
# Infinity and NaN) but that no kernel may have: (key, value) pairs.
NON_FINITE_HYPERPARAMETERS = [
    ("length_scale", [math.inf]),
    ("length_scale", [math.nan]),
    ("signal_variance", math.nan),
    ("signal_variance", math.inf),
    ("noise", math.nan),
]
NON_FINITE_HYPERPARAMETER_IDS = ["ls-inf", "ls-nan", "sf2-nan", "sf2-inf", "noise-nan"]

# The largest difference of a prediction from one built from a fresh
# ``kernel_eval`` Ks, relative to the reference's largest magnitude (sf2 for
# a variance): a GPR block's one product with the model's training side,
# and a serving plan's folded scalers, move predictions in their last bits,
# by at most 3.2e-14 of the mean and 6.1e-15 sf2 in ``test_gpr``.
REFERENCE_RTOL = 1e-12


@contextmanager
def scipy_blas_threads(count: int):
    """scipy's bundled OpenBLAS on ``count`` threads inside the block, and the
    caller's count back after it; the block gets the thread-count getter. A
    test that uses it is skipped where scipy bundles no OpenBLAS."""
    pool = _scipy_openblas()
    if pool is None:
        pytest.skip("scipy shares its BLAS here")
    get, set_ = pool
    threads = get()
    set_(count)
    try:
        yield get
    finally:
        set_(threads)


def reference_format_row(row) -> str:
    """One row of floats as text, value by value: the bytes every float-text
    writer must reproduce."""
    return " ".join(repr(float(v)) for v in row)


def direct_gpr_oracle(K_noisy, Ks, Kss_diag, Y):
    """Mean/variance/lml via explicit inverse and determinant, no Cholesky.

    K_noisy: (N, N) kernel matrix including noise; Ks: (N, N*) cross matrix;
    Kss_diag: (N*,) prior variances at the queries; Y: (N, q) targets.
    """
    K_inv = np.linalg.inv(K_noisy)
    mean = Ks.T @ K_inv @ Y
    var = Kss_diag - np.einsum("ij,ik,kj->j", Ks, K_inv, Ks)
    sign, logdet = np.linalg.slogdet(K_noisy)
    assert sign > 0
    n, q = Y.shape
    lml = float(
        -0.5 * np.einsum("ij,ik,kj->", Y, K_inv, Y)
        - 0.5 * q * logdet
        - 0.5 * q * n * np.log(2.0 * np.pi)
    )
    return mean, var, lml


def finite_difference_gradients(model: MlpModel, X, Y, eps: float = 1e-5):
    """Central-difference gradient of the MSE loss for every parameter."""
    grads_w = []
    for P in model.weights:
        grads_w.append(_fd_array(model, P, X, Y, eps))
    grads_b = []
    for P in model.biases:
        grads_b.append(_fd_array(model, P, X, Y, eps))
    return grads_w, grads_b


def _fd_array(model, P, X, Y, eps):
    grad = np.zeros_like(P)
    it = np.nditer(P, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = P[idx]
        P[idx] = orig + eps
        up = mse_loss(model, X, Y)
        P[idx] = orig - eps
        down = mse_loss(model, X, Y)
        P[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def max_gradient_error(arch: MlpArchitecture, seed: int = 0, n: int = 5, eps: float = 1e-5):
    """Worst relative disagreement between backprop and finite differences."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, arch.input_dim))
    Y = rng.standard_normal((n, arch.output_dim))
    model = init_model(arch, seed + 1)
    # Nudge biases so ReLU pre-activations sit away from the kink, where
    # finite differences are ill-defined.
    for b in model.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    _, gw, gb = loss_gradients(model, X, Y)
    fd_w, fd_b = finite_difference_gradients(model, X, Y, eps)
    worst = 0.0
    for analytic, numeric in zip(gw + gb, fd_w + fd_b):
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


def _perdikaris_lf(x: np.ndarray) -> np.ndarray:
    return np.sin(8.0 * np.pi * x)


def _perdikaris_hf(x: np.ndarray) -> np.ndarray:
    return (x - math.sqrt(2.0)) * _perdikaris_lf(x) ** 2


def perdikaris_pair() -> AnalyticPair:
    """The nonlinear pair of Perdikaris et al., "Nonlinear information fusion
    algorithms for data-efficient multi-fidelity modelling", Proc. R. Soc. A
    473 (2017): f_lf(x) = sin(8 pi x) and f_hf(x) = (x - sqrt(2)) f_lf(x)^2
    on [0, 1]. No affine map of [f_lf(x) | x] gives f_hf, as it does for the
    built-in pairs."""
    return AnalyticPair(
        name="perdikaris", dim=1, output_dim=1, bounds=((0.0, 1.0),),
        hf=_perdikaris_hf, lf=_perdikaris_lf, input_names=("x",), output_names=("y",),
    )


def pooled_r2(y_true, y_pred) -> float:
    """Plain R^2 oracle, written independently of the metrics module."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    ss_res = np.sum((y_true - y_pred) ** 2)
    ss_tot = np.sum((y_true - y_true.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


def resign_checksums(bundle) -> None:
    """Recompute every line of a bundle's CHECKSUMS, as a hand edit that also
    fixes the checksums would."""
    checksums = Path(bundle) / "CHECKSUMS"
    lines = []
    for line in filter(str.strip, checksums.read_text().splitlines()):
        rel = line.partition("  ")[2]
        digest = hashlib.sha256((checksums.parent / rel).read_bytes()).hexdigest()
        lines.append(f"{digest}  {rel}")
    checksums.write_text("\n".join(lines) + "\n")


def payload_sections(bundle) -> dict[str, tuple[int, tuple[int, int]]]:
    """Where each array lies in a format-2 bundle's payload: its first value's
    index and its shape, by stage path and name ("lf/alpha"), read from
    meta.json independently of the loader."""
    meta = json.loads((Path(bundle) / "meta.json").read_text())
    sections, start = {}, 0

    def walk(stage, prefix):
        nonlocal start
        if stage["model_type"] == "mf-composite":
            walk(stage["lf"], prefix + "lf/")
            walk(stage["mf"], prefix + "mf/")
            return
        for name, entry in stage["payloads"].items():
            rows, cols = entry["shape"]
            sections[prefix + name] = (start, (rows, cols))
            start += rows * cols

    walk(meta, "")
    return sections

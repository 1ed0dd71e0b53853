"""Exact Gaussian process regression with Cholesky-factored training state.

Fitting follows the standard exact-GPR recipe: with kernel matrix K over the
training inputs and noise variance sn2,

    L = cholesky(K + sn2*I)            (lower)
    alpha = L^T \\ (L \\ Y)

Prediction at query points X* uses Ks = K(X_train, X*):

    mean      = Ks^T alpha
    v         = L \\ Ks
    variance  = diag(K**) - sum(v^2, axis=0)     (clamped at 0)

and the log marginal likelihood, summed over output columns, is

    lml = -1/2 y^T alpha - sum_i log L_ii - (N/2) log 2pi.

Multi-output targets share one kernel and one Cholesky factor: ``alpha`` has
one column per output and a single latent variance per query point applies to
all outputs. The prior mean is zero, which is the natural choice on
standardized targets.

Supported kernels (r is the length-scale-weighted distance):

    rbf                sf2 * exp(-r^2 / 2)
    matern, nu=0.5     sf2 * exp(-r)
    matern, nu=1.5     sf2 * (1 + sqrt(3) r) exp(-sqrt(3) r)
    matern, nu=2.5     sf2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r)

The ``constant*`` kinds treat the signal variance sf2 as a tunable amplitude
during hyperparameter optimization; the bare kinds hold it fixed. ``nu`` is
always user-chosen, never optimized.

``GprModel.predict`` computes the mean alone; only ``gpr_predict`` (the path
``metrics.uq_report`` takes) pays for the O(n^2) triangular solve behind the
variance. Both build Ks from the training side of the kernel (X_train divided
by the length scales, and its squared row norms), which each model computes
once, on first use, and keeps. ``X_train``, ``L`` and ``alpha`` are finite
from the moment a model exists, because ``gpr_fit`` gets them from checked
scipy calls and ``modelstore.load_model`` checks them, so neither path
re-checks them per query; query points are checked once, in
``GprModel._cross_kernel``.

Hyperparameter optimization evaluates the lml thousands of times, mostly on
a few dozen rows, where per-call overhead costs more than the arithmetic. So
``optimize_hyperparameters`` does not call ``gpr_fit`` per evaluation:
``_lml_evaluator`` checks X and Y once, and per hyperparameter vector builds
K with the distance and kernel helpers ``kernel_eval`` uses, adds the noise
to the diagonal in place (the same sums as ``K + sn2*I``), and calls LAPACK's
``dpotrf`` and ``dpotrs``, the routines behind scipy's ``cholesky`` and
``cho_solve``. These are gpr_fit's floating-point operations in gpr_fit's
order, so each lml equals ``gpr_fit(...).lml`` bit for bit, L-BFGS-B takes
the same path, and the tuned hyperparameters are the same. When the
factorization fails or the lml is not finite, the evaluation is redone with
``gpr_fit``, which runs the jitter ladder and scipy's finite-value checks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize

from surrkit.errors import InputError, NumericError

KERNEL_KINDS = ("rbf", "matern", "constant*rbf", "constant*matern")
MATERN_NUS = (0.5, 1.5, 2.5)

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel family plus hyperparameters.

    ``length_scale`` is either a scalar (isotropic) or a per-dimension
    vector. ``noise`` is the observation noise variance sn2 added to the
    kernel diagonal during fitting.
    """

    kind: str = "rbf"
    length_scale: float | np.ndarray = 1.0
    signal_variance: float = 1.0
    nu: float = 1.5
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}; use one of {KERNEL_KINDS}")
        ls = np.atleast_1d(np.asarray(self.length_scale, dtype=np.float64))
        if ls.ndim != 1 or (ls <= 0).any():
            raise InputError(f"length_scale must be positive, got {self.length_scale}")
        if self.signal_variance <= 0:
            raise InputError(f"signal_variance must be positive, got {self.signal_variance}")
        if self.is_matern and self.nu not in MATERN_NUS:
            raise InputError(f"nu must be one of {MATERN_NUS}, got {self.nu}")
        if self.noise < 0:
            raise InputError(f"noise variance must be nonnegative, got {self.noise}")

    @property
    def is_matern(self) -> bool:
        return self.kind.endswith("matern")

    @property
    def tunes_signal_variance(self) -> bool:
        return self.kind.startswith("constant*")

    def length_scale_vector(self, d: int) -> np.ndarray:
        ls = np.atleast_1d(np.asarray(self.length_scale, dtype=np.float64))
        if ls.size == 1:
            return np.full(d, float(ls[0]))
        if ls.size != d:
            raise InputError(
                f"per-dimension length_scale has {ls.size} entries for {d} input dims"
            )
        return ls

    def describe(self) -> str:
        ls = np.atleast_1d(np.asarray(self.length_scale, dtype=np.float64))
        ls_str = f"{ls[0]:.4g}" if ls.size == 1 else "[" + ", ".join(f"{v:.4g}" for v in ls) + "]"
        parts = [f"kind={self.kind}", f"length_scale={ls_str}"]
        parts.append(f"signal_variance={self.signal_variance:.4g}")
        if self.is_matern:
            parts.append(f"nu={self.nu}")
        parts.append(f"noise={self.noise:.4g}")
        return ", ".join(parts)


def kernel_from_name(name: str) -> KernelSpec:
    """Build a default spec from a short grid token such as ``matern1.5``."""
    token = name.strip().lower()
    constant = token.startswith("constant*")
    if constant:
        token = token[len("constant*") :]
    if token == "rbf":
        kind = "constant*rbf" if constant else "rbf"
        return KernelSpec(kind=kind)
    if token.startswith("matern"):
        nu_str = token[len("matern") :]
        try:
            nu = float(nu_str)
        except ValueError:
            raise InputError(f"bad Matern token {name!r}; use e.g. 'matern1.5'") from None
        kind = "constant*matern" if constant else "matern"
        return KernelSpec(kind=kind, nu=nu)
    raise InputError(f"unknown kernel name {name!r}")


def default_kernel_grid() -> tuple[KernelSpec, ...]:
    """RBF plus the three Matern smoothness levels, amplitude tunable.

    The amplitude-scaled variants are the default because standardized
    targets still need the signal variance free when the length scale grows
    (a fixed-amplitude kernel cannot follow smooth trends across the domain).
    """
    return (
        KernelSpec(kind="constant*rbf"),
        KernelSpec(kind="constant*matern", nu=0.5),
        KernelSpec(kind="constant*matern", nu=1.5),
        KernelSpec(kind="constant*matern", nu=2.5),
    )


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got rank {arr.ndim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _scale_inputs(X: np.ndarray, ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` divided by the length scales ``ls``, and that matrix's squared row norms."""
    Xs = X / ls
    return Xs, np.sum(Xs * Xs, axis=1)


def _scaled_sq_dist(
    A_scaled: tuple[np.ndarray, np.ndarray], B_scaled: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Squared length-scale-weighted distances r^2 between the rows of A and B.

    Both arguments are ``_scale_inputs`` results; they may be the same one.
    """
    (As, As_sq), (Bs, Bs_sq) = A_scaled, B_scaled
    # ||a-b||^2 via the expanded form; clip tiny negatives from cancellation.
    # 2.0 * As is a new array, so the product never multiplies an array by its
    # own transpose, which numpy may send to a rank-k update that rounds
    # differently.
    sq = As_sq[:, np.newaxis] - 2.0 * As @ Bs.T + Bs_sq[np.newaxis, :]
    np.maximum(sq, 0.0, out=sq)
    return sq


def _kernel_from_sq(spec: KernelSpec, sq: np.ndarray, sf2: float) -> np.ndarray:
    """The covariance of ``spec``'s family at squared distances ``sq``.

    The amplitude ``sf2`` is an argument, not ``spec.signal_variance``, so
    the optimizer can vary it without building a spec per evaluation.
    """
    if not spec.is_matern:
        return sf2 * np.exp(-0.5 * sq)
    r = np.sqrt(sq)
    if spec.nu == 0.5:
        return sf2 * np.exp(-r)
    if spec.nu == 1.5:
        t = math.sqrt(3.0) * r
        return sf2 * (1.0 + t) * np.exp(-t)
    t = math.sqrt(5.0) * r
    return sf2 * (1.0 + t + (5.0 / 3.0) * sq) * np.exp(-t)


def kernel_eval(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Covariance matrix K(A, B), shape (len(A), len(B))."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InputError(
            f"kernel inputs must share dimension: {A.shape[1]} vs {B.shape[1]}"
        )
    ls = spec.length_scale_vector(A.shape[1])
    sq = _scaled_sq_dist(_scale_inputs(A, ls), _scale_inputs(B, ls))
    return _kernel_from_sq(spec, sq, spec.signal_variance)


@dataclass(frozen=True, eq=False)
class GprModel:
    """Trained state: inputs, Cholesky factor, and dual weights."""

    kernel: KernelSpec
    X_train: np.ndarray
    L: np.ndarray
    alpha: np.ndarray
    y_dim: int
    lml: float
    jitter_used: float

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X_train.shape[1]

    def parameter_count(self) -> int:
        """Number of hyperparameters adjusted during optimization."""
        ls = np.atleast_1d(np.asarray(self.kernel.length_scale))
        count = ls.size + 1  # length scales + noise
        if self.kernel.tunes_signal_variance:
            count += 1
        return count

    def describe(self) -> str:
        return f"gpr({self.kernel.describe()}, n_train={self.n_train})"

    @cached_property
    def _length_scales(self) -> np.ndarray:
        return self.kernel.length_scale_vector(self.input_dim)

    @cached_property
    def _train_scaled(self) -> tuple[np.ndarray, np.ndarray]:
        return _scale_inputs(self.X_train, self._length_scales)

    def _cross_kernel(self, X_star: np.ndarray) -> np.ndarray:
        """Ks = K(X_train, X_star); the query points are checked here, once."""
        X_star = _as_matrix(X_star, "X_star")
        if X_star.shape[1] != self.input_dim:
            raise InputError(
                f"query points have {X_star.shape[1]} dims, model expects {self.input_dim}"
            )
        sq = _scaled_sq_dist(self._train_scaled, _scale_inputs(X_star, self._length_scales))
        return _kernel_from_sq(self.kernel, sq, self.kernel.signal_variance)

    def predict(self, X_scaled: np.ndarray) -> np.ndarray:
        """Posterior mean at inputs in scaled space; no variance is computed."""
        return self._cross_kernel(X_scaled).T @ self.alpha


@dataclass(frozen=True, eq=False)
class Prediction:
    """Posterior mean per output and one latent variance per query point."""

    mean: np.ndarray
    variance: np.ndarray


def _factor_with_jitter(K_noisy: np.ndarray, diag_scale: float) -> tuple[np.ndarray, float]:
    try:
        return cholesky(K_noisy, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX * (1.0 + 1e-12):
        bumped = jitter * diag_scale
        try:
            L = cholesky(K_noisy + bumped * np.eye(K_noisy.shape[0]), lower=True)
            return L, bumped
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(
        "Cholesky factorization failed even with maximum jitter; the kernel "
        "matrix is ill-conditioned (duplicate training points with zero noise?)"
    )


def gpr_fit(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> GprModel:
    """Factor the kernel matrix and solve for the dual weights."""
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    n, q = Y.shape
    K = kernel_eval(spec, X, X)
    K_noisy = K + spec.noise * np.eye(n)
    L, jitter_used = _factor_with_jitter(K_noisy, float(np.mean(np.diag(K))))
    alpha = cho_solve((L, True), Y)
    lml = float(
        -0.5 * np.sum(Y * alpha)
        - q * np.sum(np.log(np.diag(L)))
        - q * 0.5 * n * math.log(2.0 * math.pi)
    )
    return GprModel(
        kernel=spec,
        X_train=X.copy(),
        L=L,
        alpha=alpha,
        y_dim=q,
        lml=lml,
        jitter_used=jitter_used,
    )


def gpr_predict(model: GprModel, X_star: np.ndarray) -> Prediction:
    """Posterior mean and latent variance at query points."""
    Ks = model._cross_kernel(X_star)
    mean = Ks.T @ model.alpha
    v = solve_triangular(model.L, Ks, lower=True, check_finite=False)
    variance = np.full(Ks.shape[1], model.kernel.signal_variance)
    variance -= np.einsum("ij,ij->j", v, v)
    np.maximum(variance, 0.0, out=variance)
    return Prediction(mean=mean, variance=variance)


@dataclass(frozen=True)
class HyperBounds:
    """Log-uniform search intervals per hyperparameter, in natural units."""

    length_scale: tuple[float, float] = (1e-2, 1e2)
    signal_variance: tuple[float, float] = (1e-3, 1e3)
    noise: tuple[float, float] = (1e-10, 1.0)

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("length_scale", self.length_scale),
            ("signal_variance", self.signal_variance),
            ("noise", self.noise),
        ):
            if not (0 < lo < hi and math.isfinite(hi)):
                raise InputError(f"{name} bounds must satisfy 0 < lo < hi < inf")


def _pack_bounds(spec: KernelSpec, d: int, bounds: HyperBounds) -> list[tuple[float, float]]:
    n_ls = np.atleast_1d(np.asarray(spec.length_scale)).size
    if n_ls not in (1, d):
        raise InputError(f"length_scale has {n_ls} entries for {d} input dims")
    out = [bounds.length_scale] * n_ls
    if spec.tunes_signal_variance:
        out.append(bounds.signal_variance)
    out.append(bounds.noise)
    return [(math.log(lo), math.log(hi)) for lo, hi in out]


def _spec_to_theta(spec: KernelSpec, log_bounds: list[tuple[float, float]]) -> np.ndarray:
    ls = np.atleast_1d(np.asarray(spec.length_scale, dtype=np.float64))
    values = list(np.log(ls))
    if spec.tunes_signal_variance:
        values.append(math.log(spec.signal_variance))
    values.append(math.log(max(spec.noise, math.exp(log_bounds[-1][0]))))
    theta = np.array(values)
    lo = np.array([b[0] for b in log_bounds])
    hi = np.array([b[1] for b in log_bounds])
    return np.clip(theta, lo, hi)


def _theta_to_spec(spec: KernelSpec, theta: np.ndarray) -> KernelSpec:
    n_ls = np.atleast_1d(np.asarray(spec.length_scale)).size
    ls = np.exp(theta[:n_ls])
    length_scale = float(ls[0]) if n_ls == 1 else ls
    pos = n_ls
    if spec.tunes_signal_variance:
        sf2 = float(math.exp(theta[pos]))
        pos += 1
    else:
        sf2 = spec.signal_variance
    noise = float(math.exp(theta[pos]))
    return replace(spec, length_scale=length_scale, signal_variance=sf2, noise=noise)


def _lml_evaluator(
    X: np.ndarray, Y: np.ndarray, spec: KernelSpec
) -> Callable[[np.ndarray], float]:
    """``theta -> gpr_fit(X, Y, _theta_to_spec(spec, theta)).lml``, without the overhead.

    ``X`` and ``Y`` are checked matrices, as ``_as_matrix`` returns them. Each
    evaluation repeats ``gpr_fit``'s floating-point operations in the same
    order, on the same arrays, and calls the LAPACK routines scipy's
    ``cholesky`` and ``cho_solve`` call, so a successful evaluation returns
    gpr_fit's lml bit for bit. If the factorization fails or the lml is not
    finite, the evaluation is redone with ``gpr_fit`` itself: that runs the
    jitter ladder and scipy's finite-value checks, and a ``NumericError``
    gives ``-inf``.
    """
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    n, q = Y.shape
    n_ls = np.atleast_1d(np.asarray(spec.length_scale)).size
    log_norm = q * 0.5 * n * math.log(2.0 * math.pi)

    def lml_at(theta: np.ndarray) -> float:
        # The unpacking of _theta_to_spec, without building a spec.
        ls = np.exp(theta[:n_ls])
        pos = n_ls
        if spec.tunes_signal_variance:
            sf2 = float(math.exp(theta[pos]))
            pos += 1
        else:
            sf2 = spec.signal_variance
        noise = float(math.exp(theta[pos]))
        X_scaled = _scale_inputs(X, ls)
        K = _kernel_from_sq(spec, _scaled_sq_dist(X_scaled, X_scaled), sf2)
        K.reshape(-1)[:: n + 1] += noise  # bit for bit gpr_fit's K + noise * I
        # LAPACK's wrapper rejects an empty K, which gpr_fit accepts.
        L, info = dpotrf(K, lower=1, clean=1) if n else (K, -1)
        if info == 0:
            alpha, info = dpotrs(L, Y, lower=1)
            lml = float(
                -0.5 * np.sum(Y * alpha) - q * np.sum(np.log(np.diag(L))) - log_norm
            )
            if info == 0 and math.isfinite(lml):
                return lml
        try:
            return gpr_fit(X, Y, _theta_to_spec(spec, theta)).lml
        except NumericError:
            return -np.inf

    return lml_at


def optimize_hyperparameters(
    X: np.ndarray,
    Y: np.ndarray,
    spec: KernelSpec,
    restarts: int = 3,
    bounds: HyperBounds | None = None,
    seed: int = 0,
) -> KernelSpec:
    """Maximize the log marginal likelihood over log-hyperparameters.

    The first start is the supplied spec (clipped into bounds); the remaining
    ``restarts - 1`` starts are drawn log-uniformly within bounds from
    ``seed``. The returned spec attains the highest lml seen across every
    start point and every optimizer result, so it is never worse than any
    tested initialization. Ties keep the earliest restart. ``nu`` and the
    kernel kind are never modified.
    """
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    bounds = bounds or HyperBounds()
    log_bounds = _pack_bounds(spec, X.shape[1], bounds)
    lo = np.array([b[0] for b in log_bounds])
    hi = np.array([b[1] for b in log_bounds])
    lml_at = _lml_evaluator(X, Y, spec)

    def neg_lml(theta: np.ndarray) -> float:
        value = lml_at(theta)
        return 1e25 if not np.isfinite(value) else -value

    rng = np.random.default_rng(seed)
    starts = [_spec_to_theta(spec, log_bounds)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_theta: np.ndarray | None = None
    best_lml = -np.inf
    failures: list[str] = []
    for theta0 in starts:
        start_lml = lml_at(theta0)
        if start_lml > best_lml:
            best_lml, best_theta = start_lml, theta0
        try:
            result = minimize(neg_lml, theta0, method="L-BFGS-B", bounds=log_bounds)
        except Exception as exc:  # pragma: no cover - scipy internal failure
            failures.append(str(exc))
            continue
        cand_lml = lml_at(result.x)
        if cand_lml > best_lml:
            best_lml, best_theta = cand_lml, result.x

    if best_theta is None or not np.isfinite(best_lml):
        detail = f" ({'; '.join(failures)})" if failures else ""
        raise NumericError(
            f"all {restarts} hyperparameter restarts failed to produce a "
            f"finite log marginal likelihood{detail}"
        )
    return _theta_to_spec(spec, best_theta)

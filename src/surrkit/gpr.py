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

Every ``kernel_eval`` matrix, a training kernel K among them, is built in
one buffer: ``_scaled_sq_dist`` forms r^2 in the output of the cross
product, and ``_kernel_from_sq`` turns it into the kernel in place (Matern
1.5 and 2.5 use one and two more buffers). Each element sees the operations
of the formulas above in their order, so K is the bytes the out-of-place
expressions give, except that its self-distances are exactly 0 rather than
the few ulps of cancellation the expanded r^2 leaves there.

A model predicts through one path, its serving plan
(``GprModel.serving_plan``): the ``preprocess.StandardScaler`` pair it was
trained with folds into its constants, so the plan takes raw sites to raw
outputs. Stages serve with it, sweeps score with it (``tuner``), and
``gpr_predict`` runs it between identity scalers. Only a call that asks for
the variance (``gpr_predict``, ``metrics.uq_report``) pays for the O(n^2)
triangular solve. The plan runs one kernel core, ``GprModel._predict``, on
a query in length-scale units, forming ``Ks^T w`` for its folded weights w
in blocks of query points whose kernel buffers (Ks, and the one or two more
Matern 1.5 and 2.5 need) fit in ``_KS_BLOCK_BYTES`` together, each written
into preallocated outputs. A block's cross product, its elementwise passes
and ``Ks.T @ w`` then run on data that stays in a core's L2 cache (232
points at n_train = 560 with rbf), and a batch's working memory is a
block's worth whatever its size. Each model keeps one training side, built
on first use (``GprModel._train_side``), whose rows carry the row norms,
and for rbf the amplitude, so that one product with a block's query side
gives rbf's whole exponent, log sf2 - r^2/2, or Matern's r^2, as GPyTorch's
``sq_dist`` does. The mean is GPML eq. 2.25, ``Ks^T alpha``, up to its last
bits, which that product and the folded scalers move. ``X_train`` and
``alpha`` are finite from the moment a model exists: ``gpr_fit`` checks its
inputs and rejects a non-finite lml (which any non-finite entry of
``alpha`` makes) and ``modelstore.load_model`` checks them. A query's shape
is checked once, by the outermost call, and its values once, against the
plan's bound: below it every query entry in length-scale units lies under
``_unit_bound``, where nothing can overflow; NaN and infinities are refused.

Every factorization of a training kernel goes through ``_fit_at``, GPML
Algorithm 2.1: given K + sn2*I and Y it returns ``L``, ``alpha``, the lml
and the jitter it needed, with ``_factor`` trying no jitter first and then
the jitter ladder. ``gpr_fit`` builds K with ``kernel_eval``; the
optimizer's ``_lml_evaluator`` checks X and Y once and builds K per
hyperparameter vector with the helpers ``kernel_eval`` uses, so each lml it
returns is ``gpr_fit``'s bit for bit. The factor ``L`` is a pure function
of ``X_train``, the hyperparameters and ``jitter_used``, so bundles do not
store it: a model built without one, as every loaded model is, rebuilds it
on its first variance request (``GprModel.L``) with ``kernel_eval`` and
``_factor`` at the stored jitter alone, which gives the fit's bytes under
the same BLAS build and numpy thread count: the fit and the rebuild both run
scipy's LAPACK on one thread (``blas``), whatever count the caller's scipy
pool runs. Means use ``alpha`` alone and never factor.

Hyperparameter optimization maximizes the lml with L-BFGS-B on its exact
gradient in the log-hyperparameters (GPML eq. 5.9), which
``_lml_gradient`` forms from K^-1 (LAPACK's ``dpotri`` on L) and the
derivative factors beside ``_kernel_from_sq``. Finite differences would
cost one more lml evaluation per hyperparameter per step and stop short of
the optimum. An L-BFGS-B run whose line search stalls on a steep slope is
resumed from where it stopped (``_lbfgsb``), and each run's result holds its
end point's lml, also where scipy's abnormal stop reports a trial point's.
As that lml is ``gpr_fit``'s, ``optimize_hyperparameters`` fits only the run
that ends highest, so a caller never fits the winner again. Its evaluator
allocates the n x n arrays of an evaluation once and every evaluation writes
into them (``_lml_evaluator``), so evaluations fault no fresh memory in;
``gpr_fit`` and the models it returns own their arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import OptimizeResult, minimize

from surrkit.blas import _one_scipy_blas_thread
from surrkit.data import as_matrix, check_below
from surrkit.errors import InputError, NumericError
from surrkit.preprocess import StandardScaler

KERNEL_KINDS = ("rbf", "matern", "constant*rbf", "constant*matern")
MATERN_NUS = (0.5, 1.5, 2.5)

# A training kernel that does not factor is retried with these multiples of
# its mean noise-free diagonal added to the diagonal, in this order.
_JITTER_STEPS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# Prediction takes a batch in blocks of query points whose kernel buffers
# fit in this many bytes together: 232 points at n_train = 560 with rbf, a
# third of that with Matern 2.5 (``GprModel._block_rows``). A budget under
# a core's L2 cache keeps a block's passes in it, where larger blocks are
# bound by memory traffic. The block loop is the one predict path, for
# single sites and batches alike. A block need not round as the same rows of
# one whole-batch product would (a short tail block can differ in the last
# bits), so a site predicted alone agrees with its batch row to within
# perfbench's AGREE_RTOL, not bit for bit.
_KS_BLOCK_BYTES = 1 << 20
# An L-BFGS-B run that ends where the largest projected lml gradient exceeds
# _STALL_SLOPE * max(1, |lml|) is resumed, at most _MAX_RESUMES times
# (``_lbfgsb``).
_STALL_SLOPE = 1e-3
_MAX_RESUMES = 4
_NO_LML = 1e25  # the optimizer's value where the lml or its gradient is not finite


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel family plus hyperparameters.

    ``length_scale``, a scalar (isotropic) or one per input dimension, is
    stored as a read-only 1-D float64 copy. ``noise`` is the observation
    noise variance sn2 added to the kernel diagonal during fitting.
    """

    kind: str = "rbf"
    length_scale: np.ndarray = 1.0
    signal_variance: float = 1.0
    nu: float = 1.5
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}; use one of {KERNEL_KINDS}")
        ls = np.array(self.length_scale, dtype=np.float64, ndmin=1)
        # Written so that NaN fails each test.
        if ls.ndim != 1 or ls.size == 0 or not ((ls > 0) & (ls < math.inf)).all():
            raise InputError(f"length_scale must be positive and finite, got {self.length_scale}")
        ls.setflags(write=False)
        object.__setattr__(self, "length_scale", ls)
        if not 0 < self.signal_variance < math.inf:
            raise InputError(
                f"signal_variance must be positive and finite, got {self.signal_variance}"
            )
        if self.is_matern and self.nu not in MATERN_NUS:
            raise InputError(f"nu must be one of {MATERN_NUS}, got {self.nu}")
        if not 0 <= self.noise < math.inf:
            raise InputError(
                f"noise variance must be nonnegative and finite, got {self.noise}"
            )

    @property
    def is_matern(self) -> bool:
        return self.kind.endswith("matern")

    @property
    def tunes_signal_variance(self) -> bool:
        return self.kind.startswith("constant*")

    def length_scale_vector(self, d: int) -> np.ndarray:
        """One length scale per input dimension; the only check of their count."""
        ls = self.length_scale
        if ls.size == 1:
            return np.full(d, ls[0])
        if ls.size != d:
            raise InputError(f"length_scale has {ls.size} entries for {d} input dims")
        return ls

    def record(self) -> dict:
        """The hyperparameters as JSON values, as bundles and sweeps report them."""
        return {"kind": self.kind, "length_scale": self.length_scale.tolist(),
                "signal_variance": self.signal_variance, "nu": self.nu, "noise": self.noise}

    def describe(self) -> str:
        ls = self.length_scale
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


def _training_pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Checked training inputs and targets: finite matrices with equal, nonzero row counts."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if X.shape[0] == 0:
        raise InputError("training set is empty")
    return X, Y


def _scale_inputs(X: np.ndarray, ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` divided by the length scales ``ls``, and that matrix's squared row norms."""
    Xs = X / ls
    return Xs, (Xs * Xs).sum(axis=1)


def _scaled_sq_dist(
    A_scaled: tuple[np.ndarray, np.ndarray],
    B_scaled: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared length-scale-weighted distances r^2 between the rows of A and B.

    Both arguments are ``_scale_inputs`` results. When they are the same
    one, the rows' distances to themselves are set to exactly 0:
    cancellation leaves them up to ~4e-16, a kink in Matern 0.5's lml.
    r^2 is written into ``out`` if given, else into a new array.
    """
    As, As_sq = A_scaled
    Bs, Bs_sq = B_scaled
    # ||a||^2 - 2 a.b + ||b||^2, evaluated left to right in the product's
    # buffer; clip tiny negatives from cancellation. ``2.0 * As`` is exact
    # and a new array, so the product never multiplies an array by its own
    # transpose, which numpy may send to a rank-k update that rounds
    # differently.
    sq = np.matmul(2.0 * As, Bs.T, out=out)
    np.subtract(As_sq[:, np.newaxis], sq, out=sq)
    sq += Bs_sq
    np.maximum(sq, 0.0, out=sq)
    if A_scaled is B_scaled:
        np.fill_diagonal(sq, 0.0)
    return sq


def _kernel_from_sq(
    spec: KernelSpec, sq: np.ndarray, sf2: float, work: tuple = (None, None)
) -> np.ndarray:
    """The covariance of ``spec``'s family at squared distances ``sq``.

    Consumes ``sq``: the kernel is built in its buffer, and Matern 1.5 and
    2.5 need one and two more of its size, taken from ``work`` where it
    holds arrays and allocated where it holds None. Each element sees the
    operations of the textbook expressions (``sf2 * np.exp(-0.5 * sq)``,
    ``sf2 * (1.0 + t) * np.exp(-t)``, ...) in their order; only the operands
    of single products and sums trade places, which is exact. The amplitude
    ``sf2`` is an argument, not ``spec.signal_variance``, so the optimizer
    can vary it without building a spec per evaluation.
    """
    if not spec.is_matern:
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= sf2
        return sq
    if spec.nu == 0.5:
        np.sqrt(sq, out=sq)
        np.negative(sq, out=sq)
        np.exp(sq, out=sq)
        sq *= sf2
        return sq
    if spec.nu == 1.5:
        t = np.sqrt(sq, out=sq)
        t *= math.sqrt(3.0)
        decay = np.negative(t, out=work[0])
        np.exp(decay, out=decay)
        t += 1.0
        t *= sf2
        t *= decay
        return t
    t = np.sqrt(sq, out=work[0])
    t *= math.sqrt(5.0)
    decay = np.negative(t, out=work[1])
    np.exp(decay, out=decay)
    t += 1.0
    sq *= 5.0 / 3.0
    sq += t
    sq *= sf2
    sq *= decay
    return sq


def _length_scale_factor(
    spec: KernelSpec, sq: np.ndarray, K: np.ndarray, sf2: float, work: tuple
) -> np.ndarray:
    """D with dK/dlog(l_k) = D * r_k^2, r_k^2 the k-th input's share of ``sq``.

    ``K`` is ``_kernel_from_sq``'s result at ``sq``; only its off-diagonal
    entries need to be the noise-free kernel, because r_k^2 is 0 on the
    diagonal. The factors are -2 dk/d(r^2) of the formulas above:

        rbf                k
        matern, nu=0.5     k / r               (0 at r = 0)
        matern, nu=1.5     3 sf2 exp(-sqrt(3) r)
        matern, nu=2.5     5/3 sf2 (1 + sqrt(5) r) exp(-sqrt(5) r)

    The rbf factor is ``K`` itself; the Matern ones are built in the array
    ``work[0]`` (2.5 uses the array ``work[1]`` too), and ``sq`` is left as
    it is.
    """
    if not spec.is_matern:
        return K
    r = np.sqrt(sq, out=work[0])
    if spec.nu == 0.5:
        return np.divide(K, r, out=r, where=r > 0.0)
    if spec.nu == 1.5:
        r *= -math.sqrt(3.0)
        np.exp(r, out=r)
        r *= 3.0 * sf2
        return r
    r *= math.sqrt(5.0)
    decay = np.negative(r, out=work[1])
    np.exp(decay, out=decay)
    r += 1.0
    r *= decay
    r *= (5.0 / 3.0) * sf2
    return r


def kernel_eval(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Covariance matrix K(A, B), shape (len(A), len(B)).

    ``kernel_eval(spec, X, X)`` with one array on both sides is the training
    kernel, whose self-distances are exactly 0 (see ``_scaled_sq_dist``).
    """
    same = B is A
    A = as_matrix(A, "A")
    ls = spec.length_scale_vector(A.shape[1])
    A_scaled = _scale_inputs(A, ls)
    B_scaled = A_scaled if same else _scale_inputs(as_matrix(B, "B", A.shape[1]), ls)
    return _kernel_from_sq(spec, _scaled_sq_dist(A_scaled, B_scaled), spec.signal_variance)


@dataclass(frozen=True, eq=False)
class GprModel:
    """Trained state: inputs, dual weights, and the Cholesky factor ``L``.

    ``L`` is computed on first use when the model is built without it
    (``factor``), as every loaded model is; ``gpr_fit`` hands over the one
    it found.
    """

    kernel: KernelSpec
    X_train: np.ndarray
    alpha: np.ndarray
    y_dim: int
    lml: float
    jitter_used: float
    factor: InitVar[np.ndarray | None] = None

    def __post_init__(self, factor: np.ndarray | None) -> None:
        if factor is not None:
            self.__dict__["L"] = factor

    @cached_property
    def L(self) -> np.ndarray:
        """cholesky(K(X_train) + (noise + jitter_used) I), lower: the factor
        ``gpr_fit`` found, rebuilt with ``gpr_fit``'s operations in their order
        and on its one scipy BLAS thread."""
        K = kernel_eval(self.kernel, self.X_train, self.X_train)
        with _one_scipy_blas_thread():
            return _factor(_add_to_diagonal(K, self.kernel.noise), (self.jitter_used,))[0]

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X_train.shape[1]

    def parameter_count(self) -> int:
        """Number of hyperparameters adjusted during optimization."""
        count = self.kernel.length_scale.size + 1  # length scales + noise
        if self.kernel.tunes_signal_variance:
            count += 1
        return count

    def describe(self) -> str:
        return f"gpr({self.kernel.describe()}, n_train={self.n_train})"

    @cached_property
    def _length_scales(self) -> np.ndarray:
        return self.kernel.length_scale_vector(self.input_dim)

    @cached_property
    def _train_side(self) -> np.ndarray:
        """T, the training side of every Ks product, n x (d+2), built on
        first use and kept. With a a row of X_train in length-scale units,
        T's row is [a | log sf2 - |a|^2/2 | -1/2] for rbf and
        [-2a | |a|^2 | 1] for Matern, so that its product with a query row
        [z | 1 | |z|^2] is rbf's exponent log sf2 - r^2/2 or Matern's r^2."""
        A, A_sq = _scale_inputs(self.X_train, self._length_scales)
        if self.kernel.is_matern:
            return np.column_stack([-2.0 * A, A_sq, np.ones(self.n_train)])
        log_sf2 = math.log(self.kernel.signal_variance)
        return np.column_stack([A, log_sf2 - 0.5 * A_sq, np.full(self.n_train, -0.5)])

    @cached_property
    def _exponent_cap(self) -> float:
        """log sf2 where rounding in the block product could carry rbf's
        exponent more than 1e-9 above it, else +inf (no cap, no pass). The
        excess is at most (2d + 3) 1.01 u (8 A^2 + |log sf2|), u = 2^-53,
        A^2 the largest squared training row norm in length-scale units:
        the cap takes rows hundreds of length scales from the origin."""
        log_sf2 = math.log(self.kernel.signal_variance)
        A = self._train_side[:, :-2]
        largest = float(np.einsum("ij,ij->i", A, A).max())
        excess = (2 * self.input_dim + 3) * 1.01 * 2.0**-53 * (8 * largest + abs(log_sf2))
        return log_sf2 if excess > 1e-9 else math.inf

    @cached_property
    def _unit_bound(self) -> float:
        """The magnitude below which every query and training entry must lie
        in length-scale units, x/l.

        Below it each such entry squares to under fmax / (8 d s),
        s = max(1, sf2), so a row's squared norm stays under fmax / (8 s).
        Training inputs lie below it too (``modelstore.load_model`` checks a
        loaded model's, max |X_train| < min(l) times this). The magnitudes of the
        terms of a ``_train_side`` product, which bound its partial sums,
        then sum to under fmax / (4 s) + |log sf2| for rbf, whose Ks
        ``_exponent_cap`` keeps in [0, sf2 (1 + 2e-9)], and fmax / (2 s) for
        Matern (sum |a_j z_j| <= (|a|^2 + |z|^2) / 2), as do those of a
        training kernel's r^2. The largest Matern kernel intermediate, 2.5's
        (5/3 r^2 + sqrt(5) r + 1) sf2, stays under
        5/6 fmax + sqrt(5/2 fmax s) + s, below fmax for s < fmax / 200.
        """
        scale = max(1.0, self.kernel.signal_variance)
        return math.sqrt(np.finfo(np.float64).max / (8.0 * self.input_dim * scale))

    @cached_property
    def _block_rows(self) -> int:
        """Query points per prediction block: a multiple of 8, at least 8,
        whose n_train x rows kernel buffers (one for rbf and Matern 0.5, two
        for 1.5, three for 2.5) fit in ``_KS_BLOCK_BYTES``."""
        kernel = self.kernel
        buffers = {0.5: 1, 1.5: 2, 2.5: 3}[kernel.nu] if kernel.is_matern else 1
        return max(8, _KS_BLOCK_BYTES // (64 * self.n_train * buffers) * 8)

    def _predict(self, Z: np.ndarray, weights: np.ndarray, variance=None, out=None) -> np.ndarray:
        """``Ks^T weights`` at the query ``Z``, a matrix of the model's width
        in length-scale units whose entries lie below ``_unit_bound``, into
        ``out`` if given; ``variance``, if given, receives each point's
        latent variance. The one kernel core, which ``GprPlan`` runs with its
        folded weights.

        A batch larger than one block (``_KS_BLOCK_BYTES``) is predicted
        block by block into preallocated outputs, so its working memory does
        not grow with it.
        """
        rows = self._block_rows
        m = Z.shape[0]
        if m <= rows:
            return self._predict_block(Z, weights, variance, out)
        if out is None:
            out = np.empty((m, weights.shape[1]))
        for start in range(0, m, rows):
            block = slice(start, start + rows)
            self._predict_block(
                Z[block], weights, None if variance is None else variance[block], out[block]
            )
        return out

    def _predict_block(self, Z: np.ndarray, weights: np.ndarray, variance, out) -> np.ndarray:
        """``_predict`` for one block of query points, all at once: one
        product with ``_train_side`` gives rbf's exponent, capped where
        ``_exponent_cap`` is finite, or Matern's r^2, clipped at 0; one
        in-place exp or ``_kernel_from_sq`` gives Ks."""
        kernel = self.kernel
        m, d = Z.shape
        Q = np.empty((m, d + 2))
        Q[:, :d] = Z
        Q[:, d] = 1.0
        np.einsum("ij,ij->i", Z, Z, out=Q[:, d + 1])
        Ks = np.matmul(self._train_side, Q.T)
        if kernel.is_matern:
            np.maximum(Ks, 0.0, out=Ks)
            Ks = _kernel_from_sq(kernel, Ks, kernel.signal_variance)
        else:
            if self._exponent_cap < math.inf:
                np.minimum(Ks, self._exponent_cap, out=Ks)
            np.exp(Ks, out=Ks)
        if variance is not None:
            # The LAPACK routine solve_triangular calls; L's diagonal is
            # positive, so the solve cannot fail.
            v, _ = dtrtrs(self.L, Ks, lower=1)
            variance.fill(kernel.signal_variance)
            variance -= np.einsum("ij,ij->j", v, v)
            np.maximum(variance, 0.0, out=variance)
        return np.matmul(Ks.T, weights, out=out)

    def serving_plan(self, x_scaler, y_scaler) -> "GprPlan":
        """This model as a stage from raw sites to raw outputs, between the
        ``preprocess.StandardScaler`` pair it was trained with.

        The x scaler and the length scales fold into inv = 1/(sd_x l), so a
        site x is the query (x - mean_x) inv in length-scale units (centred
        first, as ``preprocess.transform`` does), and the y scaler into the
        weights alpha sd_y and the offset mean_y. The plan's ``bound`` on a
        site's entries, the least over the inputs of
        min(U sd_x l / 2, fmax / 2) - |mean_x| with U = ``_unit_bound``,
        keeps every |x - mean_x| finite and every query entry under U/2,
        with room for rounding: below it no step of the plan overflows.
        """
        fmax = np.finfo(np.float64).max
        width = x_scaler.divisor * self._length_scales
        # A width past the float range gives an inf here, not a warning.
        with np.errstate(all="ignore"):
            reach = np.minimum(0.5 * self._unit_bound * width, 0.5 * fmax)
        bound = max(0.0, float((reach - np.abs(x_scaler.means)).min()))
        return GprPlan(
            self, x_scaler.means, 1.0 / width, self.alpha * y_scaler.divisor, y_scaler.means, bound
        )


@dataclass(frozen=True, eq=False)
class GprPlan:
    """A GPR stage from raw sites to raw outputs, its scalers folded into
    constants (``GprModel.serving_plan``)."""

    model: GprModel
    x_means: np.ndarray
    inv: np.ndarray
    weights: np.ndarray
    y_means: np.ndarray
    bound: float

    def __call__(
        self, X: np.ndarray, out: np.ndarray | None = None, variance: np.ndarray | None = None
    ) -> np.ndarray:
        """The mean at raw sites ``X``, a matrix of the model's width, in raw
        units, written into ``out`` if given; ``variance``, if given,
        receives each site's latent variance. The sites' one check is
        against ``bound``, before any step can overflow."""
        check_below(X, "X_star", self.bound)
        Z = X - self.x_means
        Z *= self.inv
        out = self.model._predict(Z, self.weights, variance, out)
        out += self.y_means
        return out


@dataclass(frozen=True, eq=False)
class Prediction:
    """Posterior mean per output and one latent variance per query point."""

    mean: np.ndarray
    variance: np.ndarray


def _add_to_diagonal(K: np.ndarray, value: float) -> np.ndarray:
    """``K + value * I`` in K's buffer, bit for bit: off the diagonal both add 0."""
    K.reshape(-1)[:: K.shape[0] + 1] += value
    return K


def cholesky(K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The lower Cholesky factor of ``K``, Fortran-ordered, upper triangle 0.

    This is LAPACK's ``dpotrf`` as scipy's ``cholesky(K, lower=True)`` calls
    it, without scipy's finiteness check. ``K`` is left as it is. The factor
    is a new array, or ``out`` (a Fortran-ordered array of K's shape) where
    given: K is copied into it and factored there, as scipy factors its own
    Fortran-ordered copy of a C-ordered K. Raises
    ``np.linalg.LinAlgError`` if ``K`` is not positive definite.
    """
    if out is not None:
        np.copyto(out, K)
        K = out
    L, info = dpotrf(K, lower=1, clean=1, overwrite_a=out is not None)
    if info != 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    return L


def _factor(
    K: np.ndarray, jitters: tuple[float, ...], out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """``cholesky(K + j I, out)`` for the first jitter j in ``jitters`` that
    factors, and that j. K is left as it is; a nonzero j is added to a copy."""
    for jitter in jitters:
        try:
            return cholesky(_add_to_diagonal(K.copy(), jitter) if jitter else K, out), jitter
        except np.linalg.LinAlgError:
            pass
    raise NumericError(
        f"Cholesky factorization of the training kernel failed at jitter "
        f"{jitters[-1]:.3g}; the kernel matrix is ill-conditioned (duplicate "
        f"training points with zero noise?)"
    )


def _fit_at(
    K: np.ndarray, Y: np.ndarray, sf2: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(L, alpha, lml, jitter)`` for the noisy training kernel ``K`` of
    amplitude ``sf2`` and the targets ``Y`` (GPML Algorithm 2.1).

    K is factored as it is, and if that fails with each step of the jitter
    ladder in turn: ``_JITTER_STEPS`` times the mean of K's noise-free
    diagonal, whose n entries are all sf2, so the mean is formed only on
    failure. K itself is not changed; ``L`` is ``out`` where given (see
    ``cholesky``). A kernel that no jitter factors, or a non-finite lml,
    raises ``NumericError``.
    """
    n, q = Y.shape
    try:
        L, jitter = _factor(K, (0.0,), out)
    except NumericError:
        scale = float(np.mean(np.full(n, sf2)))
        L, jitter = _factor(K, tuple(step * scale for step in _JITTER_STEPS), out)
    alpha, _ = dpotrs(L, Y, lower=1)
    lml = float(
        -0.5 * np.sum(Y * alpha)
        - q * np.sum(np.log(np.diag(L)))
        - q * 0.5 * n * math.log(2.0 * math.pi)
    )
    if not math.isfinite(lml):
        raise NumericError(f"the log marginal likelihood is not finite ({lml})")
    return L, alpha, lml, jitter


def gpr_fit(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> GprModel:
    """Factor the kernel matrix and solve for the dual weights, on one scipy
    BLAS thread."""
    X, Y = _training_pair(X, Y)
    K = _add_to_diagonal(kernel_eval(spec, X, X), spec.noise)
    with _one_scipy_blas_thread():
        L, alpha, lml, jitter_used = _fit_at(K, Y, spec.signal_variance)
    return GprModel(
        kernel=spec,
        X_train=X.copy(),
        alpha=alpha,
        y_dim=Y.shape[1],
        lml=lml,
        jitter_used=jitter_used,
        factor=L,
    )


def gpr_predict(model: GprModel, X_star: np.ndarray) -> Prediction:
    """Posterior mean and latent variance at query points in the model's own
    units: its serving plan between identity scalers, with the variance."""
    X_star = as_matrix(X_star, "X_star", model.input_dim, finite=False)
    plan = model.serving_plan(
        StandardScaler.identity(model.input_dim), StandardScaler.identity(model.y_dim)
    )
    variance = np.empty(X_star.shape[0])
    return Prediction(mean=plan(X_star, variance=variance), variance=variance)


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


def _search_space(spec: KernelSpec, d: int, bounds: HyperBounds) -> tuple[np.ndarray, np.ndarray]:
    """``(theta0, log_box)``: theta is the log length scales, log sf2 where the
    kind tunes it, then log sn2; ``log_box`` is their (k, 2) log bounds, and
    ``theta0`` is ``spec``'s values clipped into it (a zero noise at its floor)."""
    spec.length_scale_vector(d)  # checks the length-scale count against d
    box = [bounds.length_scale] * spec.length_scale.size
    values = list(np.log(spec.length_scale))
    if spec.tunes_signal_variance:
        box.append(bounds.signal_variance)
        values.append(math.log(spec.signal_variance))
    box.append(bounds.noise)
    log_box = np.array([(math.log(lo), math.log(hi)) for lo, hi in box])
    values.append(math.log(max(spec.noise, math.exp(log_box[-1, 0]))))
    return np.clip(np.array(values), *log_box.T), log_box


def _unpack_theta(spec: KernelSpec, theta: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The length scales (an array), sf2 and the noise variance at the
    log-hyperparameters ``theta``, ordered as ``_search_space`` orders them."""
    noise = float(math.exp(theta[-1]))
    if spec.tunes_signal_variance:
        return np.exp(theta[:-2]), float(math.exp(theta[-2])), noise
    return np.exp(theta[:-1]), spec.signal_variance, noise


def _theta_to_spec(spec: KernelSpec, theta: np.ndarray) -> KernelSpec:
    ls, sf2, noise = _unpack_theta(spec, theta)
    return replace(spec, length_scale=ls, signal_variance=sf2, noise=noise)


def _lml_evaluator(
    X: np.ndarray, Y: np.ndarray, spec: KernelSpec
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """``theta -> (lml, dlml/dtheta)``, the lml being
    ``gpr_fit(X, Y, _theta_to_spec(spec, theta)).lml`` bit for bit.

    ``X`` and ``Y`` are checked matrices, as ``_training_pair`` returns them.
    Each evaluation builds K + sn2*I with the helpers ``kernel_eval`` uses,
    in its order, without a spec, and hands it to ``_fit_at`` as
    ``gpr_fit`` does. The gradient (``_lml_gradient``) comes from the factor
    ``_fit_at`` found, jittered or not. Where ``_fit_at`` raises
    ``NumericError`` the evaluation is ``(-inf, 0)``.

    The evaluator owns one workspace of n x n arrays, allocated here and
    overwritten by every evaluation, so evaluations allocate no n x n float
    arrays of their own: r^2 (which becomes K), a copy of r^2 for the
    gradient, the Fortran-ordered factor (which becomes K^-1 and then W),
    and the Matern temporaries of ``_kernel_from_sq`` and
    ``_length_scale_factor`` (one for nu = 0.5 and 1.5, two for 2.5).
    Matern 0.5's gradient still makes an n x n boolean mask per evaluation.
    """
    n = X.shape[0]
    n_ls = spec.length_scale.size
    # Per-dimension squared differences of the unscaled inputs, one row per
    # input, for the ARD gradient; K itself is always built from r^2 above.
    sq_diffs = None
    if n_ls > 1:
        sq_diffs = np.square(X.T[:, :, np.newaxis] - X.T[:, np.newaxis, :]).reshape(n_ls, -1)
    sq, r2 = np.empty((n, n)), np.empty((n, n))
    factor = np.empty((n, n), order="F")
    temporaries = {0.5: 1, 1.5: 1, 2.5: 2}[spec.nu] if spec.is_matern else 0
    work = tuple(np.empty((n, n)) if i < temporaries else None for i in range(2))

    def lml_at(theta: np.ndarray) -> tuple[float, np.ndarray]:
        ls, sf2, noise = _unpack_theta(spec, theta)
        X_scaled = _scale_inputs(X, ls)
        _scaled_sq_dist(X_scaled, X_scaled, out=sq)
        np.copyto(r2, sq)
        K = _add_to_diagonal(_kernel_from_sq(spec, sq, sf2, work), noise)
        try:
            L, alpha, lml, _ = _fit_at(K, Y, sf2, factor)
        except NumericError:
            return -np.inf, np.zeros(len(theta))
        return lml, _lml_gradient(spec, K, r2, L, alpha, sf2, noise, ls, sq_diffs, work)

    return lml_at


def _lml_gradient(
    spec: KernelSpec,
    K: np.ndarray,
    sq: np.ndarray,
    L: np.ndarray,
    alpha: np.ndarray,
    sf2: float,
    noise: float,
    ls: np.ndarray,
    sq_diffs: np.ndarray | None,
    work: tuple,
) -> np.ndarray:
    """The lml's gradient in the log-hyperparameters (GPML eq. 5.9).

    With W = alpha alpha^T - q K^-1 (alpha summed over its q columns), each
    entry is 1/2 sum(W * dK/dtheta), where dK/dlog(sf2) is the noise-free
    kernel, dK/dlog(sn2) = sn2 I and dK/dlog(l_k) = D * r_k^2 with D from
    ``_length_scale_factor``. ``K`` is the kernel with the noise at ``sq``
    (r^2) and ``L`` its Cholesky factor, jittered or not, which this
    consumes, as it consumes ``work`` (``_length_scale_factor``'s
    temporaries). An ARD kernel (``sq_diffs`` given) takes r_k^2 as the k-th
    row of ``sq_diffs`` over l_k^2. The entries are ordered as theta is.
    """
    # W's lower triangle in L's buffer: dpotri leaves K^-1 there (the upper
    # triangle stays 0) and dsyrk adds alpha alpha^T. Every dK/dtheta is
    # symmetric, so sum(W * dK) keeps its value when the off-diagonal
    # entries of one triangle count twice and those of the other not at all.
    K_inv, _ = dpotri(L, lower=1, overwrite_c=1)
    W = dsyrk(1.0, alpha, beta=-float(alpha.shape[1]), c=K_inv, lower=1, overwrite_c=1).T
    W *= 2.0
    _add_to_diagonal(W, -0.5 * np.diagonal(W))
    trace = float(np.trace(W))
    entries = [0.5 * noise * trace]
    if spec.tunes_signal_variance:
        entries.insert(0, 0.5 * (np.vdot(W, K) - noise * trace))
    W *= _length_scale_factor(spec, sq, K, sf2, work)
    if sq_diffs is None:
        ls_entries = [0.5 * np.vdot(W, sq)]
    else:
        ls_entries = 0.5 * (sq_diffs @ W.reshape(-1)) / (ls * ls)
    return np.array([*ls_entries, *entries])


def _lbfgsb(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    log_box: np.ndarray,
) -> OptimizeResult:
    """L-BFGS-B from ``theta0``, resumed from where it stops while it stops on
    a steep slope and the resumed run gains.

    Its line search can stall where the lml is still steep: a far-off probe
    early in a run leaves curvature pairs that point the search across a
    curved ridge, and the run ends on "relative reduction of f" with a
    projected gradient of order 1 (seen on a 6-row multi-fidelity stage).
    A resumed run starts with an empty curvature memory. At a true optimum
    the projected gradient is far below ``_STALL_SLOPE`` * max(1, |lml|).

    Every run's ``fun`` and ``jac`` are ``objective(x)``'s; after an abnormal
    line search (``status == 2``) scipy returns a trial point's, not x's.
    """

    def run(start: np.ndarray) -> OptimizeResult:
        result = minimize(objective, start, jac=True, method="L-BFGS-B", bounds=log_box)
        if result.status == 2:
            result.fun, result.jac = objective(result.x)
        return result

    lo, hi = log_box.T
    result = run(theta0)
    for _ in range(_MAX_RESUMES):
        slope = np.max(np.abs(np.clip(result.x - result.jac, lo, hi) - result.x))
        if slope <= _STALL_SLOPE * max(1.0, abs(result.fun)):
            break
        resumed = run(result.x)
        if not resumed.fun < result.fun:
            break
        result = resumed
    return result


def optimize_hyperparameters(
    X: np.ndarray,
    Y: np.ndarray,
    spec: KernelSpec,
    restarts: int = 3,
    bounds: HyperBounds | None = None,
    seed: int = 0,
) -> GprModel:
    """Maximize the log marginal likelihood over log-hyperparameters, and
    return the model fitted at the best point.

    The first start is the supplied spec (clipped into bounds); the remaining
    ``restarts - 1`` starts are drawn log-uniformly within bounds from
    ``seed``. Only the ``_lbfgsb`` run that ends with the highest lml, the
    earliest on a tie, is fitted with ``gpr_fit``; no start is, as L-BFGS-B
    never ends below where it began. ``nu`` and the kernel kind are never
    modified. The lml evaluations run on one scipy BLAS thread, as the fit does.
    """
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    X, Y = _training_pair(X, Y)
    theta0, log_box = _search_space(spec, X.shape[1], bounds or HyperBounds())
    lml_at = _lml_evaluator(X, Y, spec)

    def neg_lml(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = lml_at(theta)
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            return _NO_LML, np.zeros_like(theta)
        return -value, -grad

    rng = np.random.default_rng(seed)
    starts = [theta0] + [rng.uniform(*log_box.T) for _ in range(restarts - 1)]

    results, failures = [], []
    with _one_scipy_blas_thread():
        for start in starts:
            try:
                results.append(_lbfgsb(neg_lml, start, log_box))
            except Exception as exc:  # pragma: no cover - scipy internal failure
                failures.append(str(exc))
    # Free the evaluator's workspace before the fit below allocates its own
    # n x n arrays, so that the two are never held at once.
    del neg_lml, lml_at

    best = min(results, key=lambda result: result.fun, default=None)
    if best is None or not best.fun < _NO_LML:
        detail = f" ({'; '.join(failures)})" if failures else ""
        raise NumericError(
            f"all {restarts} hyperparameter restarts failed to produce a "
            f"finite log marginal likelihood{detail}"
        )
    return gpr_fit(X, Y, _theta_to_spec(spec, best.x))

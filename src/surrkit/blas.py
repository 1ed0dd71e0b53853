"""The thread policy of scipy's BLAS: every model's bytes are made on one thread.

numpy's and scipy's wheels each load their own OpenBLAS with its own thread
pool, whose threads spin for a while after each call. Where both pools run a
thread per core they take the cores from each other: unguarded, with no BLAS
variable set on a 2-core host, GPR training ran 2-3 times slower than on one
thread. So every step that makes a trained model's bytes holds scipy's pool
at one thread: ``mlp.mlp_train``'s L-BFGS-B run,
``gpr.optimize_hyperparameters``, ``gpr.gpr_fit`` and a loaded
``GprModel``'s rebuild of its factor ``L``. LAPACK's results depend on its
thread count, so this also makes those bytes the same whatever count the
caller's scipy pool runs. numpy's pool, which runs the matrix products, keeps
its count, and prediction is not guarded.

The count is process-wide: the guard sets it and restores the caller's
afterwards, which is not safe where two Python threads train at once.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import scipy


@functools.cache
def _scipy_openblas():
    """The thread-count getter and setter of the OpenBLAS bundled in scipy's
    wheel, or ``None`` where scipy bundles none (it then shares its BLAS)."""
    root = os.path.dirname(scipy.__file__)
    for lib in sorted(
        glob.glob(os.path.join(root, os.pardir, "scipy.libs", "*openblas*"))
        + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    ):
        try:
            blas = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            try:
                get = getattr(blas, prefix + "_get_num_threads")
                set_ = getattr(blas, prefix + "_set_num_threads")
            except AttributeError:
                continue
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, set_
    return None


@contextmanager
def _one_scipy_blas_thread():
    """Run scipy's bundled OpenBLAS on the calling thread alone inside the
    block, and give the caller's thread count back after it, also when the
    block raises. Taken once per entry point: one enter and exit costs about
    1.5 us, which a guard per LAPACK call would pay thousands of times per fit.
    """
    pool = _scipy_openblas()
    if pool is None:
        yield
        return
    get, set_ = pool
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)

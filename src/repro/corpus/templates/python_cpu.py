"""Python templates for the CPU-side models: numpy and Numba.

The numpy templates are vectorised, idiomatic scientific-Python code; the
Numba templates use ``@njit(parallel=True)`` with explicit ``prange`` loops,
which is the style the Numba performance documentation recommends.  Both are
*executable*: the evaluation sandbox runs them (Numba through a no-op JIT
shim) against the numerical oracles in :mod:`repro.sandbox.tasks`.
"""

from __future__ import annotations

__all__ = ["TEMPLATES"]

# ---------------------------------------------------------------------------
# numpy
# ---------------------------------------------------------------------------

_NUMPY_AXPY = '''import numpy as np


def axpy(a, x, y):
    """AXPY: return a * x + y."""
    return a * x + y
'''

_NUMPY_GEMV = '''import numpy as np


def gemv(A, x):
    """GEMV: return the matrix-vector product A @ x."""
    return np.dot(A, x)
'''

_NUMPY_GEMM = '''import numpy as np


def gemm(A, B):
    """GEMM: return the matrix-matrix product A @ B."""
    return np.matmul(A, B)
'''

_NUMPY_SPMV = '''import numpy as np


def spmv(row_ptr, col_idx, values, x):
    """SpMV: y = A @ x for a CSR matrix given by (row_ptr, col_idx, values)."""
    n = len(row_ptr) - 1
    y = np.zeros(n)
    for i in range(n):
        start = row_ptr[i]
        end = row_ptr[i + 1]
        y[i] = np.dot(values[start:end], x[col_idx[start:end]])
    return y
'''

_NUMPY_JACOBI = '''import numpy as np


def jacobi(u):
    """One 3D Jacobi sweep with fixed boundary values."""
    u_new = u.copy()
    u_new[1:-1, 1:-1, 1:-1] = (
        u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1] +
        u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1] +
        u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
    ) / 6.0
    return u_new
'''

_NUMPY_CG = '''import numpy as np


def cg(A, b, tol=1e-10, max_iter=1000):
    """Solve A x = b for SPD A with the conjugate gradient method."""
    x = np.zeros_like(b)
    r = b - A @ x
    p = r.copy()
    rsold = np.dot(r, r)
    for _ in range(max_iter):
        Ap = A @ p
        alpha = rsold / np.dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rsnew = np.dot(r, r)
        if np.sqrt(rsnew) < tol:
            break
        p = r + (rsnew / rsold) * p
        rsold = rsnew
    return x
'''

# ---------------------------------------------------------------------------
# Numba
# ---------------------------------------------------------------------------

_NUMBA_AXPY = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def axpy(a, x, y):
    """AXPY: return a * x + y using a parallel Numba loop."""
    out = np.empty_like(y)
    for i in prange(x.shape[0]):
        out[i] = a * x[i] + y[i]
    return out
'''

_NUMBA_GEMV = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def gemv(A, x):
    """GEMV: y = A @ x with one parallel iteration per row."""
    m, n = A.shape
    y = np.zeros(m)
    for i in prange(m):
        s = 0.0
        for j in range(n):
            s += A[i, j] * x[j]
        y[i] = s
    return y
'''

_NUMBA_GEMM = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def gemm(A, B):
    """GEMM: C = A @ B with a parallel outer loop."""
    m, k = A.shape
    n = B.shape[1]
    C = np.zeros((m, n))
    for i in prange(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += A[i, l] * B[l, j]
            C[i, j] = s
    return C
'''

_NUMBA_SPMV = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def spmv(row_ptr, col_idx, values, x):
    """SpMV: y = A @ x for a CSR matrix, parallel over rows."""
    n = row_ptr.shape[0] - 1
    y = np.zeros(n)
    for i in prange(n):
        s = 0.0
        for j in range(row_ptr[i], row_ptr[i + 1]):
            s += values[j] * x[col_idx[j]]
        y[i] = s
    return y
'''

_NUMBA_JACOBI = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def jacobi(u):
    """One 3D Jacobi sweep with fixed boundary values."""
    n = u.shape[0]
    u_new = u.copy()
    for i in prange(1, n - 1):
        for j in range(1, n - 1):
            for k in range(1, n - 1):
                u_new[i, j, k] = (u[i - 1, j, k] + u[i + 1, j, k] +
                                  u[i, j - 1, k] + u[i, j + 1, k] +
                                  u[i, j, k - 1] + u[i, j, k + 1]) / 6.0
    return u_new
'''

_NUMBA_CG = '''import numpy as np
from numba import njit, prange


@njit(parallel=True)
def _matvec(A, p):
    n = A.shape[0]
    Ap = np.zeros(n)
    for i in prange(n):
        s = 0.0
        for j in range(n):
            s += A[i, j] * p[j]
        Ap[i] = s
    return Ap


@njit
def cg(A, b, tol=1e-10, max_iter=1000):
    """Solve A x = b for SPD A with the conjugate gradient method."""
    n = b.shape[0]
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rsold = np.dot(r, r)
    for _ in range(max_iter):
        Ap = _matvec(A, p)
        alpha = rsold / np.dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rsnew = np.dot(r, r)
        if np.sqrt(rsnew) < tol:
            break
        p = r + (rsnew / rsold) * p
        rsold = rsnew
    return x
'''


TEMPLATES: dict[tuple[str, str], str] = {
    ("numpy", "axpy"): _NUMPY_AXPY,
    ("numpy", "gemv"): _NUMPY_GEMV,
    ("numpy", "gemm"): _NUMPY_GEMM,
    ("numpy", "spmv"): _NUMPY_SPMV,
    ("numpy", "jacobi"): _NUMPY_JACOBI,
    ("numpy", "cg"): _NUMPY_CG,
    ("numba", "axpy"): _NUMBA_AXPY,
    ("numba", "gemv"): _NUMBA_GEMV,
    ("numba", "gemm"): _NUMBA_GEMM,
    ("numba", "spmv"): _NUMBA_SPMV,
    ("numba", "jacobi"): _NUMBA_JACOBI,
    ("numba", "cg"): _NUMBA_CG,
}

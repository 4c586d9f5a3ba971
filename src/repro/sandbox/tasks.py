"""Canonical evaluation tasks for executable (Python) suggestions.

A :class:`SandboxTask` fixes, for each kernel, the concrete arguments a
candidate function is called with and the oracle output it must reproduce.
The argument sets use the *simple* form of each kernel (``y = A x`` rather
than the full ``alpha``/``beta`` BLAS form) because that is the form the
prompt "``<kernel>`` ``<model>`` ``def``" asks for and the form the
templates and real Copilot suggestions produce.

Problem sizes are deliberately small: the evaluation measures correctness,
not throughput, and the pyCUDA/cuPy suggestions run on an interpreted
simulated device.

A task is the kernel's only numerical oracle: :meth:`SandboxTask.mismatch`
is the comparison every executed suggestion's output goes through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["SandboxTask", "get_task", "register_task_builder", "TASK_SEED"]

#: Base seed for the sandbox problem data (start of the paper's data window).
TASK_SEED = 20230414


@dataclass(frozen=True)
class SandboxTask:
    """A concrete call the sandbox makes against a candidate function."""

    kernel: str
    #: Positional arguments handed to the candidate callable.
    args: tuple
    #: Oracle output the candidate must reproduce.
    expected: np.ndarray
    #: Relative tolerance for the comparison.
    rtol: float = 1e-8
    #: Absolute tolerance for the comparison.
    atol: float = 1e-10

    def fresh_args(self) -> tuple:
        """Copies of the arguments, safe to hand to untrusted code."""
        out = []
        for arg in self.args:
            out.append(arg.copy() if isinstance(arg, np.ndarray) else arg)
        return tuple(out)

    def mismatch(self, output: Any) -> str | None:
        """Why ``output`` fails this task's oracle, or None when it passes.

        The comparison is defensive: a non-numeric output, a shape mismatch
        that squeezing unit axes does not fix, NaN/Inf contamination or a
        tolerance violation yields a human-readable message rather than an
        exception.  Only a malformed oracle raises (``ValueError``).
        """
        exp = _as_float_array(self.expected)
        if exp is None:
            raise ValueError("expected output is not numeric; oracle is malformed")
        cand = _as_float_array(output)
        if cand is None:
            return f"candidate output is not numeric (type {type(output).__name__})"
        if cand.shape != exp.shape:
            # Allow (n,) vs (n,1) style trivial mismatches only when squeezing fixes it.
            if cand.squeeze().shape != exp.squeeze().shape:
                return f"shape mismatch: candidate {cand.shape} vs expected {exp.shape}"
            cand, exp = cand.squeeze(), exp.squeeze()
        if not np.all(np.isfinite(cand)):
            return "candidate output contains NaN or Inf"
        if np.allclose(cand, exp, rtol=self.rtol, atol=self.atol):
            return None
        # Equal shapes and a failed allclose: neither array is empty.
        abs_err = float(np.max(np.abs(cand - exp)))
        tol = self.atol + self.rtol * float(np.max(np.abs(exp)))
        return f"max abs error {abs_err:.3e} exceeds tolerance {tol:.3e}"


def _as_float_array(value: Any) -> np.ndarray | None:
    """``value`` as a float64 array, or None when it is not numeric.

    Arrays (except object arrays), numbers and lists/tuples convert; a
    string, ``None``, a ragged container or anything else does not.
    """
    if isinstance(value, np.ndarray) and value.dtype == object:
        return None
    if not isinstance(value, (np.ndarray, int, float, complex, np.generic, list, tuple)):
        return None
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def _rng(kernel: str) -> np.random.Generator:
    return np.random.default_rng([TASK_SEED, sum(ord(c) for c in kernel)])


_BUILDERS: dict[str, Callable[[], SandboxTask]] = {}


def _register(name: str) -> Callable[[Callable[[], SandboxTask]], Callable[[], SandboxTask]]:
    def wrap(func: Callable[[], SandboxTask]) -> Callable[[], SandboxTask]:
        _BUILDERS[name] = func
        return func

    return wrap


@_register("axpy")
def _axpy_task() -> SandboxTask:
    rng = _rng("axpy")
    n = 64
    a = 1.5
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return SandboxTask(kernel="axpy", args=(a, x, y), expected=a * x + y)


@_register("gemv")
def _gemv_task() -> SandboxTask:
    rng = _rng("gemv")
    m, n = 12, 9
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    return SandboxTask(kernel="gemv", args=(a, x), expected=a @ x)


@_register("gemm")
def _gemm_task() -> SandboxTask:
    rng = _rng("gemm")
    m, k, n = 8, 6, 7
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    return SandboxTask(kernel="gemm", args=(a, b), expected=a @ b)


def _poisson_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, data)`` of the 5-point 2-D Poisson operator.

    Row ``r = i * n + j`` of the ``n*n`` x ``n*n`` operator holds 4 on the
    diagonal and -1 for each neighbour on the ``n`` x ``n`` grid, columns
    ascending within the row.
    """
    indptr, indices, data = [0], [], []
    for i in range(n):
        for j in range(n):
            r = i * n + j
            for col, inside in (
                (r - n, i > 0),
                (r - 1, j > 0),
                (r, True),
                (r + 1, j < n - 1),
                (r + n, i < n - 1),
            ):
                if inside:
                    indices.append(col)
                    data.append(4.0 if col == r else -1.0)
            indptr.append(len(indices))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
    )


@_register("spmv")
def _spmv_task() -> SandboxTask:
    rng = _rng("spmv")
    indptr, indices, data = _poisson_2d(4)  # 16 x 16, 64 non-zeros
    x = rng.standard_normal(indptr.size - 1)
    expected = np.add.reduceat(data * x[indices], indptr[:-1])
    return SandboxTask(kernel="spmv", args=(indptr, indices, data, x), expected=expected)


@_register("jacobi")
def _jacobi_task() -> SandboxTask:
    # One 7-point sweep with a zero right-hand side; the boundary is copied.
    rng = _rng("jacobi")
    n = 6
    u = rng.standard_normal((n, n, n))
    expected = u.copy()
    expected[1:-1, 1:-1, 1:-1] = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
    ) / 6.0
    return SandboxTask(kernel="jacobi", args=(u,), expected=expected)


@_register("scan")
def _scan_task() -> SandboxTask:
    # Extension family (see repro.extensions): inclusive prefix sum.
    rng = _rng("scan")
    n = 64
    x = rng.standard_normal(n)
    return SandboxTask(kernel="scan", args=(x,), expected=np.cumsum(x))


@_register("histogram")
def _histogram_task() -> SandboxTask:
    # Extension family: bin counts from precomputed int32 bin indices (the
    # CUDA templates index the histogram buffer by a loaded integer, the
    # same access shape as spmv's col_idx).  The counts buffer is float64
    # because the lockstep engine models atomicAdd on float64 targets.
    rng = _rng("histogram")
    n, nbins = 64, 8
    bins = rng.integers(0, nbins, size=n).astype(np.int32)
    expected = np.bincount(bins, minlength=nbins).astype(np.float64)
    return SandboxTask(kernel="histogram", args=(bins, nbins), expected=expected)


@_register("cg")
def _cg_task() -> SandboxTask:
    rng = _rng("cg")
    n = 10
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    x_true = rng.standard_normal(n)
    b = a @ x_true
    return SandboxTask(kernel="cg", args=(a, b), expected=x_true, rtol=1e-5, atol=1e-6)


def register_task_builder(name: str, builder: Callable[[], SandboxTask]) -> None:
    """Register a sandbox task builder for an extension kernel (idempotent).

    Replacing an existing builder with a different one is an error: the
    task is part of the evaluation contract, and silently swapping it would
    re-score every cached verdict for the kernel.
    """
    key = name.strip().lower()
    existing = _BUILDERS.get(key)
    if existing is not None and existing is not builder:
        raise ValueError(f"kernel {key!r} already has a sandbox task builder")
    _BUILDERS[key] = builder
    _CACHE.pop(key, None)


_CACHE: dict[str, SandboxTask] = {}


def get_task(kernel: str) -> SandboxTask:
    """The (cached, deterministic) sandbox task for ``kernel``."""
    key = kernel.strip().lower()
    if key not in _BUILDERS:
        raise KeyError(f"no sandbox task for kernel {kernel!r}; known: {', '.join(_BUILDERS)}")
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[key]()
    return _CACHE[key]

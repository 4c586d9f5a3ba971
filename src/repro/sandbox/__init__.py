"""Execution sandbox for Python suggestions.

The paper's authors judged GPU-targeting Python suggestions (cuPy, pyCUDA,
Numba) by reading them; we go further and *execute* them against each
kernel's numerical oracle (its :mod:`repro.sandbox.tasks` task), replacing
the unavailable GPU stack with:

* :mod:`repro.sandbox.fake_numba` — a no-op JIT (``@njit``/``@jit`` return
  the undecorated function, ``prange`` is ``range``),
* :mod:`repro.sandbox.fake_cupy` — a numpy-backed ``cupy`` with ``asarray``,
  ``asnumpy``, ufuncs and ``RawKernel``,
* :mod:`repro.sandbox.fake_pycuda` — ``pycuda.autoinit``, ``pycuda.driver``
  (``In``/``Out``/``InOut``) and ``SourceModule``,
* :mod:`repro.sandbox.cuda_c` — a miniature CUDA-C interpreter that actually
  runs the raw kernels embedded in ``RawKernel``/``SourceModule`` sources on
  a simulated grid/block/thread device model.

``evaluate_python_suggestions`` (plural, batched: one fake-runtime context
per batch, one oracle per kernel group) is the entry point the analyzers
use; ``evaluate_python_suggestion`` evaluates a single suggestion the same
way.  ``sandbox_execution_count`` counts every module actually executed —
how warm-cache runs prove they executed nothing.
"""

from __future__ import annotations

from repro.sandbox.executor import (
    ExecutionResult,
    evaluate_python_suggestion,
    evaluate_python_suggestions,
    run_python_suggestion,
    sandbox_execution_count,
)
from repro.sandbox.tasks import SandboxTask, get_task
from repro.sandbox.cuda_c import CudaModule, CudaKernel

__all__ = [
    "ExecutionResult",
    "evaluate_python_suggestion",
    "evaluate_python_suggestions",
    "run_python_suggestion",
    "sandbox_execution_count",
    "SandboxTask",
    "get_task",
    "CudaModule",
    "CudaKernel",
]

"""Miniature CUDA-C kernel interpreter.

Parses the subset of CUDA C that numerical kernels of the AXPY/GEMV/GEMM/
SpMV/Jacobi/CG family use — ``__global__`` functions with scalar and pointer
parameters, declarations, assignments, ``for``/``while``/``if`` statements
and arithmetic expressions over ``threadIdx``/``blockIdx``/``blockDim``/
``gridDim`` — and executes them over a simulated grid of thread blocks with
device buffers backed by numpy arrays.

This is the substrate that lets the sandbox run pyCUDA ``SourceModule`` and
cuPy ``RawKernel`` suggestions without a GPU.  Launches run on the lockstep
engine with its runtime hazard tracking always on, replaying through the
scalar sweep on any hazard; :func:`execution_mode` forces the scalar sweep
and :func:`lockstep_stats` counts which engine ran.

The static hazard analyzer (:mod:`repro.sandbox.cuda_c.static`) is not
exported here and execution never consults it: its findings are read only by
:mod:`repro.analysis.hazards` (``lint``, ``static_findings``, ``n_hazards``).
"""

from __future__ import annotations

from repro.sandbox.cuda_c.interpreter import CudaKernel, CudaModule, execution_mode
from repro.sandbox.cuda_c.lockstep import lockstep_stats, reset_lockstep_stats
from repro.sandbox.cuda_c.parser import parse_cuda_source, CudaSyntaxError

__all__ = [
    "CudaKernel",
    "CudaModule",
    "parse_cuda_source",
    "CudaSyntaxError",
    "execution_mode",
    "lockstep_stats",
    "reset_lockstep_stats",
]

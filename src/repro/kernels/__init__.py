"""The evaluated kernels, as data.

Each kernel is a :class:`~repro.kernels.base.KernelSpec` in the registry
(:mod:`repro.kernels.registry`): the paper's six, in its table order —

* ``axpy`` — ``y = a * x + y``
* ``gemv`` — ``y = A @ x``
* ``gemm`` — ``C = A @ B``
* ``spmv`` — ``y = A @ x`` for a CSR sparse matrix
* ``jacobi`` — one 3-D 7-point Jacobi stencil sweep
* ``cg`` — conjugate gradients on an SPD system

— followed by any extension families (:mod:`repro.extensions`).  The
complexity ordering (AXPY < GEMV < GEMM < SpMV < Jacobi < CG) is the one
the paper uses when it argues that "the more complex the kernel, the fewer
quality results are obtained".  The numerical oracle a suggestion must
reproduce is each kernel's sandbox task in :mod:`repro.sandbox.tasks`.
"""

from __future__ import annotations

from repro.kernels.base import KernelComplexity, KernelSpec
from repro.kernels.registry import (
    KERNEL_NAMES,
    STOCK_KERNEL_NAMES,
    get_kernel,
    kernel_names,
    register_kernel,
    unregister_kernel,
)

__all__ = [
    "KernelComplexity",
    "KernelSpec",
    "KERNEL_NAMES",
    "STOCK_KERNEL_NAMES",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "unregister_kernel",
]

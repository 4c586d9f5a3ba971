"""Kernel specs: the static description of each evaluated kernel.

The paper evaluates six numerical kernels of increasing complexity.  A
:class:`KernelSpec` is everything the pipeline reads about one: its name,
its table heading, its complexity class and the languages whose grids
include it.  What a correct suggestion must compute is fixed by the
kernel's sandbox task (:mod:`repro.sandbox.tasks`), the one numerical
oracle.

The complexity taxonomy mirrors the ordering used throughout the paper's
discussion (Section 4.5): AXPY is the simplest single-loop kernel, CG is a
"multikernel" algorithm composed of several BLAS-1/BLAS-2 building blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["KernelComplexity", "KernelSpec"]


class KernelComplexity(enum.IntEnum):
    """Complexity classes for the evaluated kernels.

    The integer values define a total order used both by the experiment
    aggregation (per-kernel averages are reported in this order) and by the
    simulated suggestion engine, whose quality priors degrade with kernel
    complexity — the mechanism the paper identifies as "the more complex the
    kernel, the fewer quality results are obtained".
    """

    #: Single loop, BLAS-1 style, constant arithmetic intensity (AXPY).
    TRIVIAL = 1
    #: Two nested loops / BLAS-2 (GEMV).
    SIMPLE = 2
    #: Three nested loops / BLAS-3 (GEMM).
    MODERATE = 3
    #: Irregular memory access over a compressed sparse format (SpMV).
    IRREGULAR = 4
    #: Structured-grid stencil sweep with halo handling (Jacobi).
    STENCIL = 5
    #: Multi-kernel iterative algorithm composed of several primitives (CG).
    MULTIKERNEL = 6


@dataclass(frozen=True)
class KernelSpec:
    """Static description of a kernel.

    Attributes
    ----------
    name:
        Canonical lowercase identifier (``"axpy"``, ``"gemv"``, ...).  This is
        the token used in prompts and in the corpus metadata.
    display_name:
        Name as printed in the paper's tables (``"AXPY"``, ``"Jacobi"``...).
    complexity:
        Complexity class; drives both reporting order and generator priors.
    languages:
        Languages whose experiment grids include this kernel; ``None``
        (the default, and the value for every paper kernel) means all
        languages.  Extension families registered for a subset of
        languages leave the other languages' grids untouched.
    """

    name: str
    display_name: str
    complexity: KernelComplexity
    languages: tuple[str, ...] | None = None

    def supports_language(self, language: str) -> bool:
        """True when this kernel belongs to ``language``'s grid."""
        return self.languages is None or language in self.languages

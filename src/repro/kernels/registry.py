"""Registry of the evaluated kernels.

The registry fixes the canonical kernel order used by every table and figure
in the paper: AXPY, GEMV, GEMM, SpMV, Jacobi, CG (increasing complexity).

The registry is extensible: :func:`register_kernel` appends an extension
family's spec after the paper's six (see :mod:`repro.extensions` and
``docs/extending.md``).  The paper kernels always come first and keep their
order, so the stock grid enumeration — and with it every stock cell's random
stream — is unaffected by registration.  Dynamic consumers should call
:func:`kernel_names` rather than importing :data:`KERNEL_NAMES` by value;
the module-level tuple is rebound on every (un)registration for interactive
use, but by-value importers (the paper-reference modules, intentionally)
keep the stock six.
"""

from __future__ import annotations

from repro.kernels.base import KernelComplexity, KernelSpec

__all__ = [
    "KERNEL_NAMES",
    "STOCK_KERNEL_NAMES",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "unregister_kernel",
]

_REGISTRY: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec("axpy", "AXPY", KernelComplexity.TRIVIAL),  # y = a*x + y
        KernelSpec("gemv", "GEMV", KernelComplexity.SIMPLE),  # y = A @ x
        KernelSpec("gemm", "GEMM", KernelComplexity.MODERATE),  # C = A @ B
        KernelSpec("spmv", "SpMV", KernelComplexity.IRREGULAR),  # y = A @ x, A in CSR
        KernelSpec("jacobi", "Jacobi", KernelComplexity.STENCIL),  # 3-D 7-point sweep
        KernelSpec("cg", "CG", KernelComplexity.MULTIKERNEL),  # solve A x = b, A SPD
    )
}

#: The paper's six kernels, frozen — never affected by registration.
STOCK_KERNEL_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: Canonical kernel order (matches the columns of the paper's tables).
#: Rebound when extension kernels are (un)registered; prefer
#: :func:`kernel_names` in code that must see the live registry.
KERNEL_NAMES: tuple[str, ...] = STOCK_KERNEL_NAMES


def kernel_names(language: str | None = None) -> tuple[str, ...]:
    """Live canonical kernel order, optionally restricted to a language.

    Stock kernels first (paper order), then extension kernels in
    registration order.  With ``language`` given, kernels whose spec names a
    language set excluding it are dropped — the mechanism that keeps
    python-only extension families out of the C++/Fortran/Julia grids.
    """
    if language is None:
        return tuple(_REGISTRY)
    return tuple(name for name, spec in _REGISTRY.items() if spec.supports_language(language))


def register_kernel(spec: KernelSpec) -> None:
    """Append an extension kernel's spec to the registry (idempotent).

    Re-registering the same name with a different spec is an error —
    silently replacing a kernel would re-key every cache built on kernel
    identity.  Stock kernels cannot be replaced.
    """
    global KERNEL_NAMES
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        if existing == spec:
            return
        raise ValueError(f"kernel {spec.name!r} is already registered with a different spec")
    _REGISTRY[spec.name] = spec
    KERNEL_NAMES = tuple(_REGISTRY)


def unregister_kernel(name: str) -> None:
    """Remove an extension kernel (idempotent; stock kernels refuse)."""
    global KERNEL_NAMES
    if name in STOCK_KERNEL_NAMES:
        raise ValueError(f"cannot unregister stock kernel {name!r}")
    _REGISTRY.pop(name, None)
    KERNEL_NAMES = tuple(_REGISTRY)


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel's spec by canonical name (case-insensitive)."""
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known kernels: {', '.join(_REGISTRY)}"
        ) from None

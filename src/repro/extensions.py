"""Opt-in grid extensions: scan/histogram families and the PyKokkos column.

The stock registries reproduce the paper's grid exactly as imported — 19
models x 6 kernels across four languages.  This module grows that grid
*without* perturbing it: :func:`install_extended_grid` registers

* the two extension kernel families (``scan``, ``histogram`` — Python-only
  kernel specs whose oracles are their sandbox tasks in
  :mod:`repro.sandbox.tasks`),
* the ``python.kokkos`` programming model (executed by the
  :mod:`repro.sandbox.fake_kokkos` runtime),
* the correct templates for every new cell
  (:mod:`repro.corpus.templates.python_extended`), and
* a maturity prior for the new model,

all strictly *after* the stock entries, so the stock enumeration order — and
with it the per-cell random stream of every stock cell (the
``cell_seed_sequence`` contract) — is byte-identical to an uninstalled
process.  :func:`uninstall_extended_grid` reverses everything; both are
idempotent.

Everything content-keyed or marker-gated (sandbox oracle tasks, static
geometry profiles, the fake pykokkos module, detection markers) is installed
unconditionally by its home module because it cannot affect stock behavior;
only the pieces that change *grid enumeration* live behind this installer.

See ``docs/extending.md`` for the full recipe this module is the worked
example of.
"""

from __future__ import annotations

from repro.corpus.store import clear_default_corpus_cache
from repro.corpus.templates import register_templates, unregister_templates
from repro.corpus.templates.python_extended import TEMPLATES as _EXTENDED_TEMPLATES
from repro.kernels.base import KernelComplexity, KernelSpec
from repro.kernels.registry import register_kernel, unregister_kernel
from repro.models import grid
from repro.models.programming_models import (
    ExecutionTarget,
    ProgrammingModel,
    register_model,
    unregister_model,
)
from repro.popularity.maturity import MODEL_MATURITY

__all__ = [
    "EXTENSION_KERNELS",
    "EXTENSION_MODEL_UID",
    "install_extended_grid",
    "uninstall_extended_grid",
    "extended_grid_installed",
]

#: Kernel families this installer adds.
EXTENSION_KERNELS: tuple[str, ...] = ("scan", "histogram")

#: Inclusive prefix sum, ``out[i] = sum(x[0..i])``: the canonical
#: parallel-reduction pattern, target of the ``reduction_order`` mutation.
_SCAN = KernelSpec("scan", "Scan", KernelComplexity.SIMPLE, languages=("python",))
#: Per-bin counts from precomputed bin indices, ``hist[bins[i]] += 1``: a
#: duplicate scatter whose GPU form needs ``atomicAdd`` (the ``drop_atomic``
#: mutation removes it).
_HISTOGRAM = KernelSpec("histogram", "Histogram", KernelComplexity.IRREGULAR, languages=("python",))

#: The fourth Python programming-model column.
EXTENSION_MODEL_UID = "python.kokkos"

#: Availability of public PyKokkos example code at the study date: the
#: package was announced in 2021 and its public corpus is a small fraction
#: of even cpp.kokkos's (0.40) — comparable to the youngest stock entries.
_KOKKOS_MATURITY = 0.20

_KOKKOS_MODEL = ProgrammingModel(
    uid=EXTENSION_MODEL_UID,
    display_name="PyKokkos",
    language="python",
    prompt_phrase="PyKokkos",
    target=ExecutionTarget.BOTH,
    introduced=2021,
    detection_markers=("import pykokkos", "pk.parallel_for", "pk.workunit", "pykokkos"),
    required_markers=("pykokkos",),
    notes="Python bindings for the Kokkos performance-portability model",
    tags=("abstraction", "library"),
)


def _clear_grid_caches() -> None:
    """Invalidate every cache keyed on grid enumeration or corpus content."""
    grid._canonical_cell_positions.cache_clear()
    clear_default_corpus_cache()


def extended_grid_installed() -> bool:
    """Whether :func:`install_extended_grid` is currently in effect."""
    from repro.models.programming_models import PROGRAMMING_MODELS

    return EXTENSION_MODEL_UID in PROGRAMMING_MODELS


def install_extended_grid() -> None:
    """Register the extended grid (idempotent).

    After this call the Python grid has 4 models x 8 kernels (plus the
    keyword variants); the other languages are untouched, as is every stock
    cell's random stream.
    """
    register_kernel(_SCAN)
    register_kernel(_HISTOGRAM)
    register_model(_KOKKOS_MODEL)
    MODEL_MATURITY.setdefault(EXTENSION_MODEL_UID, _KOKKOS_MATURITY)
    register_templates("python", _EXTENDED_TEMPLATES)
    _clear_grid_caches()


def uninstall_extended_grid() -> None:
    """Remove everything :func:`install_extended_grid` registered (idempotent)."""
    unregister_templates("python", _EXTENDED_TEMPLATES.keys())
    MODEL_MATURITY.pop(EXTENSION_MODEL_UID, None)
    unregister_model(EXTENSION_MODEL_UID)
    for kernel in EXTENSION_KERNELS:
        unregister_kernel(kernel)
    _clear_grid_caches()

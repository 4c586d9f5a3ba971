"""The experiment grid: every (language, model, kernel, postfix) cell.

This module materialises Table 1 of the paper as data: the full cartesian
grid of prompts that the evaluation runs.  Each cell corresponds to a single
score in Tables 2-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from repro.kernels.registry import kernel_names
from repro.models.keywords import has_postfix_variant, postfix_keyword
from repro.models.languages import get_language, language_names
from repro.models.programming_models import get_model, models_for_language

__all__ = [
    "ExperimentCell",
    "experiment_grid",
    "table1_rows",
    "cells_for_language",
    "canonical_cell_position",
]


@dataclass(frozen=True)
class ExperimentCell:
    """A single prompt evaluation: one cell of one of the paper's tables."""

    #: Canonical language name ("cpp", "fortran", "python", "julia").
    language: str
    #: Programming model uid ("cpp.openmp", ...).
    model: str
    #: Kernel canonical name ("axpy", ...).
    kernel: str
    #: Whether the prompt includes the language's post-fix keyword.
    use_postfix: bool

    @property
    def postfix(self) -> str:
        """The actual post-fix keyword for this cell ('' when unused)."""
        return postfix_keyword(self.language) if self.use_postfix else ""

    @property
    def cell_id(self) -> str:
        """Stable identifier used for seeding and persistence."""
        suffix = "+kw" if self.use_postfix else ""
        return f"{self.model}:{self.kernel}{suffix}"

    def describe(self) -> str:
        model = get_model(self.model)
        lang = get_language(self.language)
        kw = f" + '{self.postfix}'" if self.use_postfix else ""
        return f"{lang.display_name} / {model.display_name} / {self.kernel.upper()}{kw}"


def cells_for_language(
    language: str, *, kernels: Iterable[str] | None = None
) -> list[ExperimentCell]:
    """All cells for one language: both prompt variants when the language
    has a keyword variant, otherwise only the bare variant."""
    lang = get_language(language)
    kernel_list = tuple(kernels) if kernels is not None else kernel_names(lang.name)
    postfix_options = (False, True) if has_postfix_variant(lang.name) else (False,)
    cells: list[ExperimentCell] = []
    for use_postfix in postfix_options:
        for model in models_for_language(lang.name):
            for kernel in kernel_list:
                cells.append(
                    ExperimentCell(
                        language=lang.name,
                        model=model.uid,
                        kernel=kernel,
                        use_postfix=use_postfix,
                    )
                )
    return cells


def experiment_grid(
    *,
    languages: Iterable[str] | None = None,
    kernels: Iterable[str] | None = None,
) -> list[ExperimentCell]:
    """The full evaluation grid across all languages (the union of Tables 2-5)."""
    langs = tuple(languages) if languages is not None else language_names()
    cells: list[ExperimentCell] = []
    for language in langs:
        cells.extend(cells_for_language(language, kernels=kernels))
    return cells


@lru_cache(maxsize=1)
def _canonical_cell_positions() -> dict[tuple[str, str, bool], int]:
    return {
        (cell.model, cell.kernel, cell.use_postfix): index
        for index, cell in enumerate(experiment_grid())
    }


def canonical_cell_position(model: str, kernel: str, use_postfix: bool) -> int | None:
    """Position of a cell in the canonical full-grid enumeration.

    This is the total order that sharded partial results are merged back
    into (see :meth:`repro.core.runner.ResultSet.merge`); ``None`` when the
    coordinates are not part of the standard Table 1 grid.
    """
    return _canonical_cell_positions().get((model, kernel, use_postfix))


def table1_rows() -> Iterator[tuple[str, str, str]]:
    """Rows of the paper's Table 1: (language display, model display, post-fix).

    Useful for rendering the experimental-scope table in reports and for
    sanity tests that the registry matches the paper's setup.
    """
    for language in language_names():
        lang = get_language(language)
        for model in models_for_language(language):
            postfixes = []
            if "offload" in model.uid:
                postfixes.append("offload")
            if lang.postfix_keyword:
                postfixes.append(lang.postfix_keyword)
            yield (lang.display_name, model.display_name, ", ".join(postfixes))

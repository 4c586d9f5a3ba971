"""Rendering of the paper's result tables (Tables 2-5)."""

from __future__ import annotations

from repro.core.paper_reference import paper_score
from repro.core.report import format_score, format_table
from repro.core.runner import ResultSet
from repro.kernels.registry import get_kernel, kernel_names
from repro.models.keywords import has_postfix_variant, postfix_keyword
from repro.models.languages import get_language
from repro.models.programming_models import models_for_language

__all__ = ["TABLE_LANGUAGES", "render_language_table", "table_rows"]

#: Paper table number → language (Table 2 = C++, ... Table 5 = Julia).
TABLE_LANGUAGES: dict[int, str] = {2: "cpp", 3: "fortran", 4: "python", 5: "julia"}


def table_rows(results: ResultSet, language: str, *, use_postfix: bool) -> list[list[str]]:
    """Rows of one table half: one row per programming model, each cell
    ``reproduced/published``.

    Extension cells (kernels or models outside the paper's grid) have no
    published score; they render the reproduced score followed by ``/-``.
    """
    rows: list[list[str]] = []
    for model in models_for_language(language):
        row: list[str] = [model.display_name]
        for kernel in kernel_names(language):
            score = results.score(model.uid, kernel, use_postfix=use_postfix)
            try:
                reference = format_score(paper_score(model.uid, kernel, use_postfix=use_postfix))
            except KeyError:
                reference = "-"
            row.append(f"{format_score(score)}/{reference}")
        rows.append(row)
    return rows


def render_language_table(results: ResultSet, language: str) -> str:
    """Render one language's full table (both prompt variants when available)."""
    lang = get_language(language)
    headers = ["Prompt"] + [get_kernel(k).display_name for k in kernel_names(lang.name)]
    blocks: list[str] = []
    legend = " (cells: reproduced/published)"
    variants: list[tuple[bool, str]] = [(False, f"Prefix <kernel>{legend}")]
    if has_postfix_variant(lang.name):
        variants.append((True, f"Post fix '{postfix_keyword(lang.name)}'{legend}"))
    for use_postfix, title in variants:
        rows = table_rows(results, lang.name, use_postfix=use_postfix)
        blocks.append(format_table(headers, rows, title=f"{lang.display_name} — {title}"))
    return "\n\n".join(blocks)

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


def _cell_hazards(results: ResultSet, model_uid: str, kernel: str, *, use_postfix: bool) -> int:
    """Suggestions with static HAZARD findings in one cell (0 for old records)."""
    subset = results.filter(model=model_uid, kernel=kernel, use_postfix=use_postfix)
    return sum(int(result.to_record().get("n_hazards") or 0) for result in subset.results)


def table_rows(
    results: ResultSet,
    language: str,
    *,
    use_postfix: bool,
    include_paper: bool = True,
    include_findings: bool = False,
) -> list[list[str]]:
    """Rows of one table half: one row per programming model.

    With ``include_findings`` each row gains a trailing column counting the
    suggestions the CUDA-C static hazard analyzer flagged ``HAZARD`` across
    the row's kernels (informational; always 0 for non-GPU models).

    Extension cells (kernels or models outside the paper's grid) have no
    published score; with ``include_paper`` those cells render the reproduced
    score followed by ``/-``.
    """
    rows: list[list[str]] = []
    for model in models_for_language(language):
        row: list[str] = [model.display_name]
        hazards = 0
        for kernel in kernel_names(language):
            score = results.score(model.uid, kernel, use_postfix=use_postfix)
            cell = format_score(score)
            if include_paper:
                try:
                    reference = format_score(
                        paper_score(model.uid, kernel, use_postfix=use_postfix)
                    )
                except KeyError:
                    reference = "-"
                cell = f"{cell}/{reference}"
            row.append(cell)
            if include_findings:
                hazards += _cell_hazards(results, model.uid, kernel, use_postfix=use_postfix)
        if include_findings:
            row.append(str(hazards))
        rows.append(row)
    return rows


def render_language_table(
    results: ResultSet,
    language: str,
    *,
    include_paper: bool = True,
    include_findings: bool = False,
) -> str:
    """Render one language's full table (both prompt variants when available).

    With ``include_paper`` each cell shows ``reproduced/published``; with
    ``include_findings`` each row gains a static-hazard count column.
    """
    lang = get_language(language)
    headers = ["Prompt"] + [get_kernel(k).display_name for k in kernel_names(lang.name)]
    if include_findings:
        headers.append("Hazards")
    blocks: list[str] = []
    legend = " (cells: reproduced/published)" if include_paper else ""
    variants: list[tuple[bool, str]] = [(False, f"Prefix <kernel>{legend}")]
    if has_postfix_variant(lang.name):
        variants.append((True, f"Post fix '{postfix_keyword(lang.name)}'{legend}"))
    for use_postfix, title in variants:
        rows = table_rows(
            results,
            lang.name,
            use_postfix=use_postfix,
            include_paper=include_paper,
            include_findings=include_findings,
        )
        blocks.append(format_table(headers, rows, title=f"{lang.display_name} — {title}"))
    return "\n\n".join(blocks)

"""Data and rendering for the paper's figures (Figures 2-6).

Each per-language figure has two panels: average proficiency per kernel and
average proficiency per programming model.  Figure 6 aggregates across the
whole study: per kernel and per language.  ``figure_data`` returns the
numeric series (what a plotting front-end would consume); ``render_figure``
prints ASCII bar charts next to the series derived from the published
tables.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.aggregate import kernel_averages, language_averages, model_averages
from repro.core.compare import paper_reference_averages
from repro.core.paper_reference import paper_cells
from repro.core.report import format_bar_chart, side_by_side
from repro.core.runner import ResultSet
from repro.kernels.registry import KERNEL_NAMES
from repro.models.keywords import has_postfix_variant
from repro.models.languages import get_language, language_names
from repro.models.programming_models import get_model

__all__ = ["figure_data", "render_figure", "overall_figure_data", "render_overall_figure",
           "FIGURE_LANGUAGES"]

#: Figure number → language, as in the paper (Figure 2 = C++, ... Figure 5 = Julia).
FIGURE_LANGUAGES: dict[int, str] = {2: "cpp", 3: "fortran", 4: "python", 5: "julia"}


def figure_data(results: ResultSet, language: str) -> dict[str, "OrderedDict[str, float]"]:
    """The two panels of a per-language figure (kernel and model averages)."""
    return {
        "kernels": kernel_averages(results, language=language),
        "models": model_averages(results, language),
    }


def paper_figure_data(language: str) -> dict[str, "OrderedDict[str, float]"]:
    """The same two panels computed from the published table."""
    kernels, models = paper_reference_averages(language)
    ordered_kernels = OrderedDict((k, kernels[k]) for k in KERNEL_NAMES)
    ordered_models = OrderedDict(models.items())
    return {"kernels": ordered_kernels, "models": ordered_models}


def _pretty_models(values: "OrderedDict[str, float]") -> "OrderedDict[str, float]":
    return OrderedDict((get_model(uid).display_name, v) for uid, v in values.items())


def render_figure(results: ResultSet, language: str) -> str:
    """ASCII rendering of one per-language figure, beside the paper's."""
    lang = get_language(language)
    data = figure_data(results, lang.name)
    blocks = [
        format_bar_chart(data["kernels"], title=f"{lang.display_name}: average score per kernel"),
        "",
        format_bar_chart(
            _pretty_models(data["models"]),
            title=f"{lang.display_name}: average score per programming model",
        ),
    ]
    reference = paper_figure_data(lang.name)
    ref_blocks = [
        format_bar_chart(reference["kernels"], title="(paper) per kernel"),
        "",
        format_bar_chart(_pretty_models(reference["models"]), title="(paper) per model"),
    ]
    return side_by_side("\n".join(blocks), "\n".join(ref_blocks))


def overall_figure_data(results: ResultSet) -> dict[str, "OrderedDict[str, float]"]:
    """Figure 6 panels: per-kernel and per-language averages over the study."""
    return {
        "kernels": kernel_averages(results),
        "languages": language_averages(results),
    }


def paper_overall_figure_data() -> dict[str, "OrderedDict[str, float]"]:
    """Figure 6 panels derived from the published tables."""
    kernel_sums: dict[str, list[float]] = {k: [] for k in KERNEL_NAMES}
    language_sums: dict[str, list[float]] = {}
    for language in language_names():
        variants = (False, True) if has_postfix_variant(language) else (False,)
        for use_postfix in variants:
            for _model, kernel, score in paper_cells(language, use_postfix=use_postfix):
                kernel_sums[kernel].append(score)
                language_sums.setdefault(language, []).append(score)
    kernels = OrderedDict((k, sum(v) / len(v)) for k, v in kernel_sums.items())
    languages = OrderedDict(
        (lang, sum(language_sums[lang]) / len(language_sums[lang])) for lang in language_names()
    )
    return {"kernels": kernels, "languages": languages}


def render_overall_figure(results: ResultSet) -> str:
    """ASCII rendering of Figure 6, beside the paper's."""
    data = overall_figure_data(results)
    blocks = [
        format_bar_chart(data["kernels"], title="Overall: average score per kernel"),
        "",
        format_bar_chart(data["languages"], title="Overall: average score per language"),
    ]
    reference = paper_overall_figure_data()
    ref_blocks = [
        format_bar_chart(reference["kernels"], title="(paper) per kernel"),
        "",
        format_bar_chart(reference["languages"], title="(paper) per language"),
    ]
    return side_by_side("\n".join(blocks), "\n".join(ref_blocks))

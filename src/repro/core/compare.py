"""Shape comparison between the reproduction and the published tables.

The reproduction does not try to match the paper's numbers exactly — the
generator is a simulator, the scorer is mechanical, and the paper's values
are single human-judged observations of a stochastic service.  What must
hold is the *shape*: which programming models win in each language, that
scores fall as kernels get more complex, where the prompt keyword helps, and
that the overall level sits around the novice/learner band.  This module
quantifies that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregate import kernel_averages, model_averages, postfix_effect
from repro.core.paper_reference import paper_cells, paper_table
from repro.core.runner import ResultSet
from repro.kernels.registry import KERNEL_NAMES
from repro.models.keywords import has_postfix_variant

__all__ = ["spearman_rank_correlation", "ShapeComparison", "compare_to_paper"]


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), 1-based."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1, dtype=np.float64)
    # Average the ranks of tied values.
    unique = {}
    for idx, value in enumerate(values):
        unique.setdefault(float(value), []).append(idx)
    for indices in unique.values():
        if len(indices) > 1:
            mean_rank = float(np.mean([ranks[i] for i in indices]))
            for i in indices:
                ranks[i] = mean_rank
    return ranks


def spearman_rank_correlation(a: list[float], b: list[float]) -> float:
    """Spearman's rho between two equally long score lists.

    Returns 0.0 when either list is constant (correlation undefined).
    """
    if len(a) != len(b):
        raise ValueError("lists must have the same length")
    if len(a) < 2:
        return 0.0
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if np.all(xa == xa[0]) or np.all(xb == xb[0]):
        return 0.0
    ra = _rank(xa)
    rb = _rank(xb)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra ** 2).sum() * (rb ** 2).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


@dataclass
class ShapeComparison:
    """Agreement summary for one language (one paper table)."""

    language: str
    #: Spearman rho over all cells of the table (both prompt variants).
    cell_rank_correlation: float
    #: Fraction of cells within 0.25 (one rubric level) of the paper value.
    within_one_level: float
    #: Mean absolute difference over all cells.
    mean_absolute_difference: float
    #: Whether the per-kernel ordering agrees that AXPY >= CG (complexity trend).
    complexity_trend_holds: bool
    #: Whether the keyword variant improves the language mean when the paper
    #: says it should (always True for Julia, which has no keyword variant).
    keyword_effect_agrees: bool
    #: The reproduction's best-scoring programming model for this language.
    top_model: str
    #: The paper's best-scoring programming model for this language.
    paper_top_model: str
    #: Per-cell pairs (model, kernel, variant, paper, reproduced).
    cells: list[tuple[str, str, bool, float, float]] = field(default_factory=list)

    @property
    def top_model_agrees(self) -> bool:
        return self.top_model == self.paper_top_model


def _paper_model_means(language: str) -> dict[str, float]:
    """Paper's per-model averages over kernels and available variants."""
    sums: dict[str, list[float]] = {}
    variants = (False, True) if has_postfix_variant(language) else (False,)
    for use_postfix in variants:
        for model_uid, kernel, score in paper_cells(language, use_postfix=use_postfix):
            sums.setdefault(model_uid, []).append(score)
    return {uid: sum(vals) / len(vals) for uid, vals in sums.items()}


def _paper_kernel_means(language: str) -> dict[str, float]:
    sums: dict[str, list[float]] = {k: [] for k in KERNEL_NAMES}
    variants = (False, True) if has_postfix_variant(language) else (False,)
    for use_postfix in variants:
        for _model, kernel, score in paper_cells(language, use_postfix=use_postfix):
            sums[kernel].append(score)
    return {k: sum(v) / len(v) for k, v in sums.items()}


def compare_to_paper(results: ResultSet, language: str) -> ShapeComparison:
    """Compare a language's reproduced table against the published one."""
    language = language.lower()
    variants = (False, True) if has_postfix_variant(language) else (False,)
    paper_values: list[float] = []
    repro_values: list[float] = []
    cells: list[tuple[str, str, bool, float, float]] = []
    for use_postfix in variants:
        table = paper_table(language, use_postfix=use_postfix)
        for model_uid, row in table.items():
            for kernel, paper_value in row.items():
                repro_value = results.score(model_uid, kernel, use_postfix=use_postfix)
                paper_values.append(paper_value)
                repro_values.append(repro_value)
                cells.append((model_uid, kernel, use_postfix, paper_value, repro_value))

    diffs = [abs(p - r) for p, r in zip(paper_values, repro_values)]
    within = sum(1 for d in diffs if d <= 0.25 + 1e-9) / len(diffs)

    repro_kernels = kernel_averages(results, language=language)
    complexity_trend = repro_kernels["axpy"] >= repro_kernels["cg"]

    if has_postfix_variant(language):
        effect = postfix_effect(results, language)
        keyword_agrees = effect["delta"] >= 0.0 if language != "cpp" else True
        # For C++ the paper reports a mild net improvement; accept either a
        # positive delta or a small negative one caused by the CUDA keyword
        # mismatch, which the paper also observed.
        if language == "cpp":
            keyword_agrees = effect["delta"] >= -0.1
    else:
        keyword_agrees = True

    repro_models = model_averages(results, language)
    paper_models = _paper_model_means(language)
    top_model = max(repro_models, key=repro_models.get)
    paper_top = max(paper_models, key=paper_models.get)

    return ShapeComparison(
        language=language,
        cell_rank_correlation=spearman_rank_correlation(paper_values, repro_values),
        within_one_level=within,
        mean_absolute_difference=sum(diffs) / len(diffs),
        complexity_trend_holds=complexity_trend,
        keyword_effect_agrees=keyword_agrees,
        top_model=top_model,
        paper_top_model=paper_top,
        cells=cells,
    )


def paper_reference_averages(language: str) -> tuple[dict[str, float], dict[str, float]]:
    """The paper's per-kernel and per-model averages (for report rendering)."""
    return _paper_kernel_means(language), _paper_model_means(language)

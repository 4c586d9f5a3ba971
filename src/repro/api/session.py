"""The :class:`Session` façade — the supported entry point for experiments.

A ``Session`` owns:

* the evaluation backend, fixed per session: ``serial`` evaluates in the
  calling thread, on an :class:`~repro.core.runner.EvaluationRunner` built
  for each evaluation, ``process`` spreads each evaluation over worker
  processes through the dispatch driver (:meth:`Session.dispatch`), with
  its retries and quarantine;
* progress callbacks, forwarded to every evaluation the session runs;
* an optional persistent verdict store (``verdict_store=``), shared by every
  runner and worker process the session uses, so repeated runs — even from
  new processes — skip sandbox execution for suggestions any earlier run
  already analyzed.  With ``$REPRO_CACHE_URL`` set (or the CLI's
  ``--cache-url``), every store additionally reads through a shared
  ``cache-server`` remote and publishes fresh entries back — a warm remote
  fills a cold local disk with zero sandbox executions, and an unreachable
  remote degrades to recompute.  ``$REPRO_CACHE_READONLY`` serves lookups
  but never writes (the CI knob).

A session keeps no results: every call evaluates what it is asked and
returns a fresh :class:`~repro.core.runner.ResultSet` the caller owns.
``session.table(2)``, ``session.figure(4)``, ``session.ablation("keywords")``
evaluate the cells an artefact needs and render them; :func:`table_report`
and :func:`figure_report` render the same reports from a ``ResultSet`` the
caller already holds, so a caller wanting several artefacts evaluates the
grid once (``session.full_results()``) and renders each from it, as
:meth:`Session.run_everything` does.  ``session.run(spec_or_shard)``
evaluates a declarative :class:`~repro.api.spec.ExperimentSpec` or one of
its :class:`~repro.api.spec.Shard`s; ``session.sweep(seeds=[...])`` runs
multi-seed sweeps.  Thanks to the per-cell seeding contract, shard results
merged via :meth:`repro.core.runner.ResultSet.merge` are byte-identical to
an unsharded run.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.analysis.store import VerdictStore
from repro.codex.config import DEFAULT_SEED, CodexConfig
from repro.core.aggregate import model_averages, postfix_effect
from repro.core.compare import ShapeComparison, compare_to_paper
from repro.core.evaluator import CellResult
from repro.core.runner import EvaluationRunner, ResultSet
from repro.harness.figures import (
    FIGURE_LANGUAGES,
    figure_data,
    overall_figure_data,
    render_figure,
    render_overall_figure,
)
from repro.harness.tables import TABLE_LANGUAGES, render_language_table
from repro.models.languages import get_language, language_names
from repro.popularity.maturity import MaturityModel

from repro.api.spec import ExperimentSpec, Shard

__all__ = ["BACKENDS", "ExperimentReport", "Session", "figure_report", "table_report"]

#: Evaluation backends understood by :class:`Session`.
BACKENDS: tuple[str, ...] = ("serial", "process")

#: Ablation name → Session method suffix (see :meth:`Session.ablation`).
ABLATIONS: tuple[str, ...] = ("keywords", "maturity", "suggestions")

#: Default points of the maturity-prior and suggestion-budget ablations.
_MATURITY_SCALES: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25)
_SUGGESTION_COUNTS: tuple[int, ...] = (1, 3, 5, 10, 20)


@dataclasses.dataclass
class ExperimentReport:
    """The outcome of one reproduced experiment."""

    #: Experiment identifier ("table2", "figure6", "ablation-keywords", ...).
    experiment_id: str
    #: Human-readable description.
    description: str
    #: Structured data (series / per-cell values) for programmatic use.
    data: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Shape comparison against the published values, when applicable.
    comparison: ShapeComparison | None = None
    #: Ready-to-print text rendering.
    text: str = ""

    def summary_line(self) -> str:
        """One line suitable for a benchmark log."""
        if self.comparison is None:
            return f"{self.experiment_id}: done"
        c = self.comparison
        return (
            f"{self.experiment_id}: rho={c.cell_rank_correlation:.2f} "
            f"within-one-level={c.within_one_level:.0%} "
            f"top-model-agrees={c.top_model_agrees}"
        )


# -- rendering: reports from results the caller holds ---------------------------
def _table_language(number: int) -> str:
    if number not in TABLE_LANGUAGES:
        raise KeyError(
            f"the paper has no result table {number}; choose from {sorted(TABLE_LANGUAGES)}"
        )
    return TABLE_LANGUAGES[number]


def _figure_language(number: int) -> str:
    if number not in FIGURE_LANGUAGES:
        raise KeyError(
            f"the paper has no figure {number}; choose from {sorted(FIGURE_LANGUAGES)} or 6"
        )
    return FIGURE_LANGUAGES[number]


def table_report(results: ResultSet, number: int) -> ExperimentReport:
    """Table ``number`` (2 = C++, 3 = Fortran, 4 = Python, 5 = Julia) rendered
    from ``results``, which must hold that table's language; other cells are
    ignored."""
    language = _table_language(number)
    results = results.filter(language=language)
    comparison = compare_to_paper(results, language)
    lang_display = get_language(language).display_name
    return ExperimentReport(
        experiment_id=f"table{number}",
        description=f"Table {number}: proficiency scores for {lang_display}",
        data={
            "language": language,
            "records": results.to_records(),
            "cells": comparison.cells,
        },
        comparison=comparison,
        text=render_language_table(results, language),
    )


def figure_report(results: ResultSet, number: int) -> ExperimentReport:
    """Figure ``number`` (2 = C++, ..., 5 = Julia, 6 = overall) rendered from
    ``results``: Figures 2–5 need their language's cells and ignore the
    rest; Figure 6 averages every cell ``results`` holds."""
    if number == 6:
        return ExperimentReport(
            experiment_id="figure6",
            description="Figure 6: overall averages per kernel and per language",
            data=overall_figure_data(results),
            comparison=None,
            text=render_overall_figure(results),
        )
    language = _figure_language(number)
    lang_display = get_language(language).display_name
    return ExperimentReport(
        experiment_id=f"figure{number}",
        description=f"Figure {number}: per-kernel and per-model averages for {lang_display}",
        data=figure_data(results, language),
        comparison=compare_to_paper(results, language),
        text=render_figure(results, language),
    )


def _keyword_report(results: ResultSet) -> ExperimentReport:
    """A-KW from the full grid: the post-fix keyword's effect per language."""
    effects = {language: postfix_effect(results, language) for language in language_names()}
    lines = ["Keyword post-fix effect (mean score without -> with keyword)"]
    for language, effect in effects.items():
        lines.append(
            f"  {get_language(language).display_name:8s} "
            f"{effect['without_keyword']:.2f} -> {effect['with_keyword']:.2f} "
            f"(delta {effect['delta']:+.2f})"
        )
    return ExperimentReport(
        experiment_id="ablation-keywords",
        description="Effect of adding the language code keyword to the prompt",
        data={"effects": effects},
        text="\n".join(lines),
    )


def _maturity_report(
    cpp_table: Callable[[CodexConfig], ResultSet], scales: Iterable[float]
) -> ExperimentReport:
    """A-MAT from ``cpp_table(config)``, the C++ table at each maturity-prior
    scale (scale 1.0 fingerprints equal to the default config)."""
    orderings: dict[float, list[str]] = {}
    stability: dict[float, bool] = {}
    for scale in scales:
        maturity = MaturityModel(model_weight=0.62 * scale)
        averages = model_averages(cpp_table(CodexConfig(maturity=maturity)), "cpp")
        ranked = sorted(averages, key=averages.get, reverse=True)
        orderings[scale] = ranked
        stability[scale] = "cpp.openmp" in set(ranked[:3])
    lines = ["Maturity-prior ablation (C++ model ranking per scale)"]
    for scale, ranked in orderings.items():
        names = ", ".join(uid.split(".")[1] for uid in ranked[:4])
        lines.append(
            f"  scale {scale:>4}: top models = {names} (OpenMP in top 3: {stability[scale]})"
        )
    return ExperimentReport(
        experiment_id="ablation-maturity",
        description="Sensitivity of the C++ model ranking to the maturity prior weight",
        data={"orderings": orderings, "openmp_in_top3": stability},
        text="\n".join(lines),
    )


def _suggestion_report(
    cpp_table: Callable[[CodexConfig], ResultSet], counts: Iterable[int]
) -> ExperimentReport:
    """A-SUG from ``cpp_table(config)``, the C++ table at each suggestion
    budget (budget 10 fingerprints equal to the default config)."""
    means = {count: cpp_table(CodexConfig(max_suggestions=count)).mean_score() for count in counts}
    lines = ["Suggestion-budget ablation (mean C++ score per suggestion count)"]
    for count, mean in means.items():
        lines.append(f"  first {count:>2} suggestions: mean score {mean:.3f}")
    return ExperimentReport(
        experiment_id="ablation-suggestions",
        description="Sensitivity of the proficiency metric to the suggestion budget",
        data={"means": means},
        text="\n".join(lines),
    )


class Session:
    """Context-managed façade over the evaluation pipeline.

    Every evaluating method evaluates what it is asked, on this session's
    backend, and returns results the caller owns; the session keeps none.

    Parameters
    ----------
    seed, config:
        Session-wide defaults; every experiment method accepts per-call
        overrides with the same names.
    backend:
        ``"serial"`` (default) or ``"process"``, fixed for the session.
        Process mode evaluates each call's seeds and cells in one
        :meth:`dispatch`, whose workers each own whole languages or
        contiguous runs of one; records are byte-identical to serial mode.
    max_workers:
        Worker count of process mode and the default of :meth:`dispatch`'s
        ``max_workers`` (default: one per core, at most 8; at least 1).  A
        pool that resolves to one worker evaluates in-process.
    progress:
        Callback invoked per cell, in submission order: with each
        :class:`CellResult` as it is evaluated in-process, or with each
        :class:`~repro.core.runner.RecordResult` of a shard as it lands from
        a worker process.
    verdict_store:
        Opt-in persistent verdict cache shared by every runner (and every
        worker process) this session uses.  Pass ``True`` for the
        default cache directory (:func:`repro.analysis.store.default_store_path`,
        ``$REPRO_VERDICT_STORE`` / ``~/.cache/repro-hpc-codex/verdicts``), a
        path for an explicit location, an ``http(s)://`` cache-server URL
        (a store at the default path tiered with that remote), or an
        existing :class:`~repro.analysis.store.VerdictStore`.  ``None``
        (default) keeps verdicts process-local.  Stores honour
        ``$REPRO_CACHE_URL`` (shared remote tier) and
        ``$REPRO_CACHE_READONLY`` (lookups only, never writes) at
        construction.
    """

    def __init__(
        self,
        *,
        seed: int = DEFAULT_SEED,
        config: CodexConfig | None = None,
        backend: str = "serial",
        max_workers: int | None = None,
        progress: Callable[[CellResult], None] | None = None,
        verdict_store: VerdictStore | str | Path | bool | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.seed = int(seed)
        self.config = config if config is not None else CodexConfig()
        self.backend = backend
        self.max_workers = max_workers
        self.progress = progress
        self.verdict_store = VerdictStore.coerce(verdict_store)
        #: Suggestion modules executed, and verdicts served from the
        #: persistent store, for this session's runs (both backends, worker
        #: processes included; survive :meth:`close`).
        self.sandbox_executions = 0
        self.store_hits = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Close the session (idempotent); a closed session refuses to
        evaluate."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session is closed; create a new one")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Session(seed={self.seed}, backend={self.backend!r}, {state})"

    def _resolve(self, seed: int | None, config: CodexConfig | None) -> tuple[int, CodexConfig]:
        return (
            self.seed if seed is None else int(seed),
            self.config if config is None else config,
        )

    def _run_cells(self, seed: int, config: CodexConfig, cells: list) -> ResultSet:
        """Evaluate cells in-process on a runner built for this call; its
        counts join the session totals even when the evaluation raises."""
        self._check_open()
        runner = EvaluationRunner(
            config=config, seed=seed, progress=self.progress, verdict_store=self.verdict_store
        )
        try:
            return runner.run_cells(cells)
        finally:
            self.sandbox_executions += runner.sandbox_executions
            self.store_hits += runner.store_hits

    # -- core evaluation ------------------------------------------------------
    def _evaluate(self, spec: ExperimentSpec) -> dict[int, ResultSet]:
        """Evaluate a spec on this session's backend, ``{seed: ResultSet}``.

        Process mode dispatches every seed at once, one shard per worker
        and seed, and raises, naming the shards, if any shard ends
        quarantined.  A pool that resolves to one worker evaluates
        in-process: one worker process is serial evaluation plus fork and
        IPC overhead.
        """
        cells = spec.cells()
        workers = 1
        if self.backend == "process":
            workers = min(self.max_workers or min(8, os.cpu_count() or 1), len(cells))
        if workers <= 1:
            return {seed: self._run_cells(seed, spec.config, cells) for seed in spec.seeds}
        report = self.dispatch(spec, shards=workers, backend="process", max_workers=workers)
        if report.quarantined:
            raise RuntimeError(
                "process evaluation failed; quarantined: "
                + "; ".join(quarantine.describe() for quarantine in report.quarantined)
            )
        return {seed: report.results[seed] for seed in spec.seeds}

    def language_results(
        self,
        language: str,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ResultSet:
        """Evaluate all cells of one language's table."""
        seed, config = self._resolve(seed, config)
        return self.run(ExperimentSpec(seeds=(seed,), languages=(language,), config=config))

    def full_results(
        self,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ResultSet:
        """Evaluate the full grid (all four languages) in one call."""
        seed, config = self._resolve(seed, config)
        return self.run(ExperimentSpec(seeds=(seed,), config=config))

    def run(self, spec: ExperimentSpec | Shard) -> ResultSet | dict[int, ResultSet]:
        """Evaluate a declarative spec or one shard of it.

        A :class:`Shard` evaluates just its cell slice in-process (never
        re-dispatched, since a shard is already the unit the driver
        parallelizes) and returns a :class:`ResultSet` ready for
        :func:`repro.api.spec.shard_payload`.  A single-seed
        :class:`ExperimentSpec` returns one :class:`ResultSet`; a multi-seed
        spec returns ``{seed: ResultSet}``.
        """
        if isinstance(spec, Shard):
            return self._run_cells(spec.seed, spec.spec.config, spec.cells())
        per_seed = self._evaluate(spec)
        if len(spec.seeds) == 1:
            return per_seed[spec.seeds[0]]
        return per_seed

    def dispatch(
        self,
        spec: ExperimentSpec | None = None,
        *,
        shards: int = 4,
        backend: str = "inline",
        result_store=None,
        queue=None,
        max_workers: int | None = None,
        max_attempts: int | None = None,
        shard_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        on_shard=None,
    ):
        """Distribute a spec across shard workers, resumably.

        The session-level entry to :class:`repro.dispatch.ShardDriver`:
        partitions ``spec`` (default: this session's seed and config over
        the full grid) into ``shards`` slices per seed, skips every shard
        already present in ``result_store``, dispatches the rest to the
        ``"inline"`` / ``"process"`` / ``"file-queue"`` backend, and
        streams partial merges as shards complete — ``progress`` fires per
        cell and ``on_shard`` per completed shard, both in submission
        order.  Every backend shares this session's progress callback and
        verdict store, and ``sandbox_executions`` / ``store_hits`` add the
        counts the report carries back from its workers.  ``max_workers``
        defaults to the session's.

        Failures are contained, not fatal: a shard whose evaluation raises
        is retried up to ``max_attempts`` times and then *quarantined*
        (listed in ``report.quarantined``, never merged).
        ``shard_timeout`` bounds the wall clock of each piece a
        ``process``-backend worker evaluates (one shard's cells of one
        language, the clock restarting for each piece; a hung worker is
        killed and the piece's shard retried whole), and
        ``heartbeat_interval`` tunes the file queue's claim-lease renewal
        cadence.

        Returns a :class:`repro.dispatch.DispatchReport`; when it is
        ``complete``, ``report.result()`` is byte-identical to the
        unsharded run, and a re-run against the same ``result_store``
        re-executes zero completed shards.
        """
        from repro.dispatch.driver import ShardDriver

        self._check_open()
        if spec is None:
            spec = ExperimentSpec(seeds=(self.seed,), config=self.config)
        driver = ShardDriver(
            spec,
            shards=shards,
            backend=backend,
            result_store=result_store,
            verdict_store=self.verdict_store,
            max_workers=self.max_workers if max_workers is None else max_workers,
            queue=queue,
            progress=self.progress,
            on_shard=on_shard,
            max_attempts=max_attempts,
            shard_timeout=shard_timeout,
            heartbeat_interval=heartbeat_interval,
        )
        report = driver.run()
        self.sandbox_executions += report.sandbox_executions
        self.store_hits += report.verdict_store_hits
        return report

    def sweep(
        self,
        seeds: Iterable[int],
        *,
        languages: Iterable[str] | None = None,
        config: CodexConfig | None = None,
    ) -> dict[int, ResultSet]:
        """Run the (optionally language-restricted) grid for several seeds.

        Always returns ``{seed: ResultSet}`` in the given seed order; progress
        callbacks fire per cell exactly as for single runs.
        """
        spec = ExperimentSpec(
            seeds=tuple(seeds),
            languages=None if languages is None else tuple(languages),
            config=self.config if config is None else config,
        )
        results = self.run(spec)
        if isinstance(results, ResultSet):
            return {spec.seeds[0]: results}
        return results

    def sweep_seeds(
        self,
        seeds: Iterable[int],
        *,
        languages: Iterable[str] | None = None,
        config: CodexConfig | None = None,
        confidence: float = 0.95,
        n_resamples: int = 1000,
    ):
        """Multi-seed statistical sweep: mean and bootstrap CI per cell.

        Runs :meth:`sweep` over ``seeds`` and summarises each cell's score
        distribution via :func:`repro.api.sweep.summarize_sweep`.  The
        bootstrap is content-keyed per cell (deterministic, seed-order
        invariant) and a single-seed sweep degrades exactly to the point
        estimates of a plain run.  Returns a
        :class:`~repro.api.sweep.SweepSummary`.
        """
        from repro.api.sweep import summarize_sweep

        per_seed = self.sweep(seeds, languages=languages, config=config)
        return summarize_sweep(per_seed, confidence=confidence, n_resamples=n_resamples)

    # -- paper artefacts ------------------------------------------------------
    def table(
        self,
        number: int,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ExperimentReport:
        """Reproduce Table ``number`` (2 = C++, 3 = Fortran, 4 = Python, 5 = Julia):
        evaluate its language, then :func:`table_report`."""
        results = self.language_results(_table_language(number), seed=seed, config=config)
        return table_report(results, number)

    def figure(
        self,
        number: int,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ExperimentReport:
        """Reproduce Figure ``number`` (2 = C++, ..., 5 = Julia, 6 = overall):
        evaluate its language (the full grid for 6), then :func:`figure_report`."""
        if number == 6:
            return figure_report(self.full_results(seed=seed, config=config), 6)
        results = self.language_results(_figure_language(number), seed=seed, config=config)
        return figure_report(results, number)

    def overall_figure(
        self,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ExperimentReport:
        """Reproduce Figure 6: overall per-kernel and per-language averages."""
        return self.figure(6, seed=seed, config=config)

    # -- ablations (DESIGN.md §4: A-KW, A-MAT, A-SUG) --------------------------
    def ablation(self, name: str, **params) -> ExperimentReport:
        """Run one ablation: ``"keywords"``, ``"maturity"`` or ``"suggestions"``.

        Extra keyword arguments are forwarded to the specific ablation
        (``scales`` for maturity, ``counts`` for suggestions, plus the usual
        ``seed``/``config`` overrides).
        """
        runners = {
            "keywords": self.keyword_ablation,
            "maturity": self.maturity_ablation,
            "suggestions": self.suggestion_count_ablation,
        }
        if name not in runners:
            raise KeyError(f"unknown ablation {name!r}; choose from {ABLATIONS}")
        return runners[name](**params)

    def keyword_ablation(
        self,
        *,
        seed: int | None = None,
        config: CodexConfig | None = None,
    ) -> ExperimentReport:
        """A-KW: effect of the post-fix keyword per language."""
        return _keyword_report(self.full_results(seed=seed, config=config))

    def maturity_ablation(
        self,
        *,
        seed: int | None = None,
        scales: tuple[float, ...] = _MATURITY_SCALES,
    ) -> ExperimentReport:
        """A-MAT: how the model-maturity prior weight shifts the score ordering."""
        return _maturity_report(self._cpp_tables(seed, {}), scales)

    def suggestion_count_ablation(
        self,
        *,
        seed: int | None = None,
        counts: tuple[int, ...] = _SUGGESTION_COUNTS,
    ) -> ExperimentReport:
        """A-SUG: rubric behaviour as the suggestion budget changes; each
        budget is a standard grid run under that config."""
        return _suggestion_report(self._cpp_tables(seed, {}), counts)

    def _cpp_tables(
        self, seed: int | None, held: dict[str, ResultSet]
    ) -> Callable[[CodexConfig], ResultSet]:
        """The C++ table under a config, evaluated once per config
        fingerprint: ``held`` maps fingerprints to C++ tables the caller
        already holds, and gains those evaluated here."""

        def cpp_table(config: CodexConfig) -> ResultSet:
            fingerprint = config.fingerprint()
            if fingerprint not in held:
                held[fingerprint] = self.language_results("cpp", seed=seed, config=config)
            return held[fingerprint]

        return cpp_table

    def run_everything(self, *, seed: int | None = None) -> dict[str, ExperimentReport]:
        """Run every table, figure and ablation, keyed by experiment id.

        The session-config grid is evaluated once; every table, figure and
        the keyword ablation render from it, and the maturity and
        suggestion ablations take its C++ cells for each point whose config
        fingerprint equals the session config's, so each (fingerprint, cell)
        pair is evaluated once.
        """
        full = self.full_results(seed=seed)
        cpp_table = self._cpp_tables(seed, {self.config.fingerprint(): full.filter(language="cpp")})
        reports = [
            *(table_report(full, number) for number in sorted(TABLE_LANGUAGES)),
            *(figure_report(full, number) for number in (2, 3, 4, 5, 6)),
            _keyword_report(full),
            _maturity_report(cpp_table, _MATURITY_SCALES),
            _suggestion_report(cpp_table, _SUGGESTION_COUNTS),
        ]
        return {report.experiment_id: report for report in reports}

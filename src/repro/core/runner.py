"""Grid runner: evaluate every cell of the Table 1 experiment grid.

:class:`EvaluationRunner` evaluates cells in the calling thread.  Parallel
evaluation is the dispatch layer's job: ``Session(backend="process")`` and
``repro.dispatch.ShardDriver(backend="process")`` spread shards of a spec
over worker processes, each running its own runner.  Because every cell
owns an order-independent random stream, any partition of the grid produces
byte-identical :meth:`ResultSet.to_records` output; results are always
returned in the submission order of the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.analyzer import SuggestionAnalyzer
from repro.analysis.store import VerdictStore
from repro.codex.config import DEFAULT_SEED, CodexConfig
from repro.codex.engine import SimulatedCodex
from repro.core.evaluator import CellResult, PromptEvaluator
from repro.models.grid import (
    ExperimentCell,
    canonical_cell_position,
    cells_for_language,
    experiment_grid,
)
from repro.sandbox.executor import sandbox_execution_count

__all__ = ["ResultSet", "RecordResult", "EvaluationRunner"]


class RecordResult:
    """A persisted per-cell record re-hydrated as a :class:`ResultSet` element.

    Carries exactly the flat dictionary :meth:`CellResult.to_record` produced
    (suggestions and verdicts are not persisted), so a JSON or CSV round trip
    reproduces ``to_records()`` verbatim — including the postfix cells, whose
    keyword is stored in the record rather than re-derived.
    """

    __slots__ = ("cell", "_record")

    def __init__(self, record: dict) -> None:
        self._record = dict(record)
        self.cell = ExperimentCell(
            language=record["language"],
            model=record["model"],
            kernel=record["kernel"],
            use_postfix=bool(record["use_postfix"]),
        )

    @property
    def score(self) -> float:
        return self._record["score"]

    def to_record(self) -> dict:
        return dict(self._record)


@dataclass
class ResultSet:
    """A collection of per-cell results with indexed lookups.

    ``add`` maintains dict indexes keyed on the cell coordinates, so
    :meth:`score` is O(1) and :meth:`filter` only scans the candidate list
    of the most selective criterion instead of the whole collection.
    Elements are :class:`CellResult`s when produced by a runner, or
    :class:`RecordResult`s when re-hydrated from persisted records.
    """

    results: list[CellResult] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    #: (model, kernel, use_postfix) -> result, for the O(1) score lookup.
    _by_cell: dict[tuple[str, str, bool], CellResult] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: field name -> field value -> results, for indexed filtering.
    _by_field: dict[str, dict[object, list[CellResult]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        preloaded, self.results = self.results, []
        for result in preloaded:
            self.add(result)

    def add(self, result: CellResult) -> None:
        self.results.append(result)
        cell = result.cell
        self._by_cell[(cell.model, cell.kernel, cell.use_postfix)] = result
        for name in ("language", "model", "kernel", "use_postfix"):
            index = self._by_field.setdefault(name, {})
            index.setdefault(getattr(cell, name), []).append(result)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    # -- lookups -----------------------------------------------------------------
    def score(self, model_uid: str, kernel: str, *, use_postfix: bool) -> float:
        """The rubric score of one cell (KeyError when absent)."""
        result = self._by_cell.get((model_uid, kernel, use_postfix))
        if result is None:
            raise KeyError(f"no result for {model_uid}:{kernel} use_postfix={use_postfix}")
        return result.score

    def filter(
        self,
        *,
        language: str | None = None,
        model: str | None = None,
        kernel: str | None = None,
        use_postfix: bool | None = None,
    ) -> "ResultSet":
        """Subset of the results matching the given criteria."""
        criteria = {
            name: value
            for name, value in (
                ("language", language),
                ("model", model),
                ("kernel", kernel),
                ("use_postfix", use_postfix),
            )
            if value is not None
        }
        candidates: Sequence[CellResult] = self.results
        if criteria:
            # Scan only the shortest matching index bucket; results keep
            # insertion order because every bucket preserves it.
            buckets = [
                self._by_field.get(name, {}).get(value, []) for name, value in criteria.items()
            ]
            candidates = min(buckets, key=len)
        out = ResultSet(seed=self.seed)
        for result in candidates:
            if all(getattr(result.cell, name) == value for name, value in criteria.items()):
                out.add(result)
        return out

    def scores(self) -> list[float]:
        return [result.score for result in self.results]

    def mean_score(self) -> float:
        values = self.scores()
        return sum(values) / len(values) if values else 0.0

    def to_records(self) -> list[dict]:
        return [result.to_record() for result in self.results]

    # -- persistence and sharding ---------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serialisable payload (inverse of :meth:`from_payload`)."""
        return {"format": "repro.resultset/v1", "seed": self.seed, "records": self.to_records()}

    @classmethod
    def from_payload(cls, payload: dict | Iterable[dict], *, seed: int | None = None) -> "ResultSet":
        """Re-hydrate a result set from :meth:`to_payload` output or from a bare
        list of records (as loaded back from ``save_records_json`` /
        ``save_records_csv`` files).  Elements become :class:`RecordResult`s:
        ``to_records()``, ``score()`` and ``filter()`` behave exactly as on the
        originating set; suggestions and verdicts are not reconstructed.
        """
        if isinstance(payload, dict):
            records = payload["records"]
            if seed is None:
                seed = payload.get("seed", DEFAULT_SEED)
        else:
            records = list(payload)
            if seed is None:
                seed = DEFAULT_SEED
        out = cls(seed=seed)
        for record in records:
            out.add(RecordResult(record))
        return out

    def merge_in(self, *parts: "ResultSet") -> "ResultSet":
        """Merge more partial sets into this one, in place, canonically.

        The incremental form of :meth:`merge` used by streamed shard
        merging (:class:`repro.api.IncrementalMerge`): after every call the
        set holds the union of its previous results and all ``parts``,
        sorted into the canonical grid enumeration — so the final records
        are identical whatever order the parts arrive in.  Seed and
        duplicate-cell validation are exactly :meth:`merge`'s; on error the
        set is left unchanged.  Returns ``self`` for chaining.
        """
        merged = ResultSet.merge(self, *parts)
        self.results = merged.results
        self._by_cell = merged._by_cell
        self._by_field = merged._by_field
        return self

    @classmethod
    def merge(cls, *parts: "ResultSet") -> "ResultSet":
        """Combine disjoint partial result sets into one canonically-ordered set.

        Parts may arrive in any order (shards finish at different times on
        different machines): the merged set is sorted into the canonical
        experiment-grid enumeration, so any partition of the grid merges back
        to the exact record sequence of an unsharded run.  All parts must
        share one seed, and no two parts may contain the same cell.  Cells
        outside the standard grid keep their encounter order after the known
        ones.  Completeness is *not* checked here — that is the job of
        :class:`repro.api.ShardManifest`.
        """
        if not parts:
            raise ValueError("merge needs at least one ResultSet")
        seeds = {part.seed for part in parts}
        if len(seeds) > 1:
            raise ValueError(f"cannot merge result sets with mixed seeds: {sorted(seeds)}")
        seen: set[tuple[str, str, bool]] = set()
        keyed: list[tuple[tuple[int, int], CellResult | RecordResult]] = []
        for encounter, result in enumerate(r for part in parts for r in part):
            cell = result.cell
            key = (cell.model, cell.kernel, cell.use_postfix)
            if key in seen:
                raise ValueError(f"duplicate cell in merge: {cell.cell_id}")
            seen.add(key)
            position = canonical_cell_position(*key)
            sort_key = (0, position) if position is not None else (1, encounter)
            keyed.append((sort_key, result))
        merged = cls(seed=seeds.pop())
        for _, result in sorted(keyed, key=lambda pair: pair[0]):
            merged.add(result)
        return merged


@dataclass
class EvaluationRunner:
    """Evaluates cells in the calling thread, in submission order.

    Parameters
    ----------
    progress:
        Callback invoked with each :class:`CellResult` as it completes.
    verdict_store:
        Optional persistent :class:`~repro.analysis.store.VerdictStore` (or
        its directory path) attached to the runner's analyzer.
    """

    config: CodexConfig = field(default_factory=CodexConfig)
    seed: int = DEFAULT_SEED
    progress: Callable[[CellResult], None] | None = None
    verdict_store: VerdictStore | str | Path | None = None
    evaluator: PromptEvaluator = field(init=False, repr=False, compare=False)
    #: Sandbox executions / verdict-store hits attributed to this runner's runs.
    _sandbox_executions: int = field(default=0, init=False, repr=False, compare=False)
    _store_hits: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.verdict_store = VerdictStore.coerce(self.verdict_store)
        self.evaluator = PromptEvaluator(
            engine=SimulatedCodex(config=self.config, seed=self.seed),
            analyzer=SuggestionAnalyzer(store=self.verdict_store),
        )

    @property
    def sandbox_executions(self) -> int:
        """Suggestion modules executed for this runner's cells."""
        return self._sandbox_executions

    @property
    def store_hits(self) -> int:
        """Verdicts served from the persistent store."""
        return self._store_hits

    # -- entry points ---------------------------------------------------------------
    def run_cells(self, cells: Iterable[ExperimentCell]) -> ResultSet:
        results = ResultSet(seed=self.seed)
        executions_before = sandbox_execution_count()
        hits_before = self.verdict_store.hits if self.verdict_store is not None else 0
        try:
            for cell in cells:
                result = self.evaluator.evaluate_cell(cell)
                results.add(result)
                if self.progress is not None:
                    self.progress(result)
        finally:
            self._sandbox_executions += sandbox_execution_count() - executions_before
            if self.verdict_store is not None:
                self._store_hits += self.verdict_store.hits - hits_before
        return results

    def run_language(self, language: str) -> ResultSet:
        """Evaluate one language's table (Table 2, 3, 4 or 5)."""
        return self.run_cells(cells_for_language(language))

    def run_full_grid(self) -> ResultSet:
        """Evaluate the complete Table 1 grid (all languages and variants)."""
        return self.run_cells(experiment_grid())

"""Tests for the parallel, cache-aware evaluation pipeline.

Covers the four layers of the perf architecture:

* the per-cell seeding contract (:func:`repro.codex.engine.cell_seed_sequence`),
* the shared corpus memo (:func:`repro.corpus.store.default_corpus`),
* the executor backends and indexed :class:`ResultSet` in
  :mod:`repro.core.runner`, and
* the process-wide verdict memo and fingerprint-keyed result cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyzer as analyzer_module
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.codex.engine import cell_seed_sequence
from repro.codex.sampler import SuggestionSampler
from repro.core.runner import (
    MIN_CHUNK_CELLS,
    EvaluationRunner,
    ResultSet,
    default_chunk_size,
)
from repro.corpus.store import default_corpus
from repro.harness import experiments
from repro.models.grid import experiment_grid
from repro.popularity.maturity import MaturityModel


# ---------------------------------------------------------------------------
# Per-cell seeding contract
# ---------------------------------------------------------------------------

class TestCellSeedSequence:
    def test_same_cell_same_stream(self):
        a = cell_seed_sequence(7, language="cpp", model="cpp.openmp", kernel="axpy", postfix="function")
        b = cell_seed_sequence(7, language="cpp", model="cpp.openmp", kernel="axpy", postfix="function")
        assert np.random.default_rng(a).integers(0, 1 << 30, 8).tolist() == \
            np.random.default_rng(b).integers(0, 1 << 30, 8).tolist()

    def test_coordinates_change_the_stream(self):
        base = dict(language="cpp", model="cpp.openmp", kernel="axpy", postfix="")
        reference = np.random.default_rng(cell_seed_sequence(7, **base)).integers(0, 1 << 30, 8)
        for variant in (
            dict(base, kernel="gemm"),
            dict(base, model="cpp.cuda"),
            dict(base, postfix="function"),
        ):
            drawn = np.random.default_rng(cell_seed_sequence(7, **variant)).integers(0, 1 << 30, 8)
            assert drawn.tolist() != reference.tolist(), variant
        reseeded = np.random.default_rng(cell_seed_sequence(8, **base)).integers(0, 1 << 30, 8)
        assert reseeded.tolist() != reference.tolist()

    def test_mismatched_language_rejected(self):
        with pytest.raises(ValueError):
            cell_seed_sequence(7, language="fortran", model="cpp.openmp", kernel="axpy", postfix="")


# ---------------------------------------------------------------------------
# Backend determinism
# ---------------------------------------------------------------------------

class TestBackendDeterminism:
    def test_serial_thread_process_identical_full_grid(self, full_results):
        serial_records = full_results.to_records()
        for backend, workers in (("thread", 4), ("process", 2)):
            runner = EvaluationRunner(
                config=CodexConfig(), seed=DEFAULT_SEED, backend=backend, max_workers=workers
            )
            assert runner.run_full_grid().to_records() == serial_records, backend

    def test_single_cell_matches_full_grid_value(self, full_results):
        # Any cell evaluated in isolation reproduces its in-grid record.
        cells = experiment_grid()
        for index in (0, 57, 119, 203):
            cell = cells[index]
            runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED)
            alone = runner.run_cells([cell])
            assert alone.to_records() == [full_results.to_records()[index]]

    def test_evaluation_order_is_irrelevant(self):
        cells = experiment_grid(languages=("julia",))
        forward = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_cells(cells)
        backward = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_cells(cells[::-1])
        key = lambda r: (r["model"], r["kernel"], r["use_postfix"])
        assert sorted(forward.to_records(), key=key) == sorted(backward.to_records(), key=key)

    def test_progress_callback_fires_in_submission_order(self):
        cells = experiment_grid(languages=("julia",), kernels=("axpy", "gemv"))
        for backend in ("serial", "thread"):
            seen: list[str] = []
            runner = EvaluationRunner(
                config=CodexConfig(),
                seed=DEFAULT_SEED,
                backend=backend,
                progress=lambda result: seen.append(result.cell.cell_id),
            )
            runner.run_cells(cells)
            assert seen == [cell.cell_id for cell in cells], backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EvaluationRunner(backend="gpu")

    def test_runner_reuses_pool_across_runs(self):
        with EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED, backend="thread") as runner:
            first = runner.run_language("julia")
            executor = runner._executor
            assert executor is not None
            second = runner.run_language("julia")
            assert runner._executor is executor
            assert first.to_records() == second.to_records()
        assert runner._executor is None
        runner.close()  # idempotent

    def test_process_backend_rejects_custom_evaluator(self, evaluator):
        with pytest.raises(ValueError):
            EvaluationRunner(backend="process", evaluator=evaluator)


# ---------------------------------------------------------------------------
# Parallel dispatch policy: the process backend must at least break even
# ---------------------------------------------------------------------------

class TestDispatchPolicy:
    def test_default_chunk_size_targets_two_chunks_per_worker(self):
        # ~2 chunks per worker: enough straggler rebalancing without paying
        # per-chunk IPC comparable to the work (the old 4-chunks-per-worker
        # policy put the stock 204-cell grid at 7-cell chunks, where the
        # process backend lost to serial outright).
        assert default_chunk_size(204, 8) == 13
        assert default_chunk_size(204, 1) == 102
        assert default_chunk_size(1000, 4) == 125

    def test_default_chunk_size_never_cuts_confetti(self):
        # Below MIN_CHUNK_CELLS the dispatch overhead dominates; small grids
        # prefer idle workers over finer chunks.
        assert default_chunk_size(48, 4) == MIN_CHUNK_CELLS
        assert default_chunk_size(3, 8) == MIN_CHUNK_CELLS
        assert all(
            default_chunk_size(n, w) >= MIN_CHUNK_CELLS
            for n in (1, 10, 100, 1000)
            for w in (1, 2, 8)
        )

    def test_single_worker_process_backend_runs_in_process(self):
        # A one-worker subprocess pool is serial evaluation plus fork and
        # IPC overhead — strictly slower than the calling thread.  On hosts
        # where the pool would resolve to a single worker the process
        # backend therefore evaluates in-process (byte-identical by the
        # determinism contract), which is what guarantees it breaks even
        # with serial on the stock grid instead of losing ~20% to overhead.
        runner = EvaluationRunner(
            config=CodexConfig(), seed=DEFAULT_SEED, backend="process", max_workers=1
        )
        results = runner.run_language("julia")
        assert runner._executor is None  # no pool was ever spawned
        serial = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_language("julia")
        assert results.to_records() == serial.to_records()

    def test_single_worker_process_backend_still_counts_work(self, tmp_path):
        # The in-process shortcut must keep the counter contract: sandbox
        # executions and verdict-store hits are attributed to the runner
        # exactly as the pool path attributes worker deltas.
        cells = experiment_grid(languages=("python",), kernels=("axpy",))
        clear_verdict_memo()
        try:
            cold = EvaluationRunner(
                config=CodexConfig(), seed=DEFAULT_SEED, backend="process",
                max_workers=1, verdict_store=tmp_path / "store",
            )
            cold_records = cold.run_cells(cells).to_records()
            assert cold.sandbox_executions > 0
            clear_verdict_memo()
            warm = EvaluationRunner(
                config=CodexConfig(), seed=DEFAULT_SEED, backend="process",
                max_workers=1, verdict_store=tmp_path / "store",
            )
            assert warm.run_cells(cells).to_records() == cold_records
            assert warm.sandbox_executions == 0
            assert warm.store_hits > 0
        finally:
            clear_verdict_memo()


# ---------------------------------------------------------------------------
# Indexed ResultSet
# ---------------------------------------------------------------------------

class TestResultSetIndex:
    def test_score_matches_linear_scan(self, full_results):
        for result in full_results:
            cell = result.cell
            assert full_results.score(cell.model, cell.kernel, use_postfix=cell.use_postfix) == result.score

    def test_score_missing_cell_raises(self, full_results):
        with pytest.raises(KeyError):
            full_results.score("cpp.openmp", "axpy", use_postfix=None)

    def test_filter_matches_linear_scan(self, full_results):
        for criteria in (
            dict(language="cpp"),
            dict(model="python.numpy"),
            dict(kernel="cg", use_postfix=False),
            dict(language="fortran", model="fortran.openacc", kernel="axpy", use_postfix=True),
            dict(),
        ):
            expected = [
                r for r in full_results
                if all(getattr(r.cell, name) == value for name, value in criteria.items())
            ]
            assert full_results.filter(**criteria).results == expected, criteria

    def test_preloaded_results_are_indexed(self, full_results):
        rebuilt = ResultSet(results=list(full_results), seed=full_results.seed)
        some = rebuilt.results[10].cell
        assert rebuilt.score(some.model, some.kernel, use_postfix=some.use_postfix) == \
            rebuilt.results[10].score


# ---------------------------------------------------------------------------
# Shared analyzer memo
# ---------------------------------------------------------------------------

class TestVerdictMemo:
    def test_identical_suggestion_executes_once(self, corpus):
        code = corpus.template("python", "python.numpy", "axpy").code
        calls: list[str] = []

        def counting_executor(code: str, kernel: str) -> tuple[bool, list[str]]:
            calls.append(kernel)
            return True, []

        analyzer = SuggestionAnalyzer(python_executor=counting_executor)
        for _ in range(3):
            verdict = analyzer.analyze(
                code, language="python", kernel="axpy", requested_model="python.numpy"
            )
            assert verdict.is_correct
        assert len(calls) == 1

    def test_default_analyzers_share_one_memo(self, corpus, monkeypatch):
        code = corpus.template("python", "python.numpy", "gemv").code
        calls: list[str] = []

        def counting_executor(code: str, kernel: str) -> tuple[bool, list[str]]:
            calls.append(kernel)
            return True, []

        monkeypatch.setattr(analyzer_module, "_default_python_executor", counting_executor)
        clear_verdict_memo()
        try:
            first, second = SuggestionAnalyzer(), SuggestionAnalyzer()
            assert first._cache is second._cache
            kwargs = dict(language="python", kernel="gemv", requested_model="python.numpy")
            first.analyze(code, **kwargs)
            second.analyze(code, **kwargs)
            assert len(calls) == 1
        finally:
            clear_verdict_memo()

    def test_mutating_a_returned_verdict_does_not_poison_the_memo(self, corpus):
        code = corpus.template("julia", "julia.threads", "axpy").code
        analyzer = SuggestionAnalyzer()
        kwargs = dict(language="julia", kernel="axpy", requested_model="julia.threads")
        first = analyzer.analyze(code, **kwargs)
        first.add_issue("caller-side annotation")
        first.math_correct = False
        second = analyzer.analyze(code, **kwargs)
        assert second.math_correct
        assert "caller-side annotation" not in second.issues

    def test_custom_backends_do_not_pollute_shared_memo(self):
        stubbed = SuggestionAnalyzer(python_executor=lambda code, kernel: (True, []))
        static = SuggestionAnalyzer(execute_python=False)
        default = SuggestionAnalyzer()
        assert stubbed._cache is not default._cache
        assert static._cache is not default._cache

    @pytest.mark.parametrize(
        "language, model, other_model, kernel",
        [
            ("python", "python.numba", "python.numpy", "gemv"),
            ("cpp", "cpp.openacc", "cpp.openmp", "gemm"),
        ],
    )
    def test_code_is_analyzed_once_across_requested_models(
        self, corpus, monkeypatch, language, model, other_model, kernel
    ):
        # The same template is an answer to its own prompt and an "other
        # model" answer to another prompt; only the requested-model flags
        # differ, so checks and execution run once.
        import repro.sandbox as sandbox
        from repro.analysis import clike, hazards, pythonlang

        calls: list[str] = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in (
            (clike, "check_structure"),
            (clike, "check_kernel_semantics"),
            (pythonlang, "check_structure"),
            (pythonlang, "undefined_call_names"),
            (hazards, "static_findings_for"),
            (sandbox, "evaluate_python_suggestions"),
        ):
            counted(owner, name)
        code = corpus.template(language, model, kernel).code
        clear_verdict_memo()
        try:
            verdicts = [
                SuggestionAnalyzer().analyze(
                    code, language=language, kernel=kernel, requested_model=requested
                )
                for requested in (model, other_model)
            ]
            once = sorted(set(calls))
            assert sorted(calls) == once and once
            if language == "python":
                assert "evaluate_python_suggestions" in once
            fresh = [
                SuggestionAnalyzer(shared_memo=False).analyze(
                    code, language=language, kernel=kernel, requested_model=requested
                )
                for requested in (model, other_model)
            ]
        finally:
            clear_verdict_memo()
        assert verdicts == fresh
        assert verdicts[0].is_correct and not verdicts[1].is_correct
        assert verdicts[1].uses_other_model

    def test_cold_run_executes_each_distinct_suggestion_once(self, monkeypatch):
        import repro.sandbox as sandbox
        from repro.analysis.pythonlang import find_entry_function

        submitted: list[tuple[str, str]] = []
        original = sandbox.evaluate_python_suggestions

        def recording(items, **kwargs):
            submitted.extend(items)
            return original(items, **kwargs)

        monkeypatch.setattr(sandbox, "evaluate_python_suggestions", recording)
        clear_verdict_memo()
        try:
            runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED)
            results = runner.run_full_grid()
        finally:
            clear_verdict_memo()
        executed = {
            (code, result.cell.kernel)
            for result in results
            for code, verdict in zip(result.suggestions, result.verdicts, strict=True)
            if verdict.method == "executed"
        }
        assert len(submitted) == len(set(submitted))
        assert set(submitted) == executed
        runnable = [pair for pair in executed if find_entry_function(*pair) is not None]
        assert runner.sandbox_executions == len(runnable) > 0

    def test_clear_verdict_memo_empties_the_code_memo(self, corpus):
        code = corpus.template("fortran", "fortran.openmp", "gemv").code
        kwargs = dict(language="fortran", kernel="gemv", requested_model="fortran.openmp")
        SuggestionAnalyzer().analyze(code, **kwargs)
        assert analyzer_module._SHARED_CODE_MEMO
        clear_verdict_memo()
        assert not analyzer_module._SHARED_CODE_MEMO
        assert not analyzer_module._SHARED_VERDICT_MEMO

    def test_private_memo_analyzers_never_touch_the_shared_code_memo(self, corpus):
        from repro.analysis.verdict import SuggestionVerdict

        code = corpus.template("python", "python.numpy", "axpy").code
        kwargs = dict(language="python", kernel="axpy", requested_model="python.numpy")
        poisoned = SuggestionVerdict(
            is_code=True, detected_models=("python.numpy",), issues=["poisoned"]
        )
        clear_verdict_memo()
        analyzer_module._SHARED_CODE_MEMO[code, "python", "axpy"] = poisoned
        try:
            for private in (
                SuggestionAnalyzer(shared_memo=False),
                SuggestionAnalyzer(execute_python=False),
                SuggestionAnalyzer(python_executor=lambda code, kernel: (True, [])),
                # Forced-shared non-default analyzers share the verdict memo
                # only: the code memo feeds stores.
                SuggestionAnalyzer(execute_python=False, shared_memo=True),
            ):
                assert "poisoned" not in private.analyze(code, **kwargs).issues
                analyzer_module._SHARED_VERDICT_MEMO.clear()
            assert analyzer_module._SHARED_CODE_MEMO == {(code, "python", "axpy"): poisoned}
            # Non-vacuity: a default analyzer does read the shared entry.
            assert "poisoned" in SuggestionAnalyzer().analyze(code, **kwargs).issues
        finally:
            clear_verdict_memo()


# ---------------------------------------------------------------------------
# Corpus memo and fingerprint-keyed result cache
# ---------------------------------------------------------------------------

class TestCacheLayers:
    def test_default_corpus_is_memoized(self):
        assert default_corpus() is default_corpus()
        assert SuggestionSampler().corpus is SuggestionSampler().corpus

    def test_fingerprint_is_value_based(self):
        assert CodexConfig().fingerprint() == CodexConfig().fingerprint()
        assert CodexConfig().fingerprint() != CodexConfig(max_suggestions=5).fingerprint()
        scaled = CodexConfig(maturity=MaturityModel(model_weight=0.62 * 1.0))
        assert scaled.fingerprint() == CodexConfig().fingerprint()
        assert CodexConfig(maturity=MaturityModel(model_weight=0.31)).fingerprint() != \
            CodexConfig().fingerprint()

    def test_equal_configs_share_cached_results(self):
        first = experiments.run_language_results("julia", config=CodexConfig())
        second = experiments.run_language_results("julia", config=CodexConfig())
        default = experiments.run_language_results("julia")
        assert first is second is default

    def test_clear_result_cache_forces_reevaluation(self):
        first = experiments.run_language_results("julia")
        experiments.clear_result_cache()
        second = experiments.run_language_results("julia")
        assert first is not second
        assert first.to_records() == second.to_records()

    def test_ablation_points_reuse_default_run(self):
        default_cpp = experiments.run_language_results("cpp")
        # Maturity scale 1.0 and suggestion budget 10 fingerprint to the
        # default config, so neither ablation re-evaluates that point.
        scaled = experiments.run_language_results(
            "cpp", config=CodexConfig(maturity=MaturityModel(model_weight=0.62 * 1.0))
        )
        budget10 = experiments.run_language_results("cpp", config=CodexConfig(max_suggestions=10))
        assert scaled is default_cpp
        assert budget10 is default_cpp

    def test_result_cache_is_lru_bounded(self):
        from repro.harness.experiments import _RESULT_CACHE, _RESULT_CACHE_MAX, _cache_put

        for i in range(_RESULT_CACHE_MAX + 5):
            _cache_put((i, "x", "f"), ResultSet(seed=i))
        assert len(_RESULT_CACHE) == _RESULT_CACHE_MAX
        assert (0, "x", "f") not in _RESULT_CACHE
        assert (_RESULT_CACHE_MAX + 4, "x", "f") in _RESULT_CACHE

    def test_run_everything_evaluates_each_cell_once_per_fingerprint(self, monkeypatch):
        evaluated: list[tuple[str, str]] = []
        original = EvaluationRunner.run_cells

        def counting_run_cells(self, cells):
            cells = list(cells)
            evaluated.extend((self.config.fingerprint(), cell.cell_id) for cell in cells)
            return original(self, cells)

        monkeypatch.setattr(EvaluationRunner, "run_cells", counting_run_cells)
        experiments.run_everything(seed=DEFAULT_SEED)
        assert len(evaluated) == len(set(evaluated)), "a (fingerprint, cell) pair ran twice"

"""Tests for the parallel, cache-aware evaluation pipeline.

Covers the four layers of the perf architecture:

* the per-cell seeding contract (:func:`repro.codex.engine.cell_seed_sequence`),
* the shared corpus memo (:func:`repro.corpus.store.default_corpus`),
* the runner's determinism, the session's one-worker shortcut and the
  indexed :class:`ResultSet` in :mod:`repro.core.runner`, and
* the process-wide verdict memo and the value-based config fingerprint.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np
import pytest

from repro.analysis import analyzer as analyzer_module
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.codex.engine import cell_seed_sequence
from repro.codex.sampler import SuggestionSampler
from repro.api import ExperimentSpec, Session
from repro.core.runner import EvaluationRunner, ResultSet
from repro.corpus.store import default_corpus
from repro.dispatch.driver import ShardDriver
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
        seen: list[str] = []
        runner = EvaluationRunner(
            config=CodexConfig(),
            seed=DEFAULT_SEED,
            progress=lambda result: seen.append(result.cell.cell_id),
        )
        runner.run_cells(cells)
        assert seen == [cell.cell_id for cell in cells]

    def test_unknown_backend_rejected(self):
        # The runner evaluates serially and takes no backend; the layers that
        # choose one reject both unknown and deleted (thread) backends.
        with pytest.raises(TypeError):
            EvaluationRunner(backend="process")
        spec = ExperimentSpec(languages=("julia",))
        for backend in ("gpu", "thread"):
            with pytest.raises(ValueError):
                Session(backend=backend)
            with pytest.raises(ValueError):
                ShardDriver(spec, backend=backend)


# ---------------------------------------------------------------------------
# Process backend policy: it must at least break even with serial
# ---------------------------------------------------------------------------

class TestDispatchPolicy:
    def test_single_worker_process_backend_runs_in_process(self, monkeypatch):
        # A one-worker subprocess pool is serial evaluation plus fork and
        # IPC overhead — strictly slower than the calling thread.  On hosts
        # where the pool would resolve to a single worker the process
        # backend therefore evaluates in-process (byte-identical by the
        # determinism contract), so it breaks even with serial instead of
        # losing to overhead.
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker pool must not spawn a subprocess")

        monkeypatch.setattr(ShardDriver, "_drive_process", no_pool)
        with Session(backend="process", max_workers=1) as session:
            results = session.language_results("julia")
        serial = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_language("julia")
        assert results.to_records() == serial.to_records()

    def test_single_worker_process_backend_still_counts_work(self, tmp_path):
        # The in-process shortcut keeps the counter contract: sandbox
        # executions and verdict-store hits reach the session exactly as
        # worker processes' counts do.
        spec = ExperimentSpec(languages=("python",), kernels=("axpy",))
        clear_verdict_memo()
        try:
            with Session(
                backend="process", max_workers=1, verdict_store=tmp_path / "store"
            ) as cold:
                cold_records = cold.run(spec).to_records()
                assert cold.sandbox_executions > 0
            clear_verdict_memo()
            with Session(
                backend="process", max_workers=1, verdict_store=tmp_path / "store"
            ) as warm:
                assert warm.run(spec).to_records() == cold_records
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

@pytest.fixture()
def sandbox_batches(monkeypatch) -> Iterator[list[list[tuple[str, str]]]]:
    """Every ``(code, kernel)`` batch the analyzer sends to the sandbox.

    The analyzer looks ``repro.sandbox.evaluate_python_suggestions`` up at
    call time, so the recording wrapper sees every batch.  The verdict memo
    is emptied before and after, so the test's analyses compute afresh.
    """
    import repro.sandbox as sandbox

    batches: list[list[tuple[str, str]]] = []
    original = sandbox.evaluate_python_suggestions

    def recording(items, **kwargs):
        batches.append(list(items))
        return original(items, **kwargs)

    monkeypatch.setattr(sandbox, "evaluate_python_suggestions", recording)
    clear_verdict_memo()
    yield batches
    clear_verdict_memo()


class TestVerdictMemo:
    def test_identical_suggestion_executes_once(self, corpus, sandbox_batches):
        code = corpus.template("python", "python.numpy", "axpy").code
        analyzer = SuggestionAnalyzer()
        for _ in range(3):
            verdict = analyzer.analyze(
                code, language="python", kernel="axpy", requested_model="python.numpy"
            )
            assert verdict.is_correct
        assert sandbox_batches == [[(code, "axpy")]]

    def test_default_analyzers_share_one_memo(self, corpus, sandbox_batches):
        code = corpus.template("python", "python.numpy", "gemv").code
        kwargs = dict(language="python", kernel="gemv", requested_model="python.numpy")
        first = SuggestionAnalyzer().analyze(code, **kwargs)
        second = SuggestionAnalyzer().analyze(code, **kwargs)
        assert sandbox_batches == [[(code, "gemv")]]
        assert first == second and first.is_correct

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
            fresh = []
            for requested in (model, other_model):
                clear_verdict_memo()
                fresh.append(
                    SuggestionAnalyzer().analyze(
                        code, language=language, kernel=kernel, requested_model=requested
                    )
                )
        finally:
            clear_verdict_memo()
        assert verdicts == fresh
        assert verdicts[0].is_correct and not verdicts[1].is_correct
        assert verdicts[1].uses_other_model

    def test_cold_run_executes_each_distinct_suggestion_once(self, sandbox_batches):
        from repro.analysis.pythonlang import find_entry_function

        runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED)
        results = runner.run_full_grid()
        submitted = [item for batch in sandbox_batches for item in batch]
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

    def test_cold_run_parses_each_distinct_suggestion_once(self, monkeypatch):
        import ast
        import itertools
        import weakref

        from repro.analysis import pythonlang
        from repro.sandbox.cuda_c import interpreter, parser

        batch_ids = itertools.count()
        batch: list[int | None] = [None]
        python_parses: list[str] = []
        trees: list[tuple[int | None, weakref.ref]] = []
        compiled: list[type] = []
        cuda_parses: list[tuple[int | None, str]] = []
        parse_module_calls = [0]

        original_parse = ast.parse

        def parse(source, *args, **kwargs):
            python_parses.append(source)
            tree = original_parse(source, *args, **kwargs)
            trees.append((batch[0], weakref.ref(tree)))
            return tree

        def compile_(source, *args, **kwargs):
            compiled.append(type(source))
            return compile(source, *args, **kwargs)

        original_tokenize = parser.tokenize

        def tokenize(source):
            cuda_parses.append((batch[0], source))
            return original_tokenize(source)

        original_parse_module = parser._Parser.parse_module

        def parse_module(self):
            parse_module_calls[0] += 1
            return original_parse_module(self)

        original_batch = SuggestionAnalyzer.analyze_batch

        def analyze_batch(self, *args, **kwargs):
            batch[0] = next(batch_ids)
            try:
                return original_batch(self, *args, **kwargs)
            finally:
                opened, batch[0] = batch[0], None
                # Nothing of the batch's parse scope survives it.
                assert interpreter._PARSE_SCOPE.get() is None
                assert all(ref() is None for owner, ref in trees if owner == opened)

        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(pythonlang, "compile", compile_, raising=False)
        monkeypatch.setattr(parser, "tokenize", tokenize)
        monkeypatch.setattr(parser._Parser, "parse_module", parse_module)
        monkeypatch.setattr(SuggestionAnalyzer, "analyze_batch", analyze_batch)
        clear_verdict_memo()
        try:
            results = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_full_grid()
        finally:
            clear_verdict_memo()
        analyzed = {
            code
            for result in results
            if result.cell.language == "python"
            for code, verdict in zip(result.suggestions, result.verdicts, strict=True)
            if verdict.is_code
        }
        # One ast.parse per distinct analyzed Python code, all inside a batch.
        assert sorted(python_parses) == sorted(analyzed)
        assert all(owner is not None for owner, _ in trees)
        # The executor compiles the batch's AST instead of the source text.
        assert compiled and set(compiled) == {ast.Module}
        # Each distinct CUDA source is parsed once per batch (the hazard
        # analyzer and the sandbox share it), inside the batch.
        assert len(cuda_parses) == len(set(cuda_parses)) == parse_module_calls[0] > 0
        assert all(owner is not None for owner, _ in cuda_parses)
        assert interpreter._PARSE_SCOPE.get() is None

    def test_runner_threads_match_serial_with_concurrent_parse_scopes(self, full_results):
        # The evaluation service evaluates on worker threads, each on its
        # own runner: two grids evaluated at once must each keep their own
        # parse scope and take turns on the sandbox runtime.
        other_seed = DEFAULT_SEED + 1
        records: dict[int, list[dict]] = {}
        clear_verdict_memo()
        try:

            def evaluate(seed: int) -> None:
                records[seed] = EvaluationRunner(seed=seed).run_full_grid().to_records()

            threads = [
                threading.Thread(target=evaluate, args=(seed,))
                for seed in (DEFAULT_SEED, other_seed)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            clear_verdict_memo()
        assert records[DEFAULT_SEED] == full_results.to_records()
        serial = EvaluationRunner(config=CodexConfig(), seed=other_seed).run_full_grid()
        assert records[other_seed] == serial.to_records()

    def test_clear_verdict_memo_empties_the_code_memo(self, corpus):
        code = corpus.template("fortran", "fortran.openmp", "gemv").code
        kwargs = dict(language="fortran", kernel="gemv", requested_model="fortran.openmp")
        SuggestionAnalyzer().analyze(code, **kwargs)
        assert analyzer_module._SHARED_CODE_MEMO
        clear_verdict_memo()
        assert not analyzer_module._SHARED_CODE_MEMO


# ---------------------------------------------------------------------------
# Corpus memo, config fingerprints and one evaluation per fingerprint
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

    def test_run_everything_evaluates_each_cell_once_per_fingerprint(self, monkeypatch):
        evaluated: list[tuple[str, str]] = []
        original = EvaluationRunner.run_cells

        def counting_run_cells(self, cells):
            cells = list(cells)
            evaluated.extend((self.config.fingerprint(), cell.cell_id) for cell in cells)
            return original(self, cells)

        monkeypatch.setattr(EvaluationRunner, "run_cells", counting_run_cells)
        with Session() as session:
            session.run_everything(seed=DEFAULT_SEED)
        assert len(evaluated) == len(set(evaluated)), "a (fingerprint, cell) pair ran twice"

"""Tests for the persistent verdict store and batched sandbox execution.

Covers the tentpole guarantees:

* :class:`repro.analysis.store.VerdictStore` round-trips verdicts through
  its segment files and degrades every failure mode (truncation,
  corruption, schema bumps, code edits, racing writers) to recompute —
  never to a wrong verdict;
* the analyzer layers the store under the process-wide memo (memo hits stay
  free and are written through; store hits fill the memo);
* batched sandbox execution produces byte-identical outcomes to the serial
  path while counting every module execution;
* warm-store runs — serial and process backend — reproduce cold records
  byte-for-byte with **zero** sandbox executions.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import store as store_module
from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.analysis.store import VerdictStore, default_store_path
from repro.analysis.verdict import SuggestionVerdict
from repro.api import Session
from repro.cache.backends import LocalBackend
from repro.codex.config import DEFAULT_SEED
from repro.sandbox import (
    evaluate_python_suggestion,
    evaluate_python_suggestions,
    sandbox_execution_count,
)


def _verdict() -> SuggestionVerdict:
    return SuggestionVerdict(
        is_code=True,
        detected_models=("python.numpy",),
        uses_requested_model=True,
        math_correct=True,
        issues=["kept issue"],
        method="executed",
    )


def _key(code: str = "def axpy(a, x, y):\n    return a * x + y\n") -> tuple[str, str, str, str]:
    return (code, "python", "axpy", "python.numpy")


# ---------------------------------------------------------------------------
# Round trip and keying
# ---------------------------------------------------------------------------

class TestVerdictStoreRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = VerdictStore(tmp_path)
        assert store.get(_key()) is None
        store.put(_key(), _verdict())
        assert store.get(_key()) == _verdict()
        assert len(store) == 1
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_get_returns_fresh_objects(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        first = store.get(_key())
        first.issues.append("caller-side mutation")
        first.math_correct = False
        assert store.get(_key()) == _verdict()

    def test_distinct_keys_do_not_collide(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        for other in (
            ("other code", "python", "axpy", "python.numpy"),
            (_key()[0], "julia", "axpy", "python.numpy"),
            (_key()[0], "python", "gemv", "python.numpy"),
            (_key()[0], "python", "axpy", "python.numba"),
        ):
            assert store.get(other) is None, other

    def test_put_is_idempotent_across_instances(self, tmp_path):
        VerdictStore(tmp_path).put(_key(), _verdict())
        second = VerdictStore(tmp_path)
        second.put(_key(), _verdict())
        assert second.writes == 0  # existing entry detected, not rewritten
        assert len(second) == 1

    def test_default_store_path_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_VERDICT_STORE", str(tmp_path / "env-store"))
        assert default_store_path() == tmp_path / "env-store"

    def test_stats_and_clear(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        store.put(_key("other"), _verdict())
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["segments"] == 1  # one writing process, one segment
        [segment] = (tmp_path / "segments").glob("*.seg")
        assert stats["bytes"] == segment.stat().st_size > 0
        assert stats["schema"] == store_module.STORE_SCHEMA
        assert store.clear() == 2
        assert len(store) == 0
        assert not list((tmp_path / "segments").glob("*.seg"))
        assert VerdictStore(tmp_path).get(_key()) is None


# ---------------------------------------------------------------------------
# Corruption, versioning and races: always degrade to recompute
# ---------------------------------------------------------------------------

class TestStoreDegradation:
    def _segment(self, tmp_path):
        [segment] = list((tmp_path / "segments").glob("*.seg"))
        return segment

    def _supersede(self, tmp_path, edit):
        """Append a frame that replaces the entry for ``_key()`` with
        ``edit(payload)``: a valid frame, but a payload the store must
        reject."""
        backend = LocalBackend(tmp_path)
        digest = VerdictStore.digest(_key())
        payload = json.loads(backend.get(digest))
        edit(payload)
        assert backend.put(digest, json.dumps(payload).encode())

    def test_truncated_entry_is_a_miss_and_dropped(self, tmp_path):
        VerdictStore(tmp_path).put(_key(), _verdict())
        segment = self._segment(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-17])  # a writer killed mid-frame
        fresh = VerdictStore(tmp_path)
        assert fresh.get(_key()) is None  # the torn frame is not indexed
        fresh.put(_key(), _verdict())  # ...so the recompute is appended again
        assert VerdictStore(tmp_path).get(_key()) == _verdict()

    def test_non_json_garbage_is_a_miss(self, tmp_path):
        VerdictStore(tmp_path).put(_key(), _verdict())
        segment = self._segment(tmp_path)
        data = segment.read_bytes()
        garbage = b"\x00\x01 not json"
        segment.write_bytes(data[: -len(garbage)] + garbage)  # bytes rotted in place
        assert VerdictStore(tmp_path).get(_key()) is None

    def test_string_typed_issue_list_is_rejected_as_corrupt(self, tmp_path):
        # Valid JSON, valid key, but "issues" is a string: characterwise
        # iteration would fabricate a garbled verdict — must be a miss.
        VerdictStore(tmp_path).put(_key(), _verdict())
        self._supersede(tmp_path, lambda payload: payload["verdict"].update(issues="bad"))
        assert VerdictStore(tmp_path).get(_key()) is None

    def test_entry_for_a_different_key_is_rejected(self, tmp_path):
        # Simulate a digest collision / foreign frame: valid JSON, wrong key.
        VerdictStore(tmp_path).put(_key(), _verdict())
        self._supersede(tmp_path, lambda payload: payload.update(kernel="gemv"))
        assert VerdictStore(tmp_path).get(_key()) is None

    def test_transient_read_error_is_a_miss_but_keeps_the_entry(self, tmp_path, monkeypatch):
        import os

        VerdictStore(tmp_path).put(_key(), _verdict())
        segment = self._segment(tmp_path)

        def flaky_pread(*args, **kwargs):
            raise OSError("Input/output error")

        reader = VerdictStore(tmp_path)
        monkeypatch.setattr(os, "pread", flaky_pread)
        assert reader.get(_key()) is None  # transient failure -> plain miss
        monkeypatch.undo()
        assert segment.exists()  # ... the shared entry was NOT destroyed
        assert reader.get(_key()) == _verdict()

    def test_schema_version_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        VerdictStore(tmp_path).put(_key(), _verdict())
        assert VerdictStore(tmp_path).get(_key()) is not None
        monkeypatch.setattr(store_module, "STORE_SCHEMA", store_module.STORE_SCHEMA + 1)
        bumped = VerdictStore(tmp_path)
        assert bumped.get(_key()) is None  # old entry unreachable -> recompute
        bumped.put(_key(), _verdict())
        assert bumped.get(_key()) == _verdict()

    def test_analysis_version_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        # An edit to the analysis code changes the verdict digest, which
        # must orphan the verdicts computed before it.
        VerdictStore(tmp_path).put(_key(), _verdict())
        monkeypatch.setattr(store_module, "verdict_digest", lambda: "e" * 64)
        assert VerdictStore(tmp_path).get(_key()) is None

    def test_lockstep_interpreter_bump_is_recorded(self):
        # The vectorized lockstep CUDA interpreter changed what execution
        # *can* observe, so its source must be part of the verdict digest:
        # any edit to it orphans the stored verdicts.
        from pathlib import Path

        from repro.analysis.verdict import VERDICT_SOURCES
        from repro.sandbox.cuda_c import lockstep

        package = Path(lockstep.__file__).resolve().parents[1].name
        assert package == "sandbox" and package in VERDICT_SOURCES

    def test_pre_bump_store_degrades_to_recompute(self, tmp_path, monkeypatch):
        # Simulate a store populated by older analysis code: the current
        # analyzer must never serve those entries — every lookup misses and
        # recomputation repopulates under the new digest, with both
        # generations coexisting in the store.
        monkeypatch.setattr(store_module, "verdict_digest", lambda: "0" * 64)
        legacy = VerdictStore(tmp_path)
        legacy.put(_key(), _verdict())
        assert legacy.get(_key()) is not None
        monkeypatch.undo()

        current = VerdictStore(tmp_path)
        assert current.get(_key()) is None  # stale verdict never served
        current.put(_key(), _verdict())
        assert current.get(_key()) == _verdict()
        assert len(current) == 2  # old entry orphaned, not misread

    def test_put_fails_soft_when_the_directory_is_unwritable(self, tmp_path, monkeypatch):
        from pathlib import Path

        store = VerdictStore(tmp_path)

        def broken_mkdir(self, *args, **kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr(Path, "mkdir", broken_mkdir)
        store.put(_key(), _verdict())  # must not raise: analysis never fails on cache IO
        assert store.writes == 0

    def test_racing_writers_on_the_same_keys_never_corrupt(self, tmp_path):
        iterations = 25
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def writer() -> None:
            try:
                for i in range(iterations):
                    barrier.wait()
                    # A fresh instance per iteration has a fresh index, so
                    # both threads really race the same entry.
                    VerdictStore(tmp_path).put(_key(f"code {i}"), _verdict())
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        reader = VerdictStore(tmp_path)
        for i in range(iterations):
            assert reader.get(_key(f"code {i}")) == _verdict(), i
        assert len(reader) == iterations
        assert not list(tmp_path.rglob("*.tmp"))  # no leaked temp files


# ---------------------------------------------------------------------------
# Analyzer integration: memo above, store below
# ---------------------------------------------------------------------------

class TestAnalyzerStoreIntegration:
    def test_second_process_skips_execution(self, corpus, tmp_path):
        code = corpus.template("python", "python.numpy", "axpy").code
        store = VerdictStore(tmp_path)
        kwargs = dict(language="python", kernel="axpy", requested_model="python.numpy")
        before = sandbox_execution_count()
        first = SuggestionAnalyzer(store=store, shared_memo=False).analyze(code, **kwargs)
        assert sandbox_execution_count() - before == 1
        assert first.is_correct
        # A "new process": fresh analyzer, fresh memo, same directory.
        fresh_store = VerdictStore(tmp_path)
        before = sandbox_execution_count()
        second = SuggestionAnalyzer(store=fresh_store, shared_memo=False).analyze(code, **kwargs)
        assert sandbox_execution_count() == before  # store hit, no execution
        assert second == first
        assert fresh_store.hits == 1

    def test_memo_hits_are_not_written_through(self, corpus, tmp_path):
        # A memo entry carries no provenance (a forced-shared non-default
        # analyzer may have put it there), so memo hits must never be
        # persisted — only self-computed or store-loaded verdicts are.
        code = corpus.template("julia", "julia.threads", "gemv").code
        kwargs = dict(language="julia", kernel="gemv", requested_model="julia.threads")
        clear_verdict_memo()
        try:
            SuggestionAnalyzer().analyze(code, **kwargs)  # memo only, no store
            store = VerdictStore(tmp_path)
            SuggestionAnalyzer(store=store).analyze(code, **kwargs)  # memo hit
            assert len(store) == 0  # degrades to recompute elsewhere, never to a wrong verdict
            clear_verdict_memo()
            verdict = SuggestionAnalyzer(store=store).analyze(code, **kwargs)  # computed
            assert len(store) == 1
            assert VerdictStore(tmp_path).get((code, "julia", "gemv", "julia.threads")) == verdict
        finally:
            clear_verdict_memo()

    def test_non_default_modes_cannot_attach_a_store(self, tmp_path):
        # The store key carries no analysis mode: static-only or
        # custom-backend verdicts must never reach the shared store.
        with pytest.raises(ValueError):
            SuggestionAnalyzer(execute_python=False, store=tmp_path)
        with pytest.raises(ValueError):
            SuggestionAnalyzer(python_executor=lambda code, kernel: (True, []), store=tmp_path)

    def test_store_hit_fills_the_memo(self, corpus, tmp_path):
        code = corpus.template("fortran", "fortran.openmp", "axpy").code
        key = (code, "fortran", "axpy", "fortran.openmp")
        store = VerdictStore(tmp_path)
        store.put(key, _verdict())
        analyzer = SuggestionAnalyzer(store=store, shared_memo=False)
        kwargs = dict(language="fortran", kernel="axpy", requested_model="fortran.openmp")
        analyzer.analyze(code, **kwargs)
        analyzer.analyze(code, **kwargs)
        assert store.hits == 1  # second lookup came from the memo


# ---------------------------------------------------------------------------
# Batched sandbox execution
# ---------------------------------------------------------------------------

class TestBatchedExecution:
    def test_batched_matches_serial(self, corpus):
        items = [
            (corpus.template("python", "python.numpy", "axpy").code, "axpy"),
            (corpus.template("python", "python.numba", "gemv").code, "gemv"),
            (corpus.template("python", "python.cupy", "gemm").code, "gemm"),
            (corpus.template("python", "python.pycuda", "axpy").code, "axpy"),
            (corpus.template("python", "python.numpy", "cg").code, "cg"),
            ("def axpy(a, x, y):\n    return None\n", "axpy"),  # fails the oracle
            ("x = 1\n", "gemv"),  # no entry point
        ]
        serial = [evaluate_python_suggestion(code, kernel) for code, kernel in items]
        batched = evaluate_python_suggestions(items)
        assert [(r.passed, r.issues, r.entry_point) for r in serial] == [
            (r.passed, r.issues, r.entry_point) for r in batched
        ]
        assert serial[0].passed and not serial[5].passed and not serial[6].passed

    def test_batch_executes_in_input_order_like_serial(self, corpus):
        # The fake cupy module object is shared (in both paths), so execution
        # ORDER is observable; the batch must follow input order, not kernel
        # grouping, to stay identical to a serial loop.
        from repro.sandbox import fake_cupy

        marker = "import cupy\ncupy._order_marker = True\ndef gemv(a, x):\n    return a @ x\n"
        watcher = (
            "import cupy\n"
            "def axpy(a, x, y):\n"
            "    assert not hasattr(cupy, '_order_marker'), 'marker visible'\n"
            "    return a * x + y\n"
        )
        clean = corpus.template("python", "python.numpy", "axpy").code
        items = [(clean, "axpy"), (marker, "gemv"), (watcher, "axpy")]
        try:
            serial = [evaluate_python_suggestion(code, kernel) for code, kernel in items]
            if hasattr(fake_cupy, "_order_marker"):
                del fake_cupy._order_marker
            batched = evaluate_python_suggestions(items)
            assert [(r.passed, r.issues) for r in serial] == [
                (r.passed, r.issues) for r in batched
            ]
            assert not serial[2].passed  # the watcher runs after the marker setter
        finally:
            if hasattr(fake_cupy, "_order_marker"):
                del fake_cupy._order_marker

    def test_module_mutation_cannot_leak_into_the_next_batch_item(self, corpus):
        # A suggestion that sabotages its own module namespace must not
        # change the verdict of the next suggestion in the batch.
        saboteur = (
            "import numba\n"
            "numba.njit = None\n"
            "def axpy(a, x, y):\n"
            "    return a * x + y\n"
        )
        victim = corpus.template("python", "python.numba", "axpy").code
        items = [(saboteur, "axpy"), (victim, "axpy")]
        serial = [evaluate_python_suggestion(code, kernel) for code, kernel in items]
        batched = evaluate_python_suggestions(items)
        assert [(r.passed, r.issues) for r in serial] == [
            (r.passed, r.issues) for r in batched
        ]
        assert batched[1].passed  # the victim still JITs and passes

    def test_execution_counter_counts_executed_modules_only(self, corpus):
        axpy = corpus.template("python", "python.numpy", "axpy").code
        before = sandbox_execution_count()
        evaluate_python_suggestions([(axpy, "axpy"), (axpy, "axpy"), ("x = 1\n", "axpy")])
        # Two executed modules; the entry-less item never runs.
        assert sandbox_execution_count() - before == 2

    def test_analyzer_batch_deduplicates_within_the_batch(self, corpus):
        code = corpus.template("python", "python.numpy", "gemm").code
        analyzer = SuggestionAnalyzer(shared_memo=False)
        before = sandbox_execution_count()
        verdicts = analyzer.analyze_batch(
            [code, code, code], language="python", kernel="gemm",
            requested_model="python.numpy",
        )
        assert sandbox_execution_count() - before == 1
        assert all(v == verdicts[0] for v in verdicts)
        assert verdicts[0] is not verdicts[1]  # defensive copies, not aliases


# ---------------------------------------------------------------------------
# Warm-store runs: byte-identical records, zero executions
# ---------------------------------------------------------------------------

class TestWarmStoreRuns:
    def test_serial_warm_run_is_identical_with_zero_executions(self, tmp_path):
        store_dir = tmp_path / "store"
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as cold:
                cold_records = cold.language_results("python").to_records()
                assert cold.sandbox_executions > 0
            clear_verdict_memo()  # a warm *process* starts with an empty memo
            with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as warm:
                assert warm.language_results("python").to_records() == cold_records
                assert warm.sandbox_executions == 0
                assert warm.store_hits > 0
        finally:
            clear_verdict_memo()

    def test_process_backend_run_everything_warm_rerun(self, tmp_path):
        store_dir = tmp_path / "store"
        clear_verdict_memo()
        try:
            with Session(
                seed=DEFAULT_SEED, backend="process", max_workers=2,
                verdict_store=store_dir,
            ) as cold:
                cold.run_everything()
                cold_records = cold.full_results().to_records()
                assert cold.sandbox_executions > 0
            clear_verdict_memo()
            with Session(
                seed=DEFAULT_SEED, backend="process", max_workers=2,
                verdict_store=store_dir,
            ) as warm:
                warm.run_everything()
                assert warm.full_results().to_records() == cold_records
                assert warm.sandbox_executions == 0
                assert warm.store_hits > 0
        finally:
            clear_verdict_memo()

    def test_store_filled_one_key_at_a_time_warms_with_zero_executions(self, tmp_path):
        # Without the code memo every (code, language, kernel, model) key was
        # analyzed on its own.  Keys and payloads are unchanged, so a store
        # written that way must still serve a whole warm run.
        from repro.codex.engine import SimulatedCodex
        from repro.codex.prompt import Prompt
        from repro.models.grid import experiment_grid

        store_dir = tmp_path / "store"
        store = VerdictStore(store_dir)
        engine = SimulatedCodex(seed=DEFAULT_SEED)
        for cell in experiment_grid(languages=("python",)):
            for code in dict.fromkeys(engine.complete(Prompt.from_cell(cell)).suggestions):
                SuggestionAnalyzer(store=store, shared_memo=False).analyze(
                    code, language="python", kernel=cell.kernel, requested_model=cell.model
                )
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED) as cold:
                cold_records = cold.language_results("python").to_records()
            clear_verdict_memo()
            with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as warm:
                assert warm.language_results("python").to_records() == cold_records
                assert warm.sandbox_executions == 0
                assert warm.store_hits > 0
        finally:
            clear_verdict_memo()

    def test_runner_rejects_store_with_custom_evaluator(self, evaluator, tmp_path):
        from repro.core.runner import EvaluationRunner

        with pytest.raises(ValueError):
            EvaluationRunner(evaluator=evaluator, verdict_store=tmp_path / "s")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCliCache:
    def test_cache_stats_and_clear_roundtrip(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_arg = str(tmp_path / "store")
        assert main(["--verdict-store", store_arg, "table", "5"]) == 0
        assert "verdict store:" in capsys.readouterr().err
        assert main(["--verdict-store", store_arg, "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "segments 1" in out and store_arg in out
        assert main(["--verdict-store", store_arg, "cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert len(VerdictStore(store_arg)) == 0
        assert not list((tmp_path / "store" / "segments").glob("*.seg"))

    def test_verdict_store_auto_uses_default_location(self, tmp_path, monkeypatch, capsys):
        from repro.harness.cli import main

        monkeypatch.setenv("REPRO_VERDICT_STORE", str(tmp_path / "auto-store"))
        assert main(["--verdict-store", "auto", "cache", "stats"]) == 0
        assert str(tmp_path / "auto-store") in capsys.readouterr().out

    def test_cache_clear_requires_an_explicit_store(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        monkeypatch.setenv("REPRO_VERDICT_STORE", str(tmp_path / "default-store"))
        VerdictStore(tmp_path / "default-store").put(_key(), _verdict())
        with pytest.raises(SystemExit):
            main(["cache", "clear"])  # forgotten flag must not wipe the default store
        assert len(VerdictStore(tmp_path / "default-store")) == 1

"""Tests for the Session façade: fresh results per call, lifecycle,
artefacts, specs and the process backend on the dispatch driver."""

from __future__ import annotations

import os
import threading

import pytest

from repro.api import Session, figure_report, table_report
from repro.api.spec import ExperimentSpec
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.core.runner import EvaluationRunner, RecordResult
from repro.dispatch import faults
from repro.models.grid import cells_for_language


class TestSessionCaching:
    def test_distinct_sessions_do_not_share_results(self):
        with Session() as a, Session() as b:
            ra, rb = a.language_results("julia"), b.language_results("julia")
            assert ra is not rb
            assert ra.to_records() == rb.to_records()

    def test_seed_and_config_overrides_key_the_cache(self):
        # Each override reaches the evaluation: its records equal a fresh
        # Session's at that seed or config, and differ from the base.
        budget = CodexConfig(max_suggestions=3)
        with Session() as session:
            base = session.language_results("julia").to_records()
            reseeded = session.language_results("julia", seed=DEFAULT_SEED + 1).to_records()
            budgeted = session.language_results("julia", config=budget).to_records()
        with Session(seed=DEFAULT_SEED + 1) as fresh:
            assert reseeded == fresh.language_results("julia").to_records()
        with Session(config=budget) as fresh:
            assert budgeted == fresh.language_results("julia").to_records()
        assert reseeded != base
        assert budgeted != base

    def test_caller_mutation_does_not_reach_the_next_call(self):
        with Session() as session:
            first = session.language_results("julia")
            expected = first.to_records()
            first.add(first.results[0])
            assert session.language_results("julia").to_records() == expected

    def test_cache_follows_a_grid_grown_after_caching(self):
        from repro.extensions import install_extended_grid, uninstall_extended_grid

        with Session(seed=5) as session:
            stock = session.language_results("python")
            install_extended_grid()
            try:
                grown = session.language_results("python")
                with Session(seed=5) as fresh:
                    assert grown.to_records() == fresh.language_results("python").to_records()
            finally:
                uninstall_extended_grid()
            assert len(grown) > len(stock)
            assert session.language_results("python").to_records() == stock.to_records()


class TestSessionLifecycle:
    def test_close_shuts_down_runners(self):
        # Two threads evaluate at once, each on its own runner, as the
        # evaluation service's worker threads do: concurrent parse scopes and
        # the sandbox's process-wide runtime lock must keep both exact.
        session = Session()
        expected = {
            language: session.language_results(language).to_records()
            for language in ("julia", "python")
        }
        records: dict[str, list[dict]] = {}

        def evaluate(language: str) -> None:
            records[language] = EvaluationRunner().run_language(language).to_records()

        threads = [threading.Thread(target=evaluate, args=(name,)) for name in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert records == expected
        session.close()
        with pytest.raises(RuntimeError):
            session.language_results("julia")
        with pytest.raises(RuntimeError):
            session.run(ExperimentSpec(languages=("julia",)).shard(0, 2))
        session.close()  # idempotent

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "thread"):
            with pytest.raises(ValueError):
                Session(backend=backend)

    def test_progress_callback_fires_per_cell(self):
        seen: list[str] = []
        with Session(progress=lambda result: seen.append(result.cell.cell_id)) as session:
            results = session.language_results("julia")
        assert seen == [result.cell.cell_id for result in results]


class TestSessionArtefacts:
    def test_figure_and_overall(self):
        with Session() as session:
            fig = session.figure(3)
            overall = session.figure(6)
        assert fig.experiment_id == "figure3"
        assert fig.comparison is not None
        assert overall.experiment_id == "figure6"
        assert overall.summary_line().endswith("done")

    def test_table_and_figure_unknown_numbers(self):
        with Session() as session:
            with pytest.raises(KeyError):
                session.table(7)
            with pytest.raises(KeyError):
                session.figure(9)

    def test_ablation_dispatch(self):
        with Session() as session:
            report = session.ablation("suggestions", counts=(1, 10))
            assert set(report.data["means"]) == {1, 10}
            with pytest.raises(KeyError):
                session.ablation("nonexistent")

    def test_reports_render_from_a_held_grid(self):
        with Session() as session:
            full = session.full_results()
            pairs = [(table_report(full, n), session.table(n)) for n in (2, 3, 4, 5)]
            pairs += [(figure_report(full, n), session.figure(n)) for n in (2, 3, 4, 5, 6)]
        for rendered, evaluated in pairs:
            assert rendered.experiment_id == evaluated.experiment_id
            assert rendered.text == evaluated.text
            assert rendered.data == evaluated.data
            assert rendered.comparison == evaluated.comparison

    def test_reports_need_their_language(self):
        with Session() as session:
            julia = session.language_results("julia")
        for render in (table_report, figure_report):
            with pytest.raises(KeyError, match="no result for cpp.openmp"):
                render(julia, 2)
        with pytest.raises(KeyError):
            table_report(julia, 7)


class TestSpecRunsAndSweeps:
    def test_full_spec_run_equals_full_results(self):
        with Session() as session:
            spec_run = session.run(ExperimentSpec())
            assert spec_run.to_records() == session.full_results().to_records()

    def test_restricted_spec_runs_directly(self):
        spec = ExperimentSpec(languages=("julia",), kernels=("axpy", "gemv"))
        with Session() as session:
            results = session.run(spec)
        assert len(results) == len(spec.cells())
        assert all(result.cell.kernel in ("axpy", "gemv") for result in results)

    def test_sweep_returns_per_seed_sets(self):
        with Session() as session:
            swept = session.sweep([7, 8], languages=("julia",))
            assert list(swept) == [7, 8]
            assert swept[7].seed == 7
            assert swept[7].to_records() != swept[8].to_records()
            # Each seed's sweep entry matches an independent run at that seed.
            alone = session.language_results("julia", seed=7)
            assert swept[7].to_records() == alone.to_records()


class TestProcessBackend:
    """``Session(backend="process")`` evaluates through the dispatch driver."""

    def test_process_matches_serial(self):
        restricted = ExperimentSpec(models=("cpp.openmp", "julia.threads"), kernels=("axpy", "cg"))
        with Session() as serial, Session(backend="process", max_workers=2) as process:
            assert (
                process.language_results("julia").to_records()
                == serial.language_results("julia").to_records()
            )
            assert process.full_results().to_records() == serial.full_results().to_records()
            assert process.run(restricted).to_records() == serial.run(restricted).to_records()
            swept = process.sweep([7, 8], languages=("fortran",))
            expected = serial.sweep([7, 8], languages=("fortran",))
            assert list(swept) == [7, 8]
            assert all(swept[seed].to_records() == expected[seed].to_records() for seed in (7, 8))

    def test_uncached_languages_share_one_dispatch(self, monkeypatch):
        dispatched: list[int] = []
        original = Session.dispatch

        def counting(self, spec=None, **kwargs):
            dispatched.append(len(spec.cells()))
            return original(self, spec, **kwargs)

        monkeypatch.setattr(Session, "dispatch", counting)
        with Session(backend="process", max_workers=2) as session:
            session.language_results("julia")
            assert len(session.full_results()) == 204
        # Each call is one dispatch of exactly its spec.
        assert dispatched == [24, 204]

    def test_compare_evaluates_once(self, monkeypatch, capsys):
        from repro.harness.cli import main

        assert main(["compare"]) == 0
        serial = capsys.readouterr().out
        dispatched: list[int] = []
        original = Session.dispatch

        def counting(self, spec=None, **kwargs):
            dispatched.append(len(spec.cells()))
            return original(self, spec, **kwargs)

        monkeypatch.setattr(Session, "dispatch", counting)
        # Two workers whatever the host, so the process backend dispatches.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["--backend", "process", "compare"]) == 0
        assert capsys.readouterr().out == serial
        assert dispatched == [204]

    def test_progress_fires_in_submission_order(self):
        seen: list = []
        with Session(backend="process", max_workers=2, progress=seen.append) as session:
            session.language_results("julia")
        assert [result.cell for result in seen] == cells_for_language("julia")
        assert all(isinstance(result, RecordResult) for result in seen)

    def test_quarantined_shard_raises_and_names_it(self, monkeypatch):
        # The plan travels through the environment, so every worker (and
        # each retry's fresh worker) re-arms it.
        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}]',
        )
        faults.reset()
        try:
            with Session(backend="process", max_workers=2) as session:
                with pytest.raises(RuntimeError, match="quarantined") as excinfo:
                    session.language_results("julia")
        finally:
            faults.reset()
        assert "shard [00000,00012)" in str(excinfo.value)
        assert "InjectedCrash after 3 attempt(s)" in str(excinfo.value)

    def test_closed_session_refuses_to_evaluate(self):
        session = Session(backend="process", max_workers=2)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.language_results("julia")
        with pytest.raises(RuntimeError, match="closed"):
            session.run(ExperimentSpec(languages=("julia",), kernels=("axpy",)))

"""Tests for the resumable distributed shard driver (:mod:`repro.dispatch`).

The tentpole guarantees:

* every dispatch backend (``inline``, ``process``, ``file-queue``) merges to
  records byte-identical to the unsharded run;
* a driver re-run against the same :class:`ResultStore` re-executes **zero**
  completed shards (killed runs resume instead of recomputing);
* streamed merges and callbacks follow the
  :class:`~repro.core.runner.EvaluationRunner` submission-order contract;
* file-queue workers validate tasks (config fingerprint, grid digest) and
  results before anything enters a merge.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.analyzer import clear_verdict_memo
from repro.api import ExperimentSpec, Session, Shard
from repro.codex.config import DEFAULT_SEED
from repro.core.runner import EvaluationRunner
from repro.dispatch import DispatchReport, FileQueue, ResultStore, ShardDriver, drain_queue


@pytest.fixture(scope="module")
def spec() -> ExperimentSpec:
    return ExperimentSpec(seeds=(DEFAULT_SEED,), languages=("julia",))


@pytest.fixture(scope="module")
def expected_records(spec):
    with Session(seed=DEFAULT_SEED) as session:
        return session.run(spec).to_records()


def _killed_after(driver: ShardDriver, settled: int) -> DispatchReport:
    """Drive ``driver`` until ``settled`` shards have settled, then close its
    stream: the in-process stand-in for killing the driver there."""
    report = DispatchReport(spec=driver.spec, shards=driver.shards)
    stream = driver.settle(report)
    for _ in itertools.islice(stream, settled):
        pass
    stream.close()
    return report


# ---------------------------------------------------------------------------
# Inline backend: identity, resume, ordering
# ---------------------------------------------------------------------------

class TestInlineDispatch:
    def test_cold_dispatch_is_byte_identical(self, spec, expected_records, tmp_path):
        report = ShardDriver(spec, shards=4, result_store=tmp_path / "store").run()
        assert report.complete
        assert len(report.executed) == 4 and not report.skipped
        assert report.result().to_records() == expected_records

    def test_warm_rerun_executes_zero_shards(self, spec, expected_records, tmp_path):
        store = tmp_path / "store"
        ShardDriver(spec, shards=4, result_store=store).run()
        warm = ShardDriver(spec, shards=4, result_store=ResultStore(store)).run()
        assert warm.complete
        assert len(warm.skipped) == 4 and not warm.executed
        assert warm.result().to_records() == expected_records
        assert warm.sandbox_executions == 0

    def test_killed_run_resumes_without_reexecution(self, spec, expected_records, tmp_path):
        store = tmp_path / "store"
        partial = _killed_after(ShardDriver(spec, shards=4, result_store=store), 2)
        assert not partial.complete
        assert len(partial.executed) == 2
        with pytest.raises(ValueError, match="incomplete"):
            partial.result()
        # The partial merge holds exactly the completed prefix, canonically.
        partial_records = partial.results[DEFAULT_SEED].to_records()
        assert partial_records == expected_records[: len(partial_records)]
        resumed = ShardDriver(spec, shards=4, result_store=ResultStore(store)).run()
        assert resumed.complete
        assert len(resumed.skipped) == 2 and len(resumed.executed) == 2
        assert resumed.result().to_records() == expected_records

    def test_a_rerun_after_a_grid_install_matches_a_fresh_runner(self):
        # The driver keeps no runner between runs: an engine samples the
        # corpus installed when it was built, so a reused runner would
        # evaluate the grown grid from the stock corpus.
        from repro.extensions import install_extended_grid, uninstall_extended_grid

        python_spec = ExperimentSpec(languages=("python",))
        driver = ShardDriver(python_spec, shards=2)
        driver.run()
        install_extended_grid()
        try:
            report = driver.run()
            expected = EvaluationRunner(seed=python_spec.seed).run_cells(python_spec.cells())
        finally:
            uninstall_extended_grid()
        assert report.complete and len(expected) == 80
        assert report.result().to_records() == expected.to_records()

    def test_store_writes_happen_before_callbacks(self, spec, tmp_path):
        # The crash window must never lose a finished shard: by the time
        # on_shard announces it, the payload is already on disk.
        store = ResultStore(tmp_path / "store")
        seen_on_disk: list[bool] = []
        driver = ShardDriver(
            spec,
            shards=2,
            result_store=store,
            on_shard=lambda o: seen_on_disk.append(store.get(o.entry) is not None),
        )
        driver.run()
        assert seen_on_disk == [True, True]

    def test_dispatch_without_a_store_still_works(self, spec, expected_records):
        report = ShardDriver(spec, shards=3).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_callbacks_fire_in_submission_order(self, spec, tmp_path):
        cells: list = []
        shards_seen: list[tuple[int, int]] = []
        ShardDriver(
            spec,
            shards=4,
            progress=lambda result: cells.append(result.cell),
            on_shard=lambda o: shards_seen.append((o.entry.start, o.entry.stop)),
        ).run()
        assert shards_seen == sorted(shards_seen)
        assert cells == spec.cells()
        # A warm run streams the same cells in the same order from the store.
        store = tmp_path / "store"
        ShardDriver(spec, shards=4, result_store=store).run()
        warm_cells: list = []
        ShardDriver(
            spec, shards=4, result_store=store,
            progress=lambda result: warm_cells.append(result.cell),
        ).run()
        assert warm_cells == spec.cells()

    def test_a_closed_settle_stream_keeps_what_settled(self, spec, expected_records, tmp_path):
        # Closing the stream after its first shard stops the dispatch there:
        # one shard stored, a partial report holding exactly its cells.
        store = ResultStore(tmp_path / "store")
        report = DispatchReport(spec=spec, shards=4)
        stream = ShardDriver(spec, shards=4, result_store=store).settle(report)
        first = next(stream)
        stream.close()
        assert len(store) == 1
        assert not report.complete and report.outcomes == [first]
        assert report.results[DEFAULT_SEED].to_records() == (
            expected_records[first.entry.start : first.entry.stop]
        )
        # Drained, the stream leaves the report run() returns.
        drained = DispatchReport(spec=spec, shards=4)
        for _ in ShardDriver(spec, shards=4).settle(drained):
            pass
        ran = ShardDriver(spec, shards=4).run()
        assert drained.complete and ran.complete
        assert [(o.entry, o.source) for o in drained.outcomes] == [
            (o.entry, o.source) for o in ran.outcomes
        ]
        assert drained.result().to_records() == ran.result().to_records() == expected_records

    def test_invalid_arguments_rejected(self, spec):
        with pytest.raises(ValueError):
            ShardDriver(spec, backend="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardDriver(spec, shards=0)
        with pytest.raises(ValueError):
            ShardDriver(spec, backend="file-queue")  # queue directory missing


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

class TestProcessDispatch:
    def test_process_dispatch_is_byte_identical(self, spec, expected_records):
        report = ShardDriver(spec, shards=4, backend="process", max_workers=2).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_process_resume_skips_completed_shards(self, spec, expected_records, tmp_path):
        store = tmp_path / "store"
        _killed_after(ShardDriver(spec, shards=4, result_store=store), 3)
        resumed = ShardDriver(
            spec, shards=4, backend="process", max_workers=2, result_store=ResultStore(store)
        ).run()
        assert resumed.complete
        assert len(resumed.skipped) == 3 and len(resumed.executed) == 1
        assert resumed.result().to_records() == expected_records

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_counts_below_one_are_rejected(self, spec, workers):
        # With no worker slot the process backend would wait forever.
        with pytest.raises(ValueError, match=f"max_workers must be >= 1, got {workers}"):
            ShardDriver(spec, shards=2, backend="process", max_workers=workers)

    @pytest.mark.parametrize(
        ("shards", "workers", "runs"),
        [(4, 2, [[0, 1], [2, 3]]), (8, 3, [[0, 1], [2, 3, 4], [5, 6, 7]])],
    )
    def test_one_worker_per_slot_owns_a_contiguous_run(
        self, spec, expected_records, started_processes, shards, workers, runs
    ):
        report = ShardDriver(spec, shards=shards, backend="process", max_workers=workers).run()
        assert report.complete
        assert report.result().to_records() == expected_records
        assert [outcome.source for outcome in report.outcomes] == ["process"] * shards
        assert started_processes == runs

    def test_every_schedule_merges_to_the_serial_records(
        self, spec, expected_records, started_processes
    ):
        for shards in (1, 2, 3, 4, 5, 8):
            for workers in (1, 2, 3):
                started_processes.clear()
                report = ShardDriver(
                    spec, shards=shards, backend="process", max_workers=workers
                ).run()
                assert report.result().to_records() == expected_records, (shards, workers)
                assert len(started_processes) == min(shards, workers), (shards, workers)

    def test_a_multi_seed_run_is_a_stretch_of_the_plan(self, started_processes):
        spec = ExperimentSpec(seeds=(1, 2), languages=("julia",), kernels=("axpy", "gemv"))
        report = ShardDriver(spec, shards=3, backend="process", max_workers=2).run()
        assert report.complete and started_processes == [[0, 1, 2], [3, 4, 5]]
        with Session() as session:
            serial = session.run(spec)
        for seed in (1, 2):
            assert report.results[seed].to_records() == serial[seed].to_records()

    @pytest.mark.parametrize(
        "workers, cells",
        [
            # The stock grid runs C++ 0-95, Fortran 96-131, Python 132-179
            # and Julia 180-203, and shards 2 and 3 start at 102 and 153.
            # Weighed by the cost table, Python alone balances the three
            # other languages on 2 workers ...
            (2, [[*range(0, 132), *range(180, 204)], [*range(132, 180)]]),
            # ... and fills about two of 3 or 4 workers, so it is divided
            # into its pieces of shards 2 and 3.
            (3, [[*range(0, 96), *range(180, 204)], [*range(96, 153)], [*range(153, 180)]]),
            (
                4,
                [[*range(0, 96)], [*range(96, 132), *range(180, 204)], [*range(132, 153)],
                 [*range(153, 180)]],
            ),
        ],
        ids=["2-workers", "3-workers", "4-workers"],
    )
    def test_the_stock_grid_is_dealt_by_cost_share(self, started_cells, workers, cells):
        spec = ExperimentSpec(seeds=(DEFAULT_SEED,))
        report = ShardDriver(spec, shards=4, backend="process", max_workers=workers).run()
        assert report.complete
        with Session(seed=DEFAULT_SEED) as session:
            assert report.result().to_records() == session.full_results().to_records()
        assert started_cells == cells

    def test_every_two_language_schedule_merges_to_the_serial_records(
        self, two_languages, two_language_records, started_processes
    ):
        split = set()
        schedules = {}
        for shards in range(1, 9):
            for workers in (1, 2, 3):
                started_processes.clear()
                report = ShardDriver(
                    two_languages, shards=shards, backend="process", max_workers=workers
                ).run()
                assert report.complete, (shards, workers)
                assert report.result().to_records() == two_language_records, (shards, workers)
                assert [outcome.entry.index for outcome in report.outcomes] == list(range(shards))
                schedules[shards, workers] = [list(run) for run in started_processes]
                owners = {}
                for slot, run in enumerate(started_processes):
                    for index in run:
                        owners.setdefault(index, set()).add(slot)
                if any(len(slots) > 1 for slots in owners.values()):
                    split.add((shards, workers))
        # Schedules that merge one shard from two workers' pieces, cut at
        # the language boundary (C++ 12-15 | Python 16-17 of shard 2 at 4
        # shards) ...
        assert {(2, 2), (4, 2), (4, 3), (5, 3)} <= split
        # ... and, on 3 workers, Python's pieces divided between two.
        assert schedules[4, 2] == [[0, 1, 2], [2, 3]]
        assert schedules[4, 3] == [[0, 1, 2], [2], [3]]

    def test_each_executed_shard_is_written_once(
        self, two_languages, two_language_records, monkeypatch, tmp_path
    ):
        writes: list[int] = []
        put = ResultStore.put

        def counting(self, entry, results):
            writes.append(entry.index)
            return put(self, entry, results)

        monkeypatch.setattr(ResultStore, "put", counting)
        store = ResultStore(tmp_path / "store")
        report = ShardDriver(
            two_languages, shards=4, backend="process", max_workers=2, result_store=store
        ).run()
        assert report.complete
        assert sorted(writes) == [0, 1, 2, 3]
        assert ResultStore(tmp_path / "store").get(report.outcomes[2].entry).to_records() == (
            two_language_records[12:18]
        )

    def test_each_shard_entry_is_built_once(self, two_languages, monkeypatch, tmp_path):
        # An entry enumerates the grid: the driver builds one per shard and
        # reuses it for the resume lookup and the stored outcome.
        entries: list[int] = []
        enumerations: list[ExperimentSpec] = []
        entry, cells = Shard.entry, ExperimentSpec.cells

        def counting_entry(self):
            entries.append(self.index)
            return entry(self)

        def counting_cells(self):
            enumerations.append(self)
            return cells(self)

        monkeypatch.setattr(Shard, "entry", counting_entry)
        monkeypatch.setattr(ExperimentSpec, "cells", counting_cells)
        report = ShardDriver(
            two_languages,
            shards=4,
            backend="process",
            max_workers=2,
            result_store=tmp_path / "store",
        ).run()
        assert report.complete
        assert sorted(entries) == [0, 1, 2, 3]
        assert len(enumerations) <= 6

    def test_process_counters_cross_the_boundary(self):
        # Python cells execute in the sandbox inside pool workers; the
        # driver's report must still see those executions.
        spec = ExperimentSpec(
            seeds=(DEFAULT_SEED,), languages=("python",), kernels=("axpy",)
        )
        clear_verdict_memo()
        report = ShardDriver(spec, shards=2, backend="process", max_workers=2).run()
        assert report.complete
        assert report.sandbox_executions > 0


# ---------------------------------------------------------------------------
# File-queue backend
# ---------------------------------------------------------------------------

class TestFileQueueDispatch:
    def test_driver_drains_its_own_queue(self, spec, expected_records, tmp_path):
        report = ShardDriver(
            spec, shards=3, backend="file-queue", queue=tmp_path / "q"
        ).run()
        assert report.complete
        assert len(report.executed) == 3
        assert report.result().to_records() == expected_records
        # Every task claimed and completed; nothing pending.
        queue = FileQueue(tmp_path / "q")
        assert queue.pending() == []
        assert len(list(queue.results_dir.glob("*.json"))) == 3

    def test_queue_progress_fires_once_per_cell(self, spec, tmp_path):
        # Locally-claimed queue shards stream progress live through their
        # runner; the completion hook must not deliver the cells again.
        cells: list = []
        ShardDriver(
            spec, shards=2, backend="file-queue", queue=tmp_path / "q",
            progress=lambda result: cells.append(result.cell),
        ).run()
        assert cells == spec.cells()

    def test_predrained_queue_is_consumed_without_execution(
        self, spec, expected_records, tmp_path
    ):
        queue = FileQueue(tmp_path / "q")
        for shard in spec.partition(3):
            assert queue.publish(shard)
            assert not queue.publish(shard)  # idempotent
        assert drain_queue(queue) == 3  # "the remote host"
        report = ShardDriver(
            spec, shards=3, backend="file-queue", queue=queue, result_store=tmp_path / "store",
        ).run()
        assert report.complete
        assert len(report.remote) == 3 and not report.executed
        assert report.result().to_records() == expected_records
        # Remote payloads were persisted: a later run resumes from the store.
        warm = ShardDriver(
            spec, shards=3, backend="file-queue", queue=tmp_path / "q2",
            result_store=tmp_path / "store",
        ).run()
        assert len(warm.skipped) == 3

    def test_corrupt_result_payload_is_reexecuted(self, spec, expected_records, tmp_path):
        queue = FileQueue(tmp_path / "q")
        shards = spec.partition(2)
        for shard in shards:
            queue.publish(shard)
        drain_queue(queue)
        # Garble one result and swap another shard's payload in whole — both
        # must be detected and re-evaluated, never merged.
        names = [queue.task_name(shard) for shard in shards]
        (queue.results_dir / f"{names[0]}.json").write_text("truncated {")
        payloads = [queue.result(name) for name in names]
        assert payloads[0] is None  # corrupt file dropped on read
        doctored = {
            **payloads[1],
            "entry": {
                **payloads[1]["entry"],
                "index": 0,
                "cell_slice": [0, len(spec.cells()) // 2],
            },
        }
        queue.complete(names[1], doctored)
        report = ShardDriver(spec, shards=2, backend="file-queue", queue=queue).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_stale_claims_are_requeued(self, spec, tmp_path):
        queue = FileQueue(tmp_path / "q")
        shards = spec.partition(2)
        for shard in shards:
            queue.publish(shard)
        # A "crashed worker": claims a task, never completes it.
        assert queue.claim_next() is not None
        assert len(queue.pending()) == 1
        assert queue.requeue_stale(0.0) == 1
        assert len(queue.pending()) == 2

    def test_worker_refuses_foreign_fingerprint_tasks(self, spec, tmp_path):
        queue = FileQueue(tmp_path / "q")
        shard = spec.partition(2)[0]
        queue.publish(shard)
        name = queue.task_name(shard)
        task_path = queue.tasks_dir / f"{name}.json"
        descriptor = json.loads(task_path.read_text())
        descriptor["spec"]["fingerprint"] = "f" * 16
        task_path.write_text(json.dumps(descriptor))
        with pytest.warns(UserWarning, match="fingerprint"):
            assert drain_queue(queue) == 0
        # The task was released, not destroyed: a worker with the right
        # config could still take it.
        assert queue.pending() == [name]

    def test_worker_refuses_foreign_grid_tasks(self, spec, tmp_path):
        queue = FileQueue(tmp_path / "q")
        shard = spec.partition(2)[0]
        queue.publish(shard)
        task_path = queue.tasks_dir / f"{queue.task_name(shard)}.json"
        descriptor = json.loads(task_path.read_text())
        descriptor["grid"] = "g" * 16
        task_path.write_text(json.dumps(descriptor))
        with pytest.warns(UserWarning, match="grid"):
            assert drain_queue(queue) == 0

    def test_poison_task_does_not_starve_valid_tasks(self, spec, tmp_path):
        # One foreign task (first in name order) must not wedge the worker:
        # it is refused once and the valid tasks behind it still drain.
        queue = FileQueue(tmp_path / "q")
        for shard in spec.partition(2):
            queue.publish(shard)
        poison = queue.pending()[0]
        task_path = queue.tasks_dir / f"{poison}.json"
        descriptor = json.loads(task_path.read_text())
        descriptor["spec"]["fingerprint"] = "f" * 16
        task_path.write_text(json.dumps(descriptor))
        with pytest.warns(UserWarning, match="fingerprint"):
            assert drain_queue(queue) == 1  # the valid task still ran
        assert queue.pending() == [poison]  # poison released, not consumed

    def test_drain_respects_max_tasks(self, spec, tmp_path):
        queue = FileQueue(tmp_path / "q")
        for shard in spec.partition(3):
            queue.publish(shard)
        assert drain_queue(queue, max_tasks=1) == 1
        assert len(queue.pending()) == 2


# ---------------------------------------------------------------------------
# Session.dispatch
# ---------------------------------------------------------------------------

class TestSessionDispatch:
    def test_session_dispatch_matches_session_run(self, spec, expected_records, tmp_path):
        with Session(seed=DEFAULT_SEED) as session:
            report = session.dispatch(spec, shards=3, result_store=tmp_path / "store")
            assert report.complete
            assert report.result().to_records() == expected_records
            # The session adds the report's counts on every backend.
            assert session.sandbox_executions == report.sandbox_executions

    def test_session_dispatch_defaults_to_the_session_grid(self):
        with Session(seed=DEFAULT_SEED) as session:
            report = session.dispatch(shards=4)
            assert report.complete
            assert report.spec.seeds == (DEFAULT_SEED,)
            assert len(report.result()) == len(report.spec.cells())

    def test_session_dispatch_defaults_to_the_session_workers(self, spec, monkeypatch):
        widths: list = []
        original = ShardDriver.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            widths.append(self.max_workers)

        monkeypatch.setattr(ShardDriver, "__init__", recording)
        with Session(seed=DEFAULT_SEED, max_workers=3) as session:
            session.dispatch(spec, shards=2)
            session.dispatch(spec, shards=2, max_workers=1)
        assert widths == [3, 1]

    def test_session_progress_streams_through_dispatch(self, spec, tmp_path):
        cells: list = []
        with Session(seed=DEFAULT_SEED, progress=lambda r: cells.append(r.cell)) as session:
            session.dispatch(spec, shards=2, result_store=tmp_path / "store")
        assert cells == spec.cells()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_session_rejects_worker_counts_below_one(self, workers):
        # Silently evaluating serially would hide the mistake.
        with pytest.raises(ValueError, match=f"max_workers must be >= 1, got {workers}"):
            Session(backend="process", max_workers=workers)

    def test_process_sweep_is_one_dispatch(self, monkeypatch, started_processes):
        dispatched: list[tuple[int, ...]] = []
        original = Session.dispatch

        def counting(self, spec=None, **kwargs):
            dispatched.append(spec.seeds)
            return original(self, spec, **kwargs)

        monkeypatch.setattr(Session, "dispatch", counting)
        with Session(backend="process", max_workers=2) as process, Session() as serial:
            swept = process.sweep([8, 7])
            expected = serial.sweep([8, 7])
        assert dispatched == [(8, 7)]
        # One pool: Python's pieces of both seeds in one worker, every
        # other language's in the other.
        assert started_processes == [[0, 0, 1, 1, 2, 2, 3, 3], [1, 3]]
        assert list(swept) == [8, 7]
        for seed in (8, 7):
            assert json.dumps(swept[seed].to_records()) == json.dumps(expected[seed].to_records())

    def test_session_verdict_store_reaches_dispatch_workers(self, tmp_path):
        python_spec = ExperimentSpec(
            seeds=(DEFAULT_SEED,), languages=("python",), kernels=("axpy",)
        )
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "verdicts") as session:
                cold = session.dispatch(python_spec, shards=2)
                assert cold.complete and session.sandbox_executions > 0
            clear_verdict_memo()
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "verdicts") as session:
                warm = session.dispatch(python_spec, shards=2)
                assert warm.complete
                assert session.sandbox_executions == 0
                assert session.store_hits > 0
        finally:
            clear_verdict_memo()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCliDispatch:
    def test_dispatch_json_is_byte_identical_to_run_json(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main(["run", "--json", str(tmp_path / "full.json")]) == 0
        assert main([
            "dispatch", "--shards", "3",
            "--result-store", str(tmp_path / "store"),
            "--json", str(tmp_path / "dispatched.json"),
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "dispatched.json").read_bytes() == (tmp_path / "full.json").read_bytes()

    def test_cli_kill_resume_cycle(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "store")
        args = ["dispatch", "--shards", "4", "--languages", "julia", "--result-store", store]
        # Killed for real: the fault plan's ``die`` ends the driver process
        # with status 17 as it starts shard 2 (cells 12-17), after shards 0
        # and 1 were stored.
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env["REPRO_FAULTS"] = json.dumps(
            [{"point": "worker.evaluate", "action": "die", "match": "-00012-"}]
        )
        killed = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert killed.returncode == 17, killed.stderr
        assert len(ResultStore(store)) == 2
        assert main(args + ["--json", str(tmp_path / "out.json")]) == 0
        captured = capsys.readouterr()
        assert "executed=2 skipped=2" in captured.out
        assert "shard-hits=2" in captured.err
        assert (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--shards", "0"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--max-attempts", "0"),
            ("--shard-timeout", "-1"),
            ("--shard-timeout", "0"),
            ("--heartbeat", "0"),
        ],
    )
    def test_out_of_range_dispatch_flags_are_usage_errors(self, flag, value, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["dispatch", "--backend", "process", "--languages", "julia", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}: must be" in err

    def test_cli_dispatch_worker_drains_queue(self, spec, tmp_path, capsys):
        from repro.harness.cli import main

        queue = FileQueue(tmp_path / "q")
        for shard in spec.partition(2):
            queue.publish(shard)
        assert main(["dispatch-worker", "--queue", str(tmp_path / "q")]) == 0
        assert "evaluated 2 task(s)" in capsys.readouterr().out
        report = ShardDriver(spec, shards=2, backend="file-queue", queue=queue).run()
        assert report.complete and len(report.remote) == 2

    def test_cli_dispatch_worker_reports_what_it_evaluated(self, tmp_path, capsys):
        # The verdict-store line counts the drained shards' work, cold and
        # warm, though drain_queue evaluates on runners of its own.
        from repro.harness.cli import main

        python_spec = ExperimentSpec(languages=("python",), kernels=("axpy", "gemv"))
        store = str(tmp_path / "verdicts")
        counts = []
        clear_verdict_memo()
        try:
            for name in ("cold", "warm"):
                queue = FileQueue(tmp_path / name)
                for shard in python_spec.partition(2):
                    queue.publish(shard)
                clear_verdict_memo()
                args = ["--verdict-store", store, "dispatch-worker", "--queue", str(queue.root)]
                assert main(args) == 0
                captured = capsys.readouterr()
                assert "evaluated 2 task(s)" in captured.out
                line = next(
                    line for line in captured.err.splitlines() if line.startswith("verdict store:")
                )
                counts.append(dict(field.split("=") for field in line.split()[-2:]))
        finally:
            clear_verdict_memo()
        cold, warm = counts
        assert int(cold["sandbox-executions"]) > 0
        assert int(warm["hits"]) > 0 and warm["sandbox-executions"] == "0"

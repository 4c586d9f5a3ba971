"""E-PERF: wall-clock scaling of full-grid evaluation across session backends.

Times the complete Table 1 grid under the ``serial`` and ``process``
backends (cold caches, so the numbers reflect the true pipeline cost, not
memo hits), verifies the two backends produce byte-identical records, then
times a sharded run — the grid split into ``SHARD_COUNT`` independent
:class:`repro.api.Shard`s, each evaluated by its own fresh
:class:`repro.api.Session` as if on a separate machine, plus the
manifest-validated merge — then a cold-vs-warm pass over the persistent
verdict store (the warm run must be byte-identical and execute zero
sandboxes), a cold-vs-resumed pass through the store-backed shard driver
(the warm driver must skip every shard), the batched-vs-serial sandbox
comparison from :mod:`bench_sandbox`, and finally every experiment id once
through one session, each evaluating the grid it renders.  The measurements
are written to ``BENCH_perf.json`` at the repo root to extend the perf
trajectory.

Runs standalone (``python benchmarks/bench_parallel_scaling.py``) or under
pytest.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _shared import DEFAULT_SEED
from bench_sandbox import collect_sandbox_record

from repro.analysis.analyzer import clear_verdict_memo
from repro.api import ExperimentSpec, Session, merge_shard_parts
from repro.corpus.store import clear_default_corpus_cache, default_corpus
from repro.dispatch import ResultStore, ShardDriver

#: Backends measured for the scaling record.
SCALING_BACKENDS = ("serial", "process")

#: Number of single-machine shards timed for the sharded-vs-unsharded record.
SHARD_COUNT = 4

#: Timing repeats per backend (best-of, to damp scheduler noise).
REPEATS = 3

#: Where the perf record lands (the repo root's BENCH_* trajectory).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _cold_caches() -> None:
    clear_verdict_memo()
    clear_default_corpus_cache()


def _time_full_grid(backend: str, cores: int) -> tuple[float, list[dict]]:
    """Best-of-``REPEATS`` wall-clock for the full grid under one backend.

    The corpus is pre-built before timing (on fork platforms workers inherit
    it copy-on-write), and every repeat starts from a fresh session and a
    cleared verdict memo, so both backends pay identical cold-analysis cost.
    The process backend dispatches one shard per worker through the
    dispatch driver, whose workers each own whole languages or contiguous
    runs of one; it starts
    fresh worker processes for every call:
    process start-up, IPC and the merge are all inside the timed region.
    """
    _cold_caches()
    default_corpus()
    best = float("inf")
    for _ in range(REPEATS):
        clear_verdict_memo()
        with Session(
            seed=DEFAULT_SEED,
            backend=backend,
            max_workers=min(cores, 8) if backend != "serial" else None,
        ) as session:
            start = time.perf_counter()
            results = session.full_results()
            best = min(best, time.perf_counter() - start)
    return best, results.to_records()


def _time_sharded_grid(n: int) -> tuple[float, float, list[dict]]:
    """Simulated ``n``-machine run of the grid.

    Each shard is evaluated by its own fresh serial Session with a cleared
    verdict memo (every machine pays its own analysis cost); the recorded
    wall-clock is the critical path — the slowest shard — plus the
    manifest-validated merge.  Returns (critical path, merge time, records).
    """
    spec = ExperimentSpec(seeds=(DEFAULT_SEED,))
    _cold_caches()
    default_corpus()
    parts = []
    shard_times = []
    for shard in spec.partition(n):
        clear_verdict_memo()
        with Session(seed=DEFAULT_SEED) as session:
            start = time.perf_counter()
            results = session.run(shard)
            shard_times.append(time.perf_counter() - start)
        parts.append((shard.entry(), results))
    start = time.perf_counter()
    merged = merge_shard_parts(parts)[DEFAULT_SEED]
    merge_time = time.perf_counter() - start
    return max(shard_times), merge_time, merged.to_records()


def _time_store_runs() -> tuple[float, float, int]:
    """Cold-vs-warm full grid through a fresh on-disk verdict store.

    The cold run populates the store; the warm run starts from a cleared
    in-memory memo (as a new process would) and must reproduce the records
    byte-identically with zero sandbox executions.  Returns
    (cold seconds, warm seconds, warm store hits).
    """
    _cold_caches()
    default_corpus()
    with tempfile.TemporaryDirectory(prefix="repro-verdicts-") as tmp:
        store_dir = Path(tmp) / "verdicts"
        with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as session:
            start = time.perf_counter()
            cold_records = session.full_results().to_records()
            cold = time.perf_counter() - start
            assert session.sandbox_executions > 0, "cold run executed nothing"
        clear_verdict_memo()
        with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as session:
            start = time.perf_counter()
            warm_records = session.full_results().to_records()
            warm = time.perf_counter() - start
            hits = session.store_hits
            assert session.sandbox_executions == 0, "warm store run hit the sandbox"
        assert warm_records == cold_records, "warm store run diverged from cold records"
    return cold, warm, hits


def _time_dispatch_runs(n: int) -> tuple[float, float, int]:
    """Cold store-backed dispatch vs fully-warm resume of the full grid.

    The cold driver evaluates all ``n`` shards inline and persists each
    payload; the warm driver (fresh store instance, cleared memos — a new
    process) must skip every shard and still merge byte-identically.
    Returns (cold seconds, warm seconds, warm skipped-shard count).
    """
    spec = ExperimentSpec(seeds=(DEFAULT_SEED,))
    _cold_caches()
    default_corpus()
    with Session(seed=DEFAULT_SEED) as session:
        expected = session.full_results().to_records()
    with tempfile.TemporaryDirectory(prefix="repro-results-") as tmp:
        store_dir = Path(tmp) / "results"
        clear_verdict_memo()
        start = time.perf_counter()
        cold_report = ShardDriver(spec, shards=n, result_store=store_dir).run()
        cold = time.perf_counter() - start
        assert cold_report.complete and len(cold_report.executed) == n, cold_report.summary()
        assert cold_report.result().to_records() == expected, (
            "dispatched merge diverged from the unsharded records"
        )
        clear_verdict_memo()
        start = time.perf_counter()
        warm_report = ShardDriver(spec, shards=n, result_store=ResultStore(store_dir)).run()
        warm = time.perf_counter() - start
        assert warm_report.complete and not warm_report.executed, warm_report.summary()
        assert warm_report.sandbox_executions == 0, "warm dispatch hit the sandbox"
        assert warm_report.result().to_records() == expected, (
            "resumed merge diverged from the unsharded records"
        )
    return cold, warm, len(warm_report.skipped)


def collect_perf_record() -> dict:
    """Measure backend scaling, sharded-vs-unsharded wall-clock, cold-vs-warm
    verdict-store runs, batched-vs-serial sandbox execution and
    per-experiment timings, asserting all evaluation paths agree."""
    cores = os.cpu_count() or 1
    record: dict = {
        "bench": "parallel_scaling",
        "seed": DEFAULT_SEED,
        "cores": cores,
        "experiments": {},
    }
    grid_records: dict[str, list[dict]] = {}
    for backend in SCALING_BACKENDS:
        elapsed, records = _time_full_grid(backend, cores)
        record["experiments"][f"full_grid[{backend}]"] = round(elapsed, 4)
        grid_records[backend] = records
    assert grid_records["process"] == grid_records["serial"], (
        "process backend diverged from serial records"
    )
    serial_s = record["experiments"]["full_grid[serial]"]
    process_s = record["experiments"]["full_grid[process]"]
    record["process_speedup"] = round(serial_s / process_s, 3) if process_s else None

    # Sharded critical path: what an n-machine shard/merge deployment costs.
    critical, merge_time, sharded_records = _time_sharded_grid(SHARD_COUNT)
    assert sharded_records == grid_records["serial"], (
        "sharded merge diverged from the unsharded serial records"
    )
    record["experiments"][f"full_grid[sharded x{SHARD_COUNT}]"] = round(critical + merge_time, 4)
    record["experiments"]["shard_merge"] = round(merge_time, 4)
    record["shard_speedup"] = (
        round(serial_s / (critical + merge_time), 3) if critical + merge_time else None
    )

    # Persistent verdict store: cold populate vs warm re-run (zero sandbox
    # executions, byte-identical records — asserted inside).
    cold, warm, hits = _time_store_runs()
    record["experiments"]["full_grid[store-cold]"] = round(cold, 4)
    record["experiments"]["full_grid[store-warm]"] = round(warm, 4)
    record["warm_store_speedup"] = round(cold / warm, 3) if warm else None
    record["warm_store_hits"] = hits

    # Resumable dispatch: store-backed cold drive vs fully-warm resume
    # (every shard skipped, byte-identical merge — asserted inside).
    dispatch_cold, dispatch_warm, skipped = _time_dispatch_runs(SHARD_COUNT)
    record["experiments"][f"full_grid[dispatch x{SHARD_COUNT}]"] = round(dispatch_cold, 4)
    record["experiments"]["full_grid[dispatch-resume]"] = round(dispatch_warm, 4)
    record["dispatch_resume_speedup"] = (
        round(dispatch_cold / dispatch_warm, 3) if dispatch_warm else None
    )
    record["dispatch_resume_skipped"] = skipped

    # Batched vs serial sandbox execution over the real Python cell batches.
    sandbox = collect_sandbox_record()
    record["experiments"].update(sandbox["experiments"])
    record["batched_speedup"] = sandbox["batched_speedup"]
    record["batched_speedup_cpu"] = sandbox["batched_speedup_cpu"]

    # Per-experiment wall-clock through one session: a session keeps no
    # results, so each call evaluates the cells its artefact needs (a table
    # or figure one language, Figure 6 and the keyword ablation the full
    # grid, the other ablations the C++ table once per point) over a verdict
    # memo the first call leaves warm.
    _cold_caches()
    with Session(seed=DEFAULT_SEED) as session:
        timed_calls = [
            *((f"table{n}", lambda n=n: session.table(n)) for n in (2, 3, 4, 5)),
            *((f"figure{n}", lambda n=n: session.figure(n)) for n in (2, 3, 4, 5, 6)),
            ("ablation-keywords", lambda: session.ablation("keywords")),
            ("ablation-maturity", lambda: session.ablation("maturity")),
            ("ablation-suggestions", lambda: session.ablation("suggestions")),
        ]
        for experiment_id, call in timed_calls:
            start = time.perf_counter()
            call()
            record["experiments"][experiment_id] = round(time.perf_counter() - start, 4)
    return record


def write_perf_record(record: dict, path: Path = BENCH_PATH) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def test_parallel_scaling(capsys=None):
    record = collect_perf_record()
    write_perf_record(record)
    # The ≥2x criterion only applies when the hardware can parallelise and
    # workers fork (spawn platforms re-import everything per worker, which
    # swamps this sub-second workload regardless of the pipeline's scaling).
    if record["cores"] >= 4 and multiprocessing.get_start_method() == "fork":
        assert record["process_speedup"] >= 2.0, record
    print()
    print(f"wrote {BENCH_PATH}")
    for key, seconds in sorted(record["experiments"].items()):
        print(f"  {key:24s} {seconds:8.4f}s")
    print(
        f"  cores={record['cores']} process speedup x{record['process_speedup']} "
        f"sharded-x{SHARD_COUNT} speedup x{record['shard_speedup']}"
    )
    print(
        f"  warm-store speedup x{record['warm_store_speedup']} "
        f"({record['warm_store_hits']} hits, 0 sandbox executions) "
        f"batched sandbox x{record['batched_speedup']} "
        f"(cpu-bound x{record['batched_speedup_cpu']})"
    )
    print(
        f"  dispatch-resume speedup x{record['dispatch_resume_speedup']} "
        f"({record['dispatch_resume_skipped']} shards skipped, 0 re-executions)"
    )


if __name__ == "__main__":
    test_parallel_scaling()

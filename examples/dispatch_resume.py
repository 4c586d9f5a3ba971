"""Dispatch the grid through the shard driver, "crash" it, and resume.

Demonstrates the crash-safe distributed workflow of :mod:`repro.dispatch`:

1. a :class:`ShardDriver` partitions the run, dispatches the shards and
   streams the merge — every completed shard is persisted to a
   :class:`ResultStore` *before* it is announced, so the crash window never
   loses finished work,
2. the first driver is "killed" mid-run: its :meth:`ShardDriver.settle`
   stream is closed after two shards (the ``dispatch-resume`` CI job kills a
   real driver process instead, with a ``REPRO_FAULTS`` ``die`` fault),
3. a second driver pointed at the same store **skips every completed
   shard**, finishes the rest, and its merged records are byte-identical to
   an unsharded run,
4. a third, fully-warm driver executes nothing at all, and
5. the same work is pushed through a ``file-queue`` — the backend any
   remote host can drain with ``repro-hpc-codex dispatch-worker``.

Run with:  python examples/dispatch_resume.py
"""

from __future__ import annotations

import contextlib
import itertools
import tempfile
import time
from pathlib import Path

from repro.analysis.analyzer import clear_verdict_memo
from repro.api import ExperimentSpec, Session
from repro.dispatch import DispatchReport, FileQueue, ResultStore, ShardDriver, drain_queue

N_SHARDS = 4


def run_driver(spec: ExperimentSpec, store_dir: Path, kill_after: int | None = None):
    """One driver run in a "fresh process" (cleared in-memory memo).  With
    ``kill_after``, the driver is "killed" once that many shards have
    settled, by closing its stream."""
    clear_verdict_memo()
    start = time.perf_counter()
    driver = ShardDriver(
        spec,
        shards=N_SHARDS,
        result_store=ResultStore(store_dir),
        on_shard=lambda outcome: print(
            f"    shard [{outcome.entry.start:3d}, {outcome.entry.stop:3d}) "
            f"<- {outcome.source:7s} in {outcome.seconds:.2f}s"
        ),
    )
    report = DispatchReport(spec=spec, shards=N_SHARDS)
    with contextlib.closing(driver.settle(report)) as stream:
        for _ in itertools.islice(stream, kill_after):
            pass
    print(f"  {report.summary()} in {time.perf_counter() - start:.2f}s")
    return report


def main() -> None:
    spec = ExperimentSpec(seeds=(20230414,))
    print(f"grid: {len(spec.cells())} cells, fingerprint {spec.fingerprint()}")

    clear_verdict_memo()
    with Session(seed=spec.seed) as session:
        expected = session.run(spec).to_records()

    with tempfile.TemporaryDirectory(prefix="repro-dispatch-") as tmp:
        store_dir = Path(tmp) / "results"

        print(f"\ndriver 1: killed after 2 of {N_SHARDS} shards (crash simulation)")
        killed = run_driver(spec, store_dir, kill_after=2)
        assert not killed.complete and len(killed.executed) == 2

        print("\ndriver 2: same store — resumes instead of recomputing")
        resumed = run_driver(spec, store_dir)
        assert resumed.complete
        assert len(resumed.skipped) == 2 and len(resumed.executed) == 2
        identical = resumed.result().to_records() == expected
        print(f"  byte-identical to the unsharded run: {identical}")
        assert identical

        print("\ndriver 3: fully warm — zero shards executed")
        warm = run_driver(spec, store_dir)
        assert warm.complete and not warm.executed and len(warm.skipped) == N_SHARDS
        assert warm.result().to_records() == expected

    with tempfile.TemporaryDirectory(prefix="repro-queue-") as tmp:
        queue = FileQueue(Path(tmp) / "queue")
        print("\nfile queue: a 'remote host' drains the tasks a driver published")
        for shard in spec.partition(N_SHARDS):
            queue.publish(shard)
        drained = drain_queue(queue)  # in production: dispatch-worker elsewhere
        print(f"  remote worker evaluated {drained} task(s)")
        clear_verdict_memo()
        report = ShardDriver(
            spec, shards=N_SHARDS, backend="file-queue", queue=queue
        ).run()
        print(f"  {report.summary()}")
        assert report.complete and len(report.remote) == N_SHARDS
        assert report.result().to_records() == expected
        print("  merged byte-identically from remote payloads: True")


if __name__ == "__main__":
    main()

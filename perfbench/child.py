"""One benchmark subprocess, timed from the inside.

Run as ``python3 perfbench/child.py SPEC_JSON`` with the checkout's ``src``
on ``PYTHONPATH``.  It reports, as JSON written to ``spec["report"]``, the
``time.perf_counter()`` instants at which set-up ended and evaluation ended
(on Linux the clock is system-wide, so the parent subtracts its own spawn
instant), the process-wide counters of the public stats functions, the
peak resident memory, and a calibration timed right after the measured work
(see ``calibration.py``).  Modes:

``cli``     import :mod:`repro.harness.cli` (set-up ends), then ``main(argv)``.
``traced``  as ``cli``, with the outside-in tracer around the layers.
``setup``   import :mod:`repro.api`, install the extended grid, build a
            ``Session``, exit: one set-up sample of the sweep workload.
``sweep``   as ``setup``, then repeated ``Session.sweep_seeds`` calls, each
            from an empty verdict memo so every call does the same work.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path


def _peak_rss_mb() -> dict:
    """Peak resident memory of this process and of its largest child, in MB."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _counters() -> dict:
    """Deterministic counts since process start, from the public stats functions.

    Imported only after the measured call, so the benchmark never loads a
    module the program itself did not need.
    """
    from repro.sandbox import sandbox_execution_count
    from repro.sandbox.cuda_c.lockstep import lockstep_stats

    stats = lockstep_stats()
    launches = (
        "launches_lockstep",
        "launches_scalar_fallback",
        "launches_scalar_only",
        "launches_scalar_forced",
    )
    return {
        "sandbox.executions": sandbox_execution_count(),
        "sandbox.lockstep.launches": sum(stats.get(key, 0) for key in launches),
        "sandbox.lockstep.fallbacks": stats.get("launches_scalar_fallback", 0),
    }


def _calibrate() -> float:
    """The faster of two calibration passes, so the first pass's one-time
    costs in a fresh process do not count; imported only once the measured
    work is over."""
    from calibration import calibrate

    return min(calibrate(), calibrate())


def _run_cli(spec: dict) -> dict:
    from repro.harness import cli

    ready = time.perf_counter()
    status = cli.main(spec["argv"])
    done = time.perf_counter()
    report = {"ready": ready, "done": done, "status": status}
    report["calibration_s"] = _calibrate()
    report["counts"] = _counters()
    # Benchmark work after the measured call, which the parent takes off
    # the process's wall time.
    report["after_s"] = time.perf_counter() - done
    return report


def _run_traced(spec: dict) -> dict:
    from repro.harness import cli

    import tracer as tracing

    tracer = tracing.Tracer()
    facts: Counter = Counter()
    sources: set = set()
    shard_seconds: list = []
    tracing.install_evaluation_layers(tracer, facts, sources)
    if spec.get("dispatch"):
        tracing.install_dispatch_layers(tracer, shard_seconds)
    status = tracer.call(tracing.ROOT_SPAN, cli.main, spec["argv"])
    # The root span's bounds, so the parent's run_s is exactly what the
    # layer self times add up to.
    _, ready, done, _ = tracer.spans[0]
    self_s, calls = tracer.self_times()
    tracer.write_chrome_trace(Path(spec["chrome_trace"]))
    counts = _counters()
    counts.update(facts)
    counts.update({f"{name}.calls": n for name, n in calls.items()})
    counts["sandbox.cuda_parse.unique_sources"] = len(sources)
    return {
        "ready": ready,
        "done": done,
        "status": status,
        "self_s": self_s,
        "counts": counts,
        "shard_seconds": shard_seconds,
    }


def _sweep_setup():
    import repro.api
    from repro.extensions import install_extended_grid

    install_extended_grid()
    return repro.api.Session


def _run_setup(spec: dict) -> dict:
    Session = _sweep_setup()
    with Session(seed=spec["seeds"][0]):
        ready = time.perf_counter()
    return {"ready": ready, "done": ready, "status": 0, "calibration_s": _calibrate()}


def _run_sweep(spec: dict) -> dict:
    Session = _sweep_setup()
    with Session(seed=spec["seeds"][0]):
        ready = time.perf_counter()
    from repro.analysis.analyzer import clear_verdict_memo  # loaded by the set-up

    seeds = spec["seeds"]
    deadline = ready + spec["seconds"]
    ops = []
    payload = None
    # The first call fills the process-wide caches other than the verdict
    # memo (corpus, sandbox tasks, launch geometry) and is not timed.
    while len(ops) < spec["min_ops"] + 1 or time.perf_counter() < deadline:
        clear_verdict_memo()
        start = time.perf_counter()
        with Session(seed=seeds[0]) as session:
            call = time.perf_counter()
            summary = session.sweep_seeds(seeds)
            returned = time.perf_counter()
            text = json.dumps(summary.to_payload(), sort_keys=True)
        end = time.perf_counter()
        ops.append(
            {
                "run_s": returned - call,
                "wall_s": end - start,
                "cells": sum(len(stats.seeds) for stats in summary.cells),
                "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "calibration_s": _calibrate(),
            }
        )
        if payload is None:
            payload = text
    Path(spec["payload"]).write_text(payload)
    return {
        "ready": ready,
        "done": time.perf_counter(),
        "status": 0,
        "ops": ops[1:],
        # Taken right after the untimed first call, the nearest to set-up.
        "calibration_s": ops[0]["calibration_s"],
    }


MODES = {"cli": _run_cli, "traced": _run_traced, "setup": _run_setup, "sweep": _run_sweep}


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = MODES[spec["mode"]](spec)
    report["rss_mb"] = _peak_rss_mb()
    Path(spec["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main()

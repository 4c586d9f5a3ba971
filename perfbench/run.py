"""The repository benchmark: end-to-end workloads and an outside-in layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_run --seed 1 --seconds 10 --trace 0

``--trace 0`` runs one workload in a closed loop (one client, one process
at a time) for ``--seconds`` and reports the end-to-end metrics named in
``BENCHMARK.json``: medians over the operations, with every time scaled by
the calibration taken around it (``calibration.py``); ``--trace 1`` runs
the traced suite instead and reports the per-layer metrics.  Every evaluation's records are checked against a
plain ``run --json`` of the same seed, counts that must repeat exactly are
compared across operations, and the default seed is compared with the
paper's tables.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a longer run record
goes to ``.perfbench_out/records/``.  The exit status is 0 only when every
check passed; without the program sources (``src/``) the benchmark exits
with status 2 and prints no result.  ``perfbench/README.md`` explains the
workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"
#: Timed operations per run, however long each takes.
MIN_OPS = 3
#: Set-up probes of the long-lived sweep session per run.
SETUP_PROBES = 10
#: Seeds per ``sweep_seeds`` call of the seed_sweep workload.
SWEEP_SEEDS = 4
#: Longest any single subprocess may take before it counts as failed.
CHILD_TIMEOUT = 60.0
#: Calibration time (``calibration.py``) on an idle 2-core x86-64 container
#: with Python 3.11; end-to-end times are scaled to a machine this fast.
NOMINAL_CALIBRATION_S = 0.028
DISPATCH_ARGS = ["--backend", "process", "--workers", "2", "--shards", "4"]

#: Layers whose self time and call count the traced ``run --json`` reports;
#: ``other.self_s`` is the root span's own remainder.
COLD_LAYERS = (
    "codex.complete",
    "corpus.apply_mutation",
    "analysis.analyzer",
    "analysis.detect_models",
    "analysis.clike",
    "analysis.fortranlang",
    "analysis.julialang",
    "analysis.pythonlang",
    "analysis.hazards",
    "sandbox.evaluate_python_suggestions",
    "sandbox.cuda_parse",
    "core.classify_verdicts",
    "harness.save_records_json",
)
#: ``import.<group>_s`` groups: the ``repro`` subpackages the CLI imports,
#: the package's top-level modules, numpy, and everything else.
IMPORT_GROUPS = (
    "analysis", "cache", "codex", "core", "corpus", "harness", "kernels",
    "models", "popularity", "sandbox",
)


class Bench:
    """State of one benchmark run: samples, exact counts and failures."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int | float] = {}
        self.failures: list[str] = []
        self.reference_records = b""
        self.attempted = 0
        #: Cells one operation evaluates (the same for every operation of a run).
        self.cells = 0
        self._serial = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    # -- bookkeeping ----------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def expect_counts(self, label: str, counts: dict) -> None:
        """Record counts that must repeat exactly; a differing repeat fails."""
        for name, value in counts.items():
            key = f"{label}:{name}"
            if key not in self.counts:
                self.counts[key] = value
            elif self.counts[key] != value:
                self.fail(f"count {key} changed from {self.counts[key]} to {value}")

    def fresh(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    # -- subprocesses ---------------------------------------------------------
    def spawn(self, spec: dict) -> dict | None:
        """Run one child to completion; its report plus parent-side timings.

        Counts as one attempted operation; a timeout, a non-zero exit or a
        missing report counts it as failed and returns ``None``.
        """
        self.attempted += 1
        report_path = self.fresh("report").with_suffix(".json")
        spec = dict(spec, report=str(report_path))
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.fail(f"{spec['mode']} {spec.get('argv')} timed out after {CHILD_TIMEOUT}s")
            return None
        exited = time.perf_counter()
        if proc.returncode != 0 or not report_path.is_file():
            tail = stderr.strip().splitlines()[-3:]
            self.fail(f"{spec['mode']} {spec.get('argv')} exited {proc.returncode}: {tail}")
            return None
        report = json.loads(report_path.read_text())
        if report["status"] != 0:
            self.fail(f"{spec['mode']} {spec.get('argv')} returned status {report['status']}")
            return None
        report["setup_s"] = report["ready"] - spawned
        report["wall_s"] = exited - spawned - report.get("after_s", 0.0)
        report["run_s"] = report["done"] - report["ready"]
        report["stderr"] = stderr
        if report["setup_s"] <= 0.0:
            self.fail("child clock is not comparable with the parent clock")
            return None
        return report

    def cli(self, argv: list[str]) -> dict | None:
        return self.spawn({"mode": "cli", "argv": argv})

    def traced(self, argv: list[str], name: str, **extra) -> dict | None:
        trace = OUT / "traces" / f"{name}-seed{self.seed}.json"
        return self.spawn({"mode": "traced", "argv": argv, "chrome_trace": str(trace), **extra})

    def run_argv(self, out: Path, *, seed: int | None = None, store: Path | None = None):
        argv = ["--seed", str(self.seed if seed is None else seed)]
        if store is not None:
            argv += ["--verdict-store", str(store)]
        return argv + ["run", "--json", str(out)]

    def dispatch_argv(self, out: Path, result_store: Path) -> list[str]:
        return ["--seed", str(self.seed), "dispatch", *DISPATCH_ARGS,
                "--result-store", str(result_store), "--json", str(out)]

    # -- correctness ----------------------------------------------------------
    def reference(self) -> tuple[bytes, dict]:
        """Records and report of a plain cold ``run --json`` at the seed.

        Also the run's warm-up: it leaves byte-code and file caches as every
        later operation finds them.
        """
        out = self.fresh("reference").with_suffix(".json")
        report = self.cli(self.run_argv(out))
        if report is None:
            raise SystemExit(1)
        self.reference_records = out.read_bytes()
        return self.reference_records, report

    def check_records(self, path: Path, what: str) -> None:
        if not path.is_file() or path.read_bytes() != self.reference_records:
            self.fail(f"{what}: records differ from the plain run --json of seed {self.seed}")

    def check_paper_shape(self) -> None:
        """On the default seed, each language's top model must match the paper's."""
        from repro.codex.config import DEFAULT_SEED
        from repro.core.compare import compare_to_paper
        from repro.core.runner import ResultSet
        from repro.models.languages import language_names

        if self.seed == DEFAULT_SEED:
            records = json.loads(self.reference_records)
        else:
            out = self.fresh("paper").with_suffix(".json")
            if self.cli(self.run_argv(out, seed=DEFAULT_SEED)) is None:
                return
            records = json.loads(out.read_text())
        results = ResultSet.from_payload(records, seed=DEFAULT_SEED)
        for language in language_names():
            comparison = compare_to_paper(results, language)
            if not comparison.top_model_agrees:
                self.fail(
                    f"paper shape: {language} top model {comparison.top_model} "
                    f"!= paper's {comparison.paper_top_model}"
                )

    def store_entries(self, path: Path, kind: str) -> int:
        if kind == "verdict":
            from repro.analysis.store import VerdictStore as Store
        else:
            from repro.dispatch.store import ResultStore as Store
        return Store(path).stats()["entries"]

    # -- timed loop -----------------------------------------------------------
    def loop(self, operation) -> None:
        """Closed loop: ``operation()`` back to back for ``--seconds``."""
        deadline = time.perf_counter() + self.seconds
        done = 0
        while done < MIN_OPS or time.perf_counter() < deadline:
            operation()
            done += 1

    def add_times(self, times: dict, calibration_s: float) -> None:
        """Record one operation's times, raw and scaled to the nominal machine.

        The calibration runs after each operation, so the one after the
        previous operation is the nearest before this one: the two together
        bracket it, and their mean sets the scale.
        """
        calibrations = self.samples["calibration_s"]
        bracket = calibration_s if not calibrations else (calibrations[-1] + calibration_s) / 2
        scale = NOMINAL_CALIBRATION_S / bracket
        calibrations.append(calibration_s)
        for name, seconds in times.items():
            self.samples[f"raw.{name}"].append(seconds)
            self.samples[name].append(seconds * scale)

    def add_process_samples(self, report: dict) -> None:
        self.add_times(
            {name: report[name] for name in ("setup_s", "wall_s", "run_s")},
            report["calibration_s"],
        )
        rss = report["rss_mb"]
        self.samples["peak_rss_mb"].append(max(rss["self"], rss["children"]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def cold_run(bench: Bench) -> None:
    """Fresh ``run --json`` processes on the stock grid, no store."""
    records, report = bench.reference()
    bench.cells = len(json.loads(records))
    bench.expect_counts("cold_run", report["counts"])
    bench.check_paper_shape()

    def operation() -> None:
        out = bench.fresh("cold").with_suffix(".json")
        report = bench.cli(bench.run_argv(out))
        if report is not None:
            bench.check_records(out, "cold_run")
            bench.expect_counts("cold_run", report["counts"])
            bench.add_process_samples(report)

    bench.loop(operation)


def seed_sweep(bench: Bench) -> None:
    """One long-lived session sweeping consecutive seeds on the extended grid."""
    records, _ = bench.reference()
    stock = {(r["model"], r["kernel"], r["use_postfix"]): r["score"] for r in json.loads(records)}
    seeds = [bench.seed + offset for offset in range(SWEEP_SEEDS)]
    for _ in range(SETUP_PROBES):
        probe = bench.spawn({"mode": "setup", "seeds": seeds})
        if probe is not None:
            bench.add_times({"setup_s": probe["setup_s"]}, probe["calibration_s"])
    payload_path = bench.fresh("sweep").with_suffix(".json")
    report = bench.spawn(
        {
            "mode": "sweep",
            "seeds": seeds,
            "seconds": bench.seconds,
            "min_ops": MIN_OPS,
            "payload": str(payload_path),
        }
    )
    if report is None:
        return
    bench.add_times({"setup_s": report["setup_s"]}, report["calibration_s"])
    ops = report["ops"]
    bench.attempted += len(ops)
    # The payload file holds the untimed first sweep's summary.
    digest = hashlib.sha256(payload_path.read_bytes()).hexdigest()
    for op in ops:
        if op["digest"] != digest:
            bench.fail("seed_sweep: summary differs between identical sweeps")
        bench.expect_counts("seed_sweep", {"cells": op["cells"]})
        bench.add_times({"wall_s": op["wall_s"], "run_s": op["run_s"]}, op["calibration_s"])
    bench.cells = ops[0]["cells"]
    rss = report["rss_mb"]
    bench.samples["peak_rss_mb"].append(rss["self"])
    summary = json.loads(payload_path.read_text())
    if ops[0]["cells"] != len(summary["cells"]) * len(seeds):
        bench.fail("seed_sweep: not every cell was evaluated for every seed")
    matched = 0
    for cell in summary["cells"]:
        key = (cell["model"], cell["kernel"], cell["use_postfix"])
        if key in stock:
            matched += 1
            if cell["scores"][0] != stock[key]:
                bench.fail(f"seed_sweep: {key} scores {cell['scores'][0]}, run --json {stock[key]}")
    if matched != len(stock):
        bench.fail(f"seed_sweep: {matched} of {len(stock)} stock cells in the sweep")


def store_warm(bench: Bench) -> None:
    """The same command against a populated store: reads only, executes nothing."""
    records, _ = bench.reference()
    bench.cells = len(json.loads(records))
    store = bench.fresh("store")
    out = bench.fresh("populate").with_suffix(".json")
    if bench.cli(bench.run_argv(out, store=store)) is None:
        return
    bench.check_records(out, "store_warm populate")
    entries = bench.store_entries(store, "verdict")

    def operation() -> None:
        out = bench.fresh("warm").with_suffix(".json")
        report = bench.cli(bench.run_argv(out, store=store))
        if report is not None:
            bench.check_records(out, "store_warm")
            if report["counts"]["sandbox.executions"] != 0:
                bench.fail("store_warm: the warm phase executed sandboxes")
            hits = [line for line in report["stderr"].splitlines() if " hits=" in line]
            counts = dict(report["counts"], hits=hits[-1].split(" hits=")[1] if hits else None)
            counts["entries"] = bench.store_entries(store, "verdict")
            bench.expect_counts("store_warm", counts)
            bench.add_process_samples(report)

    bench.loop(operation)
    if bench.store_entries(store, "verdict") != entries:
        bench.fail("store_warm: the warm phase wrote to the store")


def dispatch_process(bench: Bench) -> None:
    """``dispatch --backend process --workers 2 --shards 4`` into a fresh result store."""
    records, _ = bench.reference()
    bench.cells = len(json.loads(records))

    def operation() -> None:
        result_store = bench.fresh("results")
        out = bench.fresh("dispatch").with_suffix(".json")
        report = bench.cli(bench.dispatch_argv(out, result_store))
        if report is not None:
            bench.check_records(out, "dispatch_process")
            entries = bench.store_entries(result_store, "result")
            bench.expect_counts("dispatch_process", dict(report["counts"], shards=entries))
            bench.add_process_samples(report)
        shutil.rmtree(result_store, ignore_errors=True)

    bench.loop(operation)


WORKLOADS = {
    "cold_run": cold_run,
    "seed_sweep": seed_sweep,
    "store_warm": store_warm,
    "dispatch_process": dispatch_process,
}


# ---------------------------------------------------------------------------
# traced suite
# ---------------------------------------------------------------------------


def import_times(bench: Bench) -> dict[str, float] | None:
    """``import.<group>_s`` from ``-X importtime`` of the CLI in a fresh interpreter."""
    bench.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.harness.cli"],
            cwd=ROOT,
            env=bench.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        bench.fail(f"import probe timed out after {CHILD_TIMEOUT}s")
        return None
    if proc.returncode != 0:
        bench.fail(f"import probe exited {proc.returncode}")
        return None
    groups: dict[str, float] = defaultdict(float)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        parts = name.split(".")
        if parts[0] == "repro":
            group = parts[1] if len(parts) > 1 and parts[1] in IMPORT_GROUPS else "repro"
        elif parts[0] == "numpy":
            group = "numpy"
        else:
            group = "other"
        groups[group] += int(self_us) / 1e6
    out = {f"import.{group}_s": seconds for group, seconds in groups.items()}
    out["import.total_s"] = sum(groups.values())
    return out


def trace_suite(bench: Bench) -> None:
    """Traced in-process forms of the workloads' operations, round after round.

    Each round traces one cold ``run --json`` (next to an untraced one, for
    the overhead ratio), one store populate and one warm read of the same
    store, one process dispatch (its parent only) and one import probe.  The
    per-layer metric of each layer comes from the operation that exercises
    it; the README maps each to the end-to-end metric it should move.
    """
    bench.reference()
    bench.check_paper_shape()
    deadline = time.perf_counter() + bench.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        trace_round(bench)


def traced_op(bench: Bench, name: str, argv: list[str], out: Path, **extra) -> dict | None:
    """One traced operation: records checked, self times summed, ``trace.<name>.run_s``."""
    report = bench.traced(argv, name, **extra)
    if report is None:
        return None
    bench.check_records(out, f"traced {name}")
    layers = sum(report["self_s"].values())
    if abs(layers - report["run_s"]) > 1e-6 * max(1.0, report["run_s"]):
        bench.fail(f"traced {name}: self times sum to {layers}, run_s is {report['run_s']}")
    bench.samples[f"trace.{name}.run_s"].append(report["run_s"])
    return report


def trace_round(bench: Bench) -> None:
    samples = bench.samples
    untraced = bench.cli(bench.run_argv(bench.fresh("untraced").with_suffix(".json")))
    out = bench.fresh("traced").with_suffix(".json")
    cold = traced_op(bench, "cold_run", bench.run_argv(out), out)
    if cold is not None:
        if untraced is not None:
            samples["trace.overhead_ratio"].append(cold["run_s"] / untraced["run_s"])
        samples["other.self_s"].append(cold["self_s"].get(tracing.ROOT_SPAN, 0.0))
        for layer in COLD_LAYERS:
            samples[f"{layer}.self_s"].append(cold["self_s"].get(layer, 0.0))
        counts = cold["counts"]
        bench.expect_counts("trace", {
            name: counts.get(name, 0)
            for name in [f"{layer}.calls" for layer in COLD_LAYERS]
            + ["sandbox.executions", "sandbox.lockstep.launches", "sandbox.lockstep.fallbacks",
               "sandbox.cuda_parse.unique_sources", "analysis.suggestions"]
        })
        for name in ("analysis.store.get.calls", "analysis.store.put.calls"):
            if counts.get(name):
                bench.fail(f"traced cold run called {name} {counts[name]} time(s)")

    store = bench.fresh("store")
    out = bench.fresh("populate").with_suffix(".json")
    populate = traced_op(bench, "store_populate", bench.run_argv(out, store=store), out)
    if populate is not None:
        counts = populate["counts"]
        samples["analysis.store.put.self_s"].append(populate["self_s"].get("analysis.store.put", 0.0))
        # Every memo miss consults the store, so store lookups count the misses.
        misses = counts.get("analysis.store.get.calls", 0)
        bench.expect_counts("trace", {
            "analysis.store.put.calls": counts.get("analysis.store.put.calls", 0),
            "analysis.memo_hit_ratio": 1.0 - misses / counts["analysis.suggestions"],
        })
    out = bench.fresh("warm").with_suffix(".json")
    warm = traced_op(bench, "store_warm", bench.run_argv(out, store=store), out)
    if warm is not None:
        counts = warm["counts"]
        if counts["sandbox.executions"] != 0:
            bench.fail("traced store_warm: the warm phase executed sandboxes")
        calls = counts.get("analysis.store.get.calls", 0)
        samples["analysis.store.get.self_s"].append(warm["self_s"].get("analysis.store.get", 0.0))
        bench.expect_counts("trace", {
            "analysis.store.get.calls": calls,
            "analysis.store.get.hit_ratio": counts.get("analysis.store.get.hits", 0) / max(calls, 1),
        })
    shutil.rmtree(store, ignore_errors=True)

    result_store = bench.fresh("results")
    out = bench.fresh("dispatch").with_suffix(".json")
    argv = bench.dispatch_argv(out, result_store)
    dispatch = traced_op(bench, "dispatch_process", argv, out, dispatch=True)
    if dispatch is not None:
        shard_seconds = dispatch["shard_seconds"]
        if shard_seconds:
            samples["dispatch.shard.latency_s"].append(statistics.median(shard_seconds))
        for layer in ("dispatch.driver", "dispatch.result_store.put", "dispatch.merge"):
            samples[f"{layer}.self_s"].append(dispatch["self_s"].get(layer, 0.0))
        bench.expect_counts("trace", {"dispatch.shards": len(shard_seconds)})
    shutil.rmtree(result_store, ignore_errors=True)

    imports = import_times(bench)
    for name, seconds in (imports or {}).items():
        samples[name].append(seconds)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        cut = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
        if sum(1 for value in ordered if value > cut) >= 10:
            return pct, cut
    return None


def git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness" / "cli.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    # For the checks only; every measured operation runs in a child process.
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.seed, args.seconds)
    try:
        (trace_suite if args.trace else WORKLOADS[args.workload])(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    if args.trace:
        values = {name: statistics.median(v) for name, v in bench.samples.items() if v}
        values.update(
            (key.split(":", 1)[1], value)
            for key, value in bench.counts.items()
            if key.startswith("trace:")
        )
    else:
        values = {name: statistics.median(v) for name, v in bench.samples.items() if v}
        if "run_s" in values:
            values["cells_per_s"] = bench.cells / values["run_s"]
    metrics, sample_counts, tails = {}, {}, {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            bench.fail(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        samples = bench.samples.get("run_s" if name == "cells_per_s" else name, [])
        sample_counts[name] = len(samples) or 1
        line = f"{name:40s} {values[name]:>14.6g} {metric['unit']:6s} "
        if not samples:
            line += "(exact count)"
        elif args.trace or name == "peak_rss_mb":
            line += f"(median of {len(samples)})"
        elif name == "cells_per_s":
            line += f"(cells / median run_s, {len(samples)} samples)"
        else:
            raw = statistics.median(bench.samples[f"raw.{name}"])
            line += f"(median of {len(samples)}; unscaled {raw:.6g})"
            tail = tail_percentile(samples)
            if tail is not None:
                tails[f"{name}.p{tail[0]}"] = tail[1]
                line += f"  {name}.p{tail[0]}={tail[1]:.6g}"
        print(line)
    failed = len(bench.failures)
    print(f"fail_ratio {failed}/{bench.attempted}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_head": git_head(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "metrics": metrics,
        "samples": dict(bench.samples),
        "sample_counts": sample_counts,
        "tail_percentiles": tails,
        "exact_counts": bench.counts,
        "attempted": bench.attempted,
        "failed": failed,
        "fail_ratio": failed / max(bench.attempted, 1),
        "failures": bench.failures,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    mode = "trace" if args.trace else "e2e"
    (records / f"{args.workload}-{mode}-seed{args.seed}-{stamp}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

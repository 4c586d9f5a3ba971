"""Outside-in span tracer for the benchmark's traced runs.

The tracer times calls into each layer's public functions by replacing the
attribute their callers look up (a module global or a class attribute) with
a wrapper that records a span: name, start, end and the index of the
enclosing span.  Nothing under ``src/`` changes; the wrappers live only in
the process that installed them.  Spans stay in memory and are written out
once, at the end, as a Chrome trace-event file.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans, so the self times of all layers plus the self
time of the root span add up to the root span's duration exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT_SPAN = "run"


class Tracer:
    """In-memory span recorder; one per traced process (single-threaded)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(args, result)`` runs after each call, outside the span, to
        count what the call did (hits, distinct inputs).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapper)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """``({span name: self seconds}, {span name: calls})``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child_time in zip(self.spans, covered):
            self_s[name] += (end - start) - child_time
            calls[name] += 1
        return dict(self_s), calls

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a complete ("X") event of the trace-event format."""
        origin = self.spans[0][1] if self.spans else 0.0
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def install_evaluation_layers(tracer: Tracer, facts: Counter, sources: set) -> None:
    """Wrap the entry points of sampling, analysis, sandbox, store and output.

    ``facts`` receives call-level counts the spans cannot give (suggestions
    analyzed, store hits); ``sources`` the digests of parsed CUDA sources.
    """
    import repro.analysis.analyzer as analyzer
    import repro.codex.sampler as sampler
    import repro.core.evaluator as evaluator
    import repro.harness.cli as cli
    import repro.sandbox as sandbox
    import repro.sandbox.cuda_c.interpreter as interpreter
    from repro.analysis import clike, fortranlang, hazards, julialang, pythonlang
    from repro.analysis.store import VerdictStore
    from repro.codex.engine import SimulatedCodex

    def count_suggestions(args, result) -> None:
        facts["analysis.suggestions"] += len(args[1])

    def count_source(args, result) -> None:
        sources.add(hashlib.sha256(args[0].encode("utf-8")).hexdigest())

    def count_store_hit(args, result) -> None:
        facts["analysis.store.get.hits"] += result is not None

    tracer.wrap(SimulatedCodex, "complete", "codex.complete")
    tracer.wrap(sampler, "apply_mutation", "corpus.apply_mutation")
    tracer.wrap(
        analyzer.SuggestionAnalyzer, "analyze_batch", "analysis.analyzer", count_suggestions
    )
    tracer.wrap(analyzer, "detect_models", "analysis.detect_models")
    for module in (clike, fortranlang, julialang):
        layer = f"analysis.{module.__name__.rsplit('.', 1)[1]}"
        tracer.wrap(module, "check_structure", layer)
        tracer.wrap(module, "check_kernel_semantics", layer)
    tracer.wrap(pythonlang, "check_structure", "analysis.pythonlang")
    tracer.wrap(pythonlang, "undefined_call_names", "analysis.pythonlang")
    tracer.wrap(hazards, "static_findings_for", "analysis.hazards")
    tracer.wrap(hazards, "parse_cuda_source", "sandbox.cuda_parse", count_source)
    tracer.wrap(interpreter, "parse_cuda_source", "sandbox.cuda_parse", count_source)
    tracer.wrap(sandbox, "evaluate_python_suggestions", "sandbox.evaluate_python_suggestions")
    tracer.wrap(VerdictStore, "get", "analysis.store.get", count_store_hit)
    tracer.wrap(VerdictStore, "put", "analysis.store.put")
    tracer.wrap(evaluator, "classify_verdicts", "core.classify_verdicts")
    tracer.wrap(cli, "save_records_json", "harness.save_records_json")


def install_dispatch_layers(tracer: Tracer, shard_seconds: list) -> None:
    """Wrap the dispatch driver, shard-result store and merge of the parent.

    Workers are separate processes and stay untraced; the public ``on_shard``
    callback, passed in at the ``Session.dispatch`` seam the CLI calls,
    collects each shard's worker-measured evaluation seconds instead.
    """
    from repro.api.session import Session
    from repro.api.spec import IncrementalMerge
    from repro.dispatch.store import ResultStore

    dispatch = Session.dispatch

    def dispatch_with_on_shard(self, *args, **kwargs):
        kwargs["on_shard"] = lambda outcome: shard_seconds.append(outcome.seconds)
        return dispatch(self, *args, **kwargs)

    Session.dispatch = dispatch_with_on_shard
    tracer.wrap(Session, "dispatch", "dispatch.driver")
    tracer.wrap(ResultStore, "put", "dispatch.result_store.put")
    tracer.wrap(IncrementalMerge, "add", "dispatch.merge")
    tracer.wrap(IncrementalMerge, "merged", "dispatch.merge")

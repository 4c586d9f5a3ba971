"""Command-line interface: ``repro-hpc-codex``.

Sub-commands
------------

``run``        Evaluate the full Table 1 grid, print every table/figure and
               optionally write the per-cell records to CSV/JSON.
``sweep``      Run the grid over several seeds (``--seeds 1 2 3``) and print
               each cell's mean score with a content-keyed bootstrap
               confidence interval; ``--json`` writes the summary payload.
``table N``    Reproduce Table N (2-5) and print it next to the paper values.
``figure N``   Reproduce Figure N (2-6).
``ablation X`` Run one of the ablations (``keywords``, ``maturity``,
               ``suggestions``).
``compare``    Print the shape-agreement summary for every language.
``prompt``     Show the suggestions generated for a single prompt (debugging
               / exploration aid).
``shard``      Evaluate one shard of the experiment grid and emit a JSON
               payload (manifest entry + records) for a later ``merge``.
``merge``      Validate shard payloads for completeness/consistency and merge
               them into the records of the unsharded run, byte-identically.
``dispatch``   Partition the grid, dispatch the shards to a worker backend
               (``inline``, ``process`` or ``file-queue``), stream the
               merge, and — with ``--result-store`` — resume any earlier
               killed run instead of re-executing its finished shards.  The
               merged ``--json`` output is byte-identical to ``run --json``.
               Failing shards are retried (``--max-attempts``) and then
               quarantined; ``--allow-partial`` merges the survivors of a
               degraded run (exit 4) instead of refusing (exit 3).
``dispatch-worker``
               Drain shard tasks from a ``file-queue`` directory: run this
               on any host that mounts the queue to contribute cycles to a
               ``dispatch --backend file-queue``.  ``--poll SECONDS`` keeps
               the worker waiting (with backoff) for late-published tasks.
``serve``      Run the long-lived evaluation service: a JSON-RPC 2.0 server
               (newline-delimited JSON over TCP) accepting ``submit`` from
               many concurrent clients and streaming per-cell ``progress``
               and per-shard ``shard`` events as evaluation lands.  See
               ``docs/protocol.md`` for the wire format and
               ``python -m repro.service.client`` for the matching client.
``lint``       Run the CUDA-C static hazard analyzer over the corpus'
               embedded kernels and print the per-kernel findings
               (``--mutations`` adds the mutated variants, where the
               hazards live; ``--hazards-only`` filters the listing).
``cache``      Inspect (``stats``), empty (``clear``) or evict stale/aged
               entries from (``compact``) a persistent store — the verdict
               store by default, the shard-result store with
               ``--result-store [PATH]``.
``cache-server``
               Serve a shared remote cache over HTTP: content-addressed
               GET/PUT under ``/v1/<namespace>/<digest>``.  Every store
               pointed at it (global ``--cache-url URL``, or
               ``$REPRO_CACHE_URL``) reads through a local cache and
               publishes fresh entries back, so a fleet computes each
               verdict/shard once.  An unreachable server degrades to
               recompute; ``$REPRO_CACHE_READONLY`` makes stores consume
               a cache without ever writing (the CI knob).

Every command drives a :class:`repro.api.Session`; a two-machine split of
the full grid looks like::

    repro-hpc-codex shard --index 0 --of 2 --out part0.json   # machine A
    repro-hpc-codex shard --index 1 --of 2 --out part1.json   # machine B
    repro-hpc-codex merge part0.json part1.json --json full.json

or, letting the driver do the partitioning, merging and crash recovery::

    repro-hpc-codex dispatch --shards 8 --backend file-queue \\
        --queue /mnt/shared/q --result-store /mnt/shared/results --json full.json
    repro-hpc-codex dispatch-worker --queue /mnt/shared/q   # any other host

The global ``--verdict-store PATH`` flag (``auto`` = default cache location)
attaches the persistent verdict cache: evaluation commands then consult and
populate it, so a warm re-run — any process, any backend — performs zero
sandbox executions and prints a ``verdict store: ... hits=N`` summary on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from repro.codex.config import DEFAULT_SEED
from repro.codex.engine import SimulatedCodex
from repro.codex.prompt import Prompt
from repro.core.compare import compare_to_paper
from repro.core.evaluator import PromptEvaluator
from repro.harness.io import save_records_csv, save_records_json
from repro.harness.tables import TABLE_LANGUAGES
from repro.models.grid import ExperimentCell
from repro.models.languages import get_language, language_names

__all__ = ["main", "build_parser"]


def _at_least(kind: type, low, *, exclusive: bool = False):
    """An argparse ``type=`` that converts to ``kind`` and turns a value
    below ``low`` (or equal to it, when ``exclusive``) into a usage error."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > low if exclusive else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if exclusive else '>='} {low}, got {text}"
            )
        return value

    return convert


_POSITIVE_INT = _at_least(int, 1)
_POSITIVE_FLOAT = _at_least(float, 0, exclusive=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hpc-codex",
        description="Reproduction harness for 'Evaluation of OpenAI Codex for HPC Parallel "
        "Programming Models Kernel Generation' (Godoy et al., ICPP-W 2023)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="experiment seed")
    parser.add_argument(
        "--backend",
        # repro.api.session.BACKENDS, spelled out so that building the
        # parser does not import the api layer.
        choices=["serial", "process"],
        default="serial",
        help="evaluate in this process (serial) or over a worker-process pool through "
        "the dispatch driver (process); results are identical across backends",
    )
    parser.add_argument(
        "--verdict-store",
        default=None,
        metavar="PATH",
        help="attach the persistent cross-process verdict cache at PATH; pass 'auto' "
        "for the default location ($REPRO_VERDICT_STORE or ~/.cache/repro-hpc-codex/verdicts)",
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="shared cache-server every store reads through and publishes to "
        "(sets $REPRO_CACHE_URL, so subprocess workers inherit it); an "
        "unreachable server degrades to recompute",
    )
    parser.add_argument(
        "--extended-grid",
        action="store_true",
        help="install the extension grid before running the command: the scan and "
        "histogram kernel families plus the python.kokkos model (docs/extending.md); "
        "stock cells keep their exact random streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate the full grid and print all artefacts")
    run.add_argument("--csv", type=str, default=None, help="write per-cell records to this CSV file")
    run.add_argument("--json", type=str, default=None, help="write per-cell records to this JSON file")

    sweep = sub.add_parser(
        "sweep", help="multi-seed statistical sweep: mean and bootstrap CI per cell"
    )
    sweep.add_argument(
        "--seeds", type=int, nargs="+", required=True, help="seeds to sweep over"
    )
    sweep.add_argument(
        "--languages", nargs="+", default=None, help="restrict the grid to these languages"
    )
    sweep.add_argument(
        "--confidence", type=float, default=0.95, help="CI level (default 0.95)"
    )
    sweep.add_argument(
        "--resamples", type=int, default=1000, help="bootstrap resamples (default 1000)"
    )
    sweep.add_argument(
        "--json", type=str, default=None, help="write the summary payload to this JSON file"
    )

    table = sub.add_parser("table", help="reproduce one of Tables 2-5")
    table.add_argument("number", type=int, choices=sorted(TABLE_LANGUAGES))

    figure = sub.add_parser("figure", help="reproduce one of Figures 2-6")
    figure.add_argument("number", type=int, choices=[2, 3, 4, 5, 6])

    ablation = sub.add_parser("ablation", help="run one of the ablation studies")
    ablation.add_argument("name", choices=["keywords", "maturity", "suggestions"])

    sub.add_parser("compare", help="print the shape-agreement summary per language")

    prompt = sub.add_parser("prompt", help="show the suggestions for a single prompt")
    prompt.add_argument("kernel", help="kernel name (axpy, gemv, gemm, spmv, jacobi, cg)")
    prompt.add_argument("model", help="programming model uid, e.g. cpp.openmp")
    prompt.add_argument("--keyword", action="store_true", help="append the language post-fix keyword")

    shard = sub.add_parser(
        "shard", help="evaluate one shard of the grid and emit its JSON payload"
    )
    shard.add_argument("--index", type=int, required=True, help="shard index, 0-based")
    shard.add_argument("--of", type=int, required=True, help="number of shards the grid is split into")
    shard.add_argument(
        "--languages", nargs="+", default=None, help="restrict the grid to these languages"
    )
    shard.add_argument(
        "--kernels", nargs="+", default=None, help="restrict the grid to these kernels"
    )
    shard.add_argument(
        "--out", type=str, default="-", help="payload output path ('-' = stdout, the default)"
    )

    merge = sub.add_parser(
        "merge", help="validate shard payloads and merge them into the full records"
    )
    merge.add_argument(
        "parts", nargs="*", help="shard payload files (none or '-': read one payload/list from stdin)"
    )
    merge.add_argument("--csv", type=str, default=None, help="write merged records to this CSV file")
    merge.add_argument(
        "--json", type=str, default=None, help="write merged records to this JSON file ('-' = stdout)"
    )

    dispatch = sub.add_parser(
        "dispatch",
        help="partition the grid, dispatch shards to workers, and merge the stream",
    )
    dispatch.add_argument(
        "--shards", type=_POSITIVE_INT, default=4, help="contiguous slices per seed (default 4)"
    )
    dispatch.add_argument(
        "--backend",
        dest="dispatch_backend",
        choices=["inline", "process", "file-queue"],
        default="inline",
        help="worker backend shards are dispatched to (default inline)",
    )
    dispatch.add_argument(
        "--result-store",
        default=None,
        metavar="PATH",
        help="persist completed shard payloads at PATH so a killed run resumes; "
        "pass 'auto' for the default location ($REPRO_RESULT_STORE or "
        "~/.cache/repro-hpc-codex/results)",
    )
    dispatch.add_argument(
        "--queue", default=None, metavar="DIR", help="queue directory (file-queue backend)"
    )
    dispatch.add_argument(
        "--workers",
        type=_POSITIVE_INT,
        default=None,
        help="worker processes of the process backend, each owning whole languages, or "
        "contiguous runs of one, of the shards (default: one per core, at most 8, at most "
        "one per shard)",
    )
    dispatch.add_argument(
        "--max-attempts",
        type=_POSITIVE_INT,
        default=None,
        metavar="N",
        help="failed attempts before a shard is quarantined (default 3)",
    )
    dispatch.add_argument(
        "--shard-timeout",
        type=_POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="kill a process-backend worker whose current piece (one shard's cells of "
        "one language) exceeds this wall clock, restarting for each piece, and retry "
        "the piece's shard whole (counts as one failed attempt)",
    )
    dispatch.add_argument(
        "--heartbeat",
        type=_POSITIVE_FLOAT,
        default=None,
        metavar="SECONDS",
        help="file-queue claim-lease renewal interval (default 5; a claim is "
        "stale after 3 missed heartbeats)",
    )
    dispatch.add_argument(
        "--allow-partial",
        action="store_true",
        help="when shards were quarantined but nothing is pending, merge the "
        "surviving shards anyway and exit with status 4 (degraded) instead "
        "of refusing to merge",
    )
    dispatch.add_argument(
        "--languages", nargs="+", default=None, help="restrict the grid to these languages"
    )
    dispatch.add_argument(
        "--kernels", nargs="+", default=None, help="restrict the grid to these kernels"
    )
    dispatch.add_argument("--csv", type=str, default=None, help="write merged records to this CSV file")
    dispatch.add_argument(
        "--json", type=str, default=None, help="write merged records to this JSON file"
    )

    worker = sub.add_parser(
        "dispatch-worker", help="drain shard tasks from a file-queue directory"
    )
    worker.add_argument("--queue", required=True, metavar="DIR", help="queue directory to drain")
    worker.add_argument(
        "--max-tasks", type=int, default=None, metavar="N", help="evaluate at most N tasks"
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep polling (with backoff) until the queue has stayed empty this "
        "long, instead of exiting the moment it looks empty",
    )

    serve = sub.add_parser(
        "serve", help="run the long-lived JSON-RPC 2.0 evaluation service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=7349, help="TCP port (0 picks a free port; default 7349)"
    )
    serve.add_argument(
        "--shards", type=int, default=4, help="default shard count per experiment (default 4)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="bound of the request queue (queued + running experiments); a submit "
        "beyond it is refused with the queue-full error (default 8)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="concurrent experiment workers (default 2)"
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="failed attempts before a shard is quarantined (default 3)",
    )
    serve.add_argument(
        "--result-store",
        default=None,
        metavar="PATH",
        help="persist completed shard payloads at PATH so a restarted server "
        "resumes re-submitted specs with zero re-executed shards; 'auto' for "
        "the default location",
    )

    lint = sub.add_parser(
        "lint",
        help="static hazard findings for the corpus' embedded CUDA-C kernels",
    )
    lint.add_argument(
        "--kernel", default=None, help="restrict to one kernel family (axpy, gemv, ...)"
    )
    lint.add_argument(
        "--mutations",
        action="store_true",
        help="also lint the mutated corpus variants (where the hazards live)",
    )
    lint.add_argument(
        "--hazards-only",
        action="store_true",
        help="print only HAZARD findings (summary still counts everything)",
    )

    cache = sub.add_parser(
        "cache", help="inspect, clear or compact a persistent store"
    )
    cache.add_argument("action", choices=["stats", "clear", "compact"])
    cache.add_argument(
        "--result-store",
        dest="store",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="target the shard-result store instead of the verdict store; "
        "without PATH, the default location ($REPRO_RESULT_STORE or "
        "~/.cache/repro-hpc-codex/results)",
    )
    cache.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="compact only: also evict entries recorded longer ago than this "
        "(entries computed by other code are always evicted)",
    )

    cache_server = sub.add_parser(
        "cache-server", help="serve a shared remote cache over HTTP"
    )
    cache_server.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    cache_server.add_argument(
        "--port", type=int, default=7350, help="TCP port (0 picks a free port; default 7350)"
    )
    cache_server.add_argument(
        "--path",
        default=None,
        metavar="DIR",
        help="served directory (default $REPRO_CACHE_SERVER_ROOT or "
        "~/.cache/repro-hpc-codex/served)",
    )
    cache_server.add_argument(
        "--readonly",
        action="store_true",
        help="refuse PUT/DELETE (serve an existing cache verbatim)",
    )

    return parser


def _cmd_run(args: argparse.Namespace, session) -> int:
    from repro.api.session import figure_report, table_report

    results = session.full_results()
    for number in sorted(TABLE_LANGUAGES):
        report = table_report(results, number)
        print(report.text)
        print(report.summary_line())
        print()
    print(figure_report(results, 6).text)
    if args.csv:
        path = save_records_csv(results, args.csv)
        print(f"wrote {path}")
    if args.json:
        path = save_records_json(results, args.json)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace, session) -> int:
    summary = session.sweep_seeds(
        args.seeds,
        languages=args.languages,
        confidence=args.confidence,
        n_resamples=args.resamples,
    )
    print(
        f"sweep over seeds {list(summary.seeds)}: "
        f"{len(summary.cells)} cells, {summary.confidence:.0%} bootstrap CI "
        f"({summary.n_resamples} resamples)"
    )
    for stats in summary.cells:
        suffix = "+kw" if stats.use_postfix else ""
        scores = " ".join(f"{score:.2f}" for score in stats.scores)
        print(
            f"  {stats.model + ':' + stats.kernel + suffix:40s} "
            f"mean={stats.mean:.3f}  ci=[{stats.ci_low:.3f}, {stats.ci_high:.3f}]  "
            f"scores=[{scores}]"
        )
    print(f"grand mean of cell means: {summary.mean_of_means():.3f}")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary.to_payload(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_table(args: argparse.Namespace, session) -> int:
    report = session.table(args.number)
    print(report.text)
    print()
    print(report.summary_line())
    return 0


def _cmd_figure(args: argparse.Namespace, session) -> int:
    report = session.figure(args.number)
    print(report.text)
    print()
    print(report.summary_line())
    return 0


def _cmd_ablation(args: argparse.Namespace, session) -> int:
    report = session.ablation(args.name)
    print(report.text)
    return 0


def _cmd_compare(args: argparse.Namespace, session) -> int:
    results = session.full_results()
    for language in language_names():
        comparison = compare_to_paper(results, language)
        display = get_language(language).display_name
        print(
            f"{display:8s} rank-correlation={comparison.cell_rank_correlation:+.2f}  "
            f"within-one-level={comparison.within_one_level:.0%}  "
            f"mean-abs-diff={comparison.mean_absolute_difference:.2f}  "
            f"top-model={comparison.top_model} (paper: {comparison.paper_top_model})"
        )
    return 0


def _cmd_prompt(args: argparse.Namespace, session) -> int:
    model_uid = args.model.lower()
    language = model_uid.split(".", 1)[0]
    cell = ExperimentCell(
        language=language, model=model_uid, kernel=args.kernel.lower(), use_postfix=args.keyword
    )
    prompt = Prompt.from_cell(cell)
    engine = SimulatedCodex(seed=args.seed)
    evaluator = PromptEvaluator(engine=engine)
    result = evaluator.evaluate_cell(cell)
    print(prompt.describe())
    print(f"competence={result.competence:.2f}  score={result.score} ({result.level.label})")
    for idx, (suggestion, verdict) in enumerate(zip(result.suggestions, result.verdicts), start=1):
        print(f"--- suggestion {idx}: {verdict.summary()}")
        print(suggestion.rstrip())
    return 0


def _cmd_shard(args: argparse.Namespace, session) -> int:
    from repro.api.spec import ExperimentSpec, shard_payload

    spec = ExperimentSpec(
        seeds=(args.seed,),
        languages=None if args.languages is None else tuple(args.languages),
        kernels=None if args.kernels is None else tuple(args.kernels),
    )
    shard = spec.shard(args.index, args.of)
    results = session.run(shard)
    payload = json.dumps(shard_payload(shard, results), indent=2, sort_keys=True)
    if args.out == "-":
        print(payload)
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload + "\n")
        print(f"wrote shard {args.index}/{args.of} ({len(results)} cells) to {path}")
    return 0


def _cmd_merge(args: argparse.Namespace, session) -> int:
    from repro.api.spec import merge_shard_payloads

    payloads: list[dict] = []
    sources = args.parts or ["-"]
    for source in sources:
        loaded = json.loads(sys.stdin.read() if source == "-" else Path(source).read_text())
        payloads.extend(loaded if isinstance(loaded, list) else [loaded])
    merged = merge_shard_payloads(payloads)
    if len(merged) != 1:
        raise SystemExit(
            f"CLI merge expects shards of a single seed, got seeds {sorted(merged)}"
        )
    seed, results = next(iter(merged.items()))
    print(
        f"merged {len(payloads)} shard(s) -> {len(results)} cells "
        f"(seed {seed}, mean score {results.mean_score():.3f})"
    )
    if args.json:
        if args.json == "-":
            print(json.dumps(results.to_records(), indent=2, sort_keys=True))
        else:
            print(f"wrote {save_records_json(results, args.json)}")
    if args.csv:
        print(f"wrote {save_records_csv(results, args.csv)}")
    return 0


def _cmd_dispatch(args: argparse.Namespace, session) -> int:
    from repro.api.spec import ExperimentSpec
    from repro.dispatch.runners import shard_label
    from repro.dispatch.store import ResultStore

    spec = ExperimentSpec(
        seeds=(args.seed,),
        languages=None if args.languages is None else tuple(args.languages),
        kernels=None if args.kernels is None else tuple(args.kernels),
    )
    store = ResultStore.coerce(True if args.result_store == "auto" else args.result_store)
    report = session.dispatch(
        spec,
        shards=args.shards,
        backend=args.dispatch_backend,
        result_store=store,
        queue=args.queue,
        max_workers=args.workers,
        max_attempts=args.max_attempts,
        shard_timeout=args.shard_timeout,
        heartbeat_interval=args.heartbeat,
    )
    print(report.summary())
    if store is not None:
        # Stderr, like the verdict-store summary: piped output stays clean.
        print(
            f"result store: {store.path} shard-hits={len(report.skipped)} "
            f"shard-writes={store.writes}",
            file=sys.stderr,
        )
    for quarantine in report.quarantined:
        print(f"quarantined: {quarantine.describe()}", file=sys.stderr)
    if not report.complete:
        # Every shard settled, but some settled in quarantine: merge the
        # survivors only on an explicit --allow-partial, and even then exit
        # nonzero — degraded output must never look like a clean run.
        if not args.allow_partial:
            print(
                f"{len(report.quarantined)} shard(s) quarantined; pass "
                "--allow-partial to merge the surviving shards anyway",
                file=sys.stderr,
            )
            return 3
        results = report.results.get(args.seed)
        merged = 0 if results is None else len(results)
        print(
            f"merged {merged} cells from {len(report.outcomes)} surviving shard(s) "
            f"(--allow-partial; {len(report.quarantined)} quarantined)"
        )
        # Name the holes, not just their count: the ids below are what a
        # targeted re-dispatch or a queue post-mortem starts from.
        labels = ", ".join(shard_label(q.entry) for q in report.quarantined)
        print(f"degraded: quarantined shard(s) missing from the merge: {labels}", file=sys.stderr)
        if results is not None:
            if args.json:
                print(f"wrote {save_records_json(results, args.json)}")
            if args.csv:
                print(f"wrote {save_records_csv(results, args.csv)}")
        return 4
    results = report.result()
    print(f"merged {len(results)} cells (seed {args.seed}, mean score {results.mean_score():.3f})")
    if args.json:
        print(f"wrote {save_records_json(results, args.json)}")
    if args.csv:
        print(f"wrote {save_records_csv(results, args.csv)}")
    return 0


@contextlib.contextmanager
def _counted_in(session):
    """Add what the enclosed call evaluated in this process, on runners the
    session never sees (``drain_queue``'s, the service's), to the session's
    sandbox-execution and store-hit totals."""
    from repro.sandbox.executor import sandbox_execution_count

    store = session.verdict_store
    executions = sandbox_execution_count()
    hits = 0 if store is None else store.hits
    try:
        yield
    finally:
        session.sandbox_executions += sandbox_execution_count() - executions
        if store is not None:
            session.store_hits += store.hits - hits


def _cmd_dispatch_worker(args: argparse.Namespace, session) -> int:
    from repro.dispatch.queue import drain_queue

    with _counted_in(session):
        executed = drain_queue(
            args.queue,
            max_tasks=args.max_tasks,
            verdict_store=session.verdict_store,
            poll=args.poll,
        )
    print(f"dispatch-worker: evaluated {executed} task(s) from {args.queue}")
    return 0


def _cmd_serve(args: argparse.Namespace, session) -> int:
    import asyncio

    from repro.service.protocol import PROTOCOL_VERSION
    from repro.service.server import EvaluationServer

    server = EvaluationServer(
        args.host,
        args.port,
        shards=args.shards,
        queue_limit=args.queue_limit,
        workers=args.workers,
        max_attempts=args.max_attempts,
        result_store=True if args.result_store == "auto" else args.result_store,
        verdict_store=session.verdict_store,
    )

    async def _run() -> None:
        await server.start()
        # Printed after the bind so --port 0 reports the actual port; the
        # smoke jobs and humans alike scrape this line.
        print(
            f"serving JSON-RPC 2.0 on {server.host}:{server.port} "
            f"(protocol {PROTOCOL_VERSION})",
            flush=True,
        )
        if server.result_store is not None:
            print(f"result store: {server.result_store.path}", file=sys.stderr)
        await server.wait_closed()

    try:
        with _counted_in(session):
            asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args: argparse.Namespace, session) -> int:
    from collections import Counter

    from repro.analysis.hazards import static_findings_for
    from repro.corpus.store import default_corpus

    corpus = default_corpus(include_mutations=args.mutations)
    counts: Counter[str] = Counter()
    linted = 0
    for snippet in corpus:
        if snippet.language != "python":
            continue
        if args.kernel and snippet.kernel != args.kernel.lower():
            continue
        findings = static_findings_for(snippet.code, snippet.language, snippet.kernel)
        if not findings:
            continue
        linted += 1
        origin = snippet.mutation or snippet.origin.value
        shown = [
            f
            for f in findings
            if f["verdict"] == "HAZARD" or not args.hazards_only
        ]
        if shown:
            print(f"{snippet.kernel}/{snippet.label_model} [{origin}]")
        for finding in shown:
            where = f" buffer={finding['buffer']}" if finding.get("buffer") else ""
            line = f" line={finding['line']}" if finding.get("line") else ""
            print(
                f"  {finding['verdict']:7s} {finding['kind']}"
                f" kernel={finding['kernel']}{where}{line}  {finding['detail']}"
            )
        for finding in findings:
            counts[finding["verdict"]] += 1
    print(
        f"linted {linted} snippet(s): "
        + ", ".join(f"{verdict}={counts[verdict]}" for verdict in ("SAFE", "HAZARD", "UNKNOWN"))
    )
    return 0


def _print_store_stats(label: str, stats: dict) -> None:
    print(f"{label} {stats['path']}")
    for field in ("schema", "readonly", "entries", "segments", "bytes", "hits", "misses", "writes"):
        print(f"  {field:8s} {stats[field]}")
    backend = stats["backend"]
    layers = (
        [("local", backend["local"]), ("remote", backend["remote"])]
        if backend["kind"] == "tiered"
        else [(backend["kind"], backend)]
    )
    for name, counters in layers:
        print(
            f"  backend  {name}: gets={counters['gets']} get_hits={counters['get_hits']} "
            f"puts={counters['puts']} errors={counters['errors']} seconds={counters['seconds']}"
        )


def _cmd_cache(args: argparse.Namespace, session) -> int:
    from repro.analysis.store import VerdictStore, default_store_path
    from repro.dispatch.store import ResultStore

    if args.store is not None:
        # --result-store [PATH] targets the shard store; the flag itself is
        # the explicit decision, so no further guard is needed.
        store = ResultStore.coerce(True if args.store == "auto" else args.store)
        label = "result store"
    else:
        if args.action in ("clear", "compact") and session.verdict_store is None:
            # Deleting entries of the machine-wide default store must be an
            # explicit decision, not a forgotten-flag accident.
            raise SystemExit(
                f"cache {args.action} requires --verdict-store (pass 'auto' to "
                f"target the default store at {default_store_path()})"
            )
        store = session.verdict_store
        if store is None:
            store = VerdictStore(default_store_path())
        label = "verdict store"
    if args.action == "stats":
        _print_store_stats(label, store.stats())
        return 0
    try:
        if args.action == "compact":
            outcome = store.compact(max_age=args.max_age)
            print(
                f"compacted {store.path}: removed {outcome['removed_stale']} stale, "
                f"{outcome['removed_aged']} aged; kept {outcome['kept']}"
            )
            return 0
        removed = store.clear()
    except RuntimeError as exc:  # read-only mode refuses mutation
        raise SystemExit(str(exc)) from exc
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from {store.path}")
    return 0


def _cmd_cache_server(args: argparse.Namespace, session) -> int:
    from repro.analysis.store import _default_cache_path
    from repro.cache.server import CacheServer

    root = args.path or _default_cache_path("REPRO_CACHE_SERVER_ROOT", "served")
    server = CacheServer(root, host=args.host, port=args.port, readonly=args.readonly)
    # Printed after the bind so --port 0 reports the actual port; the smoke
    # jobs and humans alike scrape this line.
    suffix = ", read-only" if server.readonly else ""
    print(f"serving cache on {server.url} (path {server.root}{suffix})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "ablation": _cmd_ablation,
        "compare": _cmd_compare,
        "prompt": _cmd_prompt,
        "shard": _cmd_shard,
        "merge": _cmd_merge,
        "dispatch": _cmd_dispatch,
        "dispatch-worker": _cmd_dispatch_worker,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
        "cache-server": _cmd_cache_server,
    }
    from repro.api.session import Session

    if args.cache_url:
        # Through the environment on purpose: process-backend workers,
        # dispatch workers and the serve service all rebuild stores from a
        # bare path and pick the remote tier up from $REPRO_CACHE_URL.
        from repro.cache.backends import ENV_REMOTE_URL

        os.environ[ENV_REMOTE_URL] = args.cache_url
    if args.extended_grid:
        from repro.extensions import install_extended_grid

        install_extended_grid()
    verdict_store = True if args.verdict_store == "auto" else args.verdict_store
    with Session(seed=args.seed, backend=args.backend, verdict_store=verdict_store) as session:
        status = handlers[args.command](args, session)
        if session.verdict_store is not None and args.command not in ("cache", "cache-server"):
            # Stderr so piped payloads (shard --out -, merge --json -) stay
            # clean; only O(1) counters — `cache stats` rescans the segments.
            print(
                f"verdict store: {session.verdict_store.path} "
                f"hits={session.store_hits} sandbox-executions={session.sandbox_executions}",
                file=sys.stderr,
            )
        return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""repro.api — the supported public surface of the reproduction.

Everything downstream code needs lives here (reference: ``docs/api.md``;
layering and determinism contract: ``docs/architecture.md``):

* :class:`Session` — context-managed façade owning the serial or process
  evaluation backend, progress callbacks and the optional persistent
  verdict store (``session.table(2)``, ``session.figure(4)``,
  ``session.ablation("keywords")``, ``session.run(spec)``,
  ``session.sweep(seeds=[...])``, ``session.run_everything()``), each
  evaluating what it is asked and returning an :class:`ExperimentReport`
  or a fresh :class:`~repro.core.runner.ResultSet` the caller owns.
* :func:`table_report` / :func:`figure_report` — render a paper table or
  figure from a ``ResultSet`` the caller holds, so one evaluated grid
  serves every artefact.
* :class:`ExperimentSpec` / :class:`Shard` / :class:`ShardManifest` — the
  declarative, shardable description of a run and the manifest that
  validates partial results before merging.
* :meth:`Session.sweep_seeds` / :func:`~repro.api.sweep.summarize_sweep` —
  multi-seed statistical sweeps reporting mean and content-keyed bootstrap
  CI per cell (:class:`~repro.api.sweep.SweepSummary`).
* :class:`~repro.core.runner.ResultSet` (re-exported) with
  :meth:`~repro.core.runner.ResultSet.merge` and the
  ``to_payload``/``from_payload`` JSON round trip.
* :class:`~repro.analysis.store.VerdictStore` — the on-disk, cross-process
  verdict cache (``Session(verdict_store=...)``, CLI ``--verdict-store`` /
  ``cache`` subcommand) that makes warm re-runs skip sandbox execution
  entirely.
* The shard payload helpers behind the ``repro shard`` / ``repro merge``
  CLI subcommands, plus :class:`IncrementalMerge` for folding shards in as
  they complete.
* :meth:`Session.dispatch` / :class:`~repro.dispatch.ShardDriver` — the
  resumable distributed driver (re-exported from :mod:`repro.dispatch`)
  with its shard-level :class:`~repro.dispatch.ResultStore`: completed
  shard payloads survive the process, so a killed run resumes instead of
  recomputing, and a complete dispatch is byte-identical to ``run --json``.

Example — declare a run, shard it, and open a session:

>>> from repro.api import ExperimentSpec, Session
>>> spec = ExperimentSpec(seeds=(7,), languages=("julia",))
>>> len(spec.cells())
24
>>> [len(shard) for shard in spec.partition(3)]
[8, 8, 8]
>>> spec.shard(1, 3).entry().seed
7
>>> with Session(seed=7) as session:
...     session.backend
'serial'
"""

from __future__ import annotations

from repro.analysis.store import VerdictStore, default_store_path
from repro.core.runner import RecordResult, ResultSet

from repro.api.session import ExperimentReport, Session, figure_report, table_report
from repro.api.spec import (
    SHARD_FORMAT,
    ExperimentSpec,
    IncrementalMerge,
    Shard,
    ShardEntry,
    ShardManifest,
    load_shard_payload,
    merge_shard_parts,
    merge_shard_payloads,
    shard_payload,
)

#: Names re-exported lazily from :mod:`repro.dispatch` (PEP 562): the
#: dispatch layer imports ``repro.api.spec``, so importing it eagerly here
#: would be circular whenever ``repro.dispatch`` is imported first.
_DISPATCH_EXPORTS = frozenset(
    {
        "DISPATCH_BACKENDS",
        "DispatchReport",
        "ResultStore",
        "ShardDriver",
        "ShardOutcome",
        "default_result_store_path",
    }
)

#: Names re-exported lazily from :mod:`repro.api.sweep`: only sweeps need
#: them, so a plain run never compiles that module.
_SWEEP_EXPORTS = frozenset({"CellStatistics", "SweepSummary", "summarize_sweep"})


def __getattr__(name: str):
    if name in _DISPATCH_EXPORTS:
        import repro.dispatch

        return getattr(repro.dispatch, name)
    if name in _SWEEP_EXPORTS:
        import repro.api.sweep

        return getattr(repro.api.sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Session",
    "ExperimentSpec",
    "IncrementalMerge",
    "Shard",
    "ShardEntry",
    "ShardManifest",
    "SHARD_FORMAT",
    "shard_payload",
    "load_shard_payload",
    "merge_shard_parts",
    "merge_shard_payloads",
    "CellStatistics",
    "SweepSummary",
    "summarize_sweep",
    "ResultSet",
    "RecordResult",
    "ExperimentReport",
    "table_report",
    "figure_report",
    "VerdictStore",
    "default_store_path",
    "DISPATCH_BACKENDS",
    "DispatchReport",
    "ResultStore",
    "ShardDriver",
    "ShardOutcome",
    "default_result_store_path",
]

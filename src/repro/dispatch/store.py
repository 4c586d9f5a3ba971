"""Persistent, cross-process shard-result store.

A :class:`ResultStore` is the shard-level sibling of
:class:`~repro.analysis.store.VerdictStore`: where the verdict store caches
one suggestion's analysis, the result store caches one **evaluated shard
payload** — the complete per-cell records of one
:class:`~repro.api.spec.Shard` — keyed on the shard's full identity
``(config fingerprint, grid digest, seed, cell slice)`` plus
:func:`~repro.analysis.verdict.record_digest`, a digest of every source a
shard evaluation runs.  A :class:`~repro.dispatch.driver.ShardDriver`
consults it before dispatching any shard, so a killed driver re-run (or a
second driver sharing the directory) skips every shard an earlier run
already completed, and the warm path reproduces the unsharded records
byte-for-byte.  An edit to the corpus, sampler, rubric or analyzers changes
the digest, so records computed by older code are never served.

Both stores share :class:`~repro.analysis.store.ContentStore` — the same
pluggable backends (local append-only segments; tiered with a shared
``cache-server`` remote via ``remote=``/``$REPRO_CACHE_URL``, under the
``results`` namespace), framed appends, corrupt-entry dropping, fail-soft
writes, read-only mode and ``compact`` eviction — so every degradation
guarantee of the verdict store (truncation, foreign bytes, schema bumps,
code edits, unreachable remote → recompute, never a wrong result) holds
for shard payloads too.  Entries are flushed, not fsynced: a driver killed
between shards leaves every finished shard readable.

Example:

>>> import tempfile
>>> from repro.api import ExperimentSpec, Session
>>> from repro.dispatch.store import ResultStore
>>> spec = ExperimentSpec(seeds=(7,), languages=("julia",))
>>> shard = spec.shard(0, 2)
>>> tmp = tempfile.TemporaryDirectory()
>>> store = ResultStore(tmp.name)
>>> store.get(shard.entry()) is None  # empty store: a miss
True
>>> with Session(seed=7) as session:
...     store.put(shard.entry(), session.run(shard))
>>> len(store.get(shard.entry())) == len(shard)  # a later driver skips it
True
>>> tmp.cleanup()
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.store import ContentStore, _default_cache_path
from repro.analysis.verdict import record_digest
from repro.api.spec import ShardEntry
from repro.core.runner import ResultSet

__all__ = ["RESULT_STORE_SCHEMA", "ResultStore", "default_result_store_path"]

#: Version of the shard-payload format.  Bump on any change to the digest
#: inputs or the entry payload; old entries then degrade to re-evaluation.
#: Behavior changes to the evaluation pipeline need no bump: the digest
#: folds in :func:`~repro.analysis.verdict.record_digest` of its sources.
#:
#: 2: append-only segments, keys derived from the code.
RESULT_STORE_SCHEMA = 2


def default_result_store_path() -> Path:
    """The default on-disk location of the shared shard-result store.

    ``$REPRO_RESULT_STORE`` overrides everything; otherwise the store lives
    under the XDG cache directory (``~/.cache/repro-hpc-codex/results``).
    """
    return _default_cache_path("REPRO_RESULT_STORE", "results")


class ResultStore(ContentStore):
    """On-disk cache of evaluated shard payloads, shared across processes.

    Keys are :class:`~repro.api.spec.ShardEntry` identities; values are the
    shard's per-cell records exactly as :meth:`ResultSet.to_records`
    produced them, so a store hit feeds the same bytes into a merge as a
    fresh evaluation would.
    """

    remote_namespace = "results"

    @classmethod
    def coerce(cls, value: "ResultStore | str | Path | bool | None") -> "ResultStore | None":
        """Normalise every accepted store argument to a store (or ``None``).

        ``None``/``False`` → no store (dispatch runs, but nothing survives
        the process); ``True`` → a store at :func:`default_result_store_path`;
        an ``http(s)://`` URL → a store at the default path tiered with that
        remote; a path → a store there; a store → itself.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls(default_result_store_path())
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.startswith(("http://", "https://")):
            return cls(default_result_store_path(), remote=value)
        return cls(value)

    def _schema(self) -> int:
        return RESULT_STORE_SCHEMA

    def _code_digest(self) -> str:
        return record_digest()

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def digest(entry: ShardEntry) -> str:
        """Content digest of a shard identity.

        Folds in the store schema, :func:`record_digest` (code edits orphan
        cached shards), the spec's config fingerprint and grid digest, and
        the exact ``(seed, cell slice)`` — everything that determines the
        shard's records.
        """
        payload = json.dumps(
            [
                RESULT_STORE_SCHEMA,
                record_digest(),
                entry.fingerprint,
                entry.grid,
                entry.seed,
                entry.start,
                entry.stop,
                entry.total_cells,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- lookups --------------------------------------------------------------
    def get(self, entry: ShardEntry) -> ResultSet | None:
        """The stored records for this shard, or ``None`` (miss / corrupt).

        The stored identity and record count are validated against the
        requested entry before anything is returned; mismatching or
        truncated payloads are dropped and reported as misses, so every
        failure mode degrades to re-evaluation — never to wrong records.
        """

        def validate(payload: dict) -> ResultSet:
            if payload["schema"] != RESULT_STORE_SCHEMA:
                raise ValueError(f"schema {payload['schema']} != {RESULT_STORE_SCHEMA}")
            if ShardEntry.from_payload(payload["entry"]) != entry:
                raise ValueError("entry does not match the requested shard")
            records = payload["records"]
            if not isinstance(records, list) or len(records) != entry.stop - entry.start:
                raise ValueError(
                    f"shard covers {entry.stop - entry.start} cells but the entry "
                    f"carries {len(records) if isinstance(records, list) else '?'} records"
                )
            return ResultSet.from_payload(records, seed=entry.seed)

        return self._load_entry(self.digest(entry), validate)

    def put(self, entry: ShardEntry, results: ResultSet) -> None:
        """Persist one evaluated shard (idempotent, atomic, fail-soft)."""
        if len(results) != entry.stop - entry.start:
            raise ValueError(
                f"shard covers {entry.stop - entry.start} cells but results hold {len(results)}"
            )
        if results.seed != entry.seed:
            raise ValueError(f"results carry seed {results.seed}, shard expects {entry.seed}")
        payload = {
            "schema": RESULT_STORE_SCHEMA,
            "analysis": record_digest(),
            "entry": entry.to_payload(),
            "records": results.to_records(),
        }
        self._store_entry(self.digest(entry), payload)

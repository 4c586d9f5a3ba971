"""Declarative experiment specifications: shardable grids with manifests.

An :class:`ExperimentSpec` is a frozen description of a run — seed(s),
languages, optional model/kernel restrictions and a :class:`CodexConfig` —
that enumerates its :class:`~repro.models.grid.ExperimentCell`s
deterministically.  Because every cell owns an order-independent random
stream (the per-cell seeding contract, README "Performance architecture"),
any contiguous slice of that enumeration is an independently-runnable unit
of work: :meth:`ExperimentSpec.partition` / :meth:`ExperimentSpec.shard`
produce :class:`Shard` objects carrying a manifest entry
``(seed, fingerprint, cell_slice)``, and :class:`ShardManifest` validates
that a collection of such entries is complete and consistent before partial
:class:`~repro.core.runner.ResultSet`s are merged back together.

The module also defines the JSON shard-payload format exchanged by the
``repro shard`` / ``repro merge`` CLI subcommands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.codex.config import DEFAULT_SEED, CodexConfig
from repro.core.runner import ResultSet
from repro.kernels.registry import kernel_names
from repro.models.grid import ExperimentCell, experiment_grid
from repro.models.languages import get_language, language_names
from repro.models.programming_models import get_model

__all__ = [
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
]

#: Format tag of the JSON payload one ``repro shard`` invocation emits.
SHARD_FORMAT = "repro.shard/v1"


def _grid_digest(cells: Iterable[ExperimentCell]) -> str:
    """Digest of a cell enumeration (see :meth:`ExperimentSpec.grid_digest`)."""
    joined = "\n".join(cell.cell_id for cell in cells)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentSpec:
    """A frozen, declarative description of an experiment run.

    ``seeds`` may be given as a single int or any iterable of ints;
    ``languages``/``models``/``kernels`` default to the full Table 1 grid.
    Coordinates are normalised to the canonical grid order regardless of the
    order they were given in, so the cell enumeration (:meth:`cells`) is
    always a subsequence of :func:`~repro.models.grid.experiment_grid` —
    which is what lets any-order shard merges reproduce an unsharded run
    exactly.
    """

    seeds: tuple[int, ...] = (DEFAULT_SEED,)
    languages: tuple[str, ...] | None = None
    models: tuple[str, ...] | None = None
    kernels: tuple[str, ...] | None = None
    config: CodexConfig = field(default_factory=CodexConfig)

    def __post_init__(self) -> None:
        seeds = (self.seeds,) if isinstance(self.seeds, int) else tuple(self.seeds)
        if not seeds:
            raise ValueError("an ExperimentSpec needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds in spec: {seeds}")
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in seeds))
        languages = self.languages if self.languages is not None else language_names()
        requested = {get_language(language).name for language in languages}
        object.__setattr__(
            self,
            "languages",
            tuple(name for name in language_names() if name in requested),
        )
        if self.models is not None:
            object.__setattr__(
                self, "models", tuple(sorted({get_model(uid).uid for uid in self.models}))
            )
        if self.kernels is not None:
            known = kernel_names()
            kernels = {kernel.lower() for kernel in self.kernels}
            unknown = sorted(kernels - set(known))
            if unknown:
                raise KeyError(f"unknown kernels {unknown}; choose from {known}")
            object.__setattr__(
                self, "kernels", tuple(name for name in known if name in kernels)
            )

    # -- enumeration ----------------------------------------------------------
    @property
    def seed(self) -> int:
        """The single seed of a one-seed spec (ValueError for sweeps)."""
        if len(self.seeds) != 1:
            raise ValueError(f"spec has {len(self.seeds)} seeds; use .seeds")
        return self.seeds[0]

    def fingerprint(self) -> str:
        """The config fingerprint every shard of this spec must carry."""
        return self.config.fingerprint()

    def cells(self) -> list[ExperimentCell]:
        """The deterministic cell enumeration (independent of the seeds)."""
        return [
            cell
            for cell in experiment_grid(languages=self.languages, kernels=self.kernels)
            if self.models is None or cell.model in self.models
        ]

    def grid_digest(self) -> str:
        """Digest of the cell enumeration itself.

        Shard entries carry it so the manifest can reject shards whose specs
        enumerate *different* cells (e.g. one machine ran ``--kernels axpy``
        and another ``--kernels gemv``): such slices can tile ``[0, total)``
        under one config fingerprint yet belong to different runs.
        """
        return _grid_digest(self.cells())

    # -- sharding -------------------------------------------------------------
    def partition(self, n: int) -> list["Shard"]:
        """Split every seed's cell grid into ``n`` contiguous slices.

        Returns ``len(seeds) * n`` shards in seed-major order; slice sizes
        differ by at most one cell.  Each shard covers exactly one seed, so
        its manifest entry is the flat triple ``(seed, fingerprint,
        cell_slice)``.
        """
        if n < 1:
            raise ValueError(f"cannot partition into {n} shards")
        total = len(self.cells())
        shards: list[Shard] = []
        for seed_index, seed in enumerate(self.seeds):
            for j in range(n):
                shards.append(
                    Shard(
                        spec=self,
                        seed=seed,
                        index=seed_index * n + j,
                        of=n,
                        start=(j * total) // n,
                        stop=((j + 1) * total) // n,
                    )
                )
        return shards

    def shard(self, index: int, of: int) -> "Shard":
        """Shard ``index`` of the ``partition(of)`` of this spec."""
        if of < 1:
            raise ValueError(f"cannot partition into {of} shards")
        count = len(self.seeds) * of
        if not 0 <= index < count:
            raise IndexError(f"shard index {index} out of range for {count} shards")
        return self.partition(of)[index]

    def manifest(self, n: int) -> "ShardManifest":
        """The complete, validated manifest of a ``partition(n)``."""
        return ShardManifest.from_entries(shard.entry() for shard in self.partition(n))

    def to_payload(self) -> dict:
        """JSON-serialisable description (config is carried by fingerprint)."""
        return {
            "seeds": list(self.seeds),
            "languages": list(self.languages),
            "models": None if self.models is None else list(self.models),
            "kernels": None if self.kernels is None else list(self.kernels),
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True)
class Shard:
    """One independently-runnable slice of a spec's cell grid at one seed."""

    spec: ExperimentSpec
    seed: int
    #: Global shard index within the partition (seed-major).
    index: int
    #: Per-seed slice count of the partition this shard belongs to.
    of: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def cells(self) -> list[ExperimentCell]:
        return self.spec.cells()[self.start : self.stop]

    def entry(self) -> "ShardEntry":
        """The manifest entry ``(seed, fingerprint, cell_slice)`` plus the
        bookkeeping needed to validate completeness.

        Enumerates the spec's grid once, for both the cell count and the
        digest; the grid is not cached, because its registries can change
        between calls.
        """
        cells = self.spec.cells()
        return ShardEntry(
            seed=self.seed,
            fingerprint=self.spec.fingerprint(),
            index=self.index,
            of=self.of,
            start=self.start,
            stop=self.stop,
            total_cells=len(cells),
            grid=_grid_digest(cells),
        )


@dataclass(frozen=True)
class ShardEntry:
    """Manifest record of one shard: which slice of which run it covers."""

    seed: int
    fingerprint: str
    index: int
    of: int
    start: int
    stop: int
    total_cells: int
    #: Digest of the spec's cell enumeration (see ExperimentSpec.grid_digest).
    grid: str

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "index": self.index,
            "of": self.of,
            "cell_slice": [self.start, self.stop],
            "total_cells": self.total_cells,
            "grid": self.grid,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardEntry":
        start, stop = payload["cell_slice"]
        return cls(
            seed=int(payload["seed"]),
            fingerprint=str(payload["fingerprint"]),
            index=int(payload["index"]),
            of=int(payload["of"]),
            start=int(start),
            stop=int(stop),
            total_cells=int(payload["total_cells"]),
            grid=str(payload["grid"]),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The validated collection of shard entries of one (or more) runs.

    Construction through :meth:`from_entries` checks, before any merge is
    attempted, that every entry carries the same config fingerprint, grid
    digest and total cell count and that each seed's slices tile
    ``[0, total_cells)`` exactly — no gaps, no overlaps, nothing missing,
    no slices from a different run's enumeration.
    """

    entries: tuple[ShardEntry, ...]

    @classmethod
    def from_entries(cls, entries: Iterable[ShardEntry]) -> "ShardManifest":
        manifest = cls(
            entries=tuple(sorted(entries, key=lambda e: (e.seed, e.start, e.stop)))
        )
        manifest.validate()
        return manifest

    @property
    def fingerprint(self) -> str:
        return self.entries[0].fingerprint

    @property
    def total_cells(self) -> int:
        return self.entries[0].total_cells

    @property
    def seeds(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.seed, None)
        return tuple(seen)

    def validate(self) -> None:
        if not self.entries:
            raise ValueError("empty shard manifest")
        fingerprints = sorted({entry.fingerprint for entry in self.entries})
        if len(fingerprints) > 1:
            raise ValueError(f"manifest mixes config fingerprints: {fingerprints}")
        grids = sorted({entry.grid for entry in self.entries})
        if len(grids) > 1:
            raise ValueError(
                f"manifest mixes cell grids: {grids} — shards come from specs "
                "enumerating different cells"
            )
        totals = sorted({entry.total_cells for entry in self.entries})
        if len(totals) > 1:
            raise ValueError(f"manifest mixes grid sizes: {totals}")
        total = totals[0]
        for seed in self.seeds:
            cursor = 0
            for entry in (e for e in self.entries if e.seed == seed):
                if not 0 <= entry.start <= entry.stop <= total:
                    raise ValueError(f"shard slice [{entry.start}, {entry.stop}) outside grid of {total} cells")
                if entry.start > cursor:
                    raise ValueError(
                        f"seed {seed}: missing cells [{cursor}, {entry.start}) — shard absent from merge"
                    )
                if entry.start < cursor:
                    raise ValueError(
                        f"seed {seed}: overlapping shards at cell {entry.start} (already covered up to {cursor})"
                    )
                cursor = entry.stop
            if cursor != total:
                raise ValueError(f"seed {seed}: missing cells [{cursor}, {total}) — shard absent from merge")


# ---------------------------------------------------------------------------
# Shard payloads: what one machine emits and the merge step consumes.
# ---------------------------------------------------------------------------

def shard_payload(shard: Shard, results: ResultSet) -> dict:
    """The JSON payload of one evaluated shard (manifest entry + records)."""
    if results.seed != shard.seed:
        raise ValueError(f"results carry seed {results.seed}, shard expects {shard.seed}")
    if len(results) != len(shard):
        raise ValueError(f"shard covers {len(shard)} cells but results hold {len(results)}")
    return {
        "format": SHARD_FORMAT,
        "entry": shard.entry().to_payload(),
        "spec": shard.spec.to_payload(),
        "records": results.to_records(),
    }


def load_shard_payload(payload: dict) -> tuple[ShardEntry, ResultSet]:
    """Parse one shard payload back into its manifest entry and records."""
    if payload.get("format") != SHARD_FORMAT:
        raise ValueError(f"not a {SHARD_FORMAT} payload: format={payload.get('format')!r}")
    entry = ShardEntry.from_payload(payload["entry"])
    results = ResultSet.from_payload(payload["records"], seed=entry.seed)
    if len(results) != entry.stop - entry.start:
        raise ValueError(
            f"shard {entry.index} declares {entry.stop - entry.start} cells but carries {len(results)} records"
        )
    return entry, results


def merge_shard_parts(
    parts: Sequence[tuple[ShardEntry, ResultSet]]
) -> dict[int, ResultSet]:
    """Validate a collection of evaluated shards and merge them per seed.

    The manifest check (completeness, fingerprint and grid-size consistency)
    runs before any merging; the returned mapping is keyed by seed in
    manifest order, and each merged set's ``to_records()`` is byte-identical
    to the corresponding unsharded run regardless of the order the parts
    were supplied in.
    """
    manifest = ShardManifest.from_entries(entry for entry, _ in parts)
    merged: dict[int, ResultSet] = {}
    for seed in manifest.seeds:
        merged[seed] = ResultSet.merge(*(results for entry, results in parts if entry.seed == seed))
    return merged


def merge_shard_payloads(payloads: Iterable[dict]) -> dict[int, ResultSet]:
    """``merge_shard_parts`` over raw JSON payloads (the CLI merge path)."""
    return merge_shard_parts([load_shard_payload(payload) for payload in payloads])


class IncrementalMerge:
    """Streamed shard merging: fold evaluated shards in as they complete.

    Where :func:`merge_shard_parts` needs every part up front, an
    ``IncrementalMerge`` accepts ``(entry, results)`` pairs one at a time —
    the order shards *finish* in, which under a distributed driver is
    arbitrary — and keeps a canonically-ordered partial merge per seed at
    every step (via :meth:`~repro.core.runner.ResultSet.merge_in`).  The
    final merged records are therefore identical whatever the arrival
    order, and :meth:`merged` still refuses to pretend completeness: it
    validates the accumulated entries through :class:`ShardManifest` before
    handing anything back.

    Consistency is checked *eagerly*: the first entry fixes the run's
    config fingerprint, grid digest and grid size, and any later entry
    disagreeing with them (or duplicating a cell) raises at :meth:`add`
    time — a bad shard is rejected the moment it arrives, not after every
    other machine has finished.
    """

    def __init__(self) -> None:
        self._entries: list[ShardEntry] = []
        self._per_seed: dict[int, ResultSet] = {}

    def __len__(self) -> int:
        """Shards merged so far."""
        return len(self._entries)

    @property
    def cells_merged(self) -> int:
        return sum(len(results) for results in self._per_seed.values())

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self._per_seed)

    def add(self, entry: ShardEntry, results: ResultSet) -> None:
        """Fold one evaluated shard into the partial merge (validated)."""
        if len(results) != entry.stop - entry.start:
            raise ValueError(
                f"shard [{entry.start}, {entry.stop}) declares "
                f"{entry.stop - entry.start} cells but carries {len(results)} records"
            )
        if self._entries:
            first = self._entries[0]
            if entry.fingerprint != first.fingerprint:
                raise ValueError(
                    f"shard carries config fingerprint {entry.fingerprint}, "
                    f"merge expects {first.fingerprint}"
                )
            if entry.grid != first.grid:
                raise ValueError(
                    f"shard carries cell grid {entry.grid}, merge expects {first.grid}"
                )
            if entry.total_cells != first.total_cells:
                raise ValueError(
                    f"shard declares a grid of {entry.total_cells} cells, "
                    f"merge expects {first.total_cells}"
                )
        accumulator = self._per_seed.setdefault(entry.seed, ResultSet(seed=entry.seed))
        accumulator.merge_in(results)
        self._entries.append(entry)

    def partial(self) -> dict[int, ResultSet]:
        """The canonically-ordered merge of everything added so far.

        The returned sets are the live accumulators (they grow with later
        :meth:`add` calls); completeness is *not* implied — that is
        :meth:`merged`'s job.
        """
        return dict(self._per_seed)

    def is_complete(self) -> bool:
        """Whether the added entries tile every seed's full grid."""
        try:
            ShardManifest.from_entries(self._entries)
        except ValueError:
            return False
        return True

    def merged(self) -> dict[int, ResultSet]:
        """The complete merged results, validated through the manifest.

        Raises ``ValueError`` while slices are missing, exactly like
        :func:`merge_shard_parts`; when it returns, each seed's
        ``to_records()`` is byte-identical to the unsharded run.
        """
        manifest = ShardManifest.from_entries(self._entries)
        return {seed: self._per_seed[seed] for seed in manifest.seeds}

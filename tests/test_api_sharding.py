"""Tests for shardable ExperimentSpecs, manifests and mergeable ResultSets.

The load-bearing property (ISSUE 2 acceptance): any partition of the full
grid, evaluated under any backend and merged in any order, yields
``to_records()`` byte-identical to the unsharded serial run — and the CLI
``shard``/``merge`` round trip reproduces ``run`` output exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentSpec,
    Session,
    ShardEntry,
    ShardManifest,
    load_shard_payload,
    merge_shard_parts,
    merge_shard_payloads,
    shard_payload,
)
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.core.runner import ResultSet
from repro.harness.cli import main
from repro.harness.io import save_records_json
from repro.models.grid import experiment_grid


class TestExperimentSpec:
    def test_default_spec_enumerates_the_full_grid(self):
        assert ExperimentSpec().cells() == experiment_grid()

    def test_enumeration_is_deterministic(self):
        spec = ExperimentSpec(languages=("cpp", "julia"), kernels=("axpy", "cg"))
        assert spec.cells() == spec.cells()

    def test_filters_restrict_the_grid(self):
        spec = ExperimentSpec(models=("cpp.openmp", "julia.threads"))
        cells = spec.cells()
        assert cells
        assert {cell.model for cell in cells} == {"cpp.openmp", "julia.threads"}

    def test_seed_normalisation_and_validation(self):
        assert ExperimentSpec(seeds=7).seeds == (7,)
        assert ExperimentSpec(seeds=[7, 8]).seeds == (7, 8)
        assert ExperimentSpec(seeds=7).seed == 7
        with pytest.raises(ValueError):
            ExperimentSpec(seeds=())
        with pytest.raises(ValueError):
            ExperimentSpec(seeds=(7, 7))
        with pytest.raises(ValueError):
            ExperimentSpec(seeds=(7, 8)).seed

    def test_unknown_coordinates_rejected(self):
        with pytest.raises(KeyError):
            ExperimentSpec(languages=("rust",))
        with pytest.raises(KeyError):
            ExperimentSpec(kernels=("fft",))
        with pytest.raises(KeyError):
            ExperimentSpec(models=("cpp.tbb",))

    def test_fingerprint_is_the_config_fingerprint(self):
        assert ExperimentSpec().fingerprint() == CodexConfig().fingerprint()
        budget = ExperimentSpec(config=CodexConfig(max_suggestions=3))
        assert budget.fingerprint() != ExperimentSpec().fingerprint()


class TestPartition:
    def test_partition_tiles_the_grid(self):
        spec = ExperimentSpec()
        cells = spec.cells()
        for n in (1, 2, 3, 4, 7, 205):
            shards = spec.partition(n)
            assert len(shards) == n
            rebuilt = [cell for shard in shards for cell in shard.cells()]
            assert rebuilt == cells
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_shard_accessor_matches_partition(self):
        spec = ExperimentSpec()
        for index in range(4):
            assert spec.shard(index, 4) == spec.partition(4)[index]
        with pytest.raises(IndexError):
            spec.shard(4, 4)
        with pytest.raises(ValueError):
            spec.partition(0)

    def test_multi_seed_partition_is_seed_major(self):
        spec = ExperimentSpec(seeds=(7, 8), languages=("julia",))
        shards = spec.partition(2)
        assert [shard.seed for shard in shards] == [7, 7, 8, 8]
        assert [shard.index for shard in shards] == [0, 1, 2, 3]
        for seed in (7, 8):
            covered = [cell for shard in shards if shard.seed == seed for cell in shard.cells()]
            assert covered == spec.cells()

    def test_manifest_of_a_partition_validates(self):
        manifest = ExperimentSpec().manifest(4)
        assert len(manifest.entries) == 4
        assert manifest.total_cells == len(experiment_grid())
        assert manifest.fingerprint == CodexConfig().fingerprint()


class TestShardManifest:
    def _entry(
        self, start, stop, *, seed=7, fingerprint="f" * 16, total=10, index=0, of=2,
        grid="g" * 16,
    ):
        return ShardEntry(
            seed=seed, fingerprint=fingerprint, index=index, of=of,
            start=start, stop=stop, total_cells=total, grid=grid,
        )

    def test_complete_cover_validates(self):
        manifest = ShardManifest.from_entries(
            [self._entry(5, 10, index=1), self._entry(0, 5, index=0)]
        )
        assert manifest.seeds == (7,)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="missing cells"):
            ShardManifest.from_entries([self._entry(0, 4), self._entry(5, 10, index=1)])

    def test_missing_tail_rejected(self):
        with pytest.raises(ValueError, match="missing cells"):
            ShardManifest.from_entries([self._entry(0, 5)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            ShardManifest.from_entries([self._entry(0, 6), self._entry(5, 10, index=1)])

    def test_mixed_fingerprints_rejected(self):
        with pytest.raises(ValueError, match="fingerprints"):
            ShardManifest.from_entries(
                [self._entry(0, 5), self._entry(5, 10, fingerprint="g" * 16, index=1)]
            )

    def test_mixed_grid_sizes_rejected(self):
        with pytest.raises(ValueError, match="grid sizes"):
            ShardManifest.from_entries([self._entry(0, 5), self._entry(5, 9, total=9, index=1)])

    def test_mixed_cell_enumerations_rejected(self):
        with pytest.raises(ValueError, match="cell grids"):
            ShardManifest.from_entries(
                [self._entry(0, 5), self._entry(5, 10, grid="h" * 16, index=1)]
            )

    def test_merge_rejects_shards_of_different_specs(self):
        # Same fingerprint, same cell count, tiling slices — but different
        # grids: two machines that drifted on --kernels must not merge.
        axpy = ExperimentSpec(kernels=("axpy",))
        gemv = ExperimentSpec(kernels=("gemv",))
        assert len(axpy.cells()) == len(gemv.cells())
        parts = [
            (axpy.shard(0, 2).entry(), ResultSet(seed=DEFAULT_SEED)),
            (gemv.shard(1, 2).entry(), ResultSet(seed=DEFAULT_SEED)),
        ]
        with pytest.raises(ValueError, match="cell grids"):
            merge_shard_parts(parts)

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ShardManifest.from_entries([])

    def test_slice_outside_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ShardManifest.from_entries([self._entry(0, 11)])


class TestMergeDeterminism:
    """Satellite: any partition, merged in any order, under every backend,
    reproduces the unsharded serial run byte-for-byte."""

    def test_resultset_merge_reorders_canonically(self, full_results):
        reference = full_results.to_records()
        spec = ExperimentSpec()
        parts = []
        for shard in spec.partition(3):
            part = ResultSet(seed=DEFAULT_SEED)
            for result in full_results.results[shard.start : shard.stop]:
                part.add(result)
            parts.append(part)
        merged = ResultSet.merge(parts[2], parts[0], parts[1])
        assert merged.to_records() == reference

    def test_merge_rejects_mixed_seeds_and_duplicates(self, full_results):
        with pytest.raises(ValueError, match="seeds"):
            ResultSet.merge(ResultSet(seed=1), ResultSet(seed=2))
        with pytest.raises(ValueError, match="duplicate"):
            ResultSet.merge(full_results, full_results)
        with pytest.raises(ValueError):
            ResultSet.merge()

    @pytest.mark.parametrize("backend,n", [("serial", 3), ("process", 4)])
    def test_sharded_run_matches_unsharded_serial(self, full_results, backend, n):
        reference = full_results.to_records()
        spec = ExperimentSpec()
        with Session(seed=DEFAULT_SEED, backend=backend, max_workers=2) as session:
            parts = [(shard.entry(), session.run(shard)) for shard in spec.partition(n)]
        merged = merge_shard_parts(list(reversed(parts)))
        assert merged[DEFAULT_SEED].to_records() == reference

    def test_merge_validates_before_merging(self, full_results):
        spec = ExperimentSpec()
        shards = spec.partition(2)
        part = ResultSet(seed=DEFAULT_SEED)
        for result in full_results.results[: shards[0].stop]:
            part.add(result)
        with pytest.raises(ValueError, match="missing cells"):
            merge_shard_parts([(shards[0].entry(), part)])


class TestShardPayloads:
    def test_payload_roundtrip(self, full_results):
        spec = ExperimentSpec()
        shard = spec.shard(0, 4)
        part = ResultSet(seed=DEFAULT_SEED)
        for result in full_results.results[shard.start : shard.stop]:
            part.add(result)
        payload = json.loads(json.dumps(shard_payload(shard, part)))
        entry, rebuilt = load_shard_payload(payload)
        assert entry == shard.entry()
        assert rebuilt.to_records() == part.to_records()

    def test_payload_rejects_wrong_shapes(self, full_results):
        spec = ExperimentSpec()
        shard = spec.shard(0, 4)
        with pytest.raises(ValueError, match="cells"):
            shard_payload(shard, ResultSet(seed=DEFAULT_SEED))
        with pytest.raises(ValueError, match="seed"):
            shard_payload(shard, ResultSet(seed=DEFAULT_SEED + 1))
        with pytest.raises(ValueError, match="format"):
            load_shard_payload({"format": "something-else"})

    def test_merge_shard_payloads_from_fresh_runs(self, full_results):
        spec = ExperimentSpec(languages=("julia", "python"))
        with Session(seed=DEFAULT_SEED) as session:
            payloads = [
                shard_payload(shard, session.run(shard)) for shard in spec.partition(3)
            ]
            unsharded = session.run(spec)
        merged = merge_shard_payloads(reversed(payloads))
        assert merged[DEFAULT_SEED].to_records() == unsharded.to_records()


class TestCliShardMerge:
    """Acceptance: `repro shard --index i --of n` + `repro merge` over any
    n in {1, 2, 4} produces records byte-identical to the full run."""

    @pytest.fixture(scope="class")
    def reference_json(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reference") / "full.json"
        assert main(["run", "--json", str(path)]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_shard_merge_roundtrip_byte_identical(self, n, tmp_path, reference_json, capsys):
        parts = []
        for index in range(n):
            part = tmp_path / f"part{index}.json"
            assert main(["shard", "--index", str(index), "--of", str(n), "--out", str(part)]) == 0
            parts.append(str(part))
        merged = tmp_path / "merged.json"
        assert main(["merge", *parts, "--json", str(merged)]) == 0
        out = capsys.readouterr().out
        assert f"merged {n} shard(s) -> 204 cells" in out
        assert merged.read_bytes() == reference_json

    def test_merge_refuses_incomplete_set(self, tmp_path, capsys):
        part = tmp_path / "part0.json"
        assert main(["shard", "--index", "0", "--of", "2", "--out", str(part)]) == 0
        with pytest.raises(ValueError, match="missing cells"):
            main(["merge", str(part)])

    def test_merge_refuses_mixed_fingerprint_like_seeds(self, tmp_path):
        # Shards of different seeds are different runs: the CLI refuses them.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--seed", "1", "shard", "--index", "0", "--of", "2", "--out", str(a)]) == 0
        assert main(["--seed", "2", "shard", "--index", "1", "--of", "2", "--out", str(b)]) == 0
        with pytest.raises((SystemExit, ValueError)):
            main(["merge", str(a), str(b)])

    def test_shard_restricted_grid(self, tmp_path, capsys):
        part = tmp_path / "julia.json"
        assert (
            main(["shard", "--index", "0", "--of", "1", "--languages", "julia", "--out", str(part)])
            == 0
        )
        merged = tmp_path / "merged.json"
        assert main(["merge", str(part), "--json", str(merged)]) == 0
        with Session(seed=DEFAULT_SEED) as session:
            expected = session.run(ExperimentSpec(languages=("julia",)))
        assert save_records_json(expected, tmp_path / "expected.json").read_bytes() == \
            merged.read_bytes()

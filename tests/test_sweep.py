"""Tests for multi-seed statistical sweeps (repro.api.sweep).

The contract under test (docs/api.md, "Statistical sweeps"):

* the bootstrap CI is content-keyed per cell — deterministic across calls,
  invariant to which *other* cells are swept;
* the summary is invariant to seed insertion order and to the order each
  per-seed ResultSet was merged from shards;
* a single-seed sweep degrades exactly to point estimates (no bootstrap);
* malformed inputs (no seeds, bad confidence, duplicate cells, missing
  cells) raise ValueError rather than summarising silently.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Session, SweepSummary, summarize_sweep
from repro.core.runner import RecordResult, ResultSet


def _record(model: str, kernel: str, score: float, *, use_postfix: bool = False) -> RecordResult:
    return RecordResult(
        {
            "language": "python",
            "model": model,
            "kernel": kernel,
            "use_postfix": use_postfix,
            "score": score,
        }
    )


def _result_set(seed: int, scores: dict[tuple[str, str], float]) -> ResultSet:
    rs = ResultSet(seed=seed)
    for (model, kernel), score in scores.items():
        rs.add(_record(model, kernel, score))
    return rs


CELLS = [("python.numpy", "axpy"), ("python.numba", "gemm"), ("python.cupy", "spmv")]


def _sweep_results(seeds: tuple[int, ...]) -> dict[int, ResultSet]:
    return {
        seed: _result_set(
            seed,
            {cell: 0.25 + 0.1 * i + 0.05 * (seed % 3) for i, cell in enumerate(CELLS)},
        )
        for seed in seeds
    }


class TestSummaryShape:
    def test_basic_summary(self):
        summary = summarize_sweep(_sweep_results((1, 2, 3)))
        assert isinstance(summary, SweepSummary)
        assert summary.seeds == (1, 2, 3)
        assert len(summary.cells) == len(CELLS)
        for stats in summary.cells:
            assert stats.ci_low <= stats.mean <= stats.ci_high
            assert len(stats.scores) == 3

    def test_cell_lookup(self):
        summary = summarize_sweep(_sweep_results((1, 2)))
        stats = summary.cell("python.numpy", "axpy")
        assert stats.model == "python.numpy"
        with pytest.raises(KeyError):
            summary.cell("python.numpy", "gemm")

    def test_payload_round_trip_fields(self):
        summary = summarize_sweep(_sweep_results((1, 2)), confidence=0.9, n_resamples=200)
        payload = summary.to_payload()
        assert payload["seeds"] == [1, 2]
        assert payload["confidence"] == 0.9
        assert payload["n_resamples"] == 200
        for record in payload["cells"]:
            assert set(record) >= {"model", "kernel", "mean", "ci_low", "ci_high", "scores"}

    def test_mean_of_means(self):
        summary = summarize_sweep(_sweep_results((1, 2)))
        expected = sum(stats.mean for stats in summary.cells) / len(summary.cells)
        assert summary.mean_of_means() == pytest.approx(expected)


class TestDeterminism:
    def test_bootstrap_is_deterministic(self):
        a = summarize_sweep(_sweep_results((1, 2, 3)))
        b = summarize_sweep(_sweep_results((1, 2, 3)))
        assert a == b

    def test_seed_insertion_order_invariant(self):
        results = _sweep_results((1, 2, 3))
        reversed_results = dict(reversed(list(results.items())))
        assert summarize_sweep(results) == summarize_sweep(reversed_results)

    def test_merge_order_invariant(self):
        """Per-seed sets assembled from shards in any order summarise identically."""
        parts = [
            _result_set(7, {CELLS[0]: 0.3}),
            _result_set(7, {CELLS[1]: 0.5}),
            _result_set(7, {CELLS[2]: 0.7}),
        ]
        forward = ResultSet.merge(*parts)
        backward = ResultSet.merge(*reversed(parts))
        other = _result_set(8, {cell: 0.4 for cell in CELLS})
        assert summarize_sweep({7: forward, 8: other}) == summarize_sweep({8: other, 7: backward})

    def test_ci_content_keyed_per_cell(self):
        """Sweeping extra cells never changes an existing cell's interval."""
        small = {
            seed: _result_set(seed, {CELLS[0]: 0.2 + 0.1 * seed}) for seed in (1, 2, 3)
        }
        large = {
            seed: _result_set(
                seed, {CELLS[0]: 0.2 + 0.1 * seed, CELLS[1]: 0.9, CELLS[2]: 0.1}
            )
            for seed in (1, 2, 3)
        }
        cell_small = summarize_sweep(small).cell(*CELLS[0])
        cell_large = summarize_sweep(large).cell(*CELLS[0])
        assert cell_small == cell_large


class TestDegenerateAndInvalid:
    def test_single_seed_degrades_to_point_estimate(self):
        summary = summarize_sweep(_sweep_results((7,)))
        for stats in summary.cells:
            assert stats.mean == stats.scores[0]
            assert stats.ci_low == stats.mean == stats.ci_high

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            summarize_sweep({})

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_bad_confidence_raises(self, confidence):
        with pytest.raises(ValueError):
            summarize_sweep(_sweep_results((1, 2)), confidence=confidence)

    def test_missing_cell_raises(self):
        results = _sweep_results((1, 2))
        results[2] = _result_set(2, {CELLS[0]: 0.5})  # drops two cells
        with pytest.raises(ValueError, match="missing from seed"):
            summarize_sweep(results)


class TestSessionSweepSeeds:
    def test_sweep_seeds_matches_manual_summary(self):
        with Session(backend="serial") as session:
            summary = session.sweep_seeds([3, 5], languages=["julia"], n_resamples=100)
            per_seed = session.sweep([3, 5], languages=["julia"])
        manual = summarize_sweep(per_seed, n_resamples=100)
        assert summary == manual
        assert summary.seeds == (3, 5)
        # the julia grid spans 24 cells (ExperimentSpec docstring example)
        assert len(summary.cells) == 24

    def test_single_seed_sweep_matches_plain_run(self):
        with Session(backend="serial") as session:
            summary = session.sweep_seeds([9], languages=["julia"])
            plain = session.language_results("julia", seed=9)
        for result in plain:
            cell = result.cell
            stats = summary.cell(cell.model, cell.kernel, use_postfix=cell.use_postfix)
            assert stats.mean == result.score
            assert stats.ci_low == stats.ci_high == result.score


class TestLazyImport:
    def test_plain_runs_never_load_the_sweep_module(self, tmp_path):
        """Only sweeps need :mod:`repro.api.sweep`: importing ``repro.api``
        and a ``run --json`` must not compile it, while its names stay
        importable from ``repro.api``."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        probe = (
            "import sys, repro.api\n"
            "loaded = ['repro.api.sweep' in sys.modules]\n"
            "from repro.harness.cli import main\n"
            f"assert main(['run', '--json', {str(tmp_path / 'run.json')!r}]) == 0\n"
            "loaded.append('repro.api.sweep' in sys.modules)\n"
            "from repro.api import SweepSummary\n"
            "loaded.append('repro.api.sweep' in sys.modules)\n"
            "print('loaded', loaded)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        assert out.splitlines()[-1] == "loaded [False, False, True]"

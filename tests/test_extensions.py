"""Tests for the opt-in extended grid (repro.extensions).

Covers the extension contract of docs/extending.md:

* install/uninstall are idempotent inverses restoring exact stock state;
* stock cells' records are byte-identical with the extension installed
  (the cell_seed_sequence contract survives grid growth);
* the new families' templates pass the sandbox oracle and their mutants
  fail it;
* the static analyzer's geometry profiles cover the new families
  non-vacuously (mutants are HAZARD, correct code is not) and an
  unregistered family raises instead of silently reporting zero hazards;
* worker processes started by ``spawn`` (which inherit no registry state)
  still evaluate the extended grid byte-identically.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.hazards import register_profile, static_findings_for, unregister_profile
from repro.api import Session
from repro.corpus.mutations import MUTATION_OPERATORS
from repro.corpus.snippets import CodeSnippet
from repro.corpus.store import build_default_corpus
from repro.corpus.templates import TEMPLATE_INDEX
from repro.corpus.templates.python_extended import TEMPLATES as EXTENDED_TEMPLATES
from repro.extensions import (
    EXTENSION_KERNELS,
    EXTENSION_MODEL_UID,
    extended_grid_installed,
    install_extended_grid,
    uninstall_extended_grid,
)
from repro.kernels.registry import KERNEL_NAMES, STOCK_KERNEL_NAMES, kernel_names
from repro.models.grid import experiment_grid
from repro.models.programming_models import PROGRAMMING_MODELS, STOCK_MODEL_UIDS
from repro.sandbox.executor import evaluate_python_suggestion


@pytest.fixture
def extended_grid():
    """Install the extended grid for one test, always uninstalling after."""
    install_extended_grid()
    try:
        yield
    finally:
        uninstall_extended_grid()


def _snippet(model_short: str, kernel: str) -> CodeSnippet:
    uid = "python.kokkos" if model_short == "kokkos" else f"python.{model_short}"
    return CodeSnippet(
        code=EXTENDED_TEMPLATES[(model_short, kernel)],
        language="python",
        kernel=kernel,
        label_model=uid,
        label_correct=True,
    )


class TestInstallUninstall:
    def test_install_grows_and_uninstall_restores(self):
        stock_cells = len(experiment_grid())
        stock_models = len(PROGRAMMING_MODELS)
        stock_templates = len(TEMPLATE_INDEX)
        assert not extended_grid_installed()
        install_extended_grid()
        try:
            assert extended_grid_installed()
            assert len(PROGRAMMING_MODELS) == stock_models + 1
            assert EXTENSION_MODEL_UID in PROGRAMMING_MODELS
            assert tuple(kernel_names()) == STOCK_KERNEL_NAMES + EXTENSION_KERNELS
            assert len(TEMPLATE_INDEX) == stock_templates + len(EXTENDED_TEMPLATES)
            assert len(experiment_grid()) > stock_cells
        finally:
            uninstall_extended_grid()
        assert not extended_grid_installed()
        assert len(experiment_grid()) == stock_cells
        assert len(PROGRAMMING_MODELS) == stock_models
        assert tuple(kernel_names()) == STOCK_KERNEL_NAMES == KERNEL_NAMES
        assert len(TEMPLATE_INDEX) == stock_templates

    def test_install_is_idempotent(self, extended_grid):
        before = len(experiment_grid())
        install_extended_grid()
        assert len(experiment_grid()) == before

    def test_uninstall_without_install_is_harmless(self):
        uninstall_extended_grid()
        assert tuple(kernel_names()) == STOCK_KERNEL_NAMES

    def test_new_kernels_are_python_only(self, extended_grid):
        assert "scan" in kernel_names("python")
        assert "scan" not in kernel_names("cpp")
        assert "histogram" not in kernel_names("fortran")


class TestStockInvariance:
    def test_stock_corpus_is_subsequence_of_extended(self):
        """Installing the extension only *adds* corpus snippets — every stock
        snippet survives unchanged and in its original relative order."""
        stock = [(s.language, s.kernel, s.label_model, s.code) for s in build_default_corpus()]
        install_extended_grid()
        try:
            extended = [
                (s.language, s.kernel, s.label_model, s.code) for s in build_default_corpus()
            ]
        finally:
            uninstall_extended_grid()
        assert len(extended) > len(stock)
        it = iter(extended)
        assert all(any(e == s for e in it) for s in stock)

    def test_stock_records_identical_with_extension_installed(self):
        """The cell_seed_sequence contract: growing the grid never perturbs
        a stock cell's suggestion stream, so its records match exactly."""
        with Session(backend="serial") as session:
            stock = session.language_results("python").to_records()
        install_extended_grid()
        try:
            with Session(backend="serial") as session:
                extended = session.language_results("python").to_records()
        finally:
            uninstall_extended_grid()
        stock_like = [
            r for r in extended
            if r["kernel"] in STOCK_KERNEL_NAMES and r["model"] in STOCK_MODEL_UIDS
        ]
        assert stock_like == stock


class TestExtendedCells:
    def test_extended_python_run_covers_new_cells(self, extended_grid):
        with Session(backend="serial") as session:
            results = session.language_results("python")
        kernels_seen = {r.cell.kernel for r in results}
        models_seen = {r.cell.model for r in results}
        assert set(EXTENSION_KERNELS) <= kernels_seen
        assert EXTENSION_MODEL_UID in models_seen

    def test_all_extended_templates_pass_the_oracle(self, extended_grid):
        for (model, kernel), code in sorted(EXTENDED_TEMPLATES.items()):
            result = evaluate_python_suggestion(code, kernel)
            assert result.passed, (model, kernel, result.issues)


class TestParallelMutations:
    EXPECTED = {
        "reduction_order": {("cupy", "scan"), ("kokkos", "scan"), ("numba", "scan"),
                            ("numpy", "scan"), ("pycuda", "scan")},
        "drop_atomic": {("cupy", "histogram"), ("kokkos", "histogram"),
                        ("pycuda", "histogram")},
        "bounds_off_by_one": {("cupy", "scan"), ("cupy", "histogram"),
                              ("pycuda", "scan"), ("pycuda", "histogram")},
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_operator_applies_exactly_where_expected(self, extended_grid, name):
        applied = set()
        for model, kernel in sorted(EXTENDED_TEMPLATES):
            mutated = MUTATION_OPERATORS[name].apply(_snippet(model, kernel))
            if mutated is not None:
                assert mutated.code != EXTENDED_TEMPLATES[(model, kernel)]
                assert mutated.label_correct is False
                applied.add((model, kernel))
        assert applied == self.EXPECTED[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_mutants_fail_the_oracle(self, extended_grid, name):
        for model, kernel in sorted(self.EXPECTED[name]):
            mutated = MUTATION_OPERATORS[name].apply(_snippet(model, kernel))
            result = evaluate_python_suggestion(mutated.code, kernel)
            assert not result.passed, (name, model, kernel)

    def test_operators_skip_stock_kernels(self):
        axpy = CodeSnippet(
            code="import numpy as np\n\ndef axpy(a, x, y):\n    return a * x + y\n",
            language="python",
            kernel="axpy",
            label_model="python.numpy",
            label_correct=True,
        )
        for name in self.EXPECTED:
            assert MUTATION_OPERATORS[name].apply(axpy) is None


class TestStaticHazardCoverage:
    CUDA_MODELS = ("cupy", "pycuda")

    def _hazards(self, code: str, kernel: str) -> list[dict]:
        findings = static_findings_for(code, "python", kernel)
        return [f for f in findings if f["verdict"] == "HAZARD"]

    def test_correct_templates_have_no_hazards(self, extended_grid):
        for model in self.CUDA_MODELS:
            for kernel in EXTENSION_KERNELS:
                code = EXTENDED_TEMPLATES[(model, kernel)]
                assert self._hazards(code, kernel) == [], (model, kernel)

    def test_scan_race_mutant_is_hazard(self, extended_grid):
        for model in self.CUDA_MODELS:
            mutated = MUTATION_OPERATORS["race_injection"].apply(_snippet(model, "scan"))
            kinds = {f["kind"] for f in self._hazards(mutated.code, "scan")}
            assert "write-write-race" in kinds, model

    def test_bounds_mutants_are_hazard(self, extended_grid):
        for model in self.CUDA_MODELS:
            for kernel in EXTENSION_KERNELS:
                mutated = MUTATION_OPERATORS["bounds_off_by_one"].apply(
                    _snippet(model, kernel)
                )
                kinds = {f["kind"] for f in self._hazards(mutated.code, kernel)}
                assert "out-of-bounds" in kinds, (model, kernel)

    def test_unregistered_family_raises_instead_of_zero_findings(self):
        code = EXTENDED_TEMPLATES[("cupy", "scan")]
        with pytest.raises(KeyError):
            static_findings_for(code, "python", "fft")

    def test_profile_registration_round_trip(self):
        code = EXTENDED_TEMPLATES[("cupy", "scan")]
        register_profile(
            "fft",
            {
                "require_all": ["threads = 256"],
                "require_any": [],
                "grid": (1, 1, 1),
                "block": (256, 1, 1),
                "buffer_sizes": {"x": 64, "out": 64},
                "scalar_args": {"n": 64},
            },
        )
        try:
            assert isinstance(static_findings_for(code, "python", "fft"), list)
        finally:
            unregister_profile("fft")
        with pytest.raises(KeyError):
            static_findings_for(code, "python", "fft")


class TestSpawnedWorkers:
    def test_spawned_process_workers_install_the_extended_grid(self, tmp_path):
        """Only forked workers inherit the installed grid; spawned ones must
        install it themselves or they rebuild stock-grid cells."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        probe = "\n".join([
            "import multiprocessing, sys",
            "from repro.harness import cli",
            "multiprocessing.set_start_method('spawn')",
            "out, ext = sys.argv[1], ['--extended-grid']",
            "assert cli.main(ext + ['run', '--json', out + '/run.json']) == 0",
            "assert cli.main(ext + ['dispatch', '--backend', 'process', '--workers', '2',",
            "                       '--shards', '2', '--json', out + '/dispatch.json']) == 0",
            "assert cli.main(ext + ['--backend', 'process', 'run', '--json',",
            "                       out + '/process.json']) == 0",
        ])
        subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True,
            check=True, timeout=120,
        )
        expected = (tmp_path / "run.json").read_bytes()
        assert b'"kernel": "scan"' in expected
        assert (tmp_path / "dispatch.json").read_bytes() == expected
        assert (tmp_path / "process.json").read_bytes() == expected

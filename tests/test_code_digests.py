"""Regression tests for code-derived store keys.

The verdict and shard-result stores key every entry on a digest of the
code that computes it (:func:`repro.analysis.verdict.verdict_digest`,
:func:`repro.analysis.verdict.record_digest`).  Keyed on a hand-bumped
version number instead, a store kept serving records computed by older
code after an edit to a corpus template.  These tests replay that
experiment on a copy of the sources, check that a comment-only edit to an
analyzer orphans the stored verdicts, and check that the digests cover
every ``repro`` package a verdict or a shard evaluation imports.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.verdict import RECORD_SOURCES, UNDIGESTED, VERDICT_SOURCES

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture()
def source_copy(tmp_path) -> Path:
    """A private copy of ``src/`` that a test may edit."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _cli(src: Path, cwd: Path, *argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    command = [sys.executable, *argv] if argv[0] == "-c" else [
        sys.executable, "-m", "repro.harness.cli", *argv
    ]
    return subprocess.run(
        command, cwd=cwd, env=env, input=stdin, capture_output=True, text=True,
        check=True, timeout=120,
    )


def _scores(path: Path) -> dict[tuple[str, str, bool], float]:
    return {
        (record["model"], record["kernel"], record["use_postfix"]): record["score"]
        for record in json.loads(path.read_text())
    }


def _store_summary(stderr: str, label: str) -> str:
    [line] = [line for line in stderr.splitlines() if line.startswith(label)]
    return line


class TestTemplateEditReExecutes:
    def test_julia_template_edit_misses_the_result_store(self, source_copy, tmp_path):
        dispatch = ("dispatch", "--shards", "2", "--languages", "julia", "--result-store", "RS")
        first = _cli(source_copy, tmp_path, *dispatch, "--json", "pre.json")
        assert "shard-writes=2" in _store_summary(first.stderr, "result store:")
        assert _scores(tmp_path / "pre.json")[("julia.threads", "axpy", False)] == 0.5

        template = source_copy / "repro" / "corpus" / "templates" / "julia.py"
        template.write_text(template.read_text().replace("Threads.@threads", ""))
        second = _cli(source_copy, tmp_path, *dispatch, "--json", "post.json")
        assert "shard-hits=0" in _store_summary(second.stderr, "result store:")
        assert _scores(tmp_path / "post.json")[("julia.threads", "axpy", False)] == 0.0


class TestAnalyzerEditOrphansVerdicts:
    def test_comment_only_edit_gives_no_hits(self, source_copy, tmp_path):
        table = ("--verdict-store", "VS", "table", "5")
        _cli(source_copy, tmp_path, *table)
        warm = _store_summary(_cli(source_copy, tmp_path, *table).stderr, "verdict store:")
        assert "hits=0" not in warm and "sandbox-executions=0" in warm

        clike = source_copy / "repro" / "analysis" / "clike.py"
        clike.write_text(clike.read_text() + "\n# A comment changes no behavior, but the code.\n")
        edited = _store_summary(_cli(source_copy, tmp_path, *table).stderr, "verdict store:")
        assert " hits=0 " in edited


_PROBE = """
import json, sys

def packages():
    return sorted({name.split(".")[1] for name in sys.modules if name.startswith("repro.")})

from repro.analysis.analyzer import SuggestionAnalyzer

analyzer = SuggestionAnalyzer(shared_memo=False)
for code, language, kernel, model in json.load(sys.stdin):
    analyzer.analyze(code, language=language, kernel=kernel, requested_model=model)
verdict = packages()

from repro.api import ExperimentSpec, Session
from repro.extensions import install_extended_grid

install_extended_grid()
with Session(seed=7) as session:
    session.run(ExperimentSpec(seeds=(7,)))
print(json.dumps({"verdict": verdict, "record": packages()}))
"""


class TestDigestCoverage:
    def test_every_repro_package_is_classified_once(self):
        top_level = {
            path.stem
            for path in (SRC / "repro").iterdir()
            if path.suffix == ".py" or (path / "__init__.py").exists()
        } - {"__init__"}
        lists = [*VERDICT_SOURCES, *RECORD_SOURCES, *UNDIGESTED]
        assert len(lists) == len(set(lists)), "a package is listed twice"
        assert set(lists) == top_level

    def test_digests_cover_every_package_a_computation_imports(self, corpus, tmp_path):
        # One template per language and per execution path: plain Python,
        # the GPU shims, CUDA-C kernels, Fortran and Julia.
        cells = [
            ("python", "python.numpy", "axpy"),
            ("python", "python.cupy", "gemv"),
            ("python", "python.pycuda", "axpy"),
            ("python", "python.numba", "spmv"),
            ("cpp", "cpp.cuda", "gemm"),
            ("cpp", "cpp.openmp", "jacobi"),
            ("fortran", "fortran.openacc", "cg"),
            ("julia", "julia.cuda", "axpy"),
        ]
        suggestions = [
            (corpus.template(language, model, kernel).code, language, kernel, model)
            for language, model, kernel in cells
        ]
        probe = _cli(SRC, tmp_path, "-c", _PROBE, stdin=json.dumps(suggestions))
        imported = json.loads(probe.stdout.splitlines()[-1])
        verdict = set(imported["verdict"]) - set(UNDIGESTED)
        assert verdict <= set(VERDICT_SOURCES), verdict - set(VERDICT_SOURCES)
        record = set(imported["record"]) - set(UNDIGESTED)
        covered = set(VERDICT_SOURCES) | set(RECORD_SOURCES)
        assert record <= covered, record - covered
        assert "extensions" in record  # the probe really ran the extended grid

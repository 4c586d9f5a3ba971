"""Golden records: pin what the pipeline computes across commits.

Every other byte-identity check compares two routes through the same
commit (serial against process backend, sharded against unsharded).  This
one compares the current code against numbers committed in
``tests/golden/records.json``:

* the sha256 of the ``run --json`` bytes at seeds 1, 5, 7 and the default
  seed, on the stock and on the extended grid;
* every cell's score at the default seed, so a failure names the cells
  that moved;
* a sha256 per seed over the suggestion stream: each extended-grid cell's
  ``(cell_id, suggestions, competence)`` for seeds 0-19, in grid order;
* one sha256 over the verdict payload of every template and mutant in the
  extended grid's default corpus (the stock snippets included), in corpus
  order (see :func:`verdict_digest`);
* one sha256 over every kernel's sandbox task: its arguments, its oracle
  output and its tolerances (see :func:`task_digest`).  A last-bit change
  in an oracle array flips no verdict, so only this key catches it;
* the sha256 of the text of Tables 2-5 and Figures 2-6 rendered from the
  default-seed grid, stock and extended (see :func:`rendered_digests`).
  The records pin what was computed; only these keys pin how it prints.

A change that is meant to move any of these regenerates the file with::

    PYTHONPATH=src python tests/test_golden_records.py --regenerate

and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.api.session import Session, figure_report, table_report
from repro.codex.config import DEFAULT_SEED
from repro.codex.engine import SimulatedCodex
from repro.codex.prompt import Prompt
from repro.corpus.store import build_default_corpus
from repro.extensions import (
    extended_grid_installed,
    install_extended_grid,
    uninstall_extended_grid,
)
from repro.harness.io import save_records_json
from repro.models.grid import experiment_grid
from repro.models.programming_models import get_model, models_for_language
from repro.sandbox.tasks import get_task

GOLDEN = Path(__file__).with_name("golden") / "records.json"
RUN_SEEDS = (1, 5, 7, DEFAULT_SEED)
TABLES = range(2, 6)
FIGURES = range(2, 7)
STREAM_SEEDS = range(20)
GRIDS = ("stock", "extended")
#: Every kernel with a sandbox task, stock and extension families alike.
TASK_KERNELS = ("axpy", "gemv", "gemm", "spmv", "jacobi", "cg", "scan", "histogram")


def cell_name(record: dict) -> str:
    return f"{record['model']}/{record['kernel']}{'+kw' if record['use_postfix'] else ''}"


def run_json(results) -> bytes:
    """The bytes ``run --json`` writes for ``results``."""
    with tempfile.TemporaryDirectory() as scratch:
        return save_records_json(results, Path(scratch) / "records.json").read_bytes()


def rendered_digests(results, grid: str) -> dict[str, str]:
    """sha256 of each table's and figure's text rendered from ``results``,
    keyed ``{grid}/table{n}`` and ``{grid}/figure{n}``."""
    reports = [table_report(results, n) for n in TABLES]
    reports += [figure_report(results, n) for n in FIGURES]
    return {
        f"{grid}/{report.experiment_id}": hashlib.sha256(report.text.encode("utf-8")).hexdigest()
        for report in reports
    }


def stream_digest(seed: int) -> str:
    """sha256 over every grid cell's completion at ``seed``, in grid order."""
    engine = SimulatedCodex(seed=seed)
    digest = hashlib.sha256()
    for cell in experiment_grid():
        prompt = Prompt.from_cell(cell)
        completion = engine.complete(prompt)
        digest.update(
            repr((prompt.cell_id, completion.suggestions, completion.competence)).encode("utf-8")
        )
    return digest.hexdigest()


def verdict_digest() -> str:
    """sha256 over the verdict payload of every snippet of the installed
    grid's default corpus (templates and mutants), in corpus order.

    The verdict memo is emptied first, so no verdict computed earlier in
    the process is reused.  The requested model is the snippet's
    ``label_model`` when :func:`get_model` knows it; labels that are not
    registered programming models (``serial``, ``none``) request the
    language's first model instead.
    """
    clear_verdict_memo()
    analyzer = SuggestionAnalyzer()
    digest = hashlib.sha256()
    for snippet in build_default_corpus():
        try:
            model = get_model(snippet.label_model).uid
        except KeyError:
            model = models_for_language(snippet.language)[0].uid
        verdict = analyzer.analyze(
            snippet.code, language=snippet.language, kernel=snippet.kernel, requested_model=model
        )
        digest.update(json.dumps(verdict.to_payload(), sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def task_digest() -> str:
    """sha256 over every sandbox task in :data:`TASK_KERNELS` order.

    Each argument and the oracle output contribute their dtype, shape and
    bytes when they are arrays and their ``repr`` when they are scalars;
    the task's ``(rtol, atol)`` closes each kernel's entry.
    """
    digest = hashlib.sha256()
    for kernel in TASK_KERNELS:
        task = get_task(kernel)
        digest.update(kernel.encode("utf-8"))
        for value in (*task.args, task.expected):
            if isinstance(value, np.ndarray):
                digest.update(repr((value.dtype.str, value.shape)).encode("utf-8"))
                digest.update(np.ascontiguousarray(value).tobytes())
            else:
                digest.update(repr(value).encode("utf-8"))
        digest.update(repr((task.rtol, task.atol)).encode("utf-8"))
    return digest.hexdigest()


def compute() -> dict:
    """Everything the golden file pins, computed by the current code."""
    was_extended = extended_grid_installed()
    golden: dict = {"run_json_sha256": {}, "rendered_sha256": {}}
    try:
        for grid in GRIDS:
            (install_extended_grid if grid == "extended" else uninstall_extended_grid)()
            for seed in RUN_SEEDS:
                with Session(seed=seed) as session:
                    results = session.full_results()
                payload = run_json(results)
                golden["run_json_sha256"][f"{grid}/{seed}"] = hashlib.sha256(payload).hexdigest()
                if seed == DEFAULT_SEED:
                    golden["rendered_sha256"].update(rendered_digests(results, grid))
                if grid == "extended" and seed == DEFAULT_SEED:
                    golden["scores"] = {
                        cell_name(record): record["score"] for record in json.loads(payload)
                    }
        golden["stream_sha256"] = {str(seed): stream_digest(seed) for seed in STREAM_SEEDS}
        golden["verdict_sha256"] = verdict_digest()
        golden["task_sha256"] = task_digest()
    finally:
        (install_extended_grid if was_extended else uninstall_extended_grid)()
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return compute()


def test_scores_at_the_default_seed(golden, current):
    moved = [
        f"{cell}: {golden['scores'].get(cell)} -> {current['scores'].get(cell)}"
        for cell in sorted(golden["scores"].keys() | current["scores"].keys())
        if golden["scores"].get(cell) != current["scores"].get(cell)
    ]
    assert not moved, "scores moved at the default seed:\n" + "\n".join(moved)


def test_run_json_bytes(golden, current):
    moved = sorted(
        key
        for key in golden["run_json_sha256"].keys() | current["run_json_sha256"].keys()
        if golden["run_json_sha256"].get(key) != current["run_json_sha256"].get(key)
    )
    assert not moved, f"run --json changed for grid/seed {moved}"


def test_suggestion_stream(golden, current):
    moved = sorted(
        (int(seed) for seed in golden["stream_sha256"].keys() | current["stream_sha256"].keys()
         if golden["stream_sha256"].get(seed) != current["stream_sha256"].get(seed))
    )
    assert not moved, f"suggestion stream changed at seeds {moved}"


def test_verdict_payloads(golden, current):
    assert current["verdict_sha256"] == golden["verdict_sha256"], (
        "a corpus snippet's verdict payload changed"
    )


def test_rendered_tables_and_figures(golden, current):
    moved = sorted(
        key
        for key in golden["rendered_sha256"].keys() | current["rendered_sha256"].keys()
        if golden["rendered_sha256"].get(key) != current["rendered_sha256"].get(key)
    )
    assert not moved, f"rendered text changed for {moved}"


def test_sandbox_tasks(golden, current):
    assert current["task_sha256"] == golden["task_sha256"], (
        "a sandbox task's arguments, oracle output or tolerances changed"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

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
  ``(cell_id, suggestions, competence)`` for seeds 0-19, in grid order.

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

import pytest

from repro.api.session import Session
from repro.codex.config import DEFAULT_SEED
from repro.codex.engine import SimulatedCodex
from repro.codex.prompt import Prompt
from repro.extensions import (
    extended_grid_installed,
    install_extended_grid,
    uninstall_extended_grid,
)
from repro.harness.io import save_records_json
from repro.models.grid import experiment_grid

GOLDEN = Path(__file__).with_name("golden") / "records.json"
RUN_SEEDS = (1, 5, 7, DEFAULT_SEED)
STREAM_SEEDS = range(20)
GRIDS = ("stock", "extended")


def cell_name(record: dict) -> str:
    return f"{record['model']}/{record['kernel']}{'+kw' if record['use_postfix'] else ''}"


def run_json(seed: int) -> bytes:
    """The bytes ``run --json`` writes at ``seed`` on the installed grid."""
    with Session(seed=seed) as session:
        results = session.full_results()
    with tempfile.TemporaryDirectory() as scratch:
        return save_records_json(results, Path(scratch) / "records.json").read_bytes()


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


def compute() -> dict:
    """Everything the golden file pins, computed by the current code."""
    was_extended = extended_grid_installed()
    golden: dict = {"run_json_sha256": {}}
    try:
        for grid in GRIDS:
            (install_extended_grid if grid == "extended" else uninstall_extended_grid)()
            for seed in RUN_SEEDS:
                payload = run_json(seed)
                golden["run_json_sha256"][f"{grid}/{seed}"] = hashlib.sha256(payload).hexdigest()
                if grid == "extended" and seed == DEFAULT_SEED:
                    golden["scores"] = {
                        cell_name(record): record["score"] for record in json.loads(payload)
                    }
        golden["stream_sha256"] = {str(seed): stream_digest(seed) for seed in STREAM_SEEDS}
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

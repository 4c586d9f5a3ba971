"""Re-measure ``_LANGUAGE_COSTS``: the relative cost of one cell per language.

The ``process`` dispatch backend divides its work among workers by
language, weighing each language by the per-cell costs in the driver's
private table ``repro.dispatch.driver._LANGUAGE_COSTS``.  This script
measures them the way a dispatch worker pays them: each language's cells
run in a fresh process right after the CLI import, timed from the first
cell to the last (cold memos, sampling plans and lazy imports included).
The per-cell time is the median over the seeds and rounds, printed
relative to C++ next to the checked-in table::

    python benchmarks/measure_language_costs.py
    python benchmarks/measure_language_costs.py --seeds 5 101 409 --rounds 3

Copy the ``relative`` column into ``_LANGUAGE_COSTS`` when it has drifted.
Nothing here is gated: the numbers depend on the host, and only their
ratios matter to the schedule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.dispatch.driver import _LANGUAGE_COSTS  # noqa: E402
from repro.models.languages import language_names  # noqa: E402

#: One measurement: import the CLI, then evaluate one language's cells at
#: one seed and print the seconds per cell.
CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import repro.harness.cli  # noqa: F401  (a dispatch worker forks after this import)
from repro.api import ExperimentSpec
from repro.core.runner import EvaluationRunner

language, seed = sys.argv[2], int(sys.argv[3])
cells = ExperimentSpec(seeds=(seed,), languages=(language,)).cells()
start = time.perf_counter()
EvaluationRunner(seed=seed).run_cells(cells)
print(json.dumps((time.perf_counter() - start) / len(cells)))
"""


def measure(language: str, seed: int) -> float:
    """Seconds per cell of ``language`` at ``seed``, in a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), language, str(seed)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 101, 409])
    parser.add_argument("--rounds", type=int, default=3, help="measurements per seed and language")
    args = parser.parse_args(argv)
    languages = language_names()
    samples: dict[str, list[float]] = {language: [] for language in languages}
    for _ in range(args.rounds):
        for seed in args.seeds:
            for language in languages:  # interleaved, so host noise spreads evenly
                samples[language].append(measure(language, seed))
    per_cell = {language: statistics.median(values) for language, values in samples.items()}
    reference = per_cell.get("cpp") or next(iter(per_cell.values()))
    print(f"{'language':10s} {'ms/cell':>8s} {'relative':>9s} {'table':>7s}")
    for language in languages:
        print(
            f"{language:10s} {per_cell[language] * 1e3:8.2f} "
            f"{per_cell[language] / reference:9.2f} {_LANGUAGE_COSTS.get(language, 1.0):7.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

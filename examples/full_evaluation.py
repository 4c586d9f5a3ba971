"""Reproduce the paper's full evaluation (Tables 2-5 and Figure 6).

Runs every cell of the Table 1 grid — 204 prompts across C++, Fortran,
Python and Julia — renders each table next to the published values, prints
the overall Figure 6 averages, and writes the raw per-cell records to
``results/`` as CSV and JSON.

The run goes through a persistent verdict store under ``results/``: the
first (cold) session analyzes and sandbox-executes every suggestion and
populates the store; a second (warm) session — with the in-memory memo
cleared, exactly like a brand-new process — serves every verdict from disk,
performs zero sandbox executions, and reproduces the records byte-for-byte.
The cold-vs-warm timing is printed at the end.

Run with:  python examples/full_evaluation.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.analyzer import clear_verdict_memo
from repro.api import Session, VerdictStore, figure_report, table_report
from repro.harness.io import save_records_csv, save_records_json
from repro.models.languages import get_language, language_names

SEED = 20230414


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "results"
    store_dir = out_dir / "verdict-store"

    # Cold pass: empty caches, every suggestion analyzed and (for Python)
    # sandbox-executed; verdicts are written through to the on-disk store.
    # The store survives under results/, so clear it first — otherwise a
    # second invocation of this script would start warm and the cold-vs-warm
    # comparison below would demonstrate nothing.
    VerdictStore(store_dir).clear()
    clear_verdict_memo()
    with Session(seed=SEED, verdict_store=store_dir) as session:
        start = time.perf_counter()
        results = session.full_results()
        cold_seconds = time.perf_counter() - start
        cold_executions = session.sandbox_executions

        # Every artefact renders from the one grid evaluated above.
        for number, language in zip((2, 3, 4, 5), language_names()):
            report = table_report(results, number)
            print(report.text)
            comparison = report.comparison
            display = get_language(language).display_name
            print(
                f"--> {display}: rank correlation {comparison.cell_rank_correlation:+.2f}, "
                f"{comparison.within_one_level:.0%} of cells within one rubric level, "
                f"top model agrees: {comparison.top_model_agrees}"
            )
            print()

        print(figure_report(results, 6).text)

    # Warm pass: clearing the memo puts this session in the position of a
    # brand-new process — everything must come from the on-disk store.
    clear_verdict_memo()
    with Session(seed=SEED, verdict_store=store_dir) as warm:
        start = time.perf_counter()
        warm_results = warm.full_results()
        warm_seconds = time.perf_counter() - start
        identical = warm_results.to_records() == results.to_records()
        print(
            f"\nverdict store: cold {cold_seconds:.2f}s ({cold_executions} sandbox "
            f"executions) -> warm {warm_seconds:.2f}s ({warm.sandbox_executions} "
            f"sandbox executions, {warm.store_hits} store hits, "
            f"x{cold_seconds / warm_seconds:.1f} faster)"
        )
        print(f"warm records byte-identical to cold: {identical}")
        assert identical and warm.sandbox_executions == 0

    csv_path = save_records_csv(results, out_dir / "full_grid.csv")
    json_path = save_records_json(results, out_dir / "full_grid.json")
    print(f"\nPer-cell records written to {csv_path} and {json_path}")


if __name__ == "__main__":
    main()

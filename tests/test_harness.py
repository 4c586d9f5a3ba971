"""Tests for the harness: experiments, tables, figures, IO and the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Session
from repro.harness.cli import build_parser, main
from repro.harness.figures import (
    FIGURE_LANGUAGES,
    figure_data,
    overall_figure_data,
    paper_figure_data,
    paper_overall_figure_data,
    render_figure,
    render_overall_figure,
)
from repro.core.runner import ResultSet
from repro.harness.io import (
    load_records_csv,
    load_records_json,
    save_records_csv,
    save_records_json,
)
from repro.harness.tables import render_language_table, table_rows
from repro.kernels.registry import KERNEL_NAMES
from repro.models.languages import language_names


class TestTablesRendering:
    def test_table_rows_shape(self, full_results):
        rows = table_rows(full_results, "cpp", use_postfix=False)
        assert len(rows) == 8
        assert all(len(row) == 1 + len(KERNEL_NAMES) for row in rows)

    def test_cells_show_repro_and_paper_values(self, full_results):
        rows = table_rows(full_results, "fortran", use_postfix=True)
        assert all("/" in cell for row in rows for cell in row[1:])

    def test_render_language_table_contains_both_halves(self, full_results):
        text = render_language_table(full_results, "python")
        assert "Prefix <kernel>" in text
        assert "Post fix 'def'" in text
        assert "numpy" in text

    def test_julia_table_has_single_half(self, full_results):
        text = render_language_table(full_results, "julia")
        assert "Post fix" not in text


class TestFiguresRendering:
    def test_figure_data_panels(self, full_results):
        data = figure_data(full_results, "cpp")
        assert tuple(data["kernels"]) == KERNEL_NAMES
        assert len(data["models"]) == 8

    def test_paper_figure_data_matches_table_means(self):
        data = paper_figure_data("julia")
        assert data["kernels"]["axpy"] == pytest.approx((0.75 + 0.75 + 0.0 + 0.25) / 4)

    def test_render_figure_includes_paper_panel(self, full_results):
        text = render_figure(full_results, "fortran")
        assert "(paper) per kernel" in text
        assert "Fortran: average score per kernel" in text

    def test_overall_figure(self, full_results):
        data = overall_figure_data(full_results)
        assert set(data["languages"]) == set(language_names())
        reference = paper_overall_figure_data()
        assert reference["kernels"]["axpy"] > reference["kernels"]["cg"]
        text = render_overall_figure(full_results)
        assert "Overall: average score per language" in text

    def test_figure_language_mapping(self):
        assert FIGURE_LANGUAGES == {2: "cpp", 3: "fortran", 4: "python", 5: "julia"}


class TestExperiments:
    def test_run_table_reports(self):
        with Session() as session:
            report = session.table(5)
        assert report.experiment_id == "table5"
        assert report.comparison is not None
        assert "Julia" in report.text
        assert "rho=" in report.summary_line()

    def test_run_table_unknown_number(self):
        with Session() as session, pytest.raises(KeyError):
            session.table(7)

    def test_run_figure_reports(self):
        with Session() as session:
            report = session.figure(3)
        assert report.experiment_id == "figure3"
        assert "kernels" in report.data
        assert report.comparison is not None

    def test_run_figure6(self):
        with Session() as session:
            report = session.figure(6)
        assert report.experiment_id == "figure6"
        assert set(report.data["languages"]) == set(language_names())
        assert report.summary_line().endswith("done")

    def test_run_figure_unknown_number(self):
        with Session() as session, pytest.raises(KeyError):
            session.figure(9)

    def test_keyword_ablation(self):
        with Session() as session:
            report = session.ablation("keywords")
        effects = report.data["effects"]
        assert effects["fortran"]["delta"] > 0
        assert effects["python"]["delta"] > 0
        assert "Fortran" in report.text

    def test_suggestion_count_ablation_scores_bounded(self):
        with Session() as session:
            report = session.ablation("suggestions", counts=(1, 10))
        means = report.data["means"]
        assert set(means) == {1, 10}
        assert all(0.0 <= v <= 1.0 for v in means.values())

    def test_maturity_ablation_keeps_openmp_on_top(self):
        with Session() as session:
            report = session.ablation("maturity", scales=(0.75, 1.0))
        assert all(report.data["openmp_in_top3"].values())


class TestIo:
    def test_csv_roundtrip(self, full_results, tmp_path):
        path = save_records_csv(full_results, tmp_path / "results.csv")
        content = path.read_text().splitlines()
        assert content[0].startswith("language,model,kernel")
        assert len(content) == len(full_results) + 1

    def test_json_roundtrip(self, full_results, tmp_path):
        path = save_records_json(full_results, tmp_path / "results.json")
        records = load_records_json(path)
        assert len(records) == len(full_results)
        assert {"language", "model", "kernel", "score"} <= set(records[0])
        assert json.loads(path.read_text())

    def test_json_roundtrip_rehydrates_exactly(self, full_results, tmp_path):
        """save → load → ResultSet.from_payload reproduces to_records()
        verbatim, postfix cells included, down to the serialized bytes."""
        path = save_records_json(full_results, tmp_path / "results.json")
        rebuilt = ResultSet.from_payload(load_records_json(path), seed=full_results.seed)
        assert rebuilt.to_records() == full_results.to_records()
        assert any(record["use_postfix"] and record["postfix"] for record in rebuilt.to_records())
        again = save_records_json(rebuilt, tmp_path / "again.json")
        assert again.read_bytes() == path.read_bytes()

    def test_csv_roundtrip_rehydrates_exactly(self, full_results, tmp_path):
        path = save_records_csv(full_results, tmp_path / "results.csv")
        rebuilt = ResultSet.from_payload(load_records_csv(path), seed=full_results.seed)
        assert rebuilt.to_records() == full_results.to_records()

    def test_rehydrated_set_keeps_indexed_lookups(self, full_results, tmp_path):
        path = save_records_json(full_results, tmp_path / "results.json")
        rebuilt = ResultSet.from_payload(load_records_json(path))
        some = full_results.results[10].cell
        assert rebuilt.score(some.model, some.kernel, use_postfix=some.use_postfix) == \
            full_results.results[10].score
        assert len(rebuilt.filter(language="julia")) == len(full_results.filter(language="julia"))

    def test_payload_roundtrip_via_to_payload(self, full_results):
        payload = full_results.to_payload()
        rebuilt = ResultSet.from_payload(json.loads(json.dumps(payload)))
        assert rebuilt.seed == full_results.seed
        assert rebuilt.to_records() == full_results.to_records()


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["table", "2"])
        assert args.command == "table" and args.number == 2
        args = parser.parse_args(["--seed", "5", "prompt", "axpy", "cpp.openmp", "--keyword"])
        assert args.seed == 5 and args.keyword

    def test_backend_choices_match_the_session(self):
        from repro.api.session import BACKENDS

        (backend,) = [action for action in build_parser()._actions if action.dest == "backend"]
        assert tuple(backend.choices) == BACKENDS

    def test_cli_loads_no_worker_pool(self):
        """A serial command imports no process or thread pool, and importing
        the CLI does not import the api layer."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        probe = "\n".join([
            "import contextlib, io, sys",
            "from repro.harness import cli",
            "api = 'repro.api' in sys.modules",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['table', '5']) == 0",
            "pools = ('concurrent.futures', 'multiprocessing')",
            "print(api, sorted(m for m in pools if m in sys.modules))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "False []"

    def test_cli_table(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "Python" in out and "numpy" in out

    def test_cli_figure(self, capsys):
        assert main(["figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Julia" in out

    def test_cli_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "rank-correlation" in out
        assert "C++" in out

    def test_cli_ablation(self, capsys):
        assert main(["ablation", "keywords"]) == 0
        assert "Keyword post-fix effect" in capsys.readouterr().out

    def test_cli_prompt(self, capsys):
        assert main(["prompt", "axpy", "python.numpy", "--keyword"]) == 0
        out = capsys.readouterr().out
        assert "axpy.py" in out
        assert "suggestion 1" in out

    def test_cli_run_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        json_path = tmp_path / "cells.json"
        assert main(["run", "--csv", str(csv_path), "--json", str(json_path)]) == 0
        assert csv_path.exists() and json_path.exists()
        out = capsys.readouterr().out
        assert "Overall: average score per kernel" in out

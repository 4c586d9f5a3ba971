"""Reproduction harness: rendering, persistence and the CLI.

The supported programmatic surface is :mod:`repro.api` — hold a
:class:`repro.api.Session` and call ``session.table(2)`` /
``session.figure(6)`` / ``session.ablation("keywords")`` /
``session.run(spec)``.  Within this package,
:mod:`repro.harness.tables` and :mod:`repro.harness.figures` render
artefacts as text; :mod:`repro.harness.io` persists raw per-cell records;
and :mod:`repro.harness.cli` wires everything (including the ``shard`` /
``merge`` subcommands) into the ``repro-hpc-codex`` command-line tool.
"""

from __future__ import annotations

from repro.harness.tables import TABLE_LANGUAGES, render_language_table
from repro.harness.figures import figure_data, render_figure

__all__ = [
    "TABLE_LANGUAGES",
    "render_language_table",
    "figure_data",
    "render_figure",
]

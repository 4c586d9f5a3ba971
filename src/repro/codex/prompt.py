"""Prompt model: the ``<kernel> <programming model> (<postfix>)`` pattern.

The paper's prompts are a comment line in a file whose extension tells the
editor (and therefore the model) the host language, optionally followed by a
language "code keyword" (``function``, ``subroutine``, ``def``).  This module
captures that structure and renders the exact textual prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.registry import get_kernel
from repro.models.grid import ExperimentCell
from repro.models.languages import Language, get_language
from repro.models.programming_models import ProgrammingModel, get_model

__all__ = ["Prompt"]


@dataclass(frozen=True)
class Prompt:
    """A single Copilot-style prompt."""

    #: Kernel canonical name ("axpy", ...).
    kernel: str
    #: Programming model uid ("cpp.openmp", ...).
    model_uid: str
    #: Optional post-fix keyword ("function", "subroutine", "def", or "").
    postfix: str = ""

    # -- derived views -------------------------------------------------------
    @property
    def model(self) -> ProgrammingModel:
        return get_model(self.model_uid)

    @property
    def language(self) -> Language:
        return get_language(self.model.language)

    @property
    def kernel_display(self) -> str:
        return get_kernel(self.kernel).display_name

    @property
    def filename(self) -> str:
        """File the prompt is typed into; its extension is part of the context."""
        return self.language.prompt_filename(self.kernel)

    @property
    def query(self) -> str:
        """The bare ``<kernel> <programming model> (<postfix>)`` query string."""
        parts = [self.kernel_display, self.model.prompt_phrase]
        if self.postfix:
            parts.append(self.postfix)
        return " ".join(parts)

    @property
    def text(self) -> str:
        """The prompt as it appears in the editor: a comment line."""
        return self.language.comment(f"Prompt: {self.query}")

    @property
    def uses_keyword(self) -> bool:
        return bool(self.postfix)

    @property
    def cell_id(self) -> str:
        suffix = "+kw" if self.postfix else ""
        return f"{self.model_uid}:{self.kernel}{suffix}"

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_cell(cls, cell: ExperimentCell) -> "Prompt":
        """Build the prompt for one experiment-grid cell."""
        return cls(kernel=cell.kernel, model_uid=cell.model, postfix=cell.postfix)

    def describe(self) -> str:
        return f"{self.filename}: {self.text}"

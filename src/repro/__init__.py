"""repro — reproduction of Godoy et al., *Evaluation of OpenAI Codex for HPC
Parallel Programming Models Kernel Generation* (ICPP-W 2023).

The package is organised as a set of substrates plus the paper's core
methodology:

* :mod:`repro.kernels` — the specs of the six HPC numerical kernels (AXPY,
  GEMV, GEMM, SpMV, Jacobi, CG): name, complexity class and languages.
* :mod:`repro.models` — languages, programming models and the Table 1
  experiment grid.
* :mod:`repro.popularity` — synthetic popularity / maturity priors (GitHut,
  TIOBE style) that drive the simulated code-suggestion engine.
* :mod:`repro.corpus` — the synthetic "public code" corpus: correct templates
  per (kernel, language, model) and mutation operators producing realistic
  incorrect variants.
* :mod:`repro.codex` — *SimCodex*, the simulated Copilot/Codex suggestion
  engine (prompt → up to ten code suggestions).
* :mod:`repro.analysis` — per-language lexers, programming-model detectors
  and kernel semantics checkers used to judge suggestions.
* :mod:`repro.sandbox` — execution substrate for Python suggestions,
  including numpy-backed cuPy/pyCUDA/Numba-CUDA shims and a miniature CUDA-C
  kernel interpreter.
* :mod:`repro.core` — the proficiency metric, the suggestion-set evaluator,
  the experiment runner, aggregation and the embedded paper reference data.
* :mod:`repro.harness` — table/figure rendering, record persistence and the
  CLI (including the ``shard``/``merge`` subcommands).
* :mod:`repro.api` — **the supported entry point**: the :class:`Session`
  façade (backend selection, progress, the verdict store), the
  ``table_report``/``figure_report`` renderers, plus the
  declarative, shardable :class:`ExperimentSpec`/:class:`Shard` grids with
  mergeable ``ResultSet``s and validating ``ShardManifest``s.
"""

from __future__ import annotations

__version__ = "1.0.0"

__all__ = [
    "__version__",
]

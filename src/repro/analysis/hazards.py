"""Static hazard findings for CUDA-C kernels embedded in suggestions.

Bridges the CUDA-C static analyzer (:mod:`repro.sandbox.cuda_c.static`) into
the analysis layer: :func:`static_findings_for` extracts every ``RawKernel``
/ ``SourceModule`` CUDA source from a Python suggestion, analyzes each
kernel, and returns the findings as plain dicts ready to attach to
:attr:`~repro.analysis.verdict.SuggestionVerdict.static_findings`.

Findings are **informational**: they never feed ``is_correct`` (sandbox
execution remains the correctness oracle); they surface through the ``lint``
CLI subcommand and each cell record's ``n_hazards``, the number of its
suggestions with at least one ``HAZARD`` finding.

Out-of-bounds verdicts need concrete launch geometry and buffer sizes.  The
sandbox tasks (:mod:`repro.sandbox.tasks`) fix those per kernel family, so a
per-family profile is applied — but only when the suggestion still contains
the template's canonical launch arithmetic: a mutation that rewrites the
launch math would invalidate the profile, and a finding computed from stale
geometry could claim ``SAFE`` for an access the runtime rejects.  Without a
matching profile the race/barrier/uninit classes still resolve symbolically
and out-of-bounds stays ``UNKNOWN``.
"""

from __future__ import annotations

import re

from repro.sandbox.cuda_c.interpreter import cuda_parse
from repro.sandbox.cuda_c.parser import CudaSyntaxError, parse_cuda_source
from repro.sandbox.cuda_c.static import analyze_kernel

__all__ = [
    "static_findings_for",
    "extract_cuda_sources",
    "register_profile",
    "unregister_profile",
]

#: Triple-quoted literal passed to RawKernel(...) / SourceModule(...).
_CUDA_SOURCE_RE = re.compile(
    r"(?:RawKernel|SourceModule)\(\s*[rbu]*(\"\"\"|''')(?P<body>.*?)\1",
    re.DOTALL,
)

#: Per-kernel-family launch profiles, mirroring the geometry and problem
#: sizes :mod:`repro.sandbox.tasks` launches with.  ``require_all`` /
#: ``require_any`` are canonical launch-code fragments that must survive in
#: the suggestion for the profile to be trusted.
_PROFILES: dict[str, dict] = {
    "axpy": {
        "require_all": ["threads = 256"],
        "require_any": ["(n + threads - 1) // threads",
                        "(x.size + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"x": 64, "y": 64},
        "scalar_args": {"n": 64},
    },
    "gemv": {
        "require_all": ["threads = 256"],
        "require_any": ["(m + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"A": 108, "x": 9, "y": 12},
        "scalar_args": {"m": 12, "n": 9},
    },
    "gemm": {
        "require_all": ["threads = (16, 16, 1)",
                        "((n + 15) // 16, (m + 15) // 16)"],
        "require_any": [],
        "grid": (1, 1, 1),
        "block": (16, 16, 1),
        "buffer_sizes": {"A": 48, "B": 42, "C": 56},
        "scalar_args": {"m": 8, "n": 7, "k": 6},
    },
    "spmv": {
        "require_all": ["threads = 256"],
        "require_any": ["(n + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"row_ptr": 17, "col_idx": 64, "values": 64,
                         "x": 16, "y": 16},
        "scalar_args": {"n": 16},
    },
    "jacobi": {
        "require_all": ["threads = (4, 4, 4)",
                        "((n + 3) // 4, (n + 3) // 4, (n + 3) // 4)"],
        "require_any": [],
        "grid": (2, 2, 2),
        "block": (4, 4, 4),
        "buffer_sizes": {"u": 216, "u_new": 216},
        "scalar_args": {"n": 6},
    },
    "cg": {
        "require_all": ["threads = 256"],
        "require_any": ["(n + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"A": 100, "p": 10, "Ap": 10},
        "scalar_args": {"n": 10},
    },
    # -- extension families (repro.extensions) ------------------------------
    "scan": {
        "require_all": ["threads = 256"],
        "require_any": ["(n + threads - 1) // threads",
                        "(x.size + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"x": 64, "out": 64},
        "scalar_args": {"n": 64},
    },
    "histogram": {
        "require_all": ["threads = 256"],
        "require_any": ["(n + threads - 1) // threads",
                        "(bins.size + threads - 1) // threads"],
        "grid": (1, 1, 1),
        "block": (256, 1, 1),
        "buffer_sizes": {"bins": 64, "hist": 8},
        "scalar_args": {"n": 64, "nbins": 8},
    },
}


def register_profile(kernel: str, profile: dict) -> None:
    """Register the launch-geometry profile for an extension kernel family.

    Every kernel family whose suggestions can embed CUDA-C **must** have a
    profile — :func:`static_findings_for` refuses to analyze an unknown
    family rather than silently degrade its out-of-bounds verdicts (and its
    hazard counts in the ``lint`` CLI and findings tables) to nothing.
    """
    required = {"require_all", "require_any", "grid", "block", "buffer_sizes", "scalar_args"}
    missing = required - set(profile)
    if missing:
        raise ValueError(f"profile for {kernel!r} is missing keys: {sorted(missing)}")
    existing = _PROFILES.get(kernel)
    if existing is not None and existing != profile:
        raise ValueError(f"kernel {kernel!r} already has a different geometry profile")
    _PROFILES[kernel] = profile


def unregister_profile(kernel: str) -> None:
    """Remove an extension profile (idempotent)."""
    _PROFILES.pop(kernel, None)


def extract_cuda_sources(code: str) -> list[str]:
    """CUDA-C sources passed to ``RawKernel``/``SourceModule`` in ``code``."""
    return [match.group("body") for match in _CUDA_SOURCE_RE.finditer(code)]


def _profile_for(kernel: str, code: str) -> dict:
    profile = _PROFILES.get(kernel)
    if profile is None:
        # A family without a registered profile would silently lose every
        # geometry-dependent verdict (the lint CLI and findings tables would
        # report zero hazards for it).  Fail loudly instead.
        raise KeyError(
            f"no launch-geometry profile registered for kernel family {kernel!r}; "
            "register one with repro.analysis.hazards.register_profile"
        )
    if not all(fragment in code for fragment in profile["require_all"]):
        return {}
    if profile["require_any"] and not any(
        fragment in code for fragment in profile["require_any"]
    ):
        return {}
    return {
        "grid": profile["grid"],
        "block": profile["block"],
        "buffer_sizes": profile["buffer_sizes"],
        "scalar_args": profile["scalar_args"],
    }


def static_findings_for(code: str, language: str, kernel: str) -> list[dict]:
    """Analyze every embedded CUDA-C kernel in a Python suggestion.

    Returns one dict per (kernel, hazard-class[, buffer]) finding:
    ``{"kernel", "kind", "verdict", "buffer", "detail", "line"}``.
    Non-Python suggestions, suggestions without embedded CUDA, and sources
    the CUDA-C parser rejects yield no findings; an unexpected analysis
    error skips that kernel rather than failing the suggestion's verdict.
    A kernel family with no registered geometry profile raises ``KeyError``
    (see :func:`register_profile`).  Within a
    :func:`~repro.sandbox.cuda_c.interpreter.shared_parse_scope` each source
    is parsed once, shared with the sandbox's ``CudaModule``.
    """
    if language != "python":
        return []
    if "RawKernel" not in code and "SourceModule" not in code:
        return []
    findings: list[dict] = []
    profile = _profile_for(kernel, code)
    for source in extract_cuda_sources(code):
        try:
            definitions = cuda_parse(source, parse_cuda_source).definitions()
        except CudaSyntaxError:
            continue
        for name, definition in definitions.items():
            try:
                report = analyze_kernel(definition, **profile)
            except Exception:  # pragma: no cover - analyzer bug containment
                continue
            for finding in report.findings:
                findings.append({"kernel": name, **finding.to_payload()})
    return findings

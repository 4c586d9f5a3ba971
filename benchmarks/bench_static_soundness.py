"""CI gate: the CUDA-C static hazard analyzer must be conservative.

The analyzer's contract is one-sided: a ``SAFE`` verdict is a *proof*, so a
kernel whose hazard class is reported ``SAFE`` must never trigger the
corresponding runtime hazard fallback.  (``HAZARD``/``UNKNOWN`` claims carry
no such obligation.)  The oracle is the lockstep engine's runtime hazard
tracking, which is always on: every launch checks for cross-lane reads,
duplicate scatters and out-of-bounds indices, whatever the analyzer says.

This harness enforces the contract empirically on two inputs:

* the full corpus — every stock template and every mutated variant with an
  embedded CUDA kernel — each suggestion executed solo and checked against
  the findings ``lint`` reports for it;
* :data:`GEOMETRY_CASES` — store-index forms launched over 1-D, 2-D and 3-D
  geometries outside the corpus, each analyzed with the geometry, buffer
  sizes and scalar arguments it is launched with.  A store whose index
  ignores a lane coordinate the launch spreads over must not be ``SAFE``.

For every hazard class the analyzer reported ``SAFE``, the run must record
zero scalar fallbacks with that class's runtime reasons.  Non-vacuity: the
stock templates must actually be proven race-``SAFE`` (otherwise the gate
would pass by never claiming anything), the ``race_injection`` mutants must
be flagged ``HAZARD``, at least one ``SAFE`` claim must be checked, and
every geometry case must get the race verdicts its coordinates call for.

Runs standalone (``python benchmarks/bench_static_soundness.py``) or under
pytest (the ``static-soundness`` CI job).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.hazards import static_findings_for
from repro.corpus.store import default_corpus
from repro.sandbox import evaluate_python_suggestions
from repro.sandbox.cuda_c import CudaModule, lockstep_stats, parse_cuda_source
from repro.sandbox.cuda_c.static import LANE_COORDS, analyze_kernel

#: Runtime fallback reasons that would falsify a SAFE verdict of each class.
#: barrier-divergence has no runtime counterpart (the interpreter's barrier
#: is a vectorized no-op), so its SAFE claims are vacuously unfalsifiable
#: here and checked only by the unit suite.
KIND_RUNTIME_REASONS: dict[str, tuple[str, ...]] = {
    "write-write-race": ("cross-lane-write", "duplicate-scatter", "atomic-result-order"),
    "duplicate-scatter": ("duplicate-scatter",),
    "cross-lane-read": ("cross-lane-read", "write-after-read"),
    "out-of-bounds": ("out-of-bounds", "bad-index"),
    "uninitialized-read": (
        "partially-defined-read",
        "unknown-identifier",
        "undefined-local-array",
    ),
    "barrier-divergence": (),
}

#: The findings that together say a buffer is race-free.
RACE_KINDS = ("write-write-race", "duplicate-scatter", "cross-lane-read")

#: Store-index forms ``(name, lane coordinates that every store site's index
#: uses or its guard pins, source)``.  Every kernel takes ``(int n, double* y)``
#: and reads the element it stores, so ``y`` gets all three race findings.
_STORE_FORMS = (
    ("thread-x", {"tid.x"}, """
__global__ void k(int n, double* y) {
    int i = threadIdx.x;
    if (i < n) { y[i] = y[i] + 1.0; }
}"""),
    ("global-x", {"tid.x", "ctaid.x"}, """
__global__ void k(int n, double* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = y[i] + 1.0; }
}"""),
    ("pinned-x", {"tid.x", "ctaid.x"}, """
__global__ void k(int n, double* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i == 0) { y[0] = y[0] + 1.0; }
}"""),
    ("pinned-block-x", {"tid.x", "ctaid.x"}, """
__global__ void k(int n, double* y) {
    if (threadIdx.x == 0) { y[blockIdx.x] = y[blockIdx.x] + 1.0; }
}"""),
    ("two-pinned-sites", set(), """
__global__ void k(int n, double* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if (i == 0) { y[0] = y[0] + 1.0; }
    if (j == 0) { y[0] = y[0] + 2.0; }
}"""),
    ("row-major-xy", {"tid.x", "ctaid.x", "tid.y", "ctaid.y"}, """
__global__ void k(int n, double* y) {
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n && j < n) { y[i * n + j] = y[i * n + j] + 1.0; }
}"""),
    ("cube-xyz", set(LANE_COORDS), """
__global__ void k(int n, double* y) {
    int i = blockIdx.z * blockDim.z + threadIdx.z;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    int l = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n && j < n && l < n) { y[i * n * n + j * n + l] = y[i * n * n + j * n + l] + 1.0; }
}"""),
)

#: Launches ``(name, grid, block)``, one per dimensionality.
_LAUNCHES = (
    ("1d", (1, 1, 1), (16, 1, 1)),
    ("2d", (2, 2, 1), (4, 2, 1)),
    ("3d", (1, 1, 2), (2, 2, 2)),
)


def _extent(coord: str, grid: tuple, block: tuple) -> int:
    kind, axis = coord.split(".")
    return (block if kind == "tid" else grid)["xyz".index(axis)]


#: ``(label, source, grid, block, expect_race_safe)`` for every form under
#: every launch.  A case is expected race-SAFE exactly when the launch
#: spreads lanes only along coordinates its store index uses or a guard pins.
GEOMETRY_CASES = tuple(
    (
        f"{form}@{launch}",
        source,
        grid,
        block,
        all(coord in used for coord in LANE_COORDS if _extent(coord, grid, block) > 1),
    )
    for form, used, source in _STORE_FORMS
    for launch, grid, block in _LAUNCHES
)


def _fallback_delta(before: dict, after: dict) -> dict:
    return {
        key: after[key] - before.get(key, 0)
        for key in after
        if key.startswith("fallback[") and after[key] - before.get(key, 0)
    }


def unsound_claims(findings: list[dict], fallbacks: dict) -> tuple[int, list[str]]:
    """``(SAFE claims checked, violations)`` of ``findings`` against the
    ``fallback[<reason>]`` counts one run recorded."""
    claims = 0
    violations = []
    for kind, reasons in KIND_RUNTIME_REASONS.items():
        kind_findings = [f for f in findings if f["kind"] == kind]
        if not kind_findings or any(f["verdict"] != "SAFE" for f in kind_findings):
            continue
        claims += 1
        triggered = {
            reason: fallbacks[f"fallback[{reason}]"]
            for reason in reasons
            if fallbacks.get(f"fallback[{reason}]", 0)
        }
        if triggered:
            violations.append(f"{kind} claimed SAFE but runtime hit {triggered}")
    return claims, violations


def check_geometry_case(source: str, grid: tuple, block: tuple) -> dict:
    """Analyze and launch one geometry case.

    ``n`` is the largest per-axis lane count, so every lane passes the
    guards and ``y`` (``n ** 3`` elements) is never indexed out of bounds.
    Returns the race findings, the fallbacks the launch recorded, and the
    unsound SAFE claims among the findings.
    """
    n = max(g * b for g, b in zip(grid, block))
    size = n ** 3
    ((_, definition),) = parse_cuda_source(source).items()
    report = analyze_kernel(
        definition, grid=grid, block=block,
        buffer_sizes={"y": size}, scalar_args={"n": n},
    )
    findings = report.to_payload()
    before = lockstep_stats()
    CudaModule(source).get_kernel("k").launch(grid, block, (n, np.zeros(size)))
    fallbacks = _fallback_delta(before, lockstep_stats())
    claims, violations = unsound_claims(findings, fallbacks)
    return {
        "race": {f["kind"]: f for f in findings if f["kind"] in RACE_KINDS},
        "fallbacks": fallbacks,
        "claims": claims,
        "violations": violations,
    }


def run_soundness() -> dict:
    """Execute the corpus and the geometry cases against the runtime oracle;
    returns a summary."""
    corpus = default_corpus(include_mutations=True)
    snippets = [
        s
        for s in corpus
        if s.language == "python"
        and ("SourceModule" in s.code or "RawKernel" in s.code)
    ]
    assert snippets, "no CUDA-embedded suggestions found in the corpus"

    safe_claims = 0
    race_hazard_mutants = 0
    violations: list[str] = []
    for snippet in snippets:
        findings = static_findings_for(snippet.code, snippet.language, snippet.kernel)
        label = f"{snippet.kernel}/{snippet.label_model}[{snippet.mutation or 'template'}]"
        if snippet.mutation == "race_injection" and any(
            f["kind"] == "write-write-race" and f["verdict"] == "HAZARD" for f in findings
        ):
            race_hazard_mutants += 1
        before = lockstep_stats()
        evaluate_python_suggestions([(snippet.code, snippet.kernel)])
        claims, found = unsound_claims(findings, _fallback_delta(before, lockstep_stats()))
        safe_claims += claims
        violations.extend(f"{label}: {violation}" for violation in found)

    geometry_races = 0
    mismatches: list[str] = []
    for label, source, grid, block, expect_safe in GEOMETRY_CASES:
        outcome = check_geometry_case(source, grid, block)
        safe_claims += outcome["claims"]
        violations.extend(f"{label}: {violation}" for violation in outcome["violations"])
        race_safe = all(f["verdict"] == "SAFE" for f in outcome["race"].values())
        if len(outcome["race"]) != len(RACE_KINDS) or race_safe != expect_safe:
            mismatches.append(f"{label}: expected race-SAFE={expect_safe}, got {outcome['race']}")
        if not expect_safe:
            if not outcome["fallbacks"]:
                mismatches.append(f"{label}: ignored coordinate never collided")
            geometry_races += 1
    assert not violations, "static analyzer soundness violated:\n" + "\n".join(violations)
    assert not mismatches, "geometry cases behaved unexpectedly:\n" + "\n".join(mismatches)

    # Non-vacuity: the gate must actually be exercising proofs.
    for snippet in snippets:
        if snippet.origin.value != "template":
            continue
        findings = static_findings_for(snippet.code, snippet.language, snippet.kernel)
        races = [f for f in findings if f["kind"] == "write-write-race"]
        assert races and all(f["verdict"] == "SAFE" for f in races), (
            f"stock template {snippet.kernel}/{snippet.label_model} no longer "
            f"proven race-SAFE: {races}"
        )
    assert race_hazard_mutants > 0, "no race_injection mutant was flagged HAZARD"
    assert safe_claims > 0, "no SAFE claim was ever checked against the runtime"

    return {
        "suggestions": len(snippets),
        "geometry_cases": len(GEOMETRY_CASES),
        "geometry_races": geometry_races,
        "safe_claims": safe_claims,
        "race_hazard_mutants": race_hazard_mutants,
    }


def test_static_analyzer_is_conservative():
    run_soundness()


def main() -> None:
    summary = run_soundness()
    print(
        "static soundness ok: "
        f"{summary['suggestions']} suggestions and "
        f"{summary['geometry_cases']} geometry cases checked, "
        f"{summary['safe_claims']} SAFE claims upheld by the runtime oracle, "
        f"{summary['race_hazard_mutants']} race mutants flagged, "
        f"{summary['geometry_races']} ignored-coordinate launches kept off SAFE"
    )


if __name__ == "__main__":
    main()

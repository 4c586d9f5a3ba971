"""Tests for the CUDA-C static hazard analyzer and its consumers.

Covers the verdict lattice over adversarial kernels (races, out-of-bounds,
barrier divergence, uninitialized reads), the affine normalizer's edge
expressions (ternary indices, nested loop counters, int-overflow bounds),
race verdicts under concrete launch geometry (checked against the lockstep
engine's runtime hazard tracking), and the analysis-layer integration
(``static_findings`` on verdicts, the hazards extraction module, the
``race_injection`` mutation operator).  Execution never consults the
analyzer: each CUDA kernel is analyzed once per suggestion batch.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.analysis.hazards import extract_cuda_sources, static_findings_for
from repro.analysis.verdict import SuggestionVerdict
from repro.corpus.mutations import apply_mutation
from repro.corpus.snippets import SnippetOrigin
from repro.corpus.store import default_corpus
from repro.corpus.templates import get_template
from repro.sandbox.cuda_c import CudaModule, parse_cuda_source
from repro.sandbox.cuda_c import static
from repro.sandbox.cuda_c.static import (
    HAZARD,
    SAFE,
    UNKNOWN,
    StaticReport,
    analyze_kernel,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_static_soundness import (  # noqa: E402  (path set up above)
    GEOMETRY_CASES,
    RACE_KINDS,
    check_geometry_case,
)


def _analyze(source: str, **profile) -> StaticReport:
    definitions = parse_cuda_source(source)
    ((_, definition),) = definitions.items()
    return analyze_kernel(definition, **profile)


def _race_verdicts(report: StaticReport, buffer: str) -> set[str]:
    """The verdicts of ``buffer``'s race-class findings; the buffer is
    race-free when this is ``{SAFE}``."""
    race = [f for f in report.findings if f.buffer == buffer and f.kind in RACE_KINDS]
    assert len(race) == len(RACE_KINDS), race
    return {f.verdict for f in race}


AXPY_PROFILE = dict(
    grid=(1, 1, 1), block=(256, 1, 1), buffer_sizes={"x": 64, "y": 64}, scalar_args={"n": 64}
)


class TestVerdictLattice:
    def test_stock_axpy_fully_safe(self):
        report = _analyze(
            """
            __global__ void axpy(int n, double a, double* x, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = a * x[i] + y[i]; }
            }
            """,
            **AXPY_PROFILE,
        )
        assert report.verdict("write-write-race") == SAFE
        assert report.verdict("duplicate-scatter") == SAFE
        assert report.verdict("out-of-bounds") == SAFE
        assert report.verdict("barrier-divergence") == SAFE
        assert report.overall == SAFE
        assert _race_verdicts(report, "y") == {SAFE}

    def test_fixed_index_store_is_race_hazard(self):
        report = _analyze(
            """
            __global__ void axpy(int n, double a, double* x, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[0] = a * x[i] + y[0]; }
            }
            """
        )
        assert report.verdict("write-write-race") == HAZARD
        assert SAFE not in _race_verdicts(report, "y")

    def test_off_by_one_guard_is_oob_hazard_but_race_safe(self):
        report = _analyze(
            """
            __global__ void axpy(int n, double a, double* x, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i <= n) { y[i] = a * x[i] + y[i]; }
            }
            """,
            **AXPY_PROFILE,
        )
        assert report.verdict("out-of-bounds") == HAZARD
        assert report.verdict("write-write-race") == SAFE

    def test_barrier_under_lane_condition_is_hazard(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = 1.0; __syncthreads(); }
            }
            """
        )
        assert report.verdict("barrier-divergence") == HAZARD

    def test_barrier_on_uniform_path_is_safe(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (n > 2) { __syncthreads(); }
                if (i < n) { y[i] = 1.0; }
            }
            """
        )
        assert report.verdict("barrier-divergence") == SAFE

    def test_definitely_uninitialized_read_is_hazard(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                double acc;
                if (i < n) { y[i] = acc; }
            }
            """
        )
        assert report.verdict("uninitialized-read") == HAZARD

    def test_maybe_uninitialized_read_is_unknown(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                double acc;
                if (n > 3) { acc = 1.0; }
                if (i < n) { y[i] = acc; }
            }
            """
        )
        assert report.verdict("uninitialized-read") == UNKNOWN

    def test_guard_pinned_single_writer_is_safe(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i == 0) { y[0] = 1.0; }
            }
            """
        )
        assert report.verdict("write-write-race") == SAFE

    def test_atomic_target_is_unknown(self):
        report = _analyze(
            """
            __global__ void k(int n, double* x, double* out) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { atomicAdd(out, x[i]); }
            }
            """
        )
        assert report.verdict("write-write-race") == UNKNOWN


class TestAffineEdgeExpressions:
    def test_ternary_index_same_lin_both_arms_is_safe(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[(n > 2) ? i : i] = 1.0; }
            }
            """
        )
        assert report.verdict("write-write-race") == SAFE

    def test_ternary_index_different_arms_is_unknown(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[(n > 2) ? i : 0] = 1.0; }
            }
            """
        )
        assert report.verdict("write-write-race") == UNKNOWN

    def test_nested_loop_counter_index_is_unknown_not_hazard(self):
        # Every thread runs the same loops, so the store *does* race — but
        # the analyzer cannot prove lanes collide (loop trip counts are
        # symbolic), and must not claim SAFE either.
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) { y[i * n + j] = 1.0; }
                }
            }
            """
        )
        assert report.verdict("write-write-race") == UNKNOWN

    def test_grid_stride_style_loop_is_unknown(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                for (int j = i; j < n; j += 1) { y[j] = 1.0; }
            }
            """
        )
        assert report.verdict("write-write-race") == UNKNOWN

    def test_int_overflow_bound_is_oob_hazard(self):
        report = _analyze(
            """
            __global__ void k(int n, double* y) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i + 2147483647] = 1.0; }
            }
            """,
            grid=(1, 1, 1),
            block=(4, 1, 1),
            buffer_sizes={"y": 4},
            scalar_args={"n": 4},
        )
        assert report.verdict("out-of-bounds") == HAZARD

    def test_two_dimensional_guarded_store_is_safe(self):
        # gemm shape: the i<m && j<n guard refinement must survive to the
        # store classification (it is snapshotted per access — branch joins
        # deliberately drop refinements from the flowing state).
        report = _analyze(
            """
            __global__ void gemm(int m, int n, int k, double* A, double* B, double* C) {
                int i = blockIdx.y * blockDim.y + threadIdx.y;
                int j = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < m && j < n) {
                    double sum = 0.0;
                    for (int l = 0; l < k; l++) { sum += A[i * k + l] * B[l * n + j]; }
                    C[i * n + j] = sum;
                }
            }
            """
        )
        assert report.verdict("write-write-race") == SAFE
        assert _race_verdicts(report, "C") == {SAFE}


class TestActiveRaceSafe:
    """Race verdicts under a concrete launch hold for that launch."""

    SOURCE = """
        __global__ void axpy(int n, double a, double* x, double* y) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = a * x[i] + y[i]; }
        }
    """

    def test_active_for_one_dimensional_launch(self):
        report = _analyze(self.SOURCE, grid=(4, 1, 1), block=(64, 1, 1))
        assert _race_verdicts(report, "y") == {SAFE}

    def test_inactive_when_unused_coord_has_extent(self):
        # Two lanes differing only in threadIdx.y map to the same y[i]:
        # the 1D injectivity proof does not cover this launch.  A guard
        # could still keep such lanes apart, so the verdict is UNKNOWN.
        report = _analyze(self.SOURCE, grid=(4, 1, 1), block=(64, 2, 1))
        assert _race_verdicts(report, "y") == {UNKNOWN}
        (race,) = [f for f in report.findings if f.kind == "write-write-race"]
        assert "tid.y (extent 2)" in race.detail


@pytest.mark.parametrize(
    "source, grid, block, expect_safe",
    [case[1:] for case in GEOMETRY_CASES],
    ids=[case[0] for case in GEOMETRY_CASES],
)
def test_race_verdicts_hold_for_the_launch_geometry(source, grid, block, expect_safe):
    """No SAFE verdict may coincide with a class-matching runtime fallback
    when the kernel is analyzed with the geometry it is launched with."""
    outcome = check_geometry_case(source, grid, block)
    assert outcome["violations"] == []
    race = {kind: finding["verdict"] for kind, finding in outcome["race"].items()}
    assert set(race) == set(RACE_KINDS)
    if expect_safe:
        assert set(race.values()) == {SAFE}
        assert outcome["fallbacks"] == {}
    else:
        assert SAFE not in race.values()
        assert outcome["fallbacks"], "the ignored coordinate never collided"


class TestAnalyzedOnce:
    """Execution never analyzes kernels: ``static_findings_for`` is the
    analyzer's only caller, so a batch analyzes each kernel once."""

    @pytest.mark.parametrize("model, kernel", [
        ("pycuda", "axpy"),
        ("cupy", "axpy"),
        ("pycuda", "cg"),
    ])
    def test_each_kernel_is_analyzed_once(self, monkeypatch, model, kernel):
        code = get_template("python", model, kernel)
        kernels_in_source = sum(
            len(parse_cuda_source(source)) for source in extract_cuda_sources(code)
        )
        assert kernels_in_source >= 1
        runs = []
        original = static._Analysis.run
        monkeypatch.setattr(
            static._Analysis, "run", lambda self: runs.append(self) or original(self)
        )
        clear_verdict_memo()
        try:
            (verdict,) = SuggestionAnalyzer().analyze_batch(
                [code], language="python", kernel=kernel, requested_model=f"python.{model}"
            )
        finally:
            clear_verdict_memo()
        assert verdict.is_correct
        assert len(runs) == kernels_in_source


class TestReportPayload:
    def test_findings_round_trip_as_plain_dicts(self):
        report = _analyze(self.__class__.KERNEL, **AXPY_PROFILE)
        payload = report.to_payload()
        assert payload, "expected at least one finding"
        for finding in payload:
            assert set(finding) == {"kind", "verdict", "buffer", "detail", "line"}
            assert finding["verdict"] in (SAFE, HAZARD, UNKNOWN)

    KERNEL = """
        __global__ void axpy(int n, double a, double* x, double* y) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = a * x[i] + y[i]; }
        }
    """


class TestLockstepElision:
    """A compiled kernel keeps its parsed definition for the analyzer."""

    SOURCE = """
        __global__ void scale(int n, double a, double* y) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { for (int t = 0; t < 8; t++) { y[i] = a * y[i]; } }
        }
    """

    def test_static_report_property(self):
        kernel = CudaModule(self.SOURCE).get_kernel("scale")
        report = analyze_kernel(kernel.definition)
        assert report.kernel == "scale"
        assert _race_verdicts(report, "y") == {SAFE}


class TestAnalysisIntegration:
    def test_extract_cuda_sources_finds_rawkernel_bodies(self):
        code = 'k = cp.RawKernel(r"""\n__global__ void f() {}\n""", "f")'
        sources = extract_cuda_sources(code)
        assert len(sources) == 1 and "__global__" in sources[0]

    def test_non_python_suggestions_get_no_findings(self):
        assert static_findings_for("__global__ void f() {}", "cpp", "axpy") == []

    def test_corpus_templates_all_proven_race_safe(self):
        corpus = default_corpus(include_mutations=False)
        checked = 0
        for snippet in corpus:
            if snippet.language != "python" or snippet.origin is not SnippetOrigin.TEMPLATE:
                continue
            if "RawKernel" not in snippet.code and "SourceModule" not in snippet.code:
                continue
            findings = static_findings_for(snippet.code, "python", snippet.kernel)
            races = [f for f in findings if f["kind"] == "write-write-race"]
            assert races, f"no race finding for {snippet.kernel}/{snippet.label_model}"
            assert all(f["verdict"] == SAFE for f in races), (snippet.kernel, races)
            checked += 1
        assert checked >= 8

    def test_verdict_payload_requires_static_findings(self):
        verdict = SuggestionVerdict(is_code=True, static_findings=[{"kind": "x"}])
        payload = verdict.to_payload()
        assert SuggestionVerdict.from_payload(payload).static_findings == [{"kind": "x"}]
        del payload["static_findings"]
        with pytest.raises(KeyError):
            SuggestionVerdict.from_payload(payload)

    def test_verdict_payload_rejects_non_dict_findings(self):
        payload = SuggestionVerdict(is_code=True).to_payload()
        payload["static_findings"] = ["HAZARD"]
        with pytest.raises(TypeError):
            SuggestionVerdict.from_payload(payload)


class TestRaceInjectionMutation:
    def test_applies_to_direct_store_cuda_templates_only(self):
        corpus = default_corpus(include_mutations=False)
        applied = {}
        for snippet in corpus:
            if snippet.origin is not SnippetOrigin.TEMPLATE:
                continue
            mutated = apply_mutation(snippet, "race_injection")
            if mutated is not None:
                applied[(snippet.kernel, snippet.label_model)] = mutated
                assert snippet.language == "python"
                assert not mutated.label_correct
                assert "[0]" in mutated.code
        kernels = {kernel for kernel, _ in applied}
        assert kernels == {"axpy", "gemv", "spmv"}

    def test_mutant_is_flagged_hazard_by_the_analyzer(self):
        corpus = default_corpus(include_mutations=False)
        template = next(
            s
            for s in corpus
            if s.kernel == "axpy" and s.label_model == "python.pycuda"
            and s.origin is SnippetOrigin.TEMPLATE
        )
        mutated = apply_mutation(template, "race_injection")
        findings = static_findings_for(mutated.code, "python", "axpy")
        assert any(
            f["kind"] == "write-write-race" and f["verdict"] == HAZARD for f in findings
        )

"""Tests for the per-language correctness checkers and the combined analyzer."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_suggestion, clike, fortranlang, julialang, pythonlang
from repro.corpus.mutations import apply_mutation
from repro.corpus.snippets import CodeSnippet, SnippetOrigin
from repro.corpus.templates import get_template, iter_templates
from repro.kernels.registry import KERNEL_NAMES


def _static_issues(language: str, kernel: str, code: str) -> list[str] | None:
    if language == "cpp":
        return clike.check_structure(code) + clike.check_kernel_semantics(code, kernel)
    if language == "fortran":
        return fortranlang.check_structure(code) + fortranlang.check_kernel_semantics(code, kernel)
    if language == "julia":
        return julialang.check_structure(code) + julialang.check_kernel_semantics(code, kernel)
    return None


class TestTemplatesPassTheirCheckers:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_cpp_templates_pass(self, kernel):
        for model in ("openmp", "openmp_offload", "openacc", "kokkos", "cuda", "hip", "thrust", "sycl"):
            code = get_template("cpp", model, kernel)
            assert _static_issues("cpp", kernel, code) == [], (model, kernel)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_fortran_templates_pass(self, kernel):
        for model in ("openmp", "openmp_offload", "openacc"):
            code = get_template("fortran", model, kernel)
            assert _static_issues("fortran", kernel, code) == [], (model, kernel)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_julia_templates_pass(self, kernel):
        for model in ("threads", "cuda", "amdgpu", "kernelabstractions"):
            code = get_template("julia", model, kernel)
            assert _static_issues("julia", kernel, code) == [], (model, kernel)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_python_templates_pass_static_checks(self, kernel):
        for model in ("numpy", "numba", "cupy", "pycuda"):
            code = get_template("python", model, kernel)
            assert pythonlang.check_structure(code) == [], (model, kernel)
            assert pythonlang.undefined_call_names(code) == set(), (model, kernel)


class TestCheckersCatchRepresentativeBugs:
    def test_cpp_sign_flip_is_caught(self):
        code = get_template("cpp", "openmp", "axpy").replace("+ y[i]", "- y[i]")
        assert _static_issues("cpp", "axpy", code)

    def test_cpp_off_by_one_is_caught(self):
        code = get_template("cpp", "openmp", "gemv").replace("int i = 0", "int i = 1")
        assert _static_issues("cpp", "gemv", code)

    def test_cpp_inclusive_guard_is_caught(self):
        code = get_template("cpp", "cuda", "axpy").replace("if (i < n)", "if (i <= n)")
        assert _static_issues("cpp", "axpy", code)

    def test_cpp_broken_thread_index_is_caught(self):
        code = get_template("cpp", "cuda", "gemm").replace(
            "blockIdx.y * blockDim.y + threadIdx.y", "blockIdx.y * blockDim.y - threadIdx.y"
        )
        assert _static_issues("cpp", "gemm", code)

    def test_cpp_truncation_is_caught(self):
        code = get_template("cpp", "openmp", "cg")
        truncated = "\n".join(code.splitlines()[: len(code.splitlines()) // 2])
        assert clike.check_structure(truncated)

    def test_fortran_sign_flip_is_caught(self):
        code = get_template("fortran", "openmp", "axpy").replace("+ y(i)", "- y(i)")
        assert _static_issues("fortran", "axpy", code)

    def test_fortran_bounds_are_checked(self):
        code = get_template("fortran", "openacc", "gemm").replace("do i = 1, m", "do i = 0, m")
        assert _static_issues("fortran", "gemm", code)

    def test_fortran_missing_end_do_is_caught(self):
        code = get_template("fortran", "openmp", "gemv").replace("    end do\n", "", 1)
        assert fortranlang.check_structure(code)

    def test_julia_sign_flip_is_caught(self):
        code = get_template("julia", "threads", "axpy").replace("+ y[i]", "- y[i]")
        assert _static_issues("julia", "axpy", code)

    def test_julia_zero_based_range_is_caught(self):
        code = get_template("julia", "threads", "gemv").replace("in 1:m", "in 0:m")
        assert _static_issues("julia", "gemv", code)

    def test_julia_unbalanced_end_is_caught(self):
        code = get_template("julia", "cuda", "axpy").replace("    return nothing\nend", "    return nothing", 1)
        assert julialang.check_structure(code)

    def test_julia_broken_thread_index_is_caught(self):
        code = get_template("julia", "cuda", "gemv").replace(
            "* blockDim().x + threadIdx().x", "* blockDim().x - threadIdx().x"
        )
        assert _static_issues("julia", "gemv", code)

    def test_python_syntax_error_is_caught(self):
        assert pythonlang.check_structure("def axpy(a, x, y)\n    return a * x + y\n")

    def test_python_missing_function_is_caught(self):
        assert pythonlang.check_structure("import numpy as np\nresult = 1\n")

    def test_python_unknown_import_is_caught(self):
        issues = pythonlang.check_structure("import torch\n\ndef axpy(a, x, y):\n    return a * x + y\n")
        assert any("torch" in issue for issue in issues)

    def test_python_undefined_call_is_caught(self):
        undefined = pythonlang.undefined_call_names(
            "def axpy(a, x, y):\n    return axpy_helper(a, x, y)\n"
        )
        assert undefined == {"axpy_helper"}

    def test_python_entry_function_resolution(self):
        code = get_template("python", "numba", "cg")
        assert pythonlang.find_entry_function(code, "cg") == "cg"
        assert pythonlang.find_entry_function("def solve(A, b):\n    return b\n", "cg") == "solve"
        assert pythonlang.find_entry_function("x = 3\n", "cg") is None

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            clike.check_kernel_semantics("int x;", "fft")
        with pytest.raises(KeyError):
            fortranlang.check_kernel_semantics("x", "fft")
        with pytest.raises(KeyError):
            julialang.check_kernel_semantics("x", "fft")


class TestAnalyzerVerdicts:
    def test_templates_are_correct_for_their_own_model(self, analyzer):
        for language, model_short, kernel, code in iter_templates():
            verdict = analyzer.analyze(
                code, language=language, kernel=kernel, requested_model=f"{language}.{model_short}"
            )
            assert verdict.is_correct, (language, model_short, kernel, verdict.issues)

    def test_other_model_template_is_flagged_as_other_model(self, analyzer):
        code = get_template("cpp", "openacc", "axpy")
        verdict = analyzer.analyze(
            code, language="cpp", kernel="axpy", requested_model="cpp.openmp"
        )
        assert verdict.math_correct
        assert not verdict.uses_requested_model
        assert verdict.uses_other_model
        assert not verdict.is_correct

    def test_non_code_suggestion(self, analyzer):
        verdict = analyzer.analyze(
            "// AXPY implementation\n// TODO\n",
            language="cpp",
            kernel="axpy",
            requested_model="cpp.openmp",
        )
        assert not verdict.is_code
        assert not verdict.is_correct
        assert verdict.summary() == "no code"

    def test_serial_code_is_not_other_model(self, analyzer):
        serial = (
            "void axpy(int n, double a, const double *x, double *y) {\n"
            "    for (int i = 0; i < n; i++) {\n        y[i] = a * x[i] + y[i];\n    }\n}\n"
        )
        verdict = analyzer.analyze(
            serial, language="cpp", kernel="axpy", requested_model="cpp.openmp"
        )
        assert verdict.math_correct
        assert not verdict.uses_requested_model
        assert not verdict.uses_other_model

    def test_python_execution_catches_numerical_bug(self, analyzer):
        broken = "import numpy as np\n\ndef axpy(a, x, y):\n    return a * x - y\n"
        verdict = analyzer.analyze(
            broken, language="python", kernel="axpy", requested_model="python.numpy"
        )
        assert verdict.method == "executed"
        assert not verdict.math_correct

    def test_analyzer_cache_returns_equal_verdicts(self, analyzer):
        # Memoized analyses return value-equal verdicts; each caller gets its
        # own copy so mutations cannot poison the process-wide memo.
        code = get_template("cpp", "openmp", "axpy")
        first = analyzer.analyze(code, language="cpp", kernel="axpy", requested_model="cpp.openmp")
        second = analyzer.analyze(code, language="cpp", kernel="axpy", requested_model="cpp.openmp")
        assert first == second
        assert first is not second

    def test_module_level_helper(self):
        verdict = analyze_suggestion(
            get_template("julia", "threads", "axpy"),
            language="julia",
            kernel="axpy",
            requested_model="julia.threads",
        )
        assert verdict.is_correct

    def test_mutation_catch_rate_is_high(self, analyzer, corpus):
        total = 0
        caught = 0
        for snippet in corpus:
            if snippet.origin is not SnippetOrigin.MUTATION:
                continue
            if snippet.mutation == "drop_parallelism":
                continue  # serial code is judged on model usage, not math
            requested = f"{snippet.language}.{snippet.metadata['model_short']}"
            verdict = analyzer.analyze(
                snippet.code,
                language=snippet.language,
                kernel=snippet.kernel,
                requested_model=requested,
            )
            total += 1
            if not verdict.is_correct:
                caught += 1
        assert total > 300
        assert caught / total >= 0.9

    def test_drop_parallelism_mutations_never_count_as_correct(self, analyzer, corpus):
        for snippet in corpus:
            if snippet.mutation != "drop_parallelism":
                continue
            requested = f"{snippet.language}.{snippet.metadata['model_short']}"
            verdict = analyzer.analyze(
                snippet.code,
                language=snippet.language,
                kernel=snippet.kernel,
                requested_model=requested,
            )
            assert not verdict.is_correct

    def test_comment_only_mutation_is_no_code(self, analyzer):
        template = CodeSnippet(
            code=get_template("cpp", "cuda", "spmv"),
            language="cpp",
            kernel="spmv",
            label_model="cpp.cuda",
            label_correct=True,
        )
        non_code = apply_mutation(template, "comment_only")
        verdict = analyzer.analyze(
            non_code.code, language="cpp", kernel="spmv", requested_model="cpp.cuda"
        )
        assert not verdict.is_code

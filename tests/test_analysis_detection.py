"""Tests for programming-model detection and the lexical helpers."""

from __future__ import annotations

import pytest

from repro.analysis.detection import detect_models, primary_model
from repro.analysis.lexical import (
    balanced_delimiters,
    normalize_whitespace,
    strip_c_comments,
    strip_line_comments,
    strip_string_literals,
)
from repro.corpus.templates import get_template, iter_templates
from repro.models.programming_models import PROGRAMMING_MODELS


class TestLexicalHelpers:
    def test_strip_c_comments_keeps_pragmas(self):
        code = "// comment\n#pragma omp parallel for\nint x; /* block */\n"
        cleaned = strip_c_comments(code)
        assert "#pragma omp" in cleaned
        assert "comment" not in cleaned
        assert "block" not in cleaned

    def test_strip_line_comments_keeps_fortran_directives(self):
        code = "! a comment\n!$omp parallel do\ndo i = 1, n\n"
        cleaned = strip_line_comments(code, "!")
        assert "!$omp parallel do" in cleaned
        assert "a comment" not in cleaned

    def test_strip_string_literals(self):
        cleaned = strip_string_literals('call("some + text", other)')
        assert "some + text" not in cleaned
        assert "other" in cleaned

    def test_balanced_delimiters(self):
        assert balanced_delimiters("{ ( [ ] ) }")
        assert not balanced_delimiters("{ ( ) ")
        assert not balanced_delimiters(") (")

    def test_normalize_whitespace(self):
        assert normalize_whitespace("a\n\t b   c ") == "a b c"


class TestDetection:
    def test_every_template_detects_its_own_model(self):
        for language, model_short, kernel, code in iter_templates():
            uid = f"{language}.{model_short}"
            detected = detect_models(code, language)
            assert uid in detected, (uid, kernel, detected)

    def test_primary_model_is_most_specific(self):
        code = get_template("cpp", "openmp_offload", "axpy")
        assert primary_model(code, "cpp") == "cpp.openmp_offload"
        assert "cpp.openmp" not in detect_models(code, "cpp")

    def test_hip_not_mistaken_for_cuda(self):
        code = get_template("cpp", "hip", "gemv")
        detected = detect_models(code, "cpp")
        assert "cpp.hip" in detected
        assert "cpp.cuda" not in detected

    def test_thrust_not_mistaken_for_cuda(self):
        code = get_template("cpp", "thrust", "axpy")
        detected = detect_models(code, "cpp")
        assert detected == ("cpp.thrust",)

    def test_serial_code_detects_nothing(self):
        serial = "void axpy(int n, double a, const double *x, double *y) {\n" \
                 "  for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];\n}"
        assert detect_models(serial, "cpp") == ()
        assert primary_model(serial, "cpp") is None

    def test_fortran_offload_shadows_plain_openmp(self):
        code = get_template("fortran", "openmp_offload", "spmv")
        detected = detect_models(code, "fortran")
        assert "fortran.openmp_offload" in detected
        assert "fortran.openmp" not in detected

    def test_python_numpy_only_without_gpu_packages(self):
        numpy_code = get_template("python", "numpy", "gemv")
        assert detect_models(numpy_code, "python") == ("python.numpy",)
        cupy_code = get_template("python", "cupy", "gemv")
        assert "python.cupy" in detect_models(cupy_code, "python")
        assert "python.numpy" not in detect_models(cupy_code, "python")

    def test_julia_amdgpu_not_mistaken_for_cuda(self):
        code = get_template("julia", "amdgpu", "axpy")
        detected = detect_models(code, "julia")
        assert "julia.amdgpu" in detected
        assert "julia.cuda" not in detected

    def test_julia_kernelabstractions_detected(self):
        code = get_template("julia", "kernelabstractions", "gemm")
        assert "julia.kernelabstractions" in detect_models(code, "julia")

    def test_unknown_language_raises(self):
        with pytest.raises(KeyError):
            detect_models("code", "rust")

    def test_detected_uids_are_registered(self):
        for language, _model, _kernel, code in iter_templates():
            for uid in detect_models(code, language):
                assert uid in PROGRAMMING_MODELS

    def test_mixed_model_code_reports_both(self):
        code = (
            "#include <omp.h>\n"
            "#pragma acc parallel loop\n"
            "void f() {\n#pragma omp parallel for\nfor (int i = 0; i < n; i++) {}\n}\n"
        )
        detected = detect_models(code, "cpp")
        assert "cpp.openmp" in detected
        assert "cpp.openacc" in detected

"""Tests for the dense kernels: AXPY, GEMV, GEMM.

Each kernel is its spec, its sandbox task (the oracle) and the corpus's
executable Python templates.  The function tests call the CPU templates
(numpy and Numba) in the sandbox on inputs of their own; the kernel tests
run every Python model's template against the kernel's task.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.pythonlang import find_entry_function
from repro.corpus.templates import get_template
from repro.kernels.base import KernelComplexity
from repro.kernels.registry import get_kernel
from repro.sandbox.executor import evaluate_python_suggestion, run_python_suggestion
from repro.sandbox.tasks import SandboxTask, get_task

#: The templates that run on the host, called on arbitrary inputs.
CPU_MODELS = ("numpy", "numba")
#: Every stock Python model; each template must pass its kernel's task.
PYTHON_MODELS = ("numpy", "numba", "cupy", "pycuda")

_INPLACE_AXPY = '''def axpy(a, x, y):
    y += a * x
    return y
'''

_INPLACE_AXPY_NO_RETURN = '''def axpy(a, x, y):
    for i in range(len(y)):
        y[i] += a * x[i]
'''

_BLAS_GEMV = '''def gemv(alpha, A, x, beta, y):
    return alpha * (A @ x) + beta * y
'''

_BLAS_GEMM = '''def gemm(alpha, A, B, beta, C):
    return alpha * (A @ B) + beta * C
'''

_TRANSPOSED_GEMM = '''def gemm(A, B):
    return (A @ B).T
'''

_BLOCKED_GEMM = '''import numpy as np


def gemm(A, B, block=4):
    m, k = A.shape
    n = B.shape[1]
    C = np.zeros((m, n))
    for i in range(0, m, block):
        for j in range(0, n, block):
            for l in range(0, k, block):
                a = A[i:i + block, l:l + block]
                C[i:i + block, j:j + block] += a @ B[l:l + block, j:j + block]
    return C
'''


def _output(result):
    assert result.passed, result.issues
    return result.output


def _raised(result) -> str:
    assert not result.passed
    (issue,) = result.issues
    return issue


class TestAxpyFunction:
    def test_matches_numpy_expression(self, rng, call_template):
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        for model in CPU_MODELS:
            result = _output(call_template(model, "axpy", 2.5, x, y))
            np.testing.assert_allclose(result, 2.5 * x + y)

    def test_does_not_mutate_inputs(self):
        """The sandbox calls each candidate on copies: one that updates ``y``
        in place leaves the task's arrays, and so the next verdict, intact."""
        task = get_task("axpy")
        y_before = task.args[2].copy()
        for _ in range(2):
            assert evaluate_python_suggestion(_INPLACE_AXPY, "axpy").passed
        np.testing.assert_array_equal(task.args[2], y_before)

    def test_inplace_variant_mutates_y(self):
        """An in-place AXPY is judged by what it returns: ``y`` passes,
        nothing fails."""
        assert evaluate_python_suggestion(_INPLACE_AXPY, "axpy").passed
        result = evaluate_python_suggestion(_INPLACE_AXPY_NO_RETURN, "axpy")
        assert _raised(result) == "function returned None"

    def test_shape_mismatch_raises(self, call_template):
        issue = _raised(call_template("numpy", "axpy", 1.0, np.zeros(3), np.zeros(4)))
        assert issue.startswith("calling axpy() raised ValueError: operands could not be broadcast")
        issue = _raised(call_template("numba", "axpy", 1.0, np.zeros(4), np.zeros(3)))
        assert issue.startswith("calling axpy() raised IndexError")

    def test_zero_scalar_returns_y(self, rng, call_template):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_output(call_template(model, "axpy", 0.0, x, y)), y)

    @given(
        a=st.floats(-10, 10, allow_nan=False),
        x=arrays(np.float64, st.integers(1, 50), elements=st.floats(-1e3, 1e3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_reference(self, call_template, a, x):
        y = np.ones_like(x)
        for model in CPU_MODELS:
            np.testing.assert_allclose(
                _output(call_template(model, "axpy", a, x, y)), a * x + y, rtol=1e-12, atol=1e-9
            )


class TestAxpyKernelClass:
    def test_spec(self):
        spec = get_kernel("axpy")
        assert (spec.name, spec.display_name) == ("axpy", "AXPY")
        assert spec.complexity is KernelComplexity.TRIVIAL

    def test_problem_roundtrip(self):
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "axpy"), "axpy")
            assert result.passed, (model, result.issues)

    def test_validation_rejects_wrong_result(self):
        task = get_task("axpy")
        assert task.mismatch(task.expected + 1.0).startswith("max abs error 1.000e+00 exceeds")
        wrong = get_template("python", "numpy", "axpy").replace("a * x + y", "a * x - y")
        assert _raised(evaluate_python_suggestion(wrong, "axpy")).startswith(
            "numerical mismatch: max abs error"
        )

    def test_problem_size_validation(self):
        a, x, y = get_task("axpy").args
        assert isinstance(a, float) and a != 0.0
        assert x.shape == y.shape == get_task("axpy").expected.shape == (64,)
        assert x.dtype == y.dtype == np.float64

    def test_matches_token_synonyms(self):
        daxpy = "def daxpy(a, x, y):\n    return a * x + y\n"
        assert find_entry_function(daxpy, "axpy") == "daxpy"
        assert evaluate_python_suggestion(daxpy, "axpy").passed
        assert find_entry_function("def AXPY(a, x, y):\n    return y\n", "axpy") == "AXPY"
        two = "def gemv(A, x):\n    return A @ x\n\ndef scale(a, x):\n    return a * x\n"
        assert find_entry_function(two, "axpy") is None
        assert _raised(evaluate_python_suggestion(two, "axpy")) == (
            "no callable entry point for the kernel"
        )


class TestGemv:
    def test_matches_numpy(self, rng, call_template):
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_output(call_template(model, "gemv", a, x)), a @ x)

    def test_beta_zero_ignores_y(self):
        """The task asks for the simple form ``y = A x`` (``beta = 0``), so
        no ``y`` is passed."""
        task = get_task("gemv")
        a, x = task.args
        assert a.shape == (12, 9) and x.shape == (9,)
        np.testing.assert_array_equal(task.expected, a @ x)

    def test_beta_nonzero_requires_y(self):
        issue = _raised(evaluate_python_suggestion(_BLAS_GEMV, "gemv"))
        assert issue.startswith("calling gemv() raised TypeError: ")
        assert "missing 3 required positional arguments" in issue

    def test_dimension_mismatch_raises(self, rng, call_template):
        a = rng.standard_normal((4, 3))
        issue = _raised(call_template("numpy", "gemv", a, rng.standard_normal(4)))
        assert issue.startswith("calling gemv() raised ValueError")
        issue = _raised(call_template("numba", "gemv", a, rng.standard_normal(2)))
        assert issue.startswith("calling gemv() raised IndexError")

    def test_rejects_non_2d_matrix(self, rng, call_template):
        a, x = rng.standard_normal(4), rng.standard_normal(4)
        issue = _raised(call_template("numba", "gemv", a, x))
        assert issue.startswith("calling gemv() raised ValueError")
        # numpy's dot of two vectors is a scalar, which the comparison rejects.
        scalar = _output(call_template("numpy", "gemv", a, x))
        assert get_task("gemv").mismatch(scalar) == "shape mismatch: candidate () vs expected (12,)"

    def test_problem_roundtrip(self):
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "gemv"), "gemv")
            assert result.passed, (model, result.issues)

    def test_complexity_class(self):
        assert get_kernel("gemv").complexity is KernelComplexity.SIMPLE

    @given(m=st.integers(1, 12), n=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_property_shapes(self, call_template, m, n):
        rng = np.random.default_rng(m * 100 + n)
        a = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        for model in CPU_MODELS:
            result = _output(call_template(model, "gemv", a, x))
            assert result.shape == (m,)
            np.testing.assert_allclose(result, a @ x)


class TestGemm:
    def test_matches_numpy(self, rng, call_template):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        for model in CPU_MODELS:
            np.testing.assert_allclose(_output(call_template(model, "gemm", a, b)), a @ b)

    def test_inner_dimension_mismatch(self, rng, call_template):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 2))
        result = call_template("numpy", "gemm", a, b)
        assert _raised(result).startswith("calling gemm() raised ValueError")

    def test_beta_requires_c(self):
        issue = _raised(evaluate_python_suggestion(_BLAS_GEMM, "gemm"))
        assert issue.startswith("calling gemm() raised TypeError: ")
        assert "missing 3 required positional arguments" in issue

    def test_wrong_c_shape_raises(self):
        assert _raised(evaluate_python_suggestion(_TRANSPOSED_GEMM, "gemm")) == (
            "numerical mismatch: shape mismatch: candidate (7, 8) vs expected (8, 7)"
        )

    def test_blocked_variant_matches(self, rng):
        """A blocked GEMM sums in another order; the task's tolerances accept it."""
        assert evaluate_python_suggestion(_BLOCKED_GEMM, "gemm").passed
        a = rng.standard_normal((70, 50))
        b = rng.standard_normal((50, 60))
        task = SandboxTask(kernel="gemm", args=(a, b), expected=a @ b)
        output = _output(run_python_suggestion(_BLOCKED_GEMM, "gemm", task))
        np.testing.assert_allclose(output, a @ b, rtol=1e-9, atol=1e-9)

    def test_blocked_variant_requires_matching_inner_dims(self, rng, call_template):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((3, 2))
        result = call_template("numba", "gemm", a, b)
        assert _raised(result).startswith("calling gemm() raised IndexError")

    def test_problem_roundtrip(self):
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "gemm"), "gemm")
            assert result.passed, (model, result.issues)

    def test_complexity_class(self):
        assert get_kernel("gemm").complexity is KernelComplexity.MODERATE

    @given(m=st.integers(1, 8), k=st.integers(1, 8), n=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_matmul(self, call_template, m, k, n):
        rng = np.random.default_rng(m * 121 + k * 11 + n)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        for model in CPU_MODELS:
            np.testing.assert_allclose(
                _output(call_template(model, "gemm", a, b)), a @ b, rtol=1e-12, atol=1e-12
            )

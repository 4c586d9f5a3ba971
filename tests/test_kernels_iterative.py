"""Tests for the Jacobi stencil and the CG solver.

Each kernel is its spec, its sandbox task (the oracle) and the corpus's
executable Python templates.  The sweep and solver tests call the CPU
templates (numpy and Numba) in the sandbox on inputs of their own; the
kernel tests run every Python model's template against the kernel's task.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.templates import get_template
from repro.kernels.base import KernelComplexity
from repro.kernels.registry import get_kernel
from repro.sandbox.executor import evaluate_python_suggestion, run_python_suggestion
from repro.sandbox.tasks import SandboxTask, get_task

#: The templates that run on the host, called on arbitrary inputs.
CPU_MODELS = ("numpy", "numba")
#: Every stock Python model; each template must pass its kernel's task.
PYTHON_MODELS = ("numpy", "numba", "cupy", "pycuda")

_JACOBI_2D = '''def jacobi(u):
    u_new = u.copy()
    u_new[1:-1, 1:-1, :] = (
        u[:-2, 1:-1, :] + u[2:, 1:-1, :] + u[1:-1, :-2, :] + u[1:-1, 2:, :]
    ) / 4.0
    return u_new
'''

_JACOBI_2D_ONLY = '''def jacobi(u):
    n, m = u.shape
    u_new = u.copy()
    for i in range(1, n - 1):
        for j in range(1, m - 1):
            u_new[i, j] = (u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, j + 1]) / 4.0
    return u_new
'''


def _output(result):
    assert result.passed, result.issues
    return result.output


def _raised(result) -> str:
    assert not result.passed
    (issue,) = result.issues
    return issue


def _poisson_2d_dense() -> np.ndarray:
    """The spmv task's CSR operator (the 16 x 16 2-D Poisson matrix), dense."""
    indptr, indices, data, _ = get_task("spmv").args
    dense = np.zeros((indptr.size - 1, indptr.size - 1))
    for row in range(indptr.size - 1):
        dense[row, indices[indptr[row] : indptr[row + 1]]] = data[indptr[row] : indptr[row + 1]]
    return dense


def _sweeps(call_template, u: np.ndarray, count: int) -> tuple[np.ndarray, float]:
    """``count`` numpy-template sweeps of ``u``; returns the grid and the last update's norm."""
    norm = 0.0
    for _ in range(count):
        swept = _output(call_template("numpy", "jacobi", u))
        norm = float(np.linalg.norm(swept - u))
        u = swept
    return u, norm


class TestJacobiStep:
    def test_interior_update_formula(self, call_template):
        u = np.zeros((3, 3, 3))
        u[0, 1, 1] = 6.0  # single neighbour contributes 6/6 = 1 to the centre
        for model in CPU_MODELS:
            assert _output(call_template(model, "jacobi", u))[1, 1, 1] == pytest.approx(1.0)

    def test_jacobi_expected_is_one_7_point_sweep_with_the_boundary_copied(self):
        task = get_task("jacobi")
        (u,) = task.args
        n = u.shape[0]
        swept = u.copy()
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                for k in range(1, n - 1):
                    swept[i, j, k] = (
                        u[i - 1, j, k] + u[i + 1, j, k]
                        + u[i, j - 1, k] + u[i, j + 1, k]
                        + u[i, j, k - 1] + u[i, j, k + 1]
                    ) / 6.0
        np.testing.assert_array_equal(task.expected, swept)
        assert not np.array_equal(task.expected, u)

    def test_boundary_preserved(self, rng, call_template):
        u = rng.standard_normal((5, 5, 5))
        for model in CPU_MODELS:
            result = _output(call_template(model, "jacobi", u))
            np.testing.assert_array_equal(result[0], u[0])
            np.testing.assert_array_equal(result[-1], u[-1])
            np.testing.assert_array_equal(result[:, 0, :], u[:, 0, :])
            np.testing.assert_array_equal(result[:, :, -1], u[:, :, -1])

    def test_rhs_term(self):
        """The task's sweep is ``(neighbours + h*h*f) / 6`` with ``f = 0``."""
        task = get_task("jacobi")
        (u,) = task.args
        f = np.zeros_like(u)
        h = 1.0 / (u.shape[0] - 1)
        swept = u.copy()
        swept[1:-1, 1:-1, 1:-1] = (
            u[:-2, 1:-1, 1:-1]
            + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1]
            + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2]
            + u[1:-1, 1:-1, 2:]
            + h * h * f[1:-1, 1:-1, 1:-1]
        ) / 6.0
        np.testing.assert_array_equal(task.expected, swept)

    def test_small_grid_returns_copy(self):
        u = np.ones((2, 2, 2))
        task = SandboxTask(kernel="jacobi", args=(u,), expected=u)
        for model in CPU_MODELS:
            code = get_template("python", model, "jacobi")
            result = _output(run_python_suggestion(code, "jacobi", task))
            np.testing.assert_array_equal(result, u)
            assert result is not u

    def test_requires_3d(self, call_template):
        for model in CPU_MODELS:
            issue = _raised(call_template(model, "jacobi", np.zeros((3, 3))))
            assert issue.startswith("calling jacobi() raised IndexError: too many indices")

    def test_rhs_shape_mismatch(self):
        assert get_task("jacobi").mismatch(np.zeros((4, 4, 4))) == (
            "shape mismatch: candidate (4, 4, 4) vs expected (6, 6, 6)"
        )

    def test_constant_field_is_fixed_point(self, call_template):
        u = np.full((5, 5, 5), 3.25)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_output(call_template(model, "jacobi", u)), u)

    def test_2d_variant(self):
        """A 5-point sweep over the first two axes is not the task's 7-point sweep."""
        assert _raised(evaluate_python_suggestion(_JACOBI_2D, "jacobi")).startswith(
            "numerical mismatch: max abs error"
        )

    def test_2d_requires_2d(self):
        """The task's grid is 3-D, so code written for 2-D grids raises."""
        assert get_task("jacobi").args[0].ndim == 3
        assert _raised(evaluate_python_suggestion(_JACOBI_2D_ONLY, "jacobi")).startswith(
            "calling jacobi() raised ValueError: too many values to unpack"
        )

    @given(n=st.integers(3, 7))
    @settings(max_examples=15, deadline=None)
    def test_property_max_principle(self, call_template, n):
        """A Jacobi sweep never creates new extrema in the interior."""
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, n, n))
        for model in CPU_MODELS:
            result = _output(call_template(model, "jacobi", u))
            assert result[1:-1, 1:-1, 1:-1].max() <= u.max() + 1e-12
            assert result[1:-1, 1:-1, 1:-1].min() >= u.min() - 1e-12


class TestJacobiSolve:
    """Repeated sweeps of the numpy template."""

    def test_smoothing_reduces_update_norm(self, rng, call_template):
        u = rng.standard_normal((8, 8, 8))
        _, norm = _sweeps(call_template, u, 50)
        _, early_norm = _sweeps(call_template, u, 5)
        assert norm <= early_norm

    def test_tolerance_stops_early(self, call_template):
        _, norm = _sweeps(call_template, np.zeros((6, 6, 6)), 1)
        assert norm == 0.0

    def test_kernel_class_roundtrip(self):
        assert get_kernel("jacobi").complexity is KernelComplexity.STENCIL
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "jacobi"), "jacobi")
            assert result.passed, (model, result.issues)

    def test_kernel_minimum_size(self):
        """The task's grid has an interior, and the sweep changes all of it."""
        task = get_task("jacobi")
        (u,) = task.args
        assert u.shape == (6, 6, 6)
        interior = np.zeros(u.shape, dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = True
        assert np.all(task.expected[interior] != u[interior])
        np.testing.assert_array_equal(task.expected[~interior], u[~interior])


class TestConjugateGradient:
    def test_solves_dense_spd_system(self, rng, call_template):
        n = 12
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        x_true = rng.standard_normal(n)
        for model in CPU_MODELS:
            x = _output(call_template(model, "cg", a, a @ x_true, 1e-12))
            np.testing.assert_allclose(x, x_true, rtol=1e-6)

    def test_solves_csr_poisson_system(self, rng, call_template):
        a = _poisson_2d_dense()
        x_true = rng.standard_normal(16)
        for model in CPU_MODELS:
            x = _output(call_template(model, "cg", a, a @ x_true, 1e-12))
            np.testing.assert_allclose(x, x_true, rtol=1e-6)

    def test_accepts_matvec_callable(self, call_template):
        """The numpy template only applies ``A @ v``, so any operator will do."""

        class Diagonal:
            def __init__(self, d: np.ndarray) -> None:
                self.d = d

            def __matmul__(self, v: np.ndarray) -> np.ndarray:
                return self.d * v

        d = np.arange(1.0, 6.0)
        x = _output(call_template("numpy", "cg", Diagonal(d), np.ones(5), 1e-12))
        np.testing.assert_allclose(x, 1.0 / d, rtol=1e-8)

    def test_residual_history_is_recorded_and_decreases(self, rng, call_template):
        a = _poisson_2d_dense()
        b = rng.standard_normal(16)
        history = [
            float(np.linalg.norm(b - a @ _output(call_template("numpy", "cg", a, b, 1e-12, k))))
            for k in range(1, 17)
        ]
        assert history[-1] < history[0]
        assert history[-1] < 1e-8 * np.linalg.norm(b)

    def test_iteration_cap(self, rng, call_template):
        a = _poisson_2d_dense()
        b = rng.standard_normal(16)
        for model in CPU_MODELS:
            x = _output(call_template(model, "cg", a, b, 1e-16, 3))
            assert np.linalg.norm(b - a @ x) > 1e-6 * np.linalg.norm(b)

    def test_non_spd_operator_stops_gracefully(self, call_template):
        """On an indefinite operator CG breaks down (``p . Ap = 0``): the
        call returns or raises, and either way the sandbox reports it."""
        a = np.diag([1.0, -1.0])
        task = SandboxTask(kernel="cg", args=(a, np.ones(2)), expected=np.ones(2))
        for model in CPU_MODELS:
            with np.errstate(divide="ignore", invalid="ignore"):
                x = _output(call_template(model, "cg", *task.args))
            assert task.mismatch(x) == "candidate output contains NaN or Inf"
            with np.errstate(divide="raise"):
                issue = _raised(call_template(model, "cg", *task.args))
            assert issue == (
                "calling cg() raised FloatingPointError: "
                "divide by zero encountered in scalar divide"
            )

    def test_rejects_bad_inputs(self, call_template):
        for model in CPU_MODELS:
            issue = _raised(call_template(model, "cg", np.eye(3), np.ones(4)))
            assert issue.startswith("calling cg() raised ValueError")
        issue = _raised(call_template("numpy", "cg", np.ones((3, 2)), np.ones(3)))
        assert issue.startswith("calling cg() raised ValueError")

    def test_initial_guess_is_used(self, call_template):
        """The templates start from ``x = 0``, so one step gives
        ``(b . b) / (b . A b) * b``."""
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, 4.0, 9.0])
        for model in CPU_MODELS:
            x = _output(call_template(model, "cg", a, b, 1e-12, 1))
            np.testing.assert_allclose(x, (b @ b) / (b @ a @ b) * b)

    def test_kernel_class_roundtrip_square(self):
        """The task's system is square SPD and its oracle solves it."""
        task = get_task("cg")
        a, b = task.args
        assert a.shape == (10, 10)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) > 0)
        np.testing.assert_allclose(a @ task.expected, b, rtol=1e-12, atol=1e-12)

    def test_kernel_class_roundtrip_random(self):
        assert get_kernel("cg").complexity is KernelComplexity.MULTIKERNEL
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "cg"), "cg")
            assert result.passed, (model, result.issues)

    def test_kernel_minimum_size(self):
        """The task's system is too large for one CG step to solve."""
        one_step = get_template("python", "numpy", "cg").replace("max_iter=1000", "max_iter=1")
        assert _raised(evaluate_python_suggestion(one_step, "cg")).startswith(
            "numerical mismatch: max abs error"
        )

    @given(n=st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_property_converges_on_diagonally_dominant_systems(self, call_template, n):
        rng = np.random.default_rng(n * 7)
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        x_true = rng.standard_normal(n)
        for model in CPU_MODELS:
            x = _output(call_template(model, "cg", a, a @ x_true))
            np.testing.assert_allclose(x, x_true, rtol=1e-5, atol=1e-7)

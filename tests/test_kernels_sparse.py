"""Tests for the sparse substrate (CSR arrays) and the SpMV kernel.

A sparse matrix reaches a suggestion as CSR arrays ``(indptr, indices,
data)``.  The matrix tests call the corpus's CPU SpMV templates (numpy and
Numba) in the sandbox on CSR arrays built by scipy; the operator and kernel
tests check the spmv task's 2-D Poisson operator and run every Python
model's template against the task.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.templates import get_template
from repro.kernels.base import KernelComplexity
from repro.kernels.registry import get_kernel
from repro.sandbox.executor import evaluate_python_suggestion
from repro.sandbox.tasks import get_task

#: The templates that run on the host, called on arbitrary inputs.
CPU_MODELS = ("numpy", "numba")
#: Every stock Python model; each template must pass its kernel's task.
PYTHON_MODELS = ("numpy", "numba", "cupy", "pycuda")

_DENSE_SPMV = '''def spmv(A, x):
    return A @ x
'''


def _output(result):
    assert result.passed, result.issues
    return result.output


def _raised(result) -> str:
    assert not result.passed
    (issue,) = result.issues
    return issue


def _spmv(call_template, model: str, matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` by the ``python.<model>`` SpMV template (``matrix``: scipy CSR)."""
    return _output(call_template(model, "spmv", matrix.indptr, matrix.indices, matrix.data, x))


def _task_matrix() -> sp.csr_matrix:
    """The spmv task's operator as a scipy CSR matrix."""
    indptr, indices, data, x = get_task("spmv").args
    return sp.csr_matrix((data, indices, indptr), shape=(x.size, x.size))


def _sparse_dense(rng: np.random.Generator, shape: tuple[int, int], cutoff: float) -> np.ndarray:
    dense = rng.standard_normal(shape)
    dense[np.abs(dense) < cutoff] = 0.0
    return dense


def _random_csr(rng: np.random.Generator, shape: tuple[int, int], density: float) -> sp.csr_matrix:
    dense = rng.standard_normal(shape)
    dense[rng.random(shape) >= density] = 0.0
    return sp.csr_matrix(dense)


class TestCooMatrix:
    """Sparse inputs the SpMV templates must handle."""

    def test_to_dense(self, call_template):
        matrix = sp.coo_matrix(([3.0, 4.0, 5.0], ([0, 1, 1], [1, 0, 2])), shape=(2, 3)).tocsr()
        expected = np.array([[0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
        for model in CPU_MODELS:
            columns = [_spmv(call_template, model, matrix, e) for e in np.eye(3)]
            np.testing.assert_array_equal(np.column_stack(columns), expected)

    def test_duplicate_entries_are_summed_in_csr(self, call_template):
        indptr, indices, data = np.array([0, 2]), np.array([1, 1]), np.array([2.0, 3.0])
        for model in CPU_MODELS:
            y = _output(call_template(model, "spmv", indptr, indices, data, np.array([7.0, 1.0])))
            np.testing.assert_array_equal(y, [5.0])

    def test_empty_matrix(self, call_template):
        matrix = sp.csr_matrix((3, 3))
        assert matrix.nnz == 0
        for model in CPU_MODELS:
            y = _spmv(call_template, model, matrix, np.ones(3))
            np.testing.assert_array_equal(y, np.zeros(3))

    def test_out_of_bounds_indices_raise(self, call_template):
        indptr, indices, data = np.array([0, 1, 1]), np.array([5]), np.array([1.0])
        for model in CPU_MODELS:
            issue = _raised(call_template(model, "spmv", indptr, indices, data, np.ones(2)))
            assert issue.startswith("calling spmv() raised IndexError")

    def test_mismatched_lengths_raise(self, call_template):
        indptr, indices, data = np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0])
        for model in CPU_MODELS:
            issue = _raised(call_template(model, "spmv", indptr, indices, data, np.ones(2)))
            assert issue.startswith("calling spmv() raised ")


class TestCsrMatrix:
    def test_from_dense_roundtrip(self, rng, call_template):
        dense = _sparse_dense(rng, (6, 5), 0.7)
        matrix = sp.csr_matrix(dense)
        for model in CPU_MODELS:
            columns = [_spmv(call_template, model, matrix, e) for e in np.eye(5)]
            np.testing.assert_array_equal(np.column_stack(columns), dense)

    def test_matvec_matches_dense(self, rng, call_template):
        dense = _sparse_dense(rng, (8, 8), 0.9)
        x = rng.standard_normal(8)
        for model in CPU_MODELS:
            y = _spmv(call_template, model, sp.csr_matrix(dense), x)
            np.testing.assert_allclose(y, dense @ x)

    def test_matvec_matches_loop_reference(self, rng, call_template):
        """The vectorised-row (numpy) and explicit-loop (Numba) templates agree."""
        matrix = _random_csr(rng, (20, 20), 0.2)
        x = rng.standard_normal(20)
        np.testing.assert_allclose(
            _spmv(call_template, "numpy", matrix, x), _spmv(call_template, "numba", matrix, x)
        )

    def test_matvec_matches_scipy(self, rng, call_template):
        matrix = sp.csr_matrix(_sparse_dense(rng, (15, 11), 0.8))
        x = rng.standard_normal(11)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_spmv(call_template, model, matrix, x), matrix @ x)

    def test_matvec_with_empty_rows(self, call_template):
        dense = np.zeros((4, 4))
        dense[0, 1] = 2.0
        dense[3, 3] = -1.0
        x = np.arange(4, dtype=float)
        for model in CPU_MODELS:
            y = _spmv(call_template, model, sp.csr_matrix(dense), x)
            np.testing.assert_allclose(y, dense @ x)

    def test_matmul_operator(self, rng, call_template):
        x = rng.standard_normal(5)
        for model in CPU_MODELS:
            y = _spmv(call_template, model, sp.identity(5, format="csr"), x)
            np.testing.assert_allclose(y, x)

    def test_matvec_rejects_wrong_shape(self, call_template):
        matrix = sp.identity(4, format="csr")
        csr = (matrix.indptr, matrix.indices, matrix.data)
        for model in CPU_MODELS:
            issue = _raised(call_template(model, "spmv", *csr, np.ones(3)))
            assert issue.startswith("calling spmv() raised IndexError")

    def test_diagonal(self):
        indptr, indices, data, _ = get_task("spmv").args
        for row in range(indptr.size - 1):
            cols = indices[indptr[row] : indptr[row + 1]]
            assert data[indptr[row] : indptr[row + 1]][cols == row].tolist() == [4.0]
        np.testing.assert_array_equal(_task_matrix().diagonal(), np.full(16, 4.0))

    def test_transpose(self, rng, call_template):
        """The task's operator is its own transpose: ``x . (A y) == (A x) . y``."""
        matrix = _task_matrix()
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        for model in CPU_MODELS:
            assert x @ _spmv(call_template, model, matrix, y) == pytest.approx(
                _spmv(call_template, model, matrix, x) @ y, rel=1e-12
            )

    def test_scale_rows(self, rng, call_template):
        matrix = _task_matrix()
        x = rng.standard_normal(16)
        scale = rng.standard_normal(16)
        scaled = sp.csr_matrix(
            (matrix.data * np.repeat(scale, np.diff(matrix.indptr)), matrix.indices, matrix.indptr),
            shape=matrix.shape,
        )
        for model in CPU_MODELS:
            np.testing.assert_allclose(
                _spmv(call_template, model, scaled, x),
                scale * _spmv(call_template, model, matrix, x),
            )

    def test_row_nnz(self):
        """Corner points of the 4 x 4 grid have 3 entries, edges 4, the interior 5."""
        indptr = get_task("spmv").args[0]
        np.testing.assert_array_equal(
            np.diff(indptr).reshape(4, 4),
            [[3, 4, 4, 3], [4, 5, 5, 4], [4, 5, 5, 4], [3, 4, 4, 3]],
        )

    def test_invalid_indptr_raises(self, call_template):
        indptr, indices, data, _ = get_task("spmv").args
        assert indptr[0] == 0 and np.all(np.diff(indptr) > 0)
        assert indptr[-1] == indices.size == data.size
        short = (np.array([0, 2]), np.array([0]), np.array([1.0]))  # indptr runs past the entries
        issue = _raised(call_template("numba", "spmv", *short, np.ones(1)))
        assert issue.startswith("calling spmv() raised IndexError")

    def test_random_density_bounds(self):
        """The task's operator is sparse: 64 of 256 entries."""
        matrix = _task_matrix()
        assert matrix.nnz == 64
        assert 0.0 < matrix.nnz / np.prod(matrix.shape) < 0.5

    def test_is_symmetric(self):
        matrix = _task_matrix()
        assert (matrix != matrix.T).nnz == 0
        asym = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert (asym != asym.T).nnz > 0

    @given(n=st.integers(2, 12), density=st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_property_matvec_agrees_with_dense(self, call_template, n, density):
        rng = np.random.default_rng(n * 1000 + int(density * 100))
        matrix = _random_csr(rng, (n, n), density)
        x = rng.standard_normal(n)
        for model in CPU_MODELS:
            np.testing.assert_allclose(
                _spmv(call_template, model, matrix, x), matrix.toarray() @ x, rtol=1e-10, atol=1e-12
            )


class TestPoissonOperators:
    """The spmv task's operator and the Jacobi task's 3-D counterpart."""

    def test_poisson_1d_structure(self):
        """Each grid row's diagonal block is the 1-D operator plus ``2 I``."""
        dense = _task_matrix().toarray()
        line = np.array([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
        for block in range(4):
            rows = slice(4 * block, 4 * block + 4)
            np.testing.assert_array_equal(dense[rows, rows], line + 2.0 * np.eye(4))

    def test_poisson_2d_is_spd(self):
        dense = _task_matrix().toarray()
        np.testing.assert_allclose(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_poisson_3d_shape_and_diagonal(self):
        """The Jacobi task is one Jacobi iteration for the 3-D 7-point
        Poisson operator with a zero right-hand side."""
        (u,) = get_task("jacobi").args
        n = u.shape[0]
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        op = (
            sp.kron(sp.kron(line, eye), eye)
            + sp.kron(sp.kron(eye, line), eye)
            + sp.kron(sp.kron(eye, eye), line)
        ).tocsr()
        assert op.shape == (n**3, n**3)
        np.testing.assert_allclose(op.diagonal(), np.full(n**3, 6.0))
        iterate = (u.ravel() - op @ u.ravel() / 6.0).reshape(u.shape)
        interior = (slice(1, -1),) * 3
        np.testing.assert_allclose(
            get_task("jacobi").expected[interior], iterate[interior], rtol=0, atol=1e-12
        )

    def test_poisson_rectangular(self):
        indptr, _, _, x = get_task("spmv").args
        assert _task_matrix().shape == (16, 16)
        assert indptr.size - 1 == x.size == get_task("spmv").expected.size == 16


class TestSpmvKernel:
    def test_spec(self):
        assert get_kernel("spmv").complexity is KernelComplexity.IRREGULAR

    def test_spmv_function(self, rng, call_template):
        matrix = _task_matrix()
        x = rng.standard_normal(16)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_spmv(call_template, model, matrix, x), matrix.toarray() @ x)

    def test_spmv_requires_csr(self):
        issue = _raised(evaluate_python_suggestion(_DENSE_SPMV, "spmv"))
        assert issue.startswith("calling spmv() raised TypeError: ")

    def test_spmv_arrays_interface(self, call_template):
        task = get_task("spmv")
        indptr, indices, data, x = task.args
        assert (indptr.dtype, indices.dtype) == (np.int64, np.int64)
        assert (data.dtype, x.dtype) == (np.float64, np.float64)
        reduced = np.add.reduceat(data * x[indices], indptr[:-1])
        np.testing.assert_array_equal(task.expected, reduced)
        for model in CPU_MODELS:
            y = _output(call_template(model, "spmv", *task.args))
            np.testing.assert_allclose(y, task.expected)

    def test_structured_problem_for_square_sizes(self):
        indptr, indices, data, x = get_task("spmv").args
        assert indptr.shape == (17,) and indptr[0] == 0 and indptr[-1] == data.size == 64
        dense = np.zeros((16, 16))
        for row in range(16):
            cols = indices[indptr[row] : indptr[row + 1]]
            assert list(cols) == sorted(set(cols))  # columns ascend within each row
            dense[row, cols] = data[indptr[row] : indptr[row + 1]]
        line = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        poisson = np.kron(line, np.eye(4)) + np.kron(np.eye(4), line)
        np.testing.assert_array_equal(dense, poisson)
        np.testing.assert_allclose(get_task("spmv").expected, dense @ x, rtol=0, atol=1e-12)
        for model in PYTHON_MODELS:
            result = evaluate_python_suggestion(get_template("python", model, "spmv"), "spmv")
            assert result.passed, (model, result.issues)

    def test_random_problem_for_non_square_sizes(self, rng, call_template):
        matrix = _random_csr(rng, (10, 7), 0.3)
        x = rng.standard_normal(7)
        for model in CPU_MODELS:
            np.testing.assert_allclose(_spmv(call_template, model, matrix, x), matrix @ x)

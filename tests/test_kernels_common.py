"""Tests for the kernel registry, the sandbox task suite and the output
comparison.

A kernel is a :class:`~repro.kernels.base.KernelSpec` in the registry plus
its sandbox task (:mod:`repro.sandbox.tasks`), the one numerical oracle;
:meth:`~repro.sandbox.tasks.SandboxTask.mismatch` is the comparison every
executed suggestion's output goes through.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.pythonlang import find_entry_function
from repro.corpus.templates import get_template
from repro.kernels import registry
from repro.kernels.base import KernelComplexity, KernelSpec
from repro.kernels.registry import (
    KERNEL_NAMES,
    STOCK_KERNEL_NAMES,
    get_kernel,
    kernel_names,
    register_kernel,
    unregister_kernel,
)
from repro.sandbox import tasks
from repro.sandbox.executor import evaluate_python_suggestion
from repro.sandbox.tasks import SandboxTask, get_task, register_task_builder

#: Every kernel with a sandbox task: the paper's six and the two extension families.
TASK_KERNELS = (*STOCK_KERNEL_NAMES, "scan", "histogram")

#: The tolerances the comparison cases were written against.
TIGHT = {"rtol": 1e-10, "atol": 1e-12}

_EXTRA = KernelSpec("stencil2d", "Stencil2D", KernelComplexity.STENCIL, languages=("julia",))


@pytest.fixture()
def extra_kernel():
    register_kernel(_EXTRA)
    try:
        yield _EXTRA
    finally:
        unregister_kernel(_EXTRA.name)


def _task(expected, **tolerances) -> SandboxTask:
    return SandboxTask(kernel="test", args=(), expected=expected, **(tolerances or TIGHT))


def _arrays(task: SandboxTask) -> list[np.ndarray]:
    return [arg for arg in (*task.args, task.expected) if isinstance(arg, np.ndarray)]


class TestRegistry:
    def test_canonical_order(self):
        assert KERNEL_NAMES == STOCK_KERNEL_NAMES
        assert STOCK_KERNEL_NAMES == ("axpy", "gemv", "gemm", "spmv", "jacobi", "cg")

    def test_complexity_order_matches_canonical_order(self):
        by_complexity = sorted(STOCK_KERNEL_NAMES, key=lambda name: get_kernel(name).complexity)
        assert tuple(by_complexity) == STOCK_KERNEL_NAMES

    def test_all_kernels_have_distinct_complexities(self):
        complexities = [get_kernel(name).complexity for name in STOCK_KERNEL_NAMES]
        assert complexities == sorted(set(complexities))
        assert complexities[0] is KernelComplexity.TRIVIAL

    def test_get_kernel_case_insensitive(self):
        assert get_kernel("AXPY") is get_kernel(" axpy ")
        assert get_kernel("SpMV").display_name == "SpMV"

    def test_get_kernel_unknown(self):
        with pytest.raises(KeyError, match="known kernels: axpy, gemv, gemm, spmv, jacobi, cg"):
            get_kernel("fft")

    def test_find_kernel_by_synonym(self):
        """A suggestion may name its function freely: the sandbox takes the
        exact kernel name, then a public name containing it, then the only
        public function."""
        assert find_entry_function("def cg(A, b):\n    return b\n\ndef cg_solve(A, b):\n"
                                   "    return b\n", "CG") == "cg"
        assert find_entry_function("def _dot(a, b):\n    return a @ b\n\n"
                                   "def sparse_matvec(p, c, v, x):\n    return x\n\n"
                                   "def spmv_csr(p, c, v, x):\n    return x\n",
                                   "spmv") == "spmv_csr"
        assert find_entry_function("def _tile(A):\n    return A\n\n"
                                   "def matrix_multiply(A, B):\n    return A @ B\n",
                                   "gemm") == "matrix_multiply"
        assert find_entry_function("def conjugate_gradient(A, b):\n    return b\n",
                                   "cg") == "conjugate_gradient"
        assert find_entry_function("def unknown(x):\n    return x\n\n"
                                   "def thing(x):\n    return x\n", "cg") is None

    def test_cg_is_hardest(self, extra_kernel):
        assert get_kernel("cg").complexity is KernelComplexity.MULTIKERNEL
        assert max(kernel_names(), key=lambda name: get_kernel(name).complexity) == "cg"

    def test_stock_kernels_support_every_language(self):
        for name in STOCK_KERNEL_NAMES:
            assert get_kernel(name).supports_language("fortran")

    def test_registration_appends_and_restricts_by_language(self, extra_kernel):
        assert kernel_names()[: len(STOCK_KERNEL_NAMES)] == STOCK_KERNEL_NAMES
        assert kernel_names()[-1] == "stencil2d"
        assert registry.KERNEL_NAMES == kernel_names()
        assert kernel_names("julia")[-1] == "stencil2d"
        assert "stencil2d" not in kernel_names("python")
        assert get_kernel("Stencil2D") is extra_kernel

    def test_unregistration_rebinds_the_live_tuple(self, extra_kernel):
        unregister_kernel(extra_kernel.name)
        assert "stencil2d" not in kernel_names()
        assert registry.KERNEL_NAMES == kernel_names()
        unregister_kernel(extra_kernel.name)  # idempotent

    def test_registering_an_equal_spec_is_a_no_op(self, extra_kernel):
        register_kernel(KernelSpec(**vars(extra_kernel)))
        assert kernel_names().count("stencil2d") == 1

    def test_registering_a_different_spec_under_a_taken_name_raises(self, extra_kernel):
        with pytest.raises(ValueError, match="different spec"):
            register_kernel(KernelSpec("stencil2d", "Stencil2D", KernelComplexity.STENCIL))
        with pytest.raises(ValueError, match="different spec"):
            register_kernel(KernelSpec("axpy", "AXPY", KernelComplexity.SIMPLE))
        assert get_kernel("stencil2d") is extra_kernel

    def test_stock_kernels_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="stock kernel"):
            unregister_kernel("cg")
        assert "cg" in kernel_names()


class TestProblemSuite:
    """The sandbox task suite: one fixed, small problem per kernel."""

    def test_default_sizes_exist_for_every_kernel(self):
        for name in TASK_KERNELS:
            arrays = _arrays(get_task(name))
            assert len(arrays) >= 2
            assert all(array.size > 0 for array in arrays)

    def test_default_sizes_unknown_kernel(self):
        with pytest.raises(KeyError, match="no sandbox task for kernel 'nope'; known: axpy, gemv"):
            get_task("nope")

    def test_make_problem_is_deterministic(self):
        first, second = tasks._gemv_task(), tasks._gemv_task()
        for a, b, cached in zip(_arrays(first), _arrays(second), _arrays(get_task("gemv"))):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, cached)
        assert get_task("GEMV") is get_task("gemv")

    def test_make_problem_seed_changes_data(self):
        """Each kernel draws from its own stream of ``TASK_SEED``: the axpy
        and scan vectors have the same length but different data."""
        _, x, y = get_task("axpy").args
        (scan_x,) = get_task("scan").args
        assert x.shape == y.shape == scan_x.shape
        assert not np.array_equal(x, y)
        assert not np.array_equal(x, scan_x)

    def test_iter_all_covers_every_kernel(self):
        for name in TASK_KERNELS:
            task = get_task(name)
            assert task.kernel == name
            assert task.mismatch(task.expected.copy()) is None
        assert set(STOCK_KERNEL_NAMES) <= set(TASK_KERNELS)

    def test_size_override(self, monkeypatch):
        """A registered builder sets a new kernel's task, size included; a
        registered kernel's builder cannot be swapped."""
        monkeypatch.setattr(tasks, "_BUILDERS", dict(tasks._BUILDERS))
        monkeypatch.setattr(tasks, "_CACHE", {})
        x, y = np.arange(4.0), np.ones(4)

        def small_axpy() -> SandboxTask:
            return SandboxTask(kernel="axpy4", args=(2.0, x, y), expected=2.0 * x + y)

        register_task_builder(" AXPY4 ", small_axpy)
        register_task_builder("axpy4", small_axpy)  # the same builder again is a no-op
        assert get_task("axpy4").args[1].shape == (4,)
        assert evaluate_python_suggestion(get_template("python", "numpy", "axpy"), "axpy4").passed
        with pytest.raises(ValueError, match="already has a sandbox task builder"):
            register_task_builder("axpy", small_axpy)

    def test_smallest_problem(self):
        """The tasks measure correctness, not throughput: every array is small."""
        sizes = [array.size for name in TASK_KERNELS for array in _arrays(get_task(name))]
        assert max(sizes) == 216  # the 6 x 6 x 6 Jacobi grid

    def test_copy_inputs_protects_oracle_data(self):
        task = get_task("axpy")
        a, x, y = task.fresh_args()
        assert a == task.args[0]
        x[:] = 0.0
        y += 1.0
        assert not np.array_equal(x, task.args[1])
        assert not np.array_equal(y, task.args[2])
        assert task.mismatch(task.expected.copy()) is None


class TestValidation:
    """:meth:`SandboxTask.mismatch`: the message lands in a verdict's issues."""

    def test_allclose_accepts_equal_arrays(self, rng):
        x = rng.standard_normal(10)
        assert _task(x).mismatch(x.copy()) is None

    def test_allclose_rejects_different_arrays(self, rng):
        x = rng.standard_normal(10)
        assert _task(x).mismatch(x + 1.0) == "max abs error 1.000e+00 exceeds tolerance " + (
            f"{1e-12 + 1e-10 * float(np.max(np.abs(x))):.3e}"
        )
        assert _task(np.array([1.0, 2.0])).mismatch(np.array([1.0, 2.5])) == (
            "max abs error 5.000e-01 exceeds tolerance 2.010e-10"
        )

    def test_shape_mismatch_is_reported(self):
        assert _task(np.zeros(4)).mismatch(np.zeros(3)) == (
            "shape mismatch: candidate (3,) vs expected (4,)"
        )
        assert _task(np.zeros(3)).mismatch(np.zeros((3, 2))) == (
            "shape mismatch: candidate (3, 2) vs expected (3,)"
        )

    def test_trivial_shape_difference_is_tolerated(self):
        assert _task(np.zeros(3)).mismatch(np.zeros((3, 1))) is None

    def test_non_numeric_candidate(self):
        task = _task(np.zeros(3))
        assert task.mismatch("not numbers") == "candidate output is not numeric (type str)"
        assert task.mismatch({"y": 1.0}) == "candidate output is not numeric (type dict)"
        assert task.mismatch([1.0, "a", 2.0]) == "candidate output is not numeric (type list)"
        assert task.mismatch(np.array([1, None, 2], dtype=object)) == (
            "candidate output is not numeric (type ndarray)"
        )

    def test_nan_candidate_rejected(self):
        task = _task(np.zeros(2))
        assert task.mismatch(np.array([np.nan, 0.0])) == "candidate output contains NaN or Inf"
        assert task.mismatch(np.array([0.0, np.inf])) == "candidate output contains NaN or Inf"

    def test_none_candidate_rejected(self):
        assert _task(np.zeros(2)).mismatch(None) == (
            "candidate output is not numeric (type NoneType)"
        )

    def test_complex_scalar_candidate_is_rejected_without_raising(self):
        assert _task(np.zeros(2)).mismatch(1j) == "candidate output is not numeric (type complex)"

    def test_malformed_oracle_raises(self):
        for oracle in ("oracle?", None):
            with pytest.raises(ValueError, match="oracle is malformed"):
                _task(oracle).mismatch(np.zeros(2))

    def test_scalar_comparison(self):
        assert _task(1.0).mismatch(1.0 + 1e-14) is None
        assert _task(2.0).mismatch(1.0) == "max abs error 1.000e+00 exceeds tolerance 2.010e-10"

    def test_list_inputs_are_accepted(self):
        assert _task(np.array([1.0, 2.0])).mismatch([1.0, 2.0]) is None
        assert _task(np.array([1.0, 2.0])).mismatch((1.0, 2.0)) is None

    def test_relative_error_values(self):
        """The tolerance is ``atol + rtol * max|expected|``: relative to the
        oracle's magnitude."""
        assert _task(np.array([1.0]), rtol=1.0, atol=0.0).mismatch(np.array([2.0])) is None
        assert _task(np.array([1.0]), rtol=0.5, atol=0.0).mismatch(np.array([2.0])) == (
            "max abs error 1.000e+00 exceeds tolerance 5.000e-01"
        )
        assert _task(np.array([1e6])).mismatch(np.array([1e6 + 1e-5])) is None
        assert _task(np.array([1.0])).mismatch(np.array([1.0 + 1e-5])) == (
            "max abs error 1.000e-05 exceeds tolerance 1.010e-10"
        )
        assert _task(np.zeros(3)).mismatch(np.zeros(3)) is None

    def test_max_abs_error(self):
        assert _task(np.array([1.0, 2.0])).mismatch(np.array([1.0, 5.0])) == (
            "max abs error 3.000e+00 exceeds tolerance 2.010e-10"
        )
        assert _task(np.array([])).mismatch(np.array([])) is None

    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
        scale=st.floats(1e-13, 1e-11),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_small_perturbations_pass(self, values, scale):
        x = np.asarray(values, dtype=np.float64)
        assert _task(x, rtol=1e-9, atol=1e-9).mismatch(x * (1.0 + scale)) is None


class TestImports:
    def test_kernels_and_grid_import_without_numpy(self):
        """The kernel table is plain data: importing it, or the experiment
        grid built on it, must not load numpy."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        probe = (
            "import sys\n"
            "import repro.kernels\n"
            "loaded = ['numpy' in sys.modules]\n"
            "import repro.models.grid\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print('numpy loaded', loaded)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.splitlines()[-1] == "numpy loaded [False, False]"

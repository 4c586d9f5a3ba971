"""Tests for the fake GPU/JIT runtimes, sandbox tasks and the executor."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.corpus.templates import get_template
from repro.kernels.registry import KERNEL_NAMES
from repro.sandbox import evaluate_python_suggestion, get_task, run_python_suggestion
from repro.sandbox import fake_cupy, fake_numba
from repro.sandbox.executor import fake_runtime
from repro.sandbox.fake_pycuda import compiler, driver, gpuarray
from repro.sandbox.tasks import SandboxTask


class TestFakeNumba:
    def test_njit_returns_function_unchanged(self):
        @fake_numba.njit
        def f(x):
            return x + 1

        assert f(1) == 2

    def test_njit_with_options(self):
        @fake_numba.njit(parallel=True, fastmath=True)
        def f(x):
            return x * 2

        assert f(3) == 6

    def test_prange_is_range(self):
        assert list(fake_numba.prange(4)) == [0, 1, 2, 3]

    def test_cuda_jit_kernel_launch(self):
        @fake_numba.cuda.jit
        def kernel(out):
            i = fake_numba.cuda.grid(1)
            if i < out.shape[0]:
                out[i] = i

        out = np.zeros(8)
        kernel[1, 8](out)
        np.testing.assert_array_equal(out, np.arange(8.0))

    def test_cuda_namespace_helpers(self):
        arr = np.ones(3)
        assert fake_numba.cuda.to_device(arr) is arr
        assert fake_numba.cuda.is_available()
        fake_numba.cuda.synchronize()


class TestFakeCupy:
    def test_asarray_copies(self):
        x = np.arange(4.0)
        gpu = fake_cupy.asarray(x)
        gpu[0] = 99.0
        assert x[0] == 0.0

    def test_asnumpy_roundtrip(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(fake_cupy.asnumpy(fake_cupy.asarray(x)), x)

    def test_numpy_fallback_attributes(self):
        np.testing.assert_allclose(fake_cupy.sqrt(np.array([4.0])), [2.0])
        with pytest.raises(AttributeError):
            fake_cupy.definitely_not_a_numpy_function  # noqa: B018

    def test_raw_kernel_executes(self):
        kernel = fake_cupy.RawKernel(
            """
            extern "C" __global__
            void scale(const int n, const double a, double *y)
            {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) {
                    y[i] = a * y[i];
                }
            }
            """,
            "scale",
        )
        y = np.ones(10)
        kernel((1,), (16,), (10, 3.0, y))
        np.testing.assert_allclose(y, np.full(10, 3.0))

    def test_elementwise_kernel(self):
        axpy = fake_cupy.ElementwiseKernel(
            "float64 a, float64 x, float64 y", "float64 z", "z = a * x + y", "axpy"
        )
        a = np.full(4, 2.0)
        x = np.arange(4.0)
        y = np.ones(4)
        z = np.zeros(4)
        result = axpy(a, x, y, z)
        np.testing.assert_allclose(result, 2.0 * x + 1.0)


class TestFakePycuda:
    def test_source_module_and_driver_wrappers(self, rng):
        mod = compiler.SourceModule(
            """
            __global__ void axpy(const int n, const double a, const double *x, double *y)
            {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) {
                    y[i] = a * x[i] + y[i];
                }
            }
            """
        )
        func = mod.get_function("axpy")
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        expected = 1.5 * x + y
        func(np.int32(20), np.float64(1.5), driver.In(x), driver.InOut(y),
             block=(32, 1, 1), grid=(1, 1))
        np.testing.assert_allclose(y, expected)

    def test_gpuarray_roundtrip(self):
        arr = gpuarray.to_gpu(np.arange(6.0))
        assert arr.shape == (6,)
        assert arr.size == 6
        np.testing.assert_array_equal(arr.get(), np.arange(6.0))
        np.testing.assert_array_equal(np.asarray(arr), np.arange(6.0))

    def test_gpuarray_zeros(self):
        assert gpuarray.zeros(4).get().sum() == 0.0

    def test_mem_alloc_and_memcpy(self):
        allocation = driver.mem_alloc(8 * 5)
        src = np.arange(5.0)
        driver.memcpy_htod(allocation, src)
        dst = np.zeros(5)
        driver.memcpy_dtoh(dst, allocation)
        np.testing.assert_array_equal(dst, src)


class TestFakeRuntimeContext:
    def test_modules_installed_and_restored(self):
        assert "cupy" not in sys.modules or sys.modules["cupy"].__name__ != "repro.sandbox.fake_cupy"
        with fake_runtime():
            import cupy  # noqa: F401  (resolves to the fake)
            import pycuda.driver  # noqa: F401
            from numba import njit  # noqa: F401

            assert sys.modules["cupy"].__name__.endswith("fake_cupy")
        assert "pycuda" not in sys.modules or not sys.modules["pycuda"].__name__.startswith(
            "repro.sandbox"
        ) is False or True  # restored or absent

    def test_one_thread_at_a_time(self):
        # A thread entering while another is inside would save that
        # thread's fakes as the originals and lose them when it leaves.
        first_inside = threading.Event()
        second_waiting = threading.Event()
        seen: list[bool] = []

        def first() -> None:
            with fake_runtime():
                first_inside.set()
                second_waiting.wait(timeout=5)
                time.sleep(0.05)

        def second() -> None:
            first_inside.wait(timeout=5)
            second_waiting.set()
            with fake_runtime():
                time.sleep(0.1)
                seen.append(sys.modules.get("cupy") is fake_cupy)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == [True]


class TestSandboxTasks:
    def test_every_kernel_has_a_task(self):
        for kernel in KERNEL_NAMES:
            task = get_task(kernel)
            assert isinstance(task, SandboxTask)
            assert task.expected is not None

    def test_tasks_are_cached(self):
        assert get_task("axpy") is get_task("axpy")

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            get_task("fft")

    def test_fresh_args_are_copies(self):
        task = get_task("axpy")
        args_a = task.fresh_args()
        args_b = task.fresh_args()
        assert args_a[1] is not args_b[1]
        np.testing.assert_array_equal(args_a[1], args_b[1])

    def test_expected_values_match_reference_definitions(self):
        gemv = get_task("gemv")
        np.testing.assert_allclose(gemv.expected, gemv.args[0] @ gemv.args[1])
        cg = get_task("cg")
        np.testing.assert_allclose(cg.args[0] @ cg.expected, cg.args[1], rtol=1e-8)


class TestExecutor:
    @pytest.mark.parametrize("model", ["numpy", "numba", "cupy", "pycuda"])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_all_python_templates_pass(self, model, kernel):
        code = get_template("python", model, kernel)
        result = evaluate_python_suggestion(code, kernel)
        assert result.passed, (model, kernel, result.issues)

    def test_numerically_wrong_code_fails(self):
        code = "import numpy as np\n\ndef gemv(A, x):\n    return A.T @ x\n"
        result = evaluate_python_suggestion(code, "gemv")
        assert not result.passed
        assert any("mismatch" in issue for issue in result.issues)

    def test_exception_in_function_is_reported(self):
        code = "def axpy(a, x, y):\n    raise RuntimeError('boom')\n"
        result = evaluate_python_suggestion(code, "axpy")
        assert not result.passed
        assert any("boom" in issue for issue in result.issues)

    def test_missing_entry_point_is_reported(self):
        result = evaluate_python_suggestion("x = 41\n", "axpy")
        assert not result.passed
        assert any("entry point" in issue for issue in result.issues)

    def test_module_level_crash_is_reported(self):
        code = "import numpy as np\nraise ValueError('bad import time')\n\ndef axpy(a, x, y):\n    return y\n"
        result = evaluate_python_suggestion(code, "axpy")
        assert not result.passed

    def test_function_returning_none_fails(self):
        code = "def axpy(a, x, y):\n    pass\n"
        result = evaluate_python_suggestion(code, "axpy")
        assert not result.passed
        assert any("None" in issue for issue in result.issues)

    def test_run_python_suggestion_returns_output(self):
        code = get_template("python", "numpy", "axpy")
        result = run_python_suggestion(code, "axpy")
        assert result.passed
        assert result.entry_point == "axpy"
        assert result.output is not None

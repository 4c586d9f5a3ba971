"""Differential oracle for the vectorized lockstep CUDA-C interpreter.

The lockstep engine (:mod:`repro.sandbox.cuda_c.lockstep`) must be
observationally indistinguishable from the scalar thread sweep — buffers,
verdicts, error types/messages, and recorded launch replays all byte-equal.
This suite is the guard for that contract:

* every CUDA-embedded corpus suggestion (templates *and* mutations, which
  cover out-of-bounds and wrong-result paths) runs through both engines,
* seeded property-based expression tests (stdlib ``random`` only) sweep
  arithmetic/comparison/ternary trees over thread indices, including int
  overflow and float NaN/inf cases,
* targeted divergence kernels (thread-dependent branches, early return,
  per-thread loop trip counts, ``__syncthreads__``) must match *without*
  falling back to the scalar path, and
* known-hazardous kernels (cross-lane reads, duplicate scatters) must fall
  back and still match exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.sandbox.cuda_c import CudaModule, execution_mode, lockstep_stats
from repro.sandbox.cuda_c import interpreter as interp
from repro.sandbox.executor import evaluate_python_suggestions
from repro.corpus.store import CorpusStore


def _cuda_snippets(corpus: CorpusStore):
    return [
        s for s in corpus
        if s.language == "python" and ("SourceModule" in s.code or "RawKernel" in s.code)
    ]


def _result_signature(results):
    out = []
    for r in results:
        output = r.output
        if isinstance(output, np.ndarray):
            output = (output.shape, output.dtype.str, output.tobytes())
        out.append((r.passed, tuple(r.issues), r.entry_point, output))
    return out


def _lockstep_delta(before, after):
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _launch_both(source, kernel_name, args_factory, grid, block):
    """Launch under both engines; return (buffer bytes, error) per mode."""
    results = {}
    for mode in ("auto", "scalar"):
        args = args_factory()
        err = None
        with execution_mode(mode):
            kern = CudaModule(source).get_kernel(kernel_name)
            try:
                kern.launch(grid, block, args)
            except Exception as exc:
                err = (type(exc).__name__, str(exc))
        buffers = tuple(
            a.tobytes() for a in args if isinstance(a, np.ndarray)
        )
        results[mode] = (buffers, err)
    return results


def _assert_both_identical(source, kernel_name, args_factory, grid=(2,), block=(32,)):
    results = _launch_both(source, kernel_name, args_factory, grid, block)
    assert results["auto"] == results["scalar"]
    return results["auto"]


class TestCorpusDifferential:
    """Every CUDA-embedded corpus suggestion through both engines."""

    def test_every_cuda_suggestion_matches_scalar(self, corpus):
        snippets = _cuda_snippets(corpus)
        assert len(snippets) >= 20  # templates + mutations for 6 kernels
        batch = [(s.code, s.kernel) for s in snippets]
        vectorized = evaluate_python_suggestions(batch)
        with execution_mode("scalar"):
            scalar = evaluate_python_suggestions(batch)
        assert _result_signature(vectorized) == _result_signature(scalar)

    def test_vectorized_is_the_default_and_actually_runs(self, corpus):
        snippets = [s for s in _cuda_snippets(corpus) if s.origin.value == "template"]
        batch = [(s.code, s.kernel) for s in snippets]
        before = lockstep_stats()
        results = evaluate_python_suggestions(batch)
        delta = _lockstep_delta(before, lockstep_stats())
        assert all(r.passed for r in results)
        assert delta.get("launches_lockstep", 0) > 0
        assert delta.get("launches_scalar_fallback", 0) == 0
        assert not any(k.startswith("fallback[") and v for k, v in delta.items())

    def test_verdicts_identical_across_engines(self, corpus):
        """Full analyzer verdicts (the persisted artifact) for every CUDA
        suggestion must not depend on the engine."""
        snippets = _cuda_snippets(corpus)
        verdicts = {}
        try:
            for mode in ("auto", "scalar"):
                # Each pass computes every verdict; a memo hit would hand
                # the scalar pass the auto pass's verdicts.
                clear_verdict_memo()
                analyzer = SuggestionAnalyzer()
                with execution_mode(mode):
                    verdicts[mode] = [
                        analyzer.analyze(
                            s.code, language="python", kernel=s.kernel,
                            requested_model=s.label_model or "python.pycuda",
                        ).to_payload()
                        for s in snippets
                    ]
        finally:
            clear_verdict_memo()
        assert verdicts["auto"] == verdicts["scalar"]

    def test_recorded_launch_replays_identical(self):
        """Within a shared parse scope, the recorded launch-replay memo
        (kernel, geometry, argument fingerprint -> post-launch buffers) must
        be identical whichever engine interpreted the first launch."""
        src = """
        __global__ void gemv(const int m, const int n, const double *A, const double *x, double *y)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < m) {
                double sum = 0.0;
                for (int j = 0; j < n; j++) { sum += A[i * n + j] * x[j]; }
                y[i] = sum;
            }
        }
        """
        records = {}
        for mode in ("auto", "scalar"):
            rng = np.random.default_rng(3)
            a = rng.standard_normal(12 * 9)
            x = rng.standard_normal(9)
            with interp.shared_parse_scope() as scope, execution_mode(mode):
                kern = CudaModule(src).get_kernel("gemv")
                kern.launch((1,), (32,), (12, 9, a, x, np.zeros(12)))
                kern.launch((1,), (32,), (12, 9, a, x, np.zeros(12)))  # replays
                normalized = []
                for key, buffers in scope.launches.items():
                    kernel_obj = key[0]
                    normalized.append((
                        (kernel_obj.name,) + tuple(key[1:]),
                        tuple((name, arr.tobytes()) for name, arr in buffers),
                    ))
                records[mode] = sorted(normalized)
        assert records["auto"] == records["scalar"]
        assert len(records["auto"]) == 1  # both launches share one record

    def test_replayed_launch_matches_fresh_interpretation(self):
        """A memo replay (second identical launch in a scope) must leave the
        same bytes as interpreting from scratch, under both engines."""
        src = """
        __global__ void scale(const int n, const double a, double *y)
        { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * y[i]; } }
        """
        outputs = {}
        for mode in ("auto", "scalar"):
            rng = np.random.default_rng(7)
            y_scoped = rng.standard_normal(40)
            y_fresh = y_scoped.copy()
            with execution_mode(mode):
                with interp.shared_parse_scope():
                    kern = CudaModule(src).get_kernel("scale")
                    probe = y_scoped.copy()
                    kern.launch((2,), (32,), (40, 1.5, probe))       # records
                    kern.launch((2,), (32,), (40, 1.5, y_scoped))    # replays
                CudaModule(src).get_kernel("scale").launch((2,), (32,), (40, 1.5, y_fresh))
            assert y_scoped.tobytes() == y_fresh.tobytes()
            outputs[mode] = y_scoped.tobytes()
        assert outputs["auto"] == outputs["scalar"]


# ---------------------------------------------------------------------------
# property-based expression differential (seeded, stdlib-only generator)
# ---------------------------------------------------------------------------

_INT_LEAVES = ("0", "1", "2", "3", "7", "12", "255", "100000", "2147483647",
               "4611686018427387904", "9223372036854775807")
_FLOAT_LEAVES = ("0.0", "0.5", "2.0", "3.25", "1e3", "1e308",
                 "(1e308 * 2.0 - 1e308 * 2.0)",   # NaN
                 "(1e308 * 2.0)")                  # inf
_VAR_LEAVES = ("i", "n", "threadIdx.x", "blockIdx.x", "blockDim.x")
_BIN_OPS = ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||")


def _gen_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        bucket = rng.random()
        if bucket < 0.45:
            return rng.choice(_VAR_LEAVES)
        if bucket < 0.75:
            return rng.choice(_INT_LEAVES)
        return rng.choice(_FLOAT_LEAVES)
    shape = rng.random()
    if shape < 0.55:
        op = rng.choice(_BIN_OPS)
        return f"({_gen_expr(rng, depth - 1)} {op} {_gen_expr(rng, depth - 1)})"
    if shape < 0.70:
        cond = _gen_expr(rng, depth - 1)
        return f"({cond} ? {_gen_expr(rng, depth - 1)} : {_gen_expr(rng, depth - 1)})"
    if shape < 0.80:
        return f"(-{_gen_expr(rng, depth - 1)})"
    if shape < 0.88:
        return f"(!{_gen_expr(rng, depth - 1)})"
    func = rng.choice(("min", "max", "fabs"))
    if func == "fabs":
        return f"fabs({_gen_expr(rng, depth - 1)})"
    return f"{func}({_gen_expr(rng, depth - 1)}, {_gen_expr(rng, depth - 1)})"


def _expr_kernel(expr: str) -> str:
    return (
        "__global__ void f(const int n, double *out)\n"
        "{\n"
        "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        f"    if (i < n) {{ out[i] = {expr}; }}\n"
        "}\n"
    )


class TestPropertyExpressions:
    """Random expression trees evaluated scalar-vs-lockstep, elementwise."""

    N = 67  # not a multiple of the block size: guard divergence included

    def _assert_expr_matches(self, expr: str):
        src = _expr_kernel(expr)
        _assert_both_identical(
            src, "f", lambda: (self.N, np.zeros(self.N)), grid=(3,), block=(32,)
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_expression_batches(self, seed):
        rng = random.Random(20230414 + seed)
        for _ in range(8):
            self._assert_expr_matches(_gen_expr(rng, rng.randint(1, 4)))

    def test_int_overflow_expression(self):
        # int64 would overflow; the scalar engine's exact Python ints are the
        # reference and the lockstep engine must defer to them.
        self._assert_expr_matches("(9223372036854775807 + i)")
        self._assert_expr_matches("(4611686018427387904 * (i + 2))")
        self._assert_expr_matches("(9223372036854775807 * 9223372036854775807 + i)")

    def test_nan_and_inf_expressions(self):
        self._assert_expr_matches("((1e308 * 2.0 - 1e308 * 2.0) + i)")
        self._assert_expr_matches("((1e308 * 2.0 - 1e308 * 2.0) < i ? 1.0 : 2.0)")
        self._assert_expr_matches("min(i, (1e308 * 2.0 - 1e308 * 2.0))")
        self._assert_expr_matches("min((1e308 * 2.0 - 1e308 * 2.0), i)")
        self._assert_expr_matches("max(i, (1e308 * 2.0))")
        self._assert_expr_matches("(!(1e308 * 2.0 - 1e308 * 2.0))")

    def test_division_and_modulo_by_zero_expressions(self):
        # Scalar raises (CudaRuntimeError for int /, ZeroDivisionError for
        # float / and %); the lockstep engine must surface identical errors.
        self._assert_expr_matches("(i / (i % 3))")
        self._assert_expr_matches("(1.0 / (i % 3))")
        self._assert_expr_matches("(i % (i % 3))")
        self._assert_expr_matches("(7 / (n - n))")

    def test_mixed_type_ternary_per_lane(self):
        # Branch types differ (int vs float): per-lane `/` semantics diverge
        # between lanes, which the lockstep engine must reproduce (via
        # hazard fallback) bit-exactly.
        self._assert_expr_matches("(((i % 2 == 0) ? 3 : 2.5) / 2)")

    def test_int_decl_from_huge_float_matches_exact_python_semantics(self):
        # int v = 1e19-scale float: scalar int() is exact beyond int64; a
        # wrapping astype would flip the sign and diverge.
        src = """
        __global__ void f(const int n, double *y)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            int v = (threadIdx.x + 1.0) * 1e19;
            if (i < n) { y[i] = v > 0 ? 1.0 : 2.0; }
        }
        """
        (buffers,), err = _assert_both_identical(
            src, "f", lambda: (4, np.zeros(4)), grid=(1,), block=(4,)
        )
        assert err is None
        np.testing.assert_array_equal(np.frombuffer(buffers), [1.0, 1.0, 1.0, 1.0])

    def test_integer_division_semantics_negative_operands(self):
        self._assert_expr_matches("((0 - i) / 3)")
        self._assert_expr_matches("((0 - i) % 3)")
        self._assert_expr_matches("((0 - i) / (0 - 3))")


# ---------------------------------------------------------------------------
# divergence coverage (must vectorize, not fall back)
# ---------------------------------------------------------------------------

def _assert_no_fallback(delta):
    assert delta.get("launches_lockstep", 0) >= 1
    assert delta.get("launches_scalar_fallback", 0) == 0


class TestDivergence:
    def _run_divergent(self, src, name, args_factory, grid=(2,), block=(32,)):
        before = lockstep_stats()
        signature = _assert_both_identical(src, name, args_factory, grid, block)
        delta = _lockstep_delta(before, lockstep_stats())
        _assert_no_fallback(delta)
        return signature

    def test_if_else_thread_dependent(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                if (i % 2 == 0) { out[i] = i * 2.0; }
                else { out[i] = 0.0 - i; }
            }
        }
        """
        self._run_divergent(src, "f", lambda: (50, np.zeros(50)))

    def test_early_return_thread_dependent(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i >= n) { return; }
            if (i % 3 == 0) { return; }
            out[i] = i + 0.5;
        }
        """
        self._run_divergent(src, "f", lambda: (50, np.zeros(50)))

    def test_while_loop_per_thread_trip_counts(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                double acc = 0.0;
                int j = 0;
                while (j < i % 7) {
                    acc += j + 1.0;
                    j++;
                }
                out[i] = acc;
            }
        }
        """
        self._run_divergent(src, "f", lambda: (60, np.zeros(60)))

    def test_for_loop_with_break_and_continue(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                double acc = 0.0;
                for (int j = 0; j < 10; j++) {
                    if (j == i % 4) { continue; }
                    if (j > i % 6 + 3) { break; }
                    acc += 1.0;
                }
                out[i] = acc;
            }
        }
        """
        self._run_divergent(src, "f", lambda: (60, np.zeros(60)))

    def test_syncthreads_inside_uniform_branch(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (n > 0) {
                __syncthreads();
                if (i < n) { out[i] = i + 1.0; }
                __syncthreads();
            }
        }
        """
        self._run_divergent(src, "f", lambda: (40, np.zeros(40)))

    def test_nested_divergent_loops(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                double acc = 0.0;
                for (int a = 0; a < i % 3 + 1; a++) {
                    for (int b = 0; b < a + i % 2 + 1; b++) {
                        acc += a * 10.0 + b;
                    }
                }
                out[i] = acc;
            }
        }
        """
        self._run_divergent(src, "f", lambda: (60, np.zeros(60)))

    def test_guard_out_of_bounds_error_identical(self):
        # Weakened guard: thread n runs out of bounds.  Both engines must
        # produce the identical error *and* identical partial buffer bytes
        # (scalar threads 0..n-1 already wrote before the raise).
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i <= n) { out[i] = i * 1.5; }
        }
        """
        signature = _assert_both_identical(src, "f", lambda: (8, np.zeros(8)), grid=(1,), block=(32,))
        buffers, err = signature
        assert err is not None and err[0] == "CudaRuntimeError"
        assert "out-of-bounds" in err[1]


# ---------------------------------------------------------------------------
# hazard paths (must fall back AND match)
# ---------------------------------------------------------------------------

class TestHazardFallback:
    def _run_hazard(self, src, name, args_factory, reason, grid=(1,), block=(32,)):
        before = lockstep_stats()
        _assert_both_identical(src, name, args_factory, grid, block)
        delta = _lockstep_delta(before, lockstep_stats())
        assert delta.get("launches_scalar_fallback", 0) >= 1
        assert delta.get(f"fallback[{reason}]", 0) >= 1

    def test_duplicate_scatter_falls_back_identically(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i % 4] = i * 1.0; }
        }
        """
        self._run_hazard(src, "f", lambda: (16, np.zeros(4)), "duplicate-scatter")

    def test_cross_lane_read_falls_back_identically(self):
        # Thread t reads the element thread t-1 wrote: sequential execution
        # is order-sensitive, so the lockstep engine must defer.
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                out[i] = i + 1.0;
                if (i > 0) { out[i] = out[i - 1] * 10.0; }
            }
        }
        """
        self._run_hazard(src, "f", lambda: (8, np.zeros(8)), "cross-lane-read")

    def test_intra_statement_cross_lane_read_falls_back_identically(self):
        # Thread t reads the element thread t-1 writes *in the same
        # statement*: sequential execution chains the values ([0,1,2,3,..]),
        # a naive gather-then-scatter would not ([0,1,1,1,..]).
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i > 0 && i < n) { out[i] = out[i - 1] + 1.0; }
        }
        """
        before = lockstep_stats()
        (buffers,), err = _assert_both_identical(
            src, "f", lambda: (8, np.zeros(8)), grid=(1,), block=(8,)
        )
        delta = _lockstep_delta(before, lockstep_stats())
        assert err is None
        assert delta.get("fallback[write-after-read]", 0) >= 1
        np.testing.assert_array_equal(
            np.frombuffer(buffers), [0, 1, 2, 3, 4, 5, 6, 7]
        )

    def test_intra_statement_compound_cross_lane_read_falls_back(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i > 0 && i < n) { out[i] += out[i - 1]; }
        }
        """
        self._run_hazard(src, "f", lambda: (8, np.ones(8)), "write-after-read")

    def test_cross_statement_write_after_read_falls_back_identically(self):
        # Every thread reads y[0] in one statement; thread 0 writes it in
        # the next.  Sequentially, threads 1.. read *after* thread 0's
        # write ([1,2,2,2,...]); a gather-then-scatter engine that missed
        # the hazard would produce [1,1,1,1,...].
        src = """
        __global__ void f(const int n, double *y)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                double t = y[0];
                y[i] = t + 1.0;
            }
        }
        """
        before = lockstep_stats()
        (buffers,), err = _assert_both_identical(
            src, "f", lambda: (4, np.zeros(4)), grid=(1,), block=(4,)
        )
        delta = _lockstep_delta(before, lockstep_stats())
        assert err is None
        assert delta.get("fallback[write-after-read]", 0) >= 1
        np.testing.assert_array_equal(np.frombuffer(buffers), [1, 2, 2, 2])

    def test_same_lane_read_modify_write_still_vectorizes(self):
        # axpy's `y[i] = a * x[i] + y[i]`: each lane reads only its own
        # write target — order-free, must not fall back.
        src = """
        __global__ void f(const int n, const double *x, double *y)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = 2.0 * x[i] + y[i]; }
        }
        """
        before = lockstep_stats()
        rng = np.random.default_rng(11)
        x = rng.standard_normal(20)
        _assert_both_identical(src, "f", lambda: (20, x.copy(), np.ones(20)), grid=(1,), block=(32,))
        _assert_no_fallback(_lockstep_delta(before, lockstep_stats()))

    def test_atomic_result_use_with_duplicates_falls_back(self):
        src = """
        __global__ void f(const int n, double *total, double *seen)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { seen[i] = atomicAdd(total, 1.0); }
        }
        """
        self._run_hazard(
            src, "f", lambda: (8, np.zeros(1), np.zeros(8)), "atomic-result-order"
        )

    def test_atomic_accumulation_without_result_vectorizes(self):
        src = """
        __global__ void count(const int n, double *total)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { atomicAdd(total, 1.0); }
        }
        """
        before = lockstep_stats()
        _assert_both_identical(src, "count", lambda: (12, np.zeros(1)), grid=(2,), block=(8,))
        delta = _lockstep_delta(before, lockstep_stats())
        _assert_no_fallback(delta)

    def test_step_budget_exhaustion_identical(self):
        src = "__global__ void f(const int n, double *y) { while (1 < 2) { y[0] += 1.0; } }"
        errors = {}
        for mode in ("auto", "scalar"):
            with execution_mode(mode):
                kern = CudaModule(src).get_kernel("f")
                kern.max_thread_steps = 5_000
                y = np.zeros(1)
                with pytest.raises(interp.CudaRuntimeError) as excinfo:
                    kern.launch((1,), (1,), (1, y))
                errors[mode] = str(excinfo.value)
        assert errors["auto"] == errors["scalar"]


class TestCompileTimeFallbacks:
    def test_break_outside_loop_stays_scalar_and_identical(self):
        # A loop-less break escapes the scalar engine as a raw signal; the
        # lockstep engine must not reinterpret it as a lane-mask subtraction.
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { break; }
            out[i] = 1.0;
        }
        """
        kern = CudaModule(src).get_kernel("f")
        assert kern.lockstep is None
        _assert_both_identical(src, "f", lambda: (4, np.zeros(8)), grid=(1,), block=(8,))

    def test_continue_outside_loop_stays_scalar_and_identical(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { continue; }
            out[i] = 1.0;
        }
        """
        assert CudaModule(src).get_kernel("f").lockstep is None
        _assert_both_identical(src, "f", lambda: (4, np.zeros(8)), grid=(1,), block=(8,))

    def test_break_inside_loop_still_vectorizes(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                for (int j = 0; j < 10; j++) { if (j > i) { break; } out[i] = j; }
            }
        }
        """
        assert CudaModule(src).get_kernel("f").lockstep is not None


class TestNarrowBufferStores:
    def test_int32_overflow_store_falls_back_identically(self):
        # int64 lane values out of int32 range: the scalar engine raises
        # OverflowError assigning element by element; the lockstep engine
        # must not wrap silently.
        src = """
        __global__ void f(const int n, int *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = (i + 1) * 100000 * 100000; }
        }
        """
        signature = _assert_both_identical(
            src, "f", lambda: (4, np.zeros(4, dtype=np.int32)), grid=(1,), block=(8,)
        )
        _, err = signature
        assert err is not None and err[0] == "OverflowError"

    def test_int32_compound_store_falls_back_identically(self):
        src = """
        __global__ void f(const int n, int *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] += 2000000000 + i; }
        }
        """
        _assert_both_identical(
            src, "f", lambda: (4, np.ones(4, dtype=np.int32)), grid=(1,), block=(8,)
        )

    def test_in_range_int32_store_vectorizes(self):
        src = """
        __global__ void f(const int n, int *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 3 + 1; }
        }
        """
        before = lockstep_stats()
        _assert_both_identical(
            src, "f", lambda: (6, np.zeros(6, dtype=np.int32)), grid=(1,), block=(8,)
        )
        _assert_no_fallback(_lockstep_delta(before, lockstep_stats()))


class TestExecutionModeSelection:
    def test_env_var_forces_scalar_through_batched_pipeline(self, monkeypatch):
        # $REPRO_CUDA_EXECUTION is the CLI-level control: outside any
        # execution_mode context the batched executor must honour it.
        src = (
            "import numpy as np\n"
            "import pycuda.autoinit\n"
            "import pycuda.driver as drv\n"
            "from pycuda.compiler import SourceModule\n"
            '_mod = SourceModule("""\n'
            "__global__ void axpy(const int n, const double a, const double *x, double *y)\n"
            "{ int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * x[i] + y[i]; } }\n"
            '""")\n'
            '_axpy = _mod.get_function("axpy")\n'
            "def axpy(a, x, y):\n"
            "    x = np.asarray(x, dtype=np.float64)\n"
            "    y = np.asarray(y, dtype=np.float64).copy()\n"
            "    _axpy(np.int32(x.size), np.float64(a), drv.In(x), drv.InOut(y),\n"
            "          block=(256, 1, 1), grid=(1, 1))\n"
            "    return y\n"
        )
        monkeypatch.setenv("REPRO_CUDA_EXECUTION", "scalar")
        before = lockstep_stats()
        results = evaluate_python_suggestions([(src, "axpy")])
        delta = _lockstep_delta(before, lockstep_stats())
        assert results[0].passed
        assert delta.get("launches_lockstep", 0) == 0
        assert delta.get("launches_scalar_forced", 0) >= 1

    def test_explicit_mode_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CUDA_EXECUTION", "scalar")
        with execution_mode("auto"):
            assert interp._current_mode() == "auto"
        assert interp._current_mode() == "scalar"
        monkeypatch.delenv("REPRO_CUDA_EXECUTION")
        assert interp._current_mode() == "auto"

    def test_invalid_env_value_fails_loud(self, monkeypatch):
        # A typo must not silently force the slow engine.
        monkeypatch.setenv("REPRO_CUDA_EXECUTION", "lockstep")
        kern = CudaModule(
            "__global__ void f(int n, double *y) { y[0] = n; }"
        ).get_kernel("f")
        with pytest.raises(interp.CudaRuntimeError, match="REPRO_CUDA_EXECUTION"):
            kern.launch((1,), (1,), (1, np.zeros(1)))

    def test_invalid_execution_mode_argument_rejected(self):
        with pytest.raises(ValueError):
            with execution_mode("vectorized"):
                pass

    def test_scalar_only_kernels_counted_distinctly(self):
        src = """
        __global__ void f(const int n, double *y)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = mystruct.x; }
        }
        """
        kern = CudaModule(src).get_kernel("f")
        assert kern.lockstep is None
        before = lockstep_stats()
        with pytest.raises(interp.CudaRuntimeError):
            kern.launch((1,), (4,), (2, np.zeros(4)))
        delta = _lockstep_delta(before, lockstep_stats())
        assert delta.get("launches_scalar_only", 0) == 1
        assert delta.get("launches_scalar_forced", 0) == 0


class TestTernaryScalarSemantics:
    """The ternary operator is new in the parser: pin its scalar semantics."""

    def test_only_taken_branch_evaluates(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i % 2 == 0 ? 10.0 + i : 0.0 - i; }
        }
        """
        n = 10
        out = np.zeros(n)
        with execution_mode("scalar"):
            CudaModule(src).get_kernel("f").launch((1,), (32,), (n, out))
        expected = np.array([10.0 + i if i % 2 == 0 else -float(i) for i in range(n)])
        np.testing.assert_array_equal(out, expected)

    def test_untaken_branch_errors_do_not_fire(self):
        # (i / 0) would raise — but only the taken branch evaluates.
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = 1 < 2 ? 5.0 : i / (n - n); }
        }
        """
        _assert_both_identical(src, "f", lambda: (8, np.zeros(8)), grid=(1,), block=(8,))

    def test_right_associativity(self):
        src = """
        __global__ void f(const int n, double *out)
        {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i < 2 ? 1.0 : i < 5 ? 2.0 : 3.0; }
        }
        """
        result = _assert_both_identical(src, "f", lambda: (8, np.zeros(8)), grid=(1,), block=(8,))
        buffers, err = result
        assert err is None
        values = np.frombuffer(buffers[0])
        np.testing.assert_array_equal(values, [1, 1, 2, 2, 2, 3, 3, 3])


class TestStaticElisionSoundness:
    """A hazard restores every buffer the launch wrote, not just its own.

    The lockstep engine snapshots each buffer before its first write.  A
    hazard on one buffer restores all of them before the scalar replay, so
    a read-modify-write of another buffer is not applied twice.
    """

    MIXED_SRC = """
    __global__ void k(int n, double* y, double* z, const int* idx) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) {
            y[i] = y[i] + 1.0;
            z[idx[i]] = y[i];
        }
    }
    """

    def test_unrelated_hazard_restores_elided_buffer(self):
        # y's store is clean; z's duplicate scatter trips the runtime hazard
        # after y was written, so the launch must restore y from its
        # snapshot and replay through the scalar sweep byte-identically.
        kern = CudaModule(self.MIXED_SRC).get_kernel("k")
        idx = np.zeros(32, dtype=np.int32)
        outputs = {}
        for mode in ("auto", "scalar"):
            y = np.arange(32, dtype=np.float64)
            z = np.zeros(8)
            before = lockstep_stats()
            with execution_mode(mode):
                kern.launch((1,), (32,), (32, y, z, idx))
            delta = _lockstep_delta(before, lockstep_stats())
            if mode == "auto":
                assert delta.get("fallback[duplicate-scatter]", 0) == 1
            outputs[mode] = (y.tobytes(), z.tobytes())
        assert outputs["auto"] == outputs["scalar"]
        np.testing.assert_array_equal(
            np.frombuffer(outputs["auto"][0]), np.arange(32, dtype=np.float64) + 1.0
        )

"""PERF: cost of the evaluation substrates (analysis + sandbox execution).

Times the three judging paths a suggestion can take: static analysis of a
C++ suggestion, sandboxed execution of a numpy suggestion, and interpreted
execution of a pyCUDA suggestion on the simulated device — plus the
batched-vs-serial sandbox comparison (:func:`collect_sandbox_record`) and
the scalar-vs-lockstep CUDA interpreter comparison
(:func:`collect_interpreter_record`), which feed the ``sandbox[...]`` /
``cuda[...]`` datapoints of ``BENCH_perf.json``.  Runs standalone
(``python benchmarks/bench_sandbox.py`` merges its datapoints into the
existing perf record) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.analyzer import SuggestionAnalyzer, clear_verdict_memo
from repro.corpus.templates import get_template
from repro.sandbox import evaluate_python_suggestion, evaluate_python_suggestions
from repro.sandbox.cuda_c import CudaModule, execution_mode, lockstep_stats, static_elision
import numpy as np

#: Where the perf record lands (the repo root's BENCH_* trajectory).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Timing repeats (best-of, to damp scheduler noise).
REPEATS = 3


def _pipeline_batches() -> list[list[tuple[str, str]]]:
    """The execution batches the pipeline actually forms: for every Python
    grid cell, the distinct suggestions of its completion at the default
    seed (the analyzer memo dedups exact duplicates before execution)."""
    from repro.codex.config import DEFAULT_SEED
    from repro.codex.engine import SimulatedCodex
    from repro.codex.prompt import Prompt
    from repro.models.grid import experiment_grid

    engine = SimulatedCodex(seed=DEFAULT_SEED)
    batches: list[list[tuple[str, str]]] = []
    for cell in experiment_grid(languages=("python",)):
        completion = engine.complete(Prompt.from_cell(cell))
        seen: set[str] = set()
        batch = []
        for code in completion.suggestions:
            if code not in seen:
                seen.add(code)
                batch.append((code, cell.kernel))
        if batch:
            batches.append(batch)
    return batches


def collect_sandbox_record(repeats: int = REPEATS) -> dict:
    """Best-of-``repeats`` wall-clock of the serial and batched sandbox paths
    over every Python cell's real suggestion batch, asserting identical
    outcomes.  Serial evaluates each suggestion in its own sandbox context
    (the pre-batching behaviour); batched runs one context per cell batch."""
    batches = _pipeline_batches()
    total = sum(len(batch) for batch in batches)
    # Untimed warm-up: first-touch costs (imports, task construction, numpy
    # caches) land outside the measured region for both paths.
    for batch in batches:
        evaluate_python_suggestions(batch)
    # Paired protocol: each repeat times serial and batched back-to-back for
    # every individual batch, keeping the per-batch minimum.  Scheduler drift
    # hits both paths of a pair equally, so the small structural advantage
    # of batching is not swamped by load noise on a busy box.
    serial_batch_best = [float("inf")] * len(batches)
    batched_batch_best = [float("inf")] * len(batches)
    serial_results = batched_results = None
    for _ in range(repeats):
        serial_results = []
        batched_results = []
        for index, batch in enumerate(batches):
            start = time.perf_counter()
            serial_results.extend(
                evaluate_python_suggestion(code, kernel) for code, kernel in batch
            )
            serial_batch_best[index] = min(
                serial_batch_best[index], time.perf_counter() - start
            )
            start = time.perf_counter()
            batched_results.extend(evaluate_python_suggestions(batch))
            batched_batch_best[index] = min(
                batched_batch_best[index], time.perf_counter() - start
            )
    assert [(r.passed, r.issues) for r in serial_results] == [
        (r.passed, r.issues) for r in batched_results
    ], "batched sandbox outcomes diverged from serial"
    serial_best = sum(serial_batch_best)
    batched_best = sum(batched_batch_best)
    # Batching amortizes per-suggestion context setup (fake-runtime install,
    # CUDA parse/launch reuse), so the win concentrates in the CPU-backed
    # cells (numpy/numba) whose executions are microseconds; the interpreted
    # GPU cells are dominated by per-suggestion kernel interpretation that no
    # batch can share.  Report the setup-bound stratum next to the overall
    # number so the trajectory tracks both.
    cpu_indices = [
        index
        for index, batch in enumerate(batches)
        if not any(("pycuda" in code) or ("cupy" in code) for code, _ in batch)
    ]
    cpu_total = sum(len(batches[index]) for index in cpu_indices)
    serial_cpu = sum(serial_batch_best[index] for index in cpu_indices)
    batched_cpu = sum(batched_batch_best[index] for index in cpu_indices)
    return {
        "experiments": {
            f"sandbox[serial x{total}]": round(serial_best, 4),
            f"sandbox[batched x{total}]": round(batched_best, 4),
            f"sandbox[serial cpu x{cpu_total}]": round(serial_cpu, 4),
            f"sandbox[batched cpu x{cpu_total}]": round(batched_cpu, 4),
        },
        "batched_speedup": round(serial_best / batched_best, 3) if batched_best else None,
        "batched_speedup_cpu": round(serial_cpu / batched_cpu, 3) if batched_cpu else None,
    }


def test_batched_execution_matches_serial_under_load():
    record = collect_sandbox_record(repeats=1)
    assert record["batched_speedup"] is not None
    assert record["batched_speedup_cpu"] is not None


# ---------------------------------------------------------------------------
# CUDA interpreter: scalar thread sweep vs vectorized lockstep engine
# ---------------------------------------------------------------------------

def _interpreter_launch_cases() -> list[tuple[str, str, tuple, tuple, tuple]]:
    """The corpus kernels at their sandbox-task problem sizes, as direct
    launch cases (name, source, grid, block, args) — the interpreter-bound
    stratum with no sandbox overhead in the way."""
    rng = np.random.default_rng(20230414)
    gemm_m, gemm_n, gemm_k = 8, 7, 6
    jac_n = 6
    cases = [
        ("axpy", """extern "C" __global__
void axpy(const int n, const double a, const double *x, double *y)
{ int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * x[i] + y[i]; } }""",
         (1,), (256,), (64, 1.5, rng.standard_normal(64), rng.standard_normal(64))),
        ("gemv", """__global__ void gemv(const int m, const int n, const double *A, const double *x, double *y)
{ int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) { double sum = 0.0; for (int j = 0; j < n; j++) { sum += A[i * n + j] * x[j]; } y[i] = sum; } }""",
         (1,), (256,), (12, 9, rng.standard_normal(108), rng.standard_normal(9), np.zeros(12))),
        ("gemm", """__global__ void gemm(const int m, const int n, const int k,
                     const double *A, const double *B, double *C)
{ int i = blockIdx.y * blockDim.y + threadIdx.y; int j = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m && j < n) { double sum = 0.0; for (int l = 0; l < k; l++) { sum += A[i * k + l] * B[l * n + j]; }
  C[i * n + j] = sum; } }""",
         ((gemm_n + 15) // 16, (gemm_m + 15) // 16), (16, 16, 1),
         (gemm_m, gemm_n, gemm_k, rng.standard_normal(gemm_m * gemm_k),
          rng.standard_normal(gemm_k * gemm_n), np.zeros(gemm_m * gemm_n))),
        ("spmv", """__global__ void spmv(const int n, const int *row_ptr, const int *col_idx,
                     const double *values, const double *x, double *y)
{ int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { double sum = 0.0;
    for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) { sum += values[j] * x[col_idx[j]]; }
    y[i] = sum; } }""",
         (1,), (256,), (16, (np.arange(17) * 4).astype(np.int32),
                        rng.integers(0, 16, 64).astype(np.int32),
                        rng.standard_normal(64), rng.standard_normal(16), np.zeros(16))),
        ("jacobi", """__global__ void jacobi(const int n, const double *u, double *u_new)
{ int i = blockIdx.z * blockDim.z + threadIdx.z; int j = blockIdx.y * blockDim.y + threadIdx.y;
  int k = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= 1 && i < n - 1 && j >= 1 && j < n - 1 && k >= 1 && k < n - 1) {
    int idx = i * n * n + j * n + k;
    u_new[idx] = (u[(i - 1) * n * n + j * n + k] + u[(i + 1) * n * n + j * n + k] +
                  u[i * n * n + (j - 1) * n + k] + u[i * n * n + (j + 1) * n + k] +
                  u[i * n * n + j * n + (k - 1)] + u[i * n * n + j * n + (k + 1)]) / 6.0; } }""",
         ((jac_n + 3) // 4,) * 3, (4, 4, 4),
         (jac_n, rng.standard_normal(jac_n ** 3), rng.standard_normal(jac_n ** 3))),
    ]
    return cases


def collect_interpreter_record(repeats: int = REPEATS) -> dict:
    """Paired scalar-vs-lockstep wall-clock of the CUDA interpreter.

    Two strata: direct kernel launches over the corpus kernels at their
    sandbox-task sizes (the pure interpreter-bound stratum PR 3 identified
    as the dominant sandbox cost), and the GPU-backed suggestion batches
    end-to-end.  Asserts byte-identical buffers between engines and zero
    lockstep fallbacks on the stock kernels while measuring.
    """
    cases = [
        (name, CudaModule(src).get_kernel(name), grid, block, args)
        for name, src, grid, block, args in _interpreter_launch_cases()
    ]
    before = lockstep_stats()
    # Correctness gate (and warm-up): both engines, byte-identical buffers.
    for name, kern, grid, block, args in cases:
        buffers = {}
        for mode in ("auto", "scalar"):
            copies = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            with execution_mode(mode):
                kern.launch(grid, block, copies)
            buffers[mode] = b"".join(
                a.tobytes() for a in copies if isinstance(a, np.ndarray)
            )
        assert buffers["auto"] == buffers["scalar"], f"{name}: engine divergence"
    delta = lockstep_stats()
    fallbacks = delta.get("launches_scalar_fallback", 0) - before.get("launches_scalar_fallback", 0)
    assert fallbacks == 0, "stock corpus kernels must run fully vectorized"

    launch_best = {"auto": [float("inf")] * len(cases), "scalar": [float("inf")] * len(cases)}
    for _ in range(repeats):
        for index, (name, kern, grid, block, args) in enumerate(cases):
            for mode in ("auto", "scalar"):
                copies = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
                with execution_mode(mode):
                    start = time.perf_counter()
                    kern.launch(grid, block, copies)
                    elapsed = time.perf_counter() - start
                launch_best[mode][index] = min(launch_best[mode][index], elapsed)
    lockstep_launch = sum(launch_best["auto"])
    scalar_launch = sum(launch_best["scalar"])

    # End-to-end: the pipeline's GPU-backed suggestion batches.
    gpu_batches = [
        batch for batch in _pipeline_batches()
        if any(("pycuda" in code) or ("cupy" in code) for code, _ in batch)
    ]
    gpu_total = sum(len(batch) for batch in gpu_batches)
    for batch in gpu_batches:  # warm-up
        evaluate_python_suggestions(batch)
    batch_best = {"auto": [float("inf")] * len(gpu_batches),
                  "scalar": [float("inf")] * len(gpu_batches)}
    outcomes = {}
    for _ in range(repeats):
        for mode in ("auto", "scalar"):
            results = []
            for index, batch in enumerate(gpu_batches):
                start = time.perf_counter()
                results.extend(evaluate_python_suggestions(batch, cuda_execution=mode))
                batch_best[mode][index] = min(
                    batch_best[mode][index], time.perf_counter() - start
                )
            outcomes[mode] = [(r.passed, tuple(r.issues)) for r in results]
    assert outcomes["auto"] == outcomes["scalar"], "engine outcomes diverged on GPU batches"
    lockstep_e2e = sum(batch_best["auto"])
    scalar_e2e = sum(batch_best["scalar"])

    n_launches = len(cases)
    return {
        "experiments": {
            f"cuda[scalar launches x{n_launches}]": round(scalar_launch, 4),
            f"cuda[lockstep launches x{n_launches}]": round(lockstep_launch, 4),
            f"sandbox[gpu scalar x{gpu_total}]": round(scalar_e2e, 4),
            f"sandbox[gpu lockstep x{gpu_total}]": round(lockstep_e2e, 4),
        },
        "lockstep_speedup": round(scalar_launch / lockstep_launch, 3) if lockstep_launch else None,
        "lockstep_speedup_e2e": round(scalar_e2e / lockstep_e2e, 3) if lockstep_e2e else None,
    }


def test_lockstep_interpreter_beats_scalar():
    record = collect_interpreter_record(repeats=1)
    assert record["lockstep_speedup"] is not None and record["lockstep_speedup"] > 1.0
    assert record["lockstep_speedup_e2e"] is not None


# ---------------------------------------------------------------------------
# CUDA interpreter: static-analysis-driven hazard-tracking elision
# ---------------------------------------------------------------------------

def _static_elision_cases() -> list[tuple[str, str, tuple, tuple, tuple]]:
    """Store-heavy launch cases where per-store hazard tracking dominates.

    The stock corpus kernels store once per lane, so elision barely shows;
    these variants store in every loop iteration (a common suggestion idiom:
    accumulate directly into the output element), which is where dropping
    the writer/duplicate/foreign-reader bookkeeping pays.
    """
    rng = np.random.default_rng(20230414)
    m, n = 48, 64
    return [
        ("gemv_acc", """__global__ void gemv_acc(const int m, const int n, const double *A,
                     const double *x, double *y)
{ int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) { y[i] = 0.0;
    for (int j = 0; j < n; j++) { y[i] = y[i] + A[i * n + j] * x[j]; } } }""",
         (1,), (64,), (m, n, rng.standard_normal(m * n), rng.standard_normal(n), np.zeros(m))),
        ("axpy_iter", """extern "C" __global__
void axpy_iter(const int n, const int iters, const double a, const double *x, double *y)
{ int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { for (int t = 0; t < iters; t++) { y[i] = a * x[i] + y[i]; } } }""",
         (1,), (256,), (256, 32, 1.0009, rng.standard_normal(256), rng.standard_normal(256))),
    ]


def collect_static_record(repeats: int = REPEATS) -> dict:
    """Paired lockstep wall-clock with hazard-tracking elision on vs off.

    Both passes run the vectorized engine; the only difference is whether
    the static analyzer's race-SAFE proofs drop the per-access runtime
    bookkeeping.  Asserts byte-identical buffers between the two settings
    and that every elided launch stays fallback-free.
    """
    cases = [
        (name, CudaModule(src).get_kernel(name), grid, block, args)
        for name, src, grid, block, args in _static_elision_cases()
    ]
    before = lockstep_stats()
    # Correctness gate (and warm-up): elision must not change a single byte.
    for name, kern, grid, block, args in cases:
        buffers = {}
        for enabled in (True, False):
            copies = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            with static_elision(enabled):
                kern.launch(grid, block, copies)
            buffers[enabled] = b"".join(
                a.tobytes() for a in copies if isinstance(a, np.ndarray)
            )
        assert buffers[True] == buffers[False], f"{name}: elision changed results"
    delta = lockstep_stats()
    fallbacks = delta.get("launches_scalar_fallback", 0) - before.get("launches_scalar_fallback", 0)
    assert fallbacks == 0, "elision cases must run fully vectorized"
    elided = delta.get("launches_static_elided", 0) - before.get("launches_static_elided", 0)
    assert elided >= len(cases), "static analyzer failed to prove the cases race-safe"

    best = {True: [float("inf")] * len(cases), False: [float("inf")] * len(cases)}
    for _ in range(repeats):
        for index, (name, kern, grid, block, args) in enumerate(cases):
            for enabled in (True, False):
                copies = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
                with static_elision(enabled):
                    start = time.perf_counter()
                    kern.launch(grid, block, copies)
                    elapsed = time.perf_counter() - start
                best[enabled][index] = min(best[enabled][index], elapsed)
    elided_time = sum(best[True])
    tracked_time = sum(best[False])
    n_launches = len(cases)
    return {
        "experiments": {
            f"cuda[tracked launches x{n_launches}]": round(tracked_time, 4),
            f"cuda[static-elided launches x{n_launches}]": round(elided_time, 4),
        },
        "lockstep_static_speedup": round(tracked_time / elided_time, 3) if elided_time else None,
    }


def test_static_elision_speeds_up_lockstep():
    record = collect_static_record(repeats=1)
    assert record["lockstep_static_speedup"] is not None
    assert record["lockstep_static_speedup"] > 1.0


def main() -> None:
    """Merge the batched-vs-serial and scalar-vs-lockstep datapoints into
    BENCH_perf.json."""
    record = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {"experiments": {}}
    sandbox = collect_sandbox_record()
    record.setdefault("experiments", {}).update(sandbox["experiments"])
    record["batched_speedup"] = sandbox["batched_speedup"]
    record["batched_speedup_cpu"] = sandbox["batched_speedup_cpu"]
    interpreter = collect_interpreter_record()
    record["experiments"].update(interpreter["experiments"])
    record["lockstep_speedup"] = interpreter["lockstep_speedup"]
    record["lockstep_speedup_e2e"] = interpreter["lockstep_speedup_e2e"]
    static = collect_static_record()
    record["experiments"].update(static["experiments"])
    record["lockstep_static_speedup"] = static["lockstep_static_speedup"]
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_PATH}")
    for key, seconds in sorted(
        {**sandbox["experiments"], **interpreter["experiments"], **static["experiments"]}.items()
    ):
        print(f"  {key:32s} {seconds:8.4f}s")
    print(
        f"  batched speedup x{sandbox['batched_speedup']} "
        f"(cpu-bound stratum x{sandbox['batched_speedup_cpu']})"
    )
    print(
        f"  lockstep speedup x{interpreter['lockstep_speedup']} on the "
        f"interpreter-bound stratum (gpu batches end-to-end "
        f"x{interpreter['lockstep_speedup_e2e']})"
    )
    print(
        f"  static elision speedup x{static['lockstep_static_speedup']} on "
        "store-heavy lockstep launches"
    )


def test_static_analysis_cpp_cg(benchmark):
    analyzer = SuggestionAnalyzer()
    code = get_template("cpp", "cuda", "cg")

    def run():
        clear_verdict_memo()  # both memos, so each round analyzes from scratch
        return analyzer.analyze(code, language="cpp", kernel="cg", requested_model="cpp.cuda")

    verdict = benchmark(run)
    assert verdict.is_correct


def test_sandbox_numpy_cg(benchmark):
    code = get_template("python", "numpy", "cg")
    result = benchmark(evaluate_python_suggestion, code, "cg")
    assert result.passed


def test_sandbox_pycuda_gemv(benchmark):
    code = get_template("python", "pycuda", "gemv")
    result = benchmark(evaluate_python_suggestion, code, "gemv")
    assert result.passed


def test_cuda_interpreter_axpy_launch(benchmark):
    source = """
    extern "C" __global__
    void axpy(const int n, const double a, const double *x, double *y)
    {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) {
            y[i] = a * x[i] + y[i];
        }
    }
    """
    kernel = CudaModule(source).get_kernel("axpy")
    rng = np.random.default_rng(0)
    n = 256
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)

    def launch():
        kernel.launch((1,), (256,), (n, 2.0, x, y))

    benchmark(launch)


if __name__ == "__main__":
    main()

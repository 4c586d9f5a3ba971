"""Restricted execution of Python suggestions against numerical oracles.

``run_python_suggestion`` executes a suggestion module with the fake GPU /
JIT runtimes installed in :data:`sys.modules`, locates the entry function for
the kernel and calls it with the canonical :class:`~repro.sandbox.tasks.SandboxTask`
arguments; ``evaluate_python_suggestion`` additionally compares the result
against the oracle.

``evaluate_python_suggestions`` (plural) is the batched entry point used by
the analyzer's cache-miss seam: each kernel's numerical oracle is set up
once per batch and the whole batch executes — in input order — inside a
single :func:`fake_runtime` context and parse scope (the analyzer's, when it
calls), instead of installing and removing the fake module stack once per
suggestion.

Every module actually executed bumps a process-wide counter
(:func:`sandbox_execution_count`), which is how runners and tests assert
that warm-cache runs perform **zero** sandbox executions.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import types
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.analysis.pythonlang import parse_suggestion
from repro.sandbox.tasks import SandboxTask, get_task

__all__ = [
    "ExecutionResult",
    "run_python_suggestion",
    "evaluate_python_suggestion",
    "evaluate_python_suggestions",
    "fake_runtime",
    "sandbox_execution_count",
]

#: Process-wide count of suggestion modules actually executed (monotonic;
#: callers measure deltas).  Incremented just before a module's ``exec``,
#: under a lock so the evaluation service's worker threads never drop
#: increments.
_EXECUTION_COUNT = 0
_EXECUTION_COUNT_LOCK = threading.Lock()


def _count_execution() -> None:
    global _EXECUTION_COUNT
    with _EXECUTION_COUNT_LOCK:
        _EXECUTION_COUNT += 1


def sandbox_execution_count() -> int:
    """How many suggestion modules this process has executed so far."""
    return _EXECUTION_COUNT


@dataclass
class ExecutionResult:
    """Outcome of executing one Python suggestion."""

    passed: bool
    issues: list[str] = field(default_factory=list)
    output: Any = None
    entry_point: str | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def _fresh_wrapper_modules() -> dict[str, types.ModuleType]:
    """The per-suggestion fake modules (numba/cupyx wrappers).

    These are the only entries of the fake runtime built fresh for every
    serial evaluation (cupy/pycuda are real module objects shared across
    calls either way), so the batched path must rebuild exactly these
    between suggestions to keep batch results identical to serial ones even
    when a suggestion mutates its module namespace.
    """
    from repro.sandbox import fake_numba

    numba_module = types.ModuleType("numba")
    for name in fake_numba.__all__:
        setattr(numba_module, name, getattr(fake_numba, name))
    numba_cuda = types.ModuleType("numba.cuda")
    for name in ("jit", "grid", "to_device", "synchronize", "is_available"):
        setattr(numba_cuda, name, getattr(fake_numba.cuda, name))
    numba_module.cuda = fake_numba.cuda
    return {
        "numba": numba_module,
        "numba.cuda": numba_cuda,
        "cupyx": types.ModuleType("cupyx"),
    }


def _fake_module_map() -> dict[str, types.ModuleType]:
    """The sys.modules entries that stand in for the GPU / JIT stack."""
    from repro.sandbox import fake_cupy, fake_kokkos, fake_pycuda
    from repro.sandbox.fake_pycuda import autoinit, compiler, driver, gpuarray

    modules = {
        "cupy": fake_cupy,
        "pycuda": fake_pycuda,
        "pycuda.autoinit": autoinit,
        "pycuda.driver": driver,
        "pycuda.compiler": compiler,
        "pycuda.gpuarray": gpuarray,
        "pykokkos": fake_kokkos,
    }
    modules.update(_fresh_wrapper_modules())
    return modules


#: Held while the fake runtime is installed.  ``sys.modules`` and the fake
#: cupy/pycuda modules are process-wide, so two threads executing at once
#: would uninstall each other's runtime and interleave device state.
_RUNTIME_LOCK = threading.RLock()


@contextlib.contextmanager
def fake_runtime() -> Iterator[None]:
    """Temporarily install the fake numba/cupy/pycuda modules (one thread at
    a time)."""
    with _RUNTIME_LOCK:
        fakes = _fake_module_map()
        saved: dict[str, types.ModuleType | None] = {}
        for name, module in fakes.items():
            saved[name] = sys.modules.get(name)
            sys.modules[name] = module
        try:
            yield
        finally:
            for name, original in saved.items():
                if original is None:
                    sys.modules.pop(name, None)
                else:
                    sys.modules[name] = original


def _run_in_runtime(code: str, kernel: str, task: SandboxTask) -> ExecutionResult:
    """Execute one suggestion; the fake runtime must already be installed.

    The code is parsed once (shared with the static checks inside a parse
    scope) and compiled from that AST.
    """
    parsed = parse_suggestion(code)
    entry = parsed.entry_function(kernel)
    if entry is None:
        return ExecutionResult(passed=False, issues=["no callable entry point for the kernel"])
    _count_execution()
    namespace: dict[str, Any] = {"__name__": "__suggestion__"}
    try:
        exec(parsed.compile(code, "<suggestion>"), namespace)  # noqa: S102 - sandboxed corpus code
    except Exception as exc:  # pragma: no cover - exercised via evaluate
        return ExecutionResult(passed=False, issues=[f"module execution failed: {exc!r}"])
    func = namespace.get(entry)
    if not callable(func):
        return ExecutionResult(passed=False, issues=[f"entry point {entry!r} is not callable"])
    try:
        output = func(*task.fresh_args())
    except Exception as exc:
        return ExecutionResult(
            passed=False, issues=[f"calling {entry}() raised {type(exc).__name__}: {exc}"],
            entry_point=entry,
        )
    return ExecutionResult(passed=True, output=output, entry_point=entry)


def run_python_suggestion(code: str, kernel: str, task: SandboxTask | None = None) -> ExecutionResult:
    """Execute ``code`` and call its entry function with the kernel's task arguments."""
    task = task or get_task(kernel)
    with fake_runtime():
        return _run_in_runtime(code, kernel, task)


def _compare_against_oracle(result: ExecutionResult, task: SandboxTask) -> ExecutionResult:
    """Judge a run's output against the task oracle (mutates ``result``)."""
    if not result.passed:
        return result
    output = result.output
    if output is None:
        result.passed = False
        result.issues.append("function returned None")
        return result
    if hasattr(output, "get") and not isinstance(output, (dict, np.ndarray)):
        # pyCUDA GPUArray-style objects copy back via .get().
        try:
            output = output.get()
        except Exception:  # pragma: no cover - defensive
            pass
    mismatch = task.mismatch(output)
    result.output = output
    if mismatch is not None:
        result.passed = False
        result.issues.append(f"numerical mismatch: {mismatch}")
    return result


def evaluate_python_suggestion(code: str, kernel: str) -> ExecutionResult:
    """Execute a suggestion and compare its output against the oracle."""
    task = get_task(kernel)
    return _compare_against_oracle(run_python_suggestion(code, kernel, task), task)


def evaluate_python_suggestions(items: Sequence[tuple[str, str]]) -> list[ExecutionResult]:
    """Batched :func:`evaluate_python_suggestion` over ``(code, kernel)`` pairs.

    The whole batch executes inside a single :func:`fake_runtime` context
    and one :func:`~repro.sandbox.cuda_c.interpreter.shared_parse_scope` —
    joining the caller's scope when one is open, so code the static checks
    parsed is compiled from their AST — amortizing the per-suggestion
    runtime install/teardown and the re-parsing of identical code and
    embedded kernel sources; each kernel's oracle task is resolved once per
    batch.
    Suggestions still execute in **input order** (the order a serial loop
    would use, which matters because the fake cupy/pycuda modules are shared
    objects) and the per-suggestion wrapper modules are rebuilt between
    suggestions (exactly what a standalone evaluation gets), so one
    suggestion mutating its module namespace cannot change another's
    verdict.  Results come back in input order and are identical to
    evaluating each pair on its own.  Kernel launches use the CUDA engine
    the enclosing :func:`~repro.sandbox.cuda_c.interpreter.execution_mode`
    context selects, or ``$REPRO_CUDA_EXECUTION`` outside one.
    """
    from repro.sandbox.cuda_c.interpreter import shared_parse_scope

    results: list[ExecutionResult] = []
    tasks: dict[str, SandboxTask] = {}
    with fake_runtime(), shared_parse_scope():
        for index, (code, kernel) in enumerate(items):
            if index:
                sys.modules.update(_fresh_wrapper_modules())
            task = tasks.get(kernel)
            if task is None:
                task = tasks[kernel] = get_task(kernel)
            results.append(_compare_against_oracle(_run_in_runtime(code, kernel, task), task))
    return results

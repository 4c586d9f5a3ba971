"""Evaluator for the CUDA-C subset: runs a kernel over a simulated grid.

The device model is intentionally simple but faithful for data-parallel
kernels without cross-thread communication: every (block, thread) pair
executes the kernel body sequentially with its own local environment; pointer
parameters are numpy arrays shared by all threads (so writes are globally
visible, matching global memory semantics).

Launches run on one of two engines:

* the **scalar sweep** below — the original tree-walking evaluator, one
  thread at a time; it is the reference semantics for every observable
  effect, and
* the **lockstep engine** (:mod:`repro.sandbox.cuda_c.lockstep`) — each
  kernel is compiled once at parse time into closures that evaluate every
  statement for all threads at once over numpy lane arrays, with an
  active-thread mask for divergent branches.  Kernels the compiler cannot
  prove safe stay scalar-only, and a compiled launch that trips a runtime
  hazard (cross-lane reads of written data, duplicate scatter targets, int64
  overflow, out-of-bounds, math-domain errors, budget exhaustion) restores
  the pre-launch buffers and **replays through the scalar sweep**, so both
  engines are byte-identical by construction.

:func:`execution_mode` forces the scalar path (differential tests,
benchmarks); :func:`repro.sandbox.cuda_c.lockstep.lockstep_stats` counts
which path launches actually took.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from typing import Any, Callable, Iterator, Mapping, TypeVar

import numpy as np

from repro.sandbox.cuda_c import ast_nodes as ast
from repro.sandbox.cuda_c import lockstep as _lockstep
from repro.sandbox.cuda_c.parser import CudaSyntaxError, parse_cuda_source
from repro.sandbox.cuda_c.records import FrozenRecord, Record

__all__ = [
    "Dim3",
    "CudaKernel",
    "CudaModule",
    "CudaParse",
    "CudaRuntimeError",
    "ParseScope",
    "cuda_parse",
    "parse_once",
    "shared_parse_scope",
    "execution_mode",
]

_T = TypeVar("_T")
_set = object.__setattr__


class ParseScope:
    """Parse and launch work shared within one analysis batch.

    The parse maps are keyed by exact source text; every map lives only as
    long as the scope.
    """

    def __init__(self) -> None:
        #: Python suggestion code -> its
        #: :class:`~repro.analysis.pythonlang.ParsedSuggestion`.
        self.python: dict[str, Any] = {}
        #: Embedded CUDA-C source -> its :class:`CudaParse`.
        self.cuda: dict[str, CudaParse] = {}
        #: Launch fingerprint (see :meth:`CudaKernel._launch_key`) ->
        #: post-launch buffer states.
        self.launches: dict[tuple, list] = {}


#: The active :class:`ParseScope`, or ``None`` outside any scope (every
#: consumer then parses on its own).  Context-local, so batches running at
#: once on the evaluation service's worker threads each see their own scope.
_PARSE_SCOPE: contextvars.ContextVar[ParseScope | None] = contextvars.ContextVar(
    "parse_scope", default=None
)


@contextlib.contextmanager
def shared_parse_scope() -> Iterator[ParseScope]:
    """Parse each distinct suggestion and CUDA source once within the scope.

    :meth:`~repro.analysis.analyzer.SuggestionAnalyzer.analyze_batch` opens
    one scope around its static checks and its sandbox batch, and
    :func:`~repro.sandbox.executor.evaluate_python_suggestions` opens one
    when called on its own.  Within a scope:

    * each Python suggestion is parsed once
      (:func:`repro.analysis.pythonlang.parse_suggestion`); the static checks
      read the parse and the executor compiles its AST;
    * each CUDA-C source is parsed once (:func:`cuda_parse`), by whichever
      of the hazard analyzer and :class:`CudaModule` meets it first
      (sharing is safe because parsing is pure and :class:`CudaKernel` keeps
      no launch state); and
    * identical *launches* — same kernel, same grid/block, byte-identical
      arguments — are interpreted once and replayed from the recorded
      post-launch buffer states (the interpreter is deterministic and a
      launch's only effect is mutating its array arguments).

    Entering while a scope is active joins it, so a batch has exactly one.
    The outermost exit drops the scope and everything it holds; the state is
    context-local, so concurrent scopes on different threads are
    independent.
    """
    scope = _PARSE_SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = ParseScope()
    token = _PARSE_SCOPE.set(scope)
    try:
        yield scope
    finally:
        _PARSE_SCOPE.reset(token)


def parse_once(table: str, text: str, parse: Callable[[str], _T]) -> _T:
    """``parse(text)``, made once per active scope and kept in its ``table``
    map (``"python"`` or ``"cuda"``); outside a scope every call parses."""
    scope = _PARSE_SCOPE.get()
    if scope is None:
        return parse(text)
    parsed = getattr(scope, table)
    entry = parsed.get(text)
    if entry is None:
        entry = parsed[text] = parse(text)
    return entry


class CudaParse:
    """One CUDA-C source parsed: its kernel definitions or the message of the
    :class:`CudaSyntaxError` it raised.  The :class:`CudaKernel` objects are
    built from the definitions on first use."""

    __slots__ = ("_definitions", "_error", "_kernels")

    def __init__(self, source: str, parse: Callable[[str], dict[str, ast.KernelDef]]):
        self._definitions: dict[str, ast.KernelDef] = {}
        self._error: str | None = None
        self._kernels: dict[str, CudaKernel] | None = None
        try:
            self._definitions = parse(source)
        except CudaSyntaxError as exc:
            self._error = str(exc)

    def definitions(self) -> dict[str, ast.KernelDef]:
        """Kernel definitions by name; raises the source's syntax error."""
        if self._error is not None:
            raise CudaSyntaxError(self._error)
        return self._definitions

    def kernels(self) -> dict[str, CudaKernel]:
        """Launchable kernels by name; raises the source's syntax error."""
        if self._kernels is None:
            self._kernels = {
                name: CudaKernel(definition) for name, definition in self.definitions().items()
            }
        return self._kernels


def cuda_parse(source: str, parse: Callable[[str], dict[str, ast.KernelDef]]) -> CudaParse:
    """``source`` parsed with ``parse``, once per active scope.

    Callers pass their own module-level ``parse_cuda_source``, looked up at
    call time, so a wrapper installed on either module's name still sees
    every parse that actually happens.
    """
    return parse_once("cuda", source, lambda text: CudaParse(text, parse))


#: Active execution mode: "auto" (lockstep where compiled, scalar otherwise)
#: or "scalar" (force the reference sweep).  Context-local so sandbox
#: contexts on the evaluation service's worker threads are independent; the
#: process default honours ``$REPRO_CUDA_EXECUTION`` for CLI-level control.
_EXECUTION_MODE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "cuda_execution_mode", default=None
)


def _current_mode() -> str:
    mode = _EXECUTION_MODE.get()
    if mode is not None:
        return mode
    env = os.environ.get("REPRO_CUDA_EXECUTION", "auto")
    if env not in ("auto", "scalar"):
        # Fail loud: a typo would otherwise silently force the slow engine.
        raise CudaRuntimeError(
            f"invalid REPRO_CUDA_EXECUTION={env!r}; use 'auto' or 'scalar'"
        )
    return env


@contextlib.contextmanager
def execution_mode(mode: str) -> Iterator[None]:
    """Select the launch engine within the context: "auto" or "scalar".

    "scalar" forces every launch through the reference sweep — the
    differential-testing suite and the paired interpreter benchmark compare
    it against the default "auto" (lockstep with scalar fallback) mode.
    """
    if mode not in ("auto", "scalar"):
        raise ValueError(f"unknown execution mode {mode!r}; use 'auto' or 'scalar'")
    token = _EXECUTION_MODE.set(mode)
    try:
        yield
    finally:
        _EXECUTION_MODE.reset(token)


class CudaRuntimeError(RuntimeError):
    """Raised for out-of-bounds accesses, unknown names or unsupported calls."""


class Dim3(FrozenRecord):
    """A CUDA dim3 (grid or block shape)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int = 1, y: int = 1, z: int = 1):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    @classmethod
    def from_value(cls, value: Any) -> "Dim3":
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return cls(x=value)
        seq = tuple(int(v) for v in value)
        if len(seq) == 1:
            return cls(x=seq[0])
        if len(seq) == 2:
            return cls(x=seq[0], y=seq[1])
        if len(seq) == 3:
            return cls(x=seq[0], y=seq[1], z=seq[2])
        raise ValueError(f"cannot interpret {value!r} as dim3")

    @property
    def total(self) -> int:
        return self.x * self.y * self.z


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    pass


_MATH_FUNCTIONS = {
    "sqrt": math.sqrt,
    "sqrtf": math.sqrt,
    "fabs": abs,
    "abs": abs,
    "fabsf": abs,
    "min": min,
    "max": max,
    "fmin": min,
    "fmax": max,
    "exp": math.exp,
    "pow": math.pow,
}


class CudaKernel:
    """A single ``__global__`` kernel ready to launch."""

    #: Safety valve against runaway interpreted loops.
    max_thread_steps = 2_000_000

    def __init__(self, definition: ast.KernelDef):
        self.definition = definition
        self.name = definition.name
        #: Lockstep program compiled once at parse time, or ``None`` when the
        #: kernel uses constructs the vectorized engine does not model (it
        #: then always takes the scalar sweep).
        self.lockstep = _lockstep.try_compile(definition)

    # -- launching ----------------------------------------------------------
    def launch(self, grid: Any, block: Any, args: tuple) -> None:
        """Execute the kernel over ``grid`` x ``block`` threads."""
        grid3 = Dim3.from_value(grid)
        block3 = Dim3.from_value(block)
        params = self.definition.params
        if len(args) != len(params):
            raise CudaRuntimeError(
                f"kernel {self.name!r} expects {len(params)} arguments, got {len(args)}"
            )
        bound: dict[str, Any] = {}
        for param, arg in zip(params, args):
            bound[param.name] = self._coerce_argument(param, arg)

        scope = _PARSE_SCOPE.get()
        memo = scope.launches if scope is not None else None
        memo_key = self._launch_key(grid3, block3, bound) if memo is not None else None
        if memo_key is not None:
            cached = memo.get(memo_key)
            if cached is not None:
                # Identical deterministic launch already interpreted in this
                # scope: replay its post-launch buffer states.
                for name, stored in cached:
                    np.copyto(bound[name], stored)
                return

        self._execute(grid3, block3, bound)

        if memo_key is not None:
            memo[memo_key] = [
                (name, value.copy())
                for name, value in bound.items()
                if isinstance(value, np.ndarray)
            ]

    def _launch_key(self, grid3: "Dim3", block3: "Dim3", bound: dict) -> tuple | None:
        """Hashable fingerprint of a launch, or None when not memoizable.

        Keyed on the kernel *object* (within a parse scope identical sources
        share one :class:`CudaKernel`, so identity equals source identity),
        the launch geometry and the byte-exact argument values.  Failed
        launches are never recorded, so an error always re-executes.
        Launches whose array arguments alias each other are not memoized:
        equal bytes cannot distinguish aliased from merely-equal buffers,
        and aliasing changes what the interpreted kernel computes.
        """
        parts: list = [self, (grid3.x, grid3.y, grid3.z), (block3.x, block3.y, block3.z)]
        arrays: list[np.ndarray] = []
        for name, value in bound.items():
            if isinstance(value, np.ndarray):
                if not value.flags.writeable:
                    # Replay copies post-launch state into every buffer; a
                    # read-only input would make the replay raise where the
                    # real launch succeeded.  Don't memoize such launches.
                    return None
                arrays.append(value)
                parts.append((name, value.shape, value.dtype.str, value.tobytes()))
            elif isinstance(value, (int, float, complex, bool, np.generic)):
                parts.append((name, type(value).__name__, _scalar_token(value)))
            else:  # pragma: no cover - exotic argument, skip memoization
                return None
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                if np.shares_memory(arrays[i], arrays[j]):
                    return None
        return tuple(parts)

    @staticmethod
    def _coerce_argument(param: ast.Param, arg: Any) -> Any:
        if param.is_pointer:
            if not isinstance(arg, np.ndarray):
                arg = np.asarray(arg)
            flat = arg.reshape(-1) if arg.ndim > 1 else arg
            return flat
        if isinstance(arg, np.generic):
            arg = arg.item()
        if param.type.startswith("int") or param.type in ("unsigned", "long", "size_t"):
            return int(arg)
        return float(arg)

    # -- execution ------------------------------------------------------------
    def _execute(self, grid3: "Dim3", block3: "Dim3", bound: dict[str, Any]) -> None:
        """Run one launch: lockstep when compiled and allowed, scalar
        otherwise — with a transparent scalar replay on lockstep hazards."""
        program = self.lockstep
        mode = _current_mode()
        if program is not None and mode == "auto":
            try:
                program.run(grid3, block3, bound, self.max_thread_steps)
                _lockstep._note("launches_lockstep")
                return
            except _lockstep.LockstepHazard as hazard:
                # Buffers were restored before the raise; the scalar sweep
                # below re-executes from the exact pre-launch state and is
                # authoritative for results *and* errors.
                _lockstep._note("launches_scalar_fallback")
                _lockstep._note(f"fallback[{hazard.reason}]")
        elif program is None:
            # Compile-rejected kernel: distinct from a *requested* scalar
            # mode, so coverage diagnostics can tell the two apart.
            _lockstep._note("launches_scalar_only")
        else:
            _lockstep._note("launches_scalar_forced")
        self._execute_scalar(grid3, block3, bound)

    def _execute_scalar(self, grid3: "Dim3", block3: "Dim3", bound: dict[str, Any]) -> None:
        """The reference semantics: sweep every thread sequentially."""
        builtins = {
            "gridDim": Dim3(grid3.x, grid3.y, grid3.z),
            "blockDim": Dim3(block3.x, block3.y, block3.z),
        }
        for bz in range(grid3.z):
            for by in range(grid3.y):
                for bx in range(grid3.x):
                    for tz in range(block3.z):
                        for ty in range(block3.y):
                            for tx in range(block3.x):
                                env = dict(bound)
                                thread_builtins = dict(builtins)
                                thread_builtins["blockIdx"] = Dim3(bx, by, bz)
                                thread_builtins["threadIdx"] = Dim3(tx, ty, tz)
                                self._run_thread(env, thread_builtins)

    def _run_thread(self, env: dict[str, Any], builtins: Mapping[str, Dim3]) -> None:
        state = _ThreadState(env=env, builtins=builtins, budget=self.max_thread_steps)
        try:
            self._exec_block(self.definition.body, state)
        except _ReturnSignal:
            pass

    def _exec_block(self, block: ast.Block, state: "_ThreadState") -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, state)

    def _exec_stmt(self, stmt: object, state: "_ThreadState") -> None:
        state.step()
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, state)
        elif isinstance(stmt, ast.Decl):
            value = self._eval(stmt.init, state) if stmt.init is not None else 0
            if stmt.type.startswith("int") or stmt.type in ("unsigned", "long", "size_t"):
                if not isinstance(value, np.ndarray):
                    value = int(value)
            state.env[stmt.name] = value
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt, state)
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.cond, state)):
                self._exec_block(stmt.then, state)
            elif stmt.orelse is not None:
                self._exec_block(stmt.orelse, state)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._exec_stmt(stmt.init, state)
            while stmt.cond is None or self._truthy(self._eval(stmt.cond, state)):
                state.step()
                try:
                    self._exec_block(stmt.body, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.update is not None:
                    self._exec_stmt(stmt.update, state)
        elif isinstance(stmt, ast.While):
            while self._truthy(self._eval(stmt.cond, state)):
                state.step()
                try:
                    self._exec_block(stmt.body, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal()
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, state)
        else:  # pragma: no cover - parser produces only the above
            raise CudaRuntimeError(f"unsupported statement {stmt!r}")

    def _assign(self, stmt: ast.Assign, state: "_ThreadState") -> None:
        value = self._eval(stmt.value, state)
        target = stmt.target
        if isinstance(target, ast.Var):
            current = state.env.get(target.name, 0)
            state.env[target.name] = self._apply_op(stmt.op, current, value)
        elif isinstance(target, ast.Index):
            array, index = self._resolve_index(target, state)
            current = array[index]
            array[index] = self._apply_op(stmt.op, current, value)
        else:
            raise CudaRuntimeError(f"cannot assign to {target!r}")

    @staticmethod
    def _apply_op(op: str, current: Any, value: Any) -> Any:
        if op == "=":
            return value
        if op == "+=":
            return current + value
        if op == "-=":
            return current - value
        if op == "*=":
            return current * value
        if op == "/=":
            return current / value
        if op == "%=":
            return current % value
        raise CudaRuntimeError(f"unsupported assignment operator {op!r}")

    def _resolve_index(self, node: ast.Index, state: "_ThreadState") -> tuple[np.ndarray, int]:
        base = node.base
        if not isinstance(base, ast.Var):
            raise CudaRuntimeError("only one-dimensional pointer indexing is supported")
        array = state.env.get(base.name)
        if not isinstance(array, np.ndarray):
            raise CudaRuntimeError(f"{base.name!r} is not a device buffer")
        index = int(self._eval(node.index, state))
        if index < 0 or index >= array.size:
            raise CudaRuntimeError(
                f"out-of-bounds access: {base.name}[{index}] (size {array.size})"
            )
        return array, index

    # -- expression evaluation ---------------------------------------------------
    def _eval(self, node: object, state: "_ThreadState") -> Any:
        state.step()
        if isinstance(node, ast.Num):
            return node.value
        if isinstance(node, ast.Var):
            if node.name in state.env:
                return state.env[node.name]
            if node.name in state.builtins:
                return state.builtins[node.name]
            raise CudaRuntimeError(f"unknown identifier {node.name!r}")
        if isinstance(node, ast.Member):
            base = state.builtins.get(node.base) or state.env.get(node.base)
            if base is None:
                raise CudaRuntimeError(f"unknown identifier {node.base!r}")
            try:
                return getattr(base, node.field)
            except AttributeError:
                raise CudaRuntimeError(f"{node.base!r} has no member {node.field!r}") from None
        if isinstance(node, ast.Index):
            array, index = self._resolve_index(node, state)
            value = array[index]
            if isinstance(value, np.generic):
                return value.item()
            return value
        if isinstance(node, ast.Unary):
            if node.op in ("pre++", "pre--"):
                operand = node.operand
                if not isinstance(operand, ast.Var):
                    raise CudaRuntimeError("unsupported pre-increment target")
                delta = 1 if node.op == "pre++" else -1
                state.env[operand.name] = state.env.get(operand.name, 0) + delta
                return state.env[operand.name]
            value = self._eval(node.operand, state)
            if node.op == "-":
                return -value
            if node.op == "+":
                return value
            if node.op == "!":
                return 0 if self._truthy(value) else 1
        if isinstance(node, ast.Binary):
            return self._eval_binary(node, state)
        if isinstance(node, ast.Ternary):
            # Only the taken branch evaluates (C semantics: the other branch's
            # side effects and errors never happen).
            if self._truthy(self._eval(node.cond, state)):
                return self._eval(node.then, state)
            return self._eval(node.orelse, state)
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        raise CudaRuntimeError(f"unsupported expression {node!r}")

    def _eval_binary(self, node: ast.Binary, state: "_ThreadState") -> Any:
        if node.op == "&&":
            return 1 if (self._truthy(self._eval(node.left, state))
                         and self._truthy(self._eval(node.right, state))) else 0
        if node.op == "||":
            return 1 if (self._truthy(self._eval(node.left, state))
                         or self._truthy(self._eval(node.right, state))) else 0
        left = self._eval(node.left, state)
        right = self._eval(node.right, state)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise CudaRuntimeError("integer division by zero")
                return left // right
            return left / right
        if op == "%":
            return left % right
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        raise CudaRuntimeError(f"unsupported operator {op!r}")

    def _eval_call(self, node: ast.Call, state: "_ThreadState") -> Any:
        name = node.name
        if name == "__syncthreads":
            return 0
        if name == "atomicAdd":
            if len(node.args) != 2:
                raise CudaRuntimeError("atomicAdd expects two arguments")
            target = node.args[0]
            # Accept &x[i] style (parsed as Unary), a direct element index, or
            # a bare pointer (which addresses element 0, the common scalar
            # accumulator idiom `atomicAdd(result, value)`).
            if isinstance(target, ast.Unary):
                target = target.operand
            value = self._eval(node.args[1], state)
            if isinstance(target, ast.Index):
                array, index = self._resolve_index(target, state)
            elif isinstance(target, ast.Var):
                array = state.env.get(target.name)
                if not isinstance(array, np.ndarray):
                    raise CudaRuntimeError("atomicAdd target must be a device buffer")
                index = 0
            else:
                raise CudaRuntimeError("atomicAdd target must be an array element or pointer")
            array[index] += value
            return array[index]
        if name == "__local_array__":
            size = int(self._eval(node.args[0], state))
            return np.zeros(size, dtype=np.float64)
        if name in _MATH_FUNCTIONS:
            args = [self._eval(arg, state) for arg in node.args]
            return _MATH_FUNCTIONS[name](*args)
        raise CudaRuntimeError(f"call to undefined function {name!r}")

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)


def _scalar_token(value: Any) -> Any:
    """Equality token for a scalar launch argument.

    Floats are keyed by their hex bit pattern, not value equality: 0.0 and
    -0.0 compare equal but can steer a sign-sensitive kernel differently,
    so they must not share a launch-memo entry.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (complex, np.complexfloating)):
        return (float(value.real).hex(), float(value.imag).hex())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value  # pragma: no cover - remaining np.generic kinds


class _ThreadState(Record):
    __slots__ = ("env", "builtins", "budget")

    def __init__(self, env: dict[str, Any], builtins: Mapping[str, Dim3], budget: int):
        self.env = env
        self.builtins = builtins
        self.budget = budget

    def step(self) -> None:
        self.budget -= 1
        if self.budget <= 0:
            raise CudaRuntimeError("kernel exceeded the interpreter step budget")


class CudaModule:
    """A parsed CUDA-C translation unit (the fake ``SourceModule``)."""

    def __init__(self, source: str):
        self.source = source
        self.kernels = cuda_parse(source, parse_cuda_source).kernels()

    def get_kernel(self, name: str) -> CudaKernel:
        if name not in self.kernels:
            raise KeyError(
                f"module defines no kernel {name!r}; available: {', '.join(self.kernels) or 'none'}"
            )
        return self.kernels[name]

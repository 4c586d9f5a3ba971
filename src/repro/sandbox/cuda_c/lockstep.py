"""Lockstep (vectorized) execution engine for the CUDA-C interpreter.

The scalar interpreter sweeps the launch grid one thread at a time through a
tree-walking evaluator: every kernel launch costs O(threads x AST nodes) of
pure-Python dispatch.  This module compiles a kernel definition **once** into
a tree of closures (compiled dispatch — no per-node ``isinstance`` walking at
launch time) that evaluate every statement for *all* threads of the launch in
lockstep over numpy lane arrays:

* a *lane* is one (block, thread) pair; ``threadIdx``/``blockIdx`` become
  precomputed ``(lanes,)`` int64 arrays (cached per launch geometry),
* per-thread locals are either uniform Python scalars (when every lane holds
  the same value — loop counters stay cheap) or ``(lanes,)`` arrays,
* divergent ``if``/``else`` branches run under an active-lane mask,
* loops iterate with a shrinking mask until every lane has exited
  (``break``/``continue``/``return`` subtract lanes via mask frames), and
* ``__syncthreads__`` is a natural no-op barrier: all lanes already move
  statement-by-statement together.

Equivalence with the scalar interpreter (which runs threads *sequentially*,
so thread t sees every write of threads 0..t-1 and none of t+1..) is enforced
structurally, not hoped for: the compiled program refuses at *compile time*
any construct it cannot model (the kernel then always takes the scalar path),
and at *run time* it detects **hazards** — cross-lane reads of written
buffer elements, duplicate scatter targets, integer overflow beyond int64,
division by zero, out-of-bounds indices, math-domain errors, step-budget
exhaustion — restores the pre-launch buffer snapshots and raises
:class:`LockstepHazard`, upon which the caller replays the launch through the
scalar interpreter.  A hazard therefore costs speed, never correctness: the
scalar path remains the single source of truth for every observable effect
(buffer bytes, error type, error message, partial-mutation state).  The
runtime checks are always on: the engine consults no static analysis, so no
launch skips the writer/reader lane tracking on the strength of a proof.

The module keeps process-wide counters (:func:`lockstep_stats`) so benchmarks
and CI can assert that the stock kernel corpus runs fully vectorized with
zero silent fallbacks.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable

import numpy as np

from repro.sandbox.cuda_c import ast_nodes as ast

__all__ = [
    "LockstepHazard",
    "LockstepUnsupported",
    "LockstepProgram",
    "try_compile",
    "lockstep_stats",
    "reset_lockstep_stats",
]

_INT64_MIN = -(2 ** 63)
#: Conservative magnitude bound for int64 products, checked on a float64
#: approximation: any true overflow exceeds it, and values this large are
#: outside what the scalar interpreter's exact Python ints would share with
#: int64 lanes anyway.
_MUL_GUARD = float(2 ** 62)

#: Writer-lane sentinel: element written by multiple lanes / atomic duplicates.
_MANY_WRITERS = -2


class LockstepUnsupported(Exception):
    """Compile-time: the kernel uses a construct the lockstep engine cannot
    prove equivalent to sequential-thread execution; use the scalar path."""


class LockstepHazard(Exception):
    """Run-time: this *launch* left the provable-equivalence envelope.

    Raised only after the program restored every mutated buffer to its
    pre-launch bytes, so the caller can replay the launch through the scalar
    interpreter and get the authoritative (byte-identical) behavior."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

_STATS_LOCK = threading.Lock()
_STATS: dict[str, int] = {}


def _note(key: str, count: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[key] = _STATS.get(key, 0) + count


def lockstep_stats() -> dict[str, int]:
    """Process-wide lockstep counters (copies; keys appear on first use).

    ``kernels_lockstep`` / ``kernels_scalar_only`` count compilation
    outcomes; ``launches_lockstep`` / ``launches_scalar_fallback`` (runtime
    hazard replays) / ``launches_scalar_only`` (compile-rejected kernels) /
    ``launches_scalar_forced`` (scalar mode requested) count execution
    outcomes; per-reason ``fallback[<reason>]`` and ``unsupported[<reason>]``
    keys explain why.
    """
    with _STATS_LOCK:
        return dict(_STATS)


def reset_lockstep_stats() -> None:
    """Zero the counters (benchmark / CI-smoke isolation helper)."""
    with _STATS_LOCK:
        _STATS.clear()


# ---------------------------------------------------------------------------
# launch geometry (cached lane index arrays)
# ---------------------------------------------------------------------------

_GEOMETRY_LOCK = threading.Lock()
_GEOMETRY_CACHE: dict[tuple, dict] = {}


def _lane_geometry(grid, block) -> dict:
    """Per-(grid, block) lane arrays, mirroring the scalar sweep order
    (block z/y/x outer, thread z/y/x inner, x fastest)."""
    key = (grid.x, grid.y, grid.z, block.x, block.y, block.z)
    with _GEOMETRY_LOCK:
        cached = _GEOMETRY_CACHE.get(key)
    if cached is not None:
        return cached
    threads = block.x * block.y * block.z
    lanes = np.arange(grid.x * grid.y * grid.z * threads, dtype=np.int64)
    within = lanes % threads
    blk = lanes // threads
    geom = {
        "lane_ids": lanes,
        "tix": within % block.x,
        "tiy": (within // block.x) % block.y,
        "tiz": within // (block.x * block.y),
        "bix": blk % grid.x,
        "biy": (blk // grid.x) % grid.y,
        "biz": blk // (grid.x * grid.y),
        "full": np.ones(lanes.size, dtype=bool),
    }
    for arr in geom.values():
        arr.setflags(write=False)
    with _GEOMETRY_LOCK:
        _GEOMETRY_CACHE.setdefault(key, geom)
    return geom


# ---------------------------------------------------------------------------
# runtime context
# ---------------------------------------------------------------------------

class _Ctx:
    """Mutable per-launch state shared by every compiled closure."""

    __slots__ = (
        "n", "lane_ids", "full",
        "tix", "tiy", "tiz", "bix", "biy", "biz",
        "bdx", "bdy", "bdz", "gdx", "gdy", "gdz",
        "env", "partial", "buffers", "lane_mats",
        "writers", "readers", "snapshots",
        "ret", "brk", "cnt", "flow_clean",
        "budget",
    )

    def restore_buffers(self) -> None:
        for arr, copy in self.snapshots.values():
            np.copyto(arr, copy)


def _zeros_mask(ctx: _Ctx) -> np.ndarray:
    return np.zeros(ctx.n, dtype=bool)


def _enter(ctx: _Ctx, mask: np.ndarray) -> np.ndarray | None:
    """Per-statement prologue: budget accounting + live-lane mask."""
    ctx.budget -= 1
    if ctx.budget <= 0:
        raise LockstepHazard("step-budget")
    if ctx.flow_clean:
        return mask
    m = mask & ~ctx.ret
    m &= ~ctx.brk
    m &= ~ctx.cnt
    return m if m.any() else None


# ---------------------------------------------------------------------------
# value helpers
# ---------------------------------------------------------------------------

def _intish(v: Any) -> bool:
    """Does ``v`` carry the scalar interpreter's *integer* semantics?"""
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iub"
    return isinstance(v, (bool, int)) and not isinstance(v, float)


def _as_i64(v: Any) -> np.ndarray:
    return np.asarray(v, dtype=np.int64)  # OverflowError on huge Python ints


def _truthy_lanes(v: Any) -> Any:
    """Per-lane truthiness: bool array for lane values, Python bool for
    uniform ones.  Matches ``bool(value)`` per thread (NaN is truthy)."""
    if isinstance(v, np.ndarray):
        return v != 0
    return bool(v)


def _int_result(a: Any, b: Any) -> bool:
    return _intish(a) and _intish(b)


def _checked_int_add(a: Any, b: Any, sub: bool = False) -> np.ndarray:
    a64, b64 = _as_i64(a), _as_i64(b)
    r = np.subtract(a64, b64) if sub else np.add(a64, b64)
    if sub:
        overflow = ((a64 ^ b64) & (a64 ^ r)) < 0
    else:
        overflow = ((a64 ^ r) & (b64 ^ r)) < 0
    if overflow.any():
        raise LockstepHazard("int-overflow")
    return r


def _operand_abs_bound(v: Any) -> int:
    """Max |v| (per lane), used to prove products cannot overflow int64."""
    if isinstance(v, np.ndarray):
        bound = int(np.max(np.abs(_as_i64(v)))) if v.size else 0
        if bound < 0:  # np.abs(int64 min) wraps negative
            raise LockstepHazard("int-overflow")
        return bound
    return abs(int(v))


def _checked_int_mul(a: Any, b: Any) -> np.ndarray:
    if _operand_abs_bound(a) < 2 ** 31 and _operand_abs_bound(b) < 2 ** 31:
        # Products stay below 2**62: provably exact in int64.
        return np.multiply(_as_i64(a), _as_i64(b))
    approx = np.multiply(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    if np.any(np.abs(approx) > _MUL_GUARD):
        raise LockstepHazard("int-overflow")
    return np.multiply(_as_i64(a), _as_i64(b))


def _check_divisor(b: Any, m: np.ndarray) -> None:
    """Scalar raises on any zero divisor (CudaRuntimeError for int //,
    ZeroDivisionError for / and %) — any active zero is a hazard."""
    if isinstance(b, np.ndarray):
        if np.any(b[m] == 0):
            raise LockstepHazard("zero-divisor")
    elif b == 0:
        raise LockstepHazard("zero-divisor")


def _binary_py(op: str, a: Any, b: Any) -> Any:
    """Exact Python arithmetic for uniform operands (the scalar semantics).
    Comparisons never reach here — they compile through the mask path."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if _intish(a) and _intish(b):
            return a // b
        return a / b
    if op == "%":
        return a % b
    raise LockstepUnsupported(f"operator {op!r}")


_CMP_UFUNCS = {
    "<": np.less, ">": np.greater, "<=": np.less_equal,
    ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
}


def _binary_value(op: str, a: Any, b: Any, m: np.ndarray) -> Any:
    """Apply ``op`` elementwise with the scalar interpreter's semantics.

    Uniform operands use exact Python arithmetic; lane arrays use int64
    (with overflow hazards — Python ints never overflow) or float64.
    Divisions hazard on any active zero divisor, because the scalar path
    raises there.
    """
    a_arr = isinstance(a, np.ndarray)
    b_arr = isinstance(b, np.ndarray)
    if not a_arr and not b_arr:
        if op in ("/", "%"):
            _check_divisor(b, m)
        try:
            return _binary_py(op, a, b)
        except LockstepUnsupported:
            raise
        except Exception as exc:  # e.g. OverflowError — replay for the exact error
            raise LockstepHazard(f"uniform-arith:{type(exc).__name__}") from exc
    try:
        int_int = _int_result(a, b)
        if op == "+":
            return _checked_int_add(a, b) if int_int else np.add(a, b)
        if op == "-":
            return _checked_int_add(a, b, sub=True) if int_int else np.subtract(a, b)
        if op == "*":
            return _checked_int_mul(a, b) if int_int else np.multiply(a, b)
        if op == "/":
            _check_divisor(b, m)
            if int_int:
                return np.floor_divide(_as_i64(a), _as_i64(b))
            return np.true_divide(a, b)
        if op == "%":
            _check_divisor(b, m)
            if int_int:
                return np.mod(_as_i64(a), _as_i64(b))
            return np.mod(a, b)
    except LockstepHazard:
        raise
    except OverflowError as exc:  # Python int too large for an int64 lane
        raise LockstepHazard("int-overflow") from exc
    raise LockstepUnsupported(f"operator {op!r}")


def _apply_op_value(op: str, current: Any, value: Any, m: np.ndarray) -> Any:
    """Compound assignment on per-thread locals: the scalar `_apply_op` uses
    *plain* Python operators — `/=` is true division even for ints (unlike
    the `/` binary operator), and a zero divisor raises ZeroDivisionError —
    so this mirrors exactly that, not :func:`_binary_value`."""
    a_arr = isinstance(current, np.ndarray)
    b_arr = isinstance(value, np.ndarray)
    if not a_arr and not b_arr:
        if op in ("/", "%"):
            _check_divisor(value, m)
        try:
            if op == "+":
                return current + value
            if op == "-":
                return current - value
            if op == "*":
                return current * value
            if op == "/":
                return current / value
            if op == "%":
                return current % value
        except Exception as exc:
            raise LockstepHazard(f"uniform-arith:{type(exc).__name__}") from exc
        raise LockstepUnsupported(f"assign-op:{op}")
    int_int = _int_result(current, value)
    try:
        if op == "+":
            return _checked_int_add(current, value) if int_int else np.add(current, value)
        if op == "-":
            return _checked_int_add(current, value, sub=True) if int_int else np.subtract(current, value)
        if op == "*":
            return _checked_int_mul(current, value) if int_int else np.multiply(current, value)
        if op == "/":
            _check_divisor(value, m)
            return np.true_divide(current, value)
        if op == "%":
            _check_divisor(value, m)
            return np.mod(current, value)
    except LockstepHazard:
        raise
    except OverflowError as exc:
        raise LockstepHazard("int-overflow") from exc
    raise LockstepUnsupported(f"assign-op:{op}")


_BUFFER_OP_UFUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.true_divide, "%": np.mod,
}


def _apply_op_buffer(op: str, current: np.ndarray, value: Any) -> np.ndarray:
    """Compound assignment on buffer elements: both interpreter paths read
    numpy scalars/arrays here, so numpy's own semantics (wraparound ints,
    inf on /0 with a suppressed warning) already agree — apply the ufunc
    directly with no hazard checks."""
    ufunc = _BUFFER_OP_UFUNCS.get(op)
    if ufunc is None:
        raise LockstepUnsupported(f"assign-op:{op}")
    return ufunc(current, value)


def _merge_masked(new: Any, old: Any, m: np.ndarray) -> np.ndarray:
    """np.where(m, new, old) with per-lane *type* preservation: merging an
    int-semantics value with a float-semantics one would silently change
    later `/` behavior on some lanes, so it hazards instead."""
    if _intish(new) != _intish(old):
        raise LockstepHazard("mixed-type-merge")
    try:
        return np.where(m, new, old)
    except OverflowError as exc:
        raise LockstepHazard("int-overflow") from exc


def _uniform_int(value: Any, m: np.ndarray) -> int:
    """Collapse a value that must be lane-uniform (e.g. a local-array size)
    to a Python int, hazarding when lanes disagree."""
    if isinstance(value, np.ndarray):
        active = value[m]
        if active.size == 0 or np.any(active != active[0]):
            raise LockstepHazard("non-uniform-size")
        value = active[0]
    try:
        return int(value)
    except (ValueError, OverflowError) as exc:  # NaN / inf sizes
        raise LockstepHazard("bad-size") from exc


# ---------------------------------------------------------------------------
# buffer access helpers (bounds / cross-lane hazard checks, snapshots)
# ---------------------------------------------------------------------------

def _compressed_indices(idx: Any, m: np.ndarray, size: int) -> np.ndarray:
    """Active-lane indices as int64, bounds-checked against ``size``.

    Matches the scalar `int(eval(index))` semantics: floats truncate toward
    zero; NaN/inf (which make scalar `int()` raise) and any out-of-bounds
    active index are hazards — the scalar replay raises the exact error.
    """
    if isinstance(idx, np.ndarray):
        sel = idx[m]
        if sel.dtype.kind == "f":
            if not np.all(np.isfinite(sel)):
                raise LockstepHazard("bad-index")
            sel = np.trunc(sel).astype(np.int64)
        else:
            sel = sel.astype(np.int64, copy=False)
    else:
        try:
            i = int(idx)
        except (ValueError, OverflowError) as exc:
            raise LockstepHazard("bad-index") from exc
        sel = np.full(int(m.sum()), i, dtype=np.int64)
    if sel.size and (sel.min() < 0 or sel.max() >= size):
        raise LockstepHazard("out-of-bounds")
    return sel


def _check_read_clean(ctx: _Ctx, arr: np.ndarray, sel: np.ndarray, m: np.ndarray) -> None:
    """Hazard if any active lane reads an element some *other* lane wrote
    earlier in this launch (sequential threads would see a different
    interleaving)."""
    writers = ctx.writers.get(id(arr))
    if writers is None:
        return
    w = writers[sel]
    if np.any((w != -1) & (w != ctx.lane_ids[m])):
        raise LockstepHazard("cross-lane-read")


def _prepare_write(ctx: _Ctx, arr: np.ndarray) -> np.ndarray:
    """Snapshot a buffer before its first write (for hazard restore) and
    return its writer-lane tracking array."""
    key = id(arr)
    writers = ctx.writers.get(key)
    if writers is None:
        ctx.snapshots[key] = (arr, arr.copy())
        writers = ctx.writers[key] = np.full(arr.size, -1, dtype=np.int64)
    return writers


def _check_write_clean(writers: np.ndarray, sel: np.ndarray, lanes: np.ndarray) -> None:
    w = writers[sel]
    if np.any((w != -1) & (w != lanes)):
        raise LockstepHazard("cross-lane-write")


def _record_readers(ctx: _Ctx, arr: np.ndarray, m: np.ndarray, sel) -> None:
    """Track which lane read each element of a *written* buffer.

    The scalar engine runs thread t's whole kernel after thread t-1's, so
    t's reads observe every write of lower threads — including writes that
    happen in a *later statement* of the kernel text (`double t = y[0];
    y[i] = t + 1.0;`).  A write to an element some other lane read is
    therefore order-sensitive; :func:`_check_no_foreign_readers` hazards on
    it.  Same-lane read-modify-write (`y[i] = a*x[i] + y[i]`) stays
    vectorized.  Only buffers the kernel writes are tracked (compile-time
    knowledge), so hot read-only gathers pay nothing."""
    key = id(arr)
    readers = ctx.readers.get(key)
    if readers is None:
        readers = ctx.readers[key] = np.full(arr.size, -1, dtype=np.int64)
    lanes = ctx.lane_ids[m]
    if isinstance(sel, int):
        current = readers[sel]
        if lanes.size == 1 and current in (-1, lanes[0]):
            readers[sel] = lanes[0]
        else:
            readers[sel] = _MANY_WRITERS
        return
    current = readers[sel]
    readers[sel] = np.where((current != -1) & (current != lanes), _MANY_WRITERS, lanes)


def _check_no_foreign_readers(ctx: _Ctx, arr: np.ndarray,
                              sel: np.ndarray, lanes: np.ndarray) -> None:
    """Hazard when writing an element a *different* lane already read."""
    readers = ctx.readers.get(id(arr))
    if readers is None:
        return
    r = readers[sel]
    if np.any((r != -1) & (r != lanes)):
        raise LockstepHazard("write-after-read")


def _has_duplicates(sel: np.ndarray) -> bool:
    if sel.size <= 1:
        return False
    ordered = np.sort(sel)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def _check_store_range(arr: np.ndarray, vals: Any) -> None:
    """Hazard on lane values an integer buffer cannot hold.

    The scalar engine assigns numpy *scalars* element by element, which
    raises OverflowError for out-of-range values; an int64 lane array
    assigned into an int32 buffer would instead wrap silently.  Out-of-range
    (or non-finite float) stores defer to the scalar replay for the exact
    error and partial-mutation state."""
    if arr.dtype.kind not in "iu" or not isinstance(vals, np.ndarray):
        # Uniform Python values go through numpy's own scalar conversion,
        # which raises exactly like the scalar engine (caught by callers).
        return
    info = np.iinfo(arr.dtype)
    if vals.dtype.kind == "f":
        if not np.all(np.isfinite(vals)):
            raise LockstepHazard("bad-store")
    if np.any(vals < info.min) or np.any(vals > info.max):
        raise LockstepHazard("bad-store")


_SUPPORTED_BUFFER_KINDS = "fiub"


def _buffer_ok(arr: np.ndarray) -> bool:
    kind = arr.dtype.kind
    if kind not in _SUPPORTED_BUFFER_KINDS:
        return False
    if kind == "u" and arr.dtype.itemsize >= 8:
        return False  # uint64 values do not fit int64 lanes
    if kind == "f" and arr.dtype.itemsize > 8:
        return False  # long double would lose bits in float64 lanes
    return True


def _gather_dtype(arr: np.ndarray):
    return np.float64 if arr.dtype.kind == "f" else np.int64


# ---------------------------------------------------------------------------
# math calls
# ---------------------------------------------------------------------------

def _py_math(func: Callable, args: list) -> Any:
    """Uniform-operand math call through the real :mod:`math` functions (the
    scalar semantics, including their exceptions — which become hazards so
    the replay raises them exactly)."""
    try:
        return func(*args)
    except Exception as exc:
        raise LockstepHazard(f"math-domain:{type(exc).__name__}") from exc


def _pairwise_min(a: Any, b: Any) -> Any:
    # Python's min(a, b) is `b if b < a else a`; np.where reproduces that
    # exactly, including the NaN-comparison behavior.
    return np.where(np.asarray(b < a), b, a)


def _pairwise_max(a: Any, b: Any) -> Any:
    return np.where(np.asarray(b > a), b, a)


def _vector_minmax(args: list, m: np.ndarray, maximum: bool) -> Any:
    intish = [_intish(a) for a in args]
    if any(intish) and not all(intish):
        raise LockstepHazard("mixed-type-merge")
    result = args[0]
    for other in args[1:]:
        result = _pairwise_max(result, other) if maximum else _pairwise_min(result, other)
    return result


def _vector_sqrt(x: Any, m: np.ndarray) -> np.ndarray:
    checked = x[m] if isinstance(x, np.ndarray) else x
    if np.any(np.asarray(checked) < 0):
        raise LockstepHazard("math-domain:sqrt")
    return np.sqrt(np.asarray(x, dtype=np.float64))


def _vector_exp(x: Any, m: np.ndarray) -> np.ndarray:
    x_f = np.asarray(x, dtype=np.float64)
    r = np.exp(x_f)
    bad = np.isinf(r) & np.isfinite(x_f)
    if np.any(bad[m] if bad.ndim else bad):
        raise LockstepHazard("math-domain:exp")  # math.exp raises OverflowError
    return r


def _vector_pow(a: Any, b: Any, m: np.ndarray) -> np.ndarray:
    a_f = np.asarray(a, dtype=np.float64)
    b_f = np.asarray(b, dtype=np.float64)
    r = np.power(a_f, b_f)
    nan_in = np.isnan(a_f) | np.isnan(b_f)
    finite_in = np.isfinite(a_f) & np.isfinite(b_f)
    bad = (np.isnan(r) & ~nan_in) | (np.isinf(r) & finite_in)
    if np.any(bad[m] if bad.ndim else bad):
        raise LockstepHazard("math-domain:pow")  # math.pow raises ValueError/OverflowError
    return r


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

_BUILTIN_DIMS = {"threadIdx", "blockIdx", "blockDim", "gridDim"}
_MEMBER_ATTRS = {
    ("threadIdx", "x"): "tix", ("threadIdx", "y"): "tiy", ("threadIdx", "z"): "tiz",
    ("blockIdx", "x"): "bix", ("blockIdx", "y"): "biy", ("blockIdx", "z"): "biz",
    ("blockDim", "x"): "bdx", ("blockDim", "y"): "bdy", ("blockDim", "z"): "bdz",
    ("gridDim", "x"): "gdx", ("gridDim", "y"): "gdy", ("gridDim", "z"): "gdz",
}
_INT_DECL_TYPES = ("unsigned", "long", "size_t")


def _is_int_decl(type_name: str) -> bool:
    return type_name.startswith("int") or type_name in _INT_DECL_TYPES


class _Compiler:
    """One-shot AST -> closure-tree compiler for a single kernel."""

    def __init__(self, definition: ast.KernelDef):
        self.pointer_params = {p.name for p in definition.params if p.is_pointer}
        self.local_arrays: set[str] = set()
        #: Pointer params this kernel writes (scatter or atomicAdd targets).
        #: Gathers from these buffers maintain reader-lane tracking so later
        #: writes can detect cross-lane write-after-read hazards; gathers
        #: from read-only buffers (the hot inner-loop case) skip it.
        self.written_params: set[str] = set()
        #: Lexical loop nesting depth during compilation: break/continue
        #: outside any loop behave as escaping signals in the scalar engine,
        #: not as lane-mask subtractions — such kernels stay scalar-only.
        self._loop_depth = 0
        self._scan_block(definition.body)
        self.body = self._compile_block(definition.body)

    # -- pre-scan: classify names, reject shadowing ------------------------
    def _scan_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: object) -> None:
        if isinstance(stmt, ast.Block):
            self._scan_block(stmt)
        elif isinstance(stmt, ast.Decl):
            if stmt.name in self.pointer_params:
                raise LockstepUnsupported("pointer-param-shadowed")
            if isinstance(stmt.init, ast.Call) and stmt.init.name == "__local_array__":
                self.local_arrays.add(stmt.name)
            elif stmt.name in self.local_arrays:
                raise LockstepUnsupported("name-kind-conflict")
            if stmt.init is not None:
                self._scan_expr(stmt.init)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Var):
                if stmt.target.name in self.pointer_params:
                    raise LockstepUnsupported("pointer-param-shadowed")
                if stmt.target.name in self.local_arrays:
                    raise LockstepUnsupported("name-kind-conflict")
            elif isinstance(stmt.target, ast.Index):
                base = stmt.target.base
                if isinstance(base, ast.Var) and base.name in self.pointer_params:
                    self.written_params.add(base.name)
                self._scan_expr(stmt.target.index)
            self._scan_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.cond)
            self._scan_block(stmt.then)
            if stmt.orelse is not None:
                self._scan_block(stmt.orelse)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._scan_stmt(stmt.init)
            if stmt.cond is not None:
                self._scan_expr(stmt.cond)
            if stmt.update is not None:
                self._scan_stmt(stmt.update)
            self._scan_block(stmt.body)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.cond)
            self._scan_block(stmt.body)
        elif isinstance(stmt, ast.ExprStmt):
            self._scan_expr(stmt.expr)

    def _scan_expr(self, node: object) -> None:
        """Collect atomicAdd write targets from expression trees."""
        if isinstance(node, ast.Call):
            if node.name == "atomicAdd" and node.args:
                target = node.args[0]
                if isinstance(target, ast.Unary):
                    target = target.operand
                if isinstance(target, ast.Index):
                    target = target.base
                if isinstance(target, ast.Var) and target.name in self.pointer_params:
                    self.written_params.add(target.name)
            for arg in node.args:
                self._scan_expr(arg)
        elif isinstance(node, ast.Binary):
            self._scan_expr(node.left)
            self._scan_expr(node.right)
        elif isinstance(node, ast.Unary):
            self._scan_expr(node.operand)
        elif isinstance(node, ast.Ternary):
            self._scan_expr(node.cond)
            self._scan_expr(node.then)
            self._scan_expr(node.orelse)
        elif isinstance(node, ast.Index):
            self._scan_expr(node.base)
            self._scan_expr(node.index)

    # -- statements --------------------------------------------------------
    def _compile_block(self, block: ast.Block) -> tuple:
        return tuple(self._compile_stmt(s) for s in block.statements)

    def _compile_stmt(self, stmt: object) -> Callable:
        if isinstance(stmt, ast.Block):
            body = self._compile_block(stmt)

            def run_block(ctx, mask, _body=body):
                m = _enter(ctx, mask)
                if m is None:
                    return
                for s in _body:
                    s(ctx, m)

            return run_block
        if isinstance(stmt, ast.Decl):
            return self._compile_decl(stmt)
        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt)
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.While):
            return self._compile_while(stmt)
        if isinstance(stmt, ast.Return):

            def run_return(ctx, mask):
                m = _enter(ctx, mask)
                if m is None:
                    return
                ctx.ret = ctx.ret | m
                ctx.flow_clean = False

            return run_return
        if isinstance(stmt, ast.Break):
            if self._loop_depth == 0:
                # A loop-less break escapes the scalar engine as a raw
                # signal; only the scalar path reproduces that.
                raise LockstepUnsupported("break-outside-loop")

            def run_break(ctx, mask):
                m = _enter(ctx, mask)
                if m is None:
                    return
                ctx.brk = ctx.brk | m
                ctx.flow_clean = False

            return run_break
        if isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise LockstepUnsupported("continue-outside-loop")

            def run_continue(ctx, mask):
                m = _enter(ctx, mask)
                if m is None:
                    return
                ctx.cnt = ctx.cnt | m
                ctx.flow_clean = False

            return run_continue
        if isinstance(stmt, ast.ExprStmt):
            expr = self._compile_expr(stmt.expr, result_used=False)

            def run_expr(ctx, mask, _expr=expr):
                m = _enter(ctx, mask)
                if m is None:
                    return
                _expr(ctx, m)

            return run_expr
        raise LockstepUnsupported(f"statement:{type(stmt).__name__}")

    def _compile_decl(self, stmt: ast.Decl) -> Callable:
        name = stmt.name
        if name in self.local_arrays:
            size_fn = self._compile_expr(stmt.init.args[0])

            def run_local_array(ctx, mask, _name=name, _size_fn=size_fn):
                m = _enter(ctx, mask)
                if m is None:
                    return
                size = _uniform_int(_size_fn(ctx, m), m)
                old = ctx.lane_mats.get(_name)
                if m.all() or old is None or old.shape[1] != size:
                    # Fresh zero rows for every lane we can see; lanes outside
                    # the mask (only possible when old is unusable) count as
                    # undefined until they execute a declaration themselves.
                    ctx.lane_mats[_name] = np.zeros((ctx.n, size), dtype=np.float64)
                    if m.all():
                        ctx.partial.pop(_name, None)
                    else:
                        ctx.partial[_name] = m.copy()
                    return
                mat = old.copy()
                mat[m] = 0.0
                ctx.lane_mats[_name] = mat
                p = ctx.partial.get(_name)
                if p is not None:
                    merged = p | m
                    if merged.all():
                        ctx.partial.pop(_name, None)
                    else:
                        ctx.partial[_name] = merged

            return run_local_array
        init_fn = self._compile_expr(stmt.init) if stmt.init is not None else None
        coerce_int = _is_int_decl(stmt.type)

        def run_decl(ctx, mask, _name=name, _init=init_fn, _int=coerce_int):
            m = _enter(ctx, mask)
            if m is None:
                return
            value = _init(ctx, m) if _init is not None else 0
            if _int and not isinstance(value, np.ndarray):
                try:
                    value = int(value)  # matches the scalar int() truncation
                except (ValueError, OverflowError) as exc:  # NaN / inf init
                    raise LockstepHazard("bad-int-init") from exc
            elif _int and value.dtype.kind == "f":
                checked = value[m]
                if not np.all(np.isfinite(checked)):
                    raise LockstepHazard("bad-int-init")
                if np.any(np.abs(checked) >= 2.0 ** 63):
                    # int(v) in the scalar engine is exact beyond int64;
                    # astype would wrap silently.
                    raise LockstepHazard("int-overflow")
                # Unobserved (inactive/undefined) lanes may hold garbage:
                # neutralize it so the cast below stays well-defined.
                cleaned = np.where(
                    np.isfinite(value) & (np.abs(value) < 2.0 ** 63), value, 0.0
                )
                value = np.trunc(cleaned).astype(np.int64)
            _store_var(ctx, _name, value, m)

        return run_decl

    def _compile_assign(self, stmt: ast.Assign) -> Callable:
        if stmt.op not in ("=", "+=", "-=", "*=", "/=", "%="):
            raise LockstepUnsupported(f"assign-op:{stmt.op}")
        value_fn = self._compile_expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Var):
            name = target.name
            op = stmt.op

            def run_assign_var(ctx, mask, _name=name, _op=op, _value=value_fn):
                m = _enter(ctx, mask)
                if m is None:
                    return
                value = _value(ctx, m)
                if _op != "=":
                    base = _read_for_update(ctx, _name, m)
                    value = _apply_op_value(_op[0], base, value, m)
                _store_var(ctx, _name, value, m)

            return run_assign_var
        if isinstance(target, ast.Index):
            return self._compile_scatter(target, stmt.op, value_fn)
        raise LockstepUnsupported("assign-target")

    def _compile_scatter(self, target: ast.Index, op: str, value_fn: Callable) -> Callable:
        if not isinstance(target.base, ast.Var):
            raise LockstepUnsupported("nested-index")
        name = target.base.name
        idx_fn = self._compile_expr(target.index)
        if name in self.pointer_params:

            def run_scatter(ctx, mask, _name=name, _op=op, _value=value_fn, _idx=idx_fn):
                m = _enter(ctx, mask)
                if m is None:
                    return
                value = _value(ctx, m)  # scalar evaluates value before the index
                arr = ctx.buffers[_name]
                sel = _compressed_indices(_idx(ctx, m), m, arr.size)
                writers = _prepare_write(ctx, arr)
                lanes = ctx.lane_ids[m]
                _check_write_clean(writers, sel, lanes)
                if _has_duplicates(sel):
                    raise LockstepHazard("duplicate-scatter")
                _check_no_foreign_readers(ctx, arr, sel, lanes)
                vals = value[m] if isinstance(value, np.ndarray) else value
                try:
                    if _op == "=":
                        _check_store_range(arr, vals)
                        arr[sel] = vals
                    else:
                        updated = _apply_op_buffer(_op[0], arr[sel], vals)
                        _check_store_range(arr, updated)
                        arr[sel] = updated
                except (OverflowError, ValueError) as exc:
                    raise LockstepHazard("bad-store") from exc
                writers[sel] = lanes

            return run_scatter
        if name in self.local_arrays:

            def run_scatter_local(ctx, mask, _name=name, _op=op, _value=value_fn, _idx=idx_fn):
                m = _enter(ctx, mask)
                if m is None:
                    return
                value = _value(ctx, m)
                mat = ctx.lane_mats.get(_name)
                if mat is None:
                    raise LockstepHazard("undefined-local-array")
                _check_defined(ctx, _name, m)
                sel = _compressed_indices(_idx(ctx, m), m, mat.shape[1])
                lanes = ctx.lane_ids[m]
                vals = value[m] if isinstance(value, np.ndarray) else value
                if _op == "=":
                    mat[lanes, sel] = vals
                else:
                    mat[lanes, sel] = _apply_op_buffer(_op[0], mat[lanes, sel], vals)

            return run_scatter_local
        # Indexing a scalar local raises in the scalar interpreter; keep the
        # whole kernel on the scalar path so it raises identically.
        raise LockstepUnsupported("index-into-non-buffer")

    def _compile_if(self, stmt: ast.If) -> Callable:
        cond_fn = self._compile_cond(stmt.cond)
        then_body = self._compile_block(stmt.then)
        else_body = self._compile_block(stmt.orelse) if stmt.orelse is not None else None

        def run_if(ctx, mask, _cond=cond_fn, _then=then_body, _else=else_body):
            m = _enter(ctx, mask)
            if m is None:
                return
            truth = _cond(ctx, m)
            if not isinstance(truth, np.ndarray):
                branch = _then if truth else _else
                if branch is not None:
                    for s in branch:
                        s(ctx, m)
                return
            taken = m & truth
            if taken.any():
                for s in _then:
                    s(ctx, taken)
            if _else is not None:
                other = m & ~truth
                if other.any():
                    for s in _else:
                        s(ctx, other)

        return run_if

    def _compile_while(self, stmt: ast.While) -> Callable:
        cond_fn = self._compile_cond(stmt.cond)
        self._loop_depth += 1
        try:
            body = self._compile_block(stmt.body)
        finally:
            self._loop_depth -= 1
        return _make_loop(None, cond_fn, None, body, _breaks_directly(stmt.body))

    def _compile_for(self, stmt: ast.For) -> Callable:
        init_fn = self._compile_stmt(stmt.init) if stmt.init is not None else None
        cond_fn = self._compile_cond(stmt.cond) if stmt.cond is not None else None
        update_fn = self._compile_stmt(stmt.update) if stmt.update is not None else None
        self._loop_depth += 1
        try:
            body = self._compile_block(stmt.body)
        finally:
            self._loop_depth -= 1
        return _make_loop(init_fn, cond_fn, update_fn, body, _breaks_directly(stmt.body))

    # -- expressions --------------------------------------------------------
    def _compile_expr(self, node: object, result_used: bool = True) -> Callable:
        if isinstance(node, ast.Num):
            value = node.value

            def run_num(ctx, m, _v=value):
                ctx.budget -= 1
                return _v

            return run_num
        if isinstance(node, ast.Var):
            name = node.name
            if name in self.pointer_params or name in self.local_arrays or name in _BUILTIN_DIMS:
                # Bare pointer/aggregate references (aliasing, Dim3 values)
                # are outside the lane-value model.
                raise LockstepUnsupported("bare-aggregate-var")

            def run_var(ctx, m, _name=name):
                ctx.budget -= 1
                try:
                    value = ctx.env[_name]
                except KeyError:
                    # Unknown identifier (or a builtin fallback): the scalar
                    # path raises / resolves it authoritatively.
                    raise LockstepHazard("unknown-identifier") from None
                _check_defined(ctx, _name, m)
                return value

            return run_var
        if isinstance(node, ast.Member):
            attr = _MEMBER_ATTRS.get((node.base, node.field))
            if attr is None:
                raise LockstepUnsupported("member-access")

            def run_member(ctx, m, _attr=attr):
                ctx.budget -= 1
                return getattr(ctx, _attr)

            return run_member
        if isinstance(node, ast.Index):
            return self._compile_gather(node)
        if self._is_boolean_node(node):
            # Comparisons and logical ops: compile to the mask form and
            # convert to the scalar interpreter's 0/1 integers only when the
            # *value* is demanded (conditions consume the mask directly).
            cond_fn = self._compile_cond(node)

            def run_cond_value(ctx, m, _cond=cond_fn):
                truth = _cond(ctx, m)
                if isinstance(truth, np.ndarray):
                    return truth.astype(np.int64)
                return 1 if truth else 0

            return run_cond_value
        if isinstance(node, ast.Unary):
            return self._compile_unary(node)
        if isinstance(node, ast.Binary):
            return self._compile_binary(node)
        if isinstance(node, ast.Ternary):
            return self._compile_ternary(node)
        if isinstance(node, ast.Call):
            return self._compile_call(node, result_used)
        raise LockstepUnsupported(f"expression:{type(node).__name__}")

    @staticmethod
    def _is_boolean_node(node: object) -> bool:
        if isinstance(node, ast.Binary) and (node.op in _CMP_UFUNCS or node.op in ("&&", "||")):
            return True
        return isinstance(node, ast.Unary) and node.op == "!"

    def _compile_cond(self, node: object) -> Callable:
        """Compile an expression to per-lane truthiness: a Python bool for
        uniform values or a bool lane array — no int64 round trip."""
        if isinstance(node, ast.Binary) and node.op in _CMP_UFUNCS:
            left_fn = self._compile_expr(node.left)
            right_fn = self._compile_expr(node.right)
            cmp = _CMP_UFUNCS[node.op]

            def run_cmp(ctx, m, _left=left_fn, _right=right_fn, _cmp=cmp):
                ctx.budget -= 1
                a = _left(ctx, m)
                b = _right(ctx, m)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                    try:
                        return _cmp(a, b)
                    except Exception as exc:  # e.g. huge-Python-int operand
                        raise LockstepHazard(f"compare:{type(exc).__name__}") from exc
                return bool(_cmp(a, b))

            return run_cmp
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            left_fn = self._compile_cond(node.left)
            right_fn = self._compile_cond(node.right)
            is_and = node.op == "&&"

            def run_logical(ctx, m, _left=left_fn, _right=right_fn, _and=is_and):
                ctx.budget -= 1
                lt = _left(ctx, m)
                if not isinstance(lt, np.ndarray):
                    if _and and not lt:
                        return False
                    if not _and and lt:
                        return True
                    return _right(ctx, m)
                # Per-lane short circuit: the right side runs only for lanes
                # the left side did not decide (its side effects and hazards
                # stay correctly masked).
                m2 = (m & lt) if _and else (m & ~lt)
                if not m2.any():
                    return lt
                rt = _right(ctx, m2)
                if _and:
                    return lt & rt
                return lt | rt

            return run_logical
        if isinstance(node, ast.Unary) and node.op == "!":
            inner = self._compile_cond(node.operand)

            def run_not(ctx, m, _inner=inner):
                ctx.budget -= 1
                truth = _inner(ctx, m)
                if isinstance(truth, np.ndarray):
                    return ~truth
                return not truth

            return run_not
        expr_fn = self._compile_expr(node)

        def run_truthy(ctx, m, _expr=expr_fn):
            return _truthy_lanes(_expr(ctx, m))

        return run_truthy

    def _compile_gather(self, node: ast.Index) -> Callable:
        if not isinstance(node.base, ast.Var):
            raise LockstepUnsupported("nested-index")
        name = node.base.name
        idx_fn = self._compile_expr(node.index)
        if name in self.pointer_params:
            track_readers = name in self.written_params

            def run_gather(ctx, m, _name=name, _idx=idx_fn, _track=track_readers):
                ctx.budget -= 1
                arr = ctx.buffers[_name]
                idx = _idx(ctx, m)
                if not isinstance(idx, np.ndarray):
                    try:
                        i = int(idx)
                    except (ValueError, OverflowError) as exc:
                        raise LockstepHazard("bad-index") from exc
                    if i < 0 or i >= arr.size:
                        raise LockstepHazard("out-of-bounds")
                    writers = ctx.writers.get(id(arr))
                    if writers is not None:
                        w = writers[i]
                        if w != -1 and not bool(np.all(ctx.lane_ids[m] == w)):
                            raise LockstepHazard("cross-lane-read")
                    if _track:
                        _record_readers(ctx, arr, m, i)
                    return arr[i].item()  # matches the scalar .item() promotion
                sel = _compressed_indices(idx, m, arr.size)
                _check_read_clean(ctx, arr, sel, m)
                if _track:
                    _record_readers(ctx, arr, m, sel)
                out = np.zeros(ctx.n, dtype=_gather_dtype(arr))
                out[m] = arr[sel]
                return out

            return run_gather
        if name in self.local_arrays:

            def run_gather_local(ctx, m, _name=name, _idx=idx_fn):
                ctx.budget -= 1
                mat = ctx.lane_mats.get(_name)
                if mat is None:
                    raise LockstepHazard("undefined-local-array")
                _check_defined(ctx, _name, m)
                sel = _compressed_indices(_idx(ctx, m), m, mat.shape[1])
                out = np.zeros(ctx.n, dtype=np.float64)
                out[m] = mat[ctx.lane_ids[m], sel]
                return out

            return run_gather_local
        raise LockstepUnsupported("index-into-non-buffer")

    def _compile_unary(self, node: ast.Unary) -> Callable:
        if node.op in ("pre++", "pre--"):
            if not isinstance(node.operand, ast.Var):
                raise LockstepUnsupported("pre-increment-target")
            name = node.operand.name
            if name in self.pointer_params or name in self.local_arrays:
                raise LockstepUnsupported("pre-increment-target")
            delta = 1 if node.op == "pre++" else -1

            def run_preinc(ctx, m, _name=name, _delta=delta):
                ctx.budget -= 1
                base = _read_for_update(ctx, _name, m)
                value = _apply_op_value("+", base, _delta, m)
                _store_var(ctx, _name, value, m)
                return value

            return run_preinc
        operand_fn = self._compile_expr(node.operand)
        op = node.op
        if op not in ("-", "+"):  # "!" went through _compile_cond
            raise LockstepUnsupported(f"unary:{op}")

        def run_unary(ctx, m, _op=op, _operand=operand_fn):
            ctx.budget -= 1
            value = _operand(ctx, m)
            if _op == "+":
                return value
            if isinstance(value, np.ndarray):
                if value.dtype.kind in "iub" and np.any(value == _INT64_MIN):
                    raise LockstepHazard("int-overflow")
                return np.negative(value)
            return -value

        return run_unary

    def _compile_binary(self, node: ast.Binary) -> Callable:
        # Comparisons and logical ops were routed through _compile_cond.
        left_fn = self._compile_expr(node.left)
        right_fn = self._compile_expr(node.right)
        op = node.op
        if op not in ("+", "-", "*", "/", "%"):
            raise LockstepUnsupported(f"operator:{op}")

        def run_binary(ctx, m, _op=op, _left=left_fn, _right=right_fn):
            ctx.budget -= 1
            return _binary_value(_op, _left(ctx, m), _right(ctx, m), m)

        return run_binary

    def _compile_ternary(self, node: ast.Ternary) -> Callable:
        cond_fn = self._compile_cond(node.cond)
        then_fn = self._compile_expr(node.then)
        else_fn = self._compile_expr(node.orelse)

        def run_ternary(ctx, m, _cond=cond_fn, _then=then_fn, _else=else_fn):
            ctx.budget -= 1
            truth = _cond(ctx, m)
            if not isinstance(truth, np.ndarray):
                return _then(ctx, m) if truth else _else(ctx, m)
            m_then = m & truth
            m_else = m & ~truth
            if not m_else.any():
                return _then(ctx, m_then)
            if not m_then.any():
                return _else(ctx, m_else)
            tv = _then(ctx, m_then)
            fv = _else(ctx, m_else)
            return _merge_masked(tv, fv, truth)

        return run_ternary

    def _compile_call(self, node: ast.Call, result_used: bool) -> Callable:
        name = node.name
        if name == "__syncthreads":
            # Lockstep executes every statement for all live lanes before the
            # next one: the barrier is trivially satisfied (and the scalar
            # interpreter also treats it as a no-op returning 0).
            def run_sync(ctx, m):
                ctx.budget -= 1
                return 0

            return run_sync
        if name == "atomicAdd":
            return self._compile_atomic_add(node, result_used)
        if name == "__local_array__":
            # Only valid as a whole Decl initializer (handled there).
            raise LockstepUnsupported("local-array-expression")
        handler = _MATH_CALLS.get(name)
        if handler is None:
            raise LockstepUnsupported(f"call:{name}")
        arg_fns = tuple(self._compile_expr(arg) for arg in node.args)
        py_func, min_args, max_args = handler
        if not (min_args <= len(arg_fns) <= max_args):
            raise LockstepUnsupported(f"call-arity:{name}")

        def run_math(ctx, m, _name=name, _args=arg_fns, _py=py_func):
            ctx.budget -= 1
            values = [fn(ctx, m) for fn in _args]
            if not any(isinstance(v, np.ndarray) for v in values):
                return _py_math(_py, values)
            return _VECTOR_MATH[_name](values, m)

        return run_math

    def _compile_atomic_add(self, node: ast.Call, result_used: bool) -> Callable:
        if len(node.args) != 2:
            raise LockstepUnsupported("atomicAdd-arity")
        target = node.args[0]
        if isinstance(target, ast.Unary):  # &x[i] parses as Unary
            target = target.operand
        value_fn = self._compile_expr(node.args[1])
        if isinstance(target, ast.Index):
            if not isinstance(target.base, ast.Var):
                raise LockstepUnsupported("atomicAdd-target")
            name = target.base.name
            idx_fn = self._compile_expr(target.index)
        elif isinstance(target, ast.Var):
            name = target.name
            idx_fn = None
        else:
            raise LockstepUnsupported("atomicAdd-target")
        if name in self.local_arrays:
            if idx_fn is None:
                raise LockstepUnsupported("atomicAdd-target")

            def run_atomic_local(ctx, m, _name=name, _idx=idx_fn, _value=value_fn,
                                 _used=result_used):
                ctx.budget -= 1
                value = _value(ctx, m)
                mat = ctx.lane_mats.get(_name)
                if mat is None:
                    raise LockstepHazard("undefined-local-array")
                _check_defined(ctx, _name, m)
                sel = _compressed_indices(_idx(ctx, m), m, mat.shape[1])
                lanes = ctx.lane_ids[m]
                vals = value[m] if isinstance(value, np.ndarray) else value
                mat[lanes, sel] = mat[lanes, sel] + vals
                if not _used:
                    return 0
                out = np.zeros(ctx.n, dtype=np.float64)
                out[m] = mat[lanes, sel]
                return out

            return run_atomic_local
        if name not in self.pointer_params:
            raise LockstepUnsupported("atomicAdd-target")

        def run_atomic(ctx, m, _name=name, _idx=idx_fn, _value=value_fn, _used=result_used):
            ctx.budget -= 1
            value = _value(ctx, m)  # scalar evaluates the value first
            arr = ctx.buffers[_name]
            if arr.dtype.kind != "f" or arr.dtype.itemsize != 8:
                # Accumulation-order/casting subtleties on non-float64
                # buffers: let the scalar path decide.
                raise LockstepHazard("atomic-dtype")
            idx = _idx(ctx, m) if _idx is not None else 0
            sel = _compressed_indices(idx, m, arr.size)
            writers = _prepare_write(ctx, arr)
            lanes = ctx.lane_ids[m]
            _check_write_clean(writers, sel, lanes)
            _check_no_foreign_readers(ctx, arr, sel, lanes)
            duplicated = _has_duplicates(sel)
            vals = value[m] if isinstance(value, np.ndarray) else value
            # np.add.at applies the additions in lane order — exactly the
            # scalar thread order for a single statement instance.
            np.add.at(arr, sel, vals)
            writers[sel] = _MANY_WRITERS if duplicated else lanes
            if not _used:
                return 0
            if duplicated:
                # Sequential threads observe distinct intermediate sums.
                raise LockstepHazard("atomic-result-order")
            out = np.zeros(ctx.n, dtype=np.float64)
            out[m] = arr[sel]
            return out

        return run_atomic


# ---------------------------------------------------------------------------
# loop runtime (shared by for/while)
# ---------------------------------------------------------------------------

def _breaks_directly(block: ast.Block) -> bool:
    """Does this loop body contain break/continue bound to *this* loop?
    (Nested loops own their break/continue; return is handled globally.)"""
    for stmt in block.statements:
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Block) and _breaks_directly(stmt):
            return True
        if isinstance(stmt, ast.If):
            if _breaks_directly(stmt.then):
                return True
            if stmt.orelse is not None and _breaks_directly(stmt.orelse):
                return True
    return False


def _make_loop(init_fn, cond_fn, update_fn, body, needs_frames: bool) -> Callable:
    def run_loop(ctx, mask):
        m = _enter(ctx, mask)
        if m is None:
            return
        if init_fn is not None:
            init_fn(ctx, m)
            if not ctx.flow_clean:
                m = m & ~ctx.ret
                if not m.any():
                    return
        loop = m
        while True:
            ctx.budget -= 1
            if ctx.budget <= 0:
                raise LockstepHazard("step-budget")
            if cond_fn is not None:
                truth = cond_fn(ctx, loop)
                if isinstance(truth, np.ndarray):
                    loop = loop & truth
                    if not loop.any():
                        break
                elif not truth:
                    break
            if needs_frames:
                saved_brk, saved_cnt = ctx.brk, ctx.cnt
                ctx.brk = _zeros_mask(ctx)
                ctx.cnt = _zeros_mask(ctx)
                for s in body:
                    s(ctx, loop)
                broke = ctx.brk
                ctx.brk, ctx.cnt = saved_brk, saved_cnt
                if broke.any() or ctx.ret.any():
                    loop = loop & ~broke
                    loop &= ~ctx.ret
                ctx.flow_clean = not (ctx.ret.any() or ctx.brk.any() or ctx.cnt.any())
                if not loop.any():
                    break
            else:
                # No break/continue can target this loop: the only flow
                # change a body iteration can cause is a return.
                for s in body:
                    s(ctx, loop)
                if not ctx.flow_clean:
                    loop = loop & ~ctx.ret
                    if not loop.any():
                        break
            if update_fn is not None:
                # Continue lanes rejoin here (a for-loop continue still runs
                # the update, matching the scalar interpreter).
                update_fn(ctx, loop)

    return run_loop


# ---------------------------------------------------------------------------
# env store / defined-mask tracking
# ---------------------------------------------------------------------------

_MISSING = object()


def _check_defined(ctx: _Ctx, name: str, m: np.ndarray) -> None:
    partial = ctx.partial.get(name)
    if partial is None or partial is m:
        # Identity fast path: masks are never mutated in place, and inside a
        # loop the same mask object recurs every iteration.
        return
    if (m & ~partial).any():
        # Some active lane never executed the defining statement; the scalar
        # interpreter raises "unknown identifier" for it.
        raise LockstepHazard("partially-defined-read")


def _covers_all(ctx: _Ctx, m: np.ndarray) -> bool:
    return m is ctx.full or bool(m.all())


def _read_for_update(ctx: _Ctx, name: str, m: np.ndarray) -> Any:
    """Current value for a compound assignment / pre-increment.

    Matches the scalar `env.get(name, 0)`: lanes that never executed a
    defining statement contribute 0.  Partially-defined values only
    materialize to arrays when an active lane actually needs the default.
    """
    old = ctx.env.get(name, _MISSING)
    if old is _MISSING:
        return 0
    partial = ctx.partial.get(name)
    if partial is None or partial is m or not (m & ~partial).any():
        return old
    try:
        return np.where(partial, old, 0)
    except OverflowError as exc:
        raise LockstepHazard("int-overflow") from exc


def _store_var(ctx: _Ctx, name: str, value: Any, m: np.ndarray) -> None:
    """Store ``value`` for the lanes in ``m``.

    Lanes outside ``m`` keep their previous value — or stay *undefined*,
    which reads (hazard) and compound updates (0 default) handle lazily, so
    uniform Python scalars stay uniform as long as every defined lane is
    written together (the masked-loop-counter fast path)."""
    if _covers_all(ctx, m):
        ctx.env[name] = value
        ctx.partial.pop(name, None)
        return
    old = ctx.env.get(name, _MISSING)
    if old is _MISSING:
        ctx.env[name] = value
        ctx.partial[name] = m.copy()
        return
    partial = ctx.partial.get(name)
    if partial is not None and (partial is m or not (partial & ~m).any()):
        # The store covers every defined lane: no merge needed, a uniform
        # value stays uniform, and the mask object itself becomes the
        # defined set (enabling the identity fast paths above; masks are
        # never mutated in place).  m.all() is known False here.
        ctx.env[name] = value
        ctx.partial[name] = m
        return
    if partial is not None and not isinstance(old, np.ndarray):
        # Materialize the uniform-but-partial old value before merging
        # (undefined lanes hold the 0 compound-default).
        try:
            old = np.where(partial, old, 0)
        except OverflowError as exc:
            raise LockstepHazard("int-overflow") from exc
    ctx.env[name] = _merge_masked(value, old, m)
    if partial is not None:
        merged = partial | m
        if merged.all():
            ctx.partial.pop(name, None)
        else:
            ctx.partial[name] = merged


# ---------------------------------------------------------------------------
# math tables
# ---------------------------------------------------------------------------

_MATH_CALLS: dict[str, tuple[Callable, int, int]] = {
    "sqrt": (math.sqrt, 1, 1), "sqrtf": (math.sqrt, 1, 1),
    "fabs": (abs, 1, 1), "abs": (abs, 1, 1), "fabsf": (abs, 1, 1),
    "min": (min, 2, 8), "max": (max, 2, 8),
    "fmin": (min, 2, 8), "fmax": (max, 2, 8),
    "exp": (math.exp, 1, 1), "pow": (math.pow, 2, 2),
}


def _vector_abs(values: list, m: np.ndarray) -> Any:
    x = values[0]
    if isinstance(x, np.ndarray) and x.dtype.kind in "iub" and np.any(x == _INT64_MIN):
        raise LockstepHazard("int-overflow")
    return np.abs(x)


_VECTOR_MATH: dict[str, Callable[[list, np.ndarray], Any]] = {
    "sqrt": lambda v, m: _vector_sqrt(v[0], m),
    "sqrtf": lambda v, m: _vector_sqrt(v[0], m),
    "fabs": _vector_abs, "abs": _vector_abs, "fabsf": _vector_abs,
    "min": lambda v, m: _vector_minmax(v, m, maximum=False),
    "max": lambda v, m: _vector_minmax(v, m, maximum=True),
    "fmin": lambda v, m: _vector_minmax(v, m, maximum=False),
    "fmax": lambda v, m: _vector_minmax(v, m, maximum=True),
    "exp": lambda v, m: _vector_exp(v[0], m),
    "pow": lambda v, m: _vector_pow(v[0], v[1], m),
}


# ---------------------------------------------------------------------------
# the compiled program
# ---------------------------------------------------------------------------

class LockstepProgram:
    """A kernel body compiled to lockstep closures, ready to launch."""

    def __init__(self, definition: ast.KernelDef, body: tuple):
        self._body = body
        self._pointer_names = tuple(p.name for p in definition.params if p.is_pointer)

    def run(self, grid, block, bound: dict, budget: int) -> None:
        """Execute one launch over pre-coerced arguments ``bound``.

        Raises :class:`LockstepHazard` — with every mutated buffer restored
        to its pre-launch bytes — whenever the launch cannot be proven
        equivalent to the sequential scalar sweep.
        """
        buffers = {}
        arrays = []
        for name in self._pointer_names:
            arr = bound[name]
            if not isinstance(arr, np.ndarray) or arr.ndim != 1 or not _buffer_ok(arr):
                raise LockstepHazard("buffer-dtype")
            buffers[name] = arr
            arrays.append(arr)
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                if np.shares_memory(arrays[i], arrays[j]):
                    raise LockstepHazard("aliased-buffers")

        geom = _lane_geometry(grid, block)
        ctx = _Ctx()
        ctx.n = geom["lane_ids"].size
        ctx.lane_ids = geom["lane_ids"]
        ctx.full = geom["full"]
        ctx.tix, ctx.tiy, ctx.tiz = geom["tix"], geom["tiy"], geom["tiz"]
        ctx.bix, ctx.biy, ctx.biz = geom["bix"], geom["biy"], geom["biz"]
        ctx.bdx, ctx.bdy, ctx.bdz = block.x, block.y, block.z
        ctx.gdx, ctx.gdy, ctx.gdz = grid.x, grid.y, grid.z
        ctx.env = {name: value for name, value in bound.items() if name not in buffers}
        ctx.partial = {}
        ctx.buffers = buffers
        ctx.lane_mats = {}
        ctx.writers = {}
        ctx.readers = {}
        ctx.snapshots = {}
        ctx.ret = _zeros_mask(ctx)
        ctx.brk = _zeros_mask(ctx)
        ctx.cnt = _zeros_mask(ctx)
        ctx.flow_clean = True
        ctx.budget = budget

        with np.errstate(all="ignore"):
            try:
                for stmt in self._body:
                    stmt(ctx, ctx.full)
            except LockstepHazard:
                ctx.restore_buffers()
                raise
            except Exception as exc:  # defensive: never let the fast path
                ctx.restore_buffers()  # produce behavior of its own
                raise LockstepHazard(f"unexpected:{type(exc).__name__}") from exc


def try_compile(definition: ast.KernelDef) -> LockstepProgram | None:
    """Compile a kernel for lockstep execution, or ``None`` (scalar only)."""
    try:
        compiler = _Compiler(definition)
    except LockstepUnsupported as exc:
        _note("kernels_scalar_only")
        _note(f"unsupported[{exc}]")
        return None
    _note("kernels_lockstep")
    return LockstepProgram(definition, compiler.body)

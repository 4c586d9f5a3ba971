"""Static hazard analysis for the CUDA-C subset.

An abstract-interpretation pass over the parsed kernel AST
(:mod:`repro.sandbox.cuda_c.ast_nodes`) that classifies every buffer access
as an affine function of the lane coordinates (``threadIdx``/``blockIdx``)
and loop counters, and derives per-kernel findings:

``write-write-race``
    two lanes may store to the same element of a buffer;
``duplicate-scatter``
    a single store statement targets the same element from several lanes;
``cross-lane-read``
    a lane may read an element another lane wrote;
``out-of-bounds``
    an index may leave ``[0, size)`` (only decidable when launch geometry
    and buffer sizes are supplied);
``barrier-divergence``
    ``__syncthreads()`` under a condition that is not uniform across lanes;
``uninitialized-read``
    a local variable may be read before every path assigned it.

Every finding carries a verdict from the three-point lattice

    ``SAFE``  <  ``UNKNOWN``  <  ``HAZARD``

with the **soundness rule**: ``SAFE`` is only emitted when the access
pattern is *proven* clean.  Given the launch geometry, the proof covers that
launch; without it, a race-class ``SAFE`` covers every launch whose lane
coordinates that the store index ignores have extent 1 (a 1-D index under a
1-D launch).  ``HAZARD`` is best-effort ("there is a plausible launch where
this goes wrong") and ``UNKNOWN`` is the honest default whenever an index
is not affine, a loop bound is data-dependent, or geometry is missing.

The findings are informational: the analysis layer
(:mod:`repro.analysis.hazards`) reports them, and no execution engine reads
them.  The soundness gate (``benchmarks/bench_static_soundness.py``) checks
``SAFE`` claims against the lockstep engine's always-on runtime tracking.

The affine machinery is symbolic: coefficients are polynomials over the
scalar integer parameters (``n``, ``m``, …) and the launch-dimension
pseudo-parameters (``blockDim.x``, ``gridDim.y``, …), so a row-major store
like ``C[i * n + j]`` with guards ``i < m && j < n`` is proven injective
across lanes *without* knowing ``n`` — the guard-established span of the
inner term is compared against the outer stride symbolically.
"""

from __future__ import annotations

import itertools

from repro.sandbox.cuda_c import ast_nodes as ast
from repro.sandbox.cuda_c.records import FrozenRecord, Record

__all__ = [
    "SAFE",
    "HAZARD",
    "UNKNOWN",
    "FINDING_KINDS",
    "LANE_COORDS",
    "Finding",
    "StaticReport",
    "analyze_kernel",
]

SAFE = "SAFE"
HAZARD = "HAZARD"
UNKNOWN = "UNKNOWN"

FINDING_KINDS = (
    "write-write-race",
    "duplicate-scatter",
    "cross-lane-read",
    "out-of-bounds",
    "barrier-divergence",
    "uninitialized-read",
)

#: The six lane coordinates a CUDA launch varies over.
LANE_COORDS = ("tid.x", "tid.y", "tid.z", "ctaid.x", "ctaid.y", "ctaid.z")

_MEMBER_COORD = {
    ("threadIdx", "x"): "tid.x", ("threadIdx", "y"): "tid.y", ("threadIdx", "z"): "tid.z",
    ("blockIdx", "x"): "ctaid.x", ("blockIdx", "y"): "ctaid.y", ("blockIdx", "z"): "ctaid.z",
}
_MEMBER_DIM = {
    ("blockDim", "x"): "blockDim.x", ("blockDim", "y"): "blockDim.y",
    ("blockDim", "z"): "blockDim.z", ("gridDim", "x"): "gridDim.x",
    ("gridDim", "y"): "gridDim.y", ("gridDim", "z"): "gridDim.z",
}
#: Extent of each lane coordinate under a concrete (grid, block) launch.
_COORD_EXTENT = {
    "tid.x": ("block", 0), "tid.y": ("block", 1), "tid.z": ("block", 2),
    "ctaid.x": ("grid", 0), "ctaid.y": ("grid", 1), "ctaid.z": ("grid", 2),
}
#: Pure math intrinsics the interpreter supports; calling them never writes.
_PURE_CALLS = {
    "sqrt", "sqrtf", "fabs", "fabsf", "abs", "min", "max", "fmin", "fmax",
    "exp", "expf", "pow", "powf", "floor", "ceil", "fminf", "fmaxf",
}
_INT_TYPES = {"int", "long", "size_t", "unsigned", "unsigned int", "long long", "bool"}

_set = object.__setattr__


# ---------------------------------------------------------------------------
# Polynomials over nonnegative integer parameters
# ---------------------------------------------------------------------------
# A polynomial is a dict mapping a sorted monomial tuple of parameter names
# to an integer coefficient; the empty tuple is the constant term.  Scalar
# kernel parameters are sizes and launch dimensions, so the nonnegativity
# certificates below assume every parameter is >= 0 — which is sound for the
# injectivity proofs because every claim is conditioned on the guard ranges
# being nonempty (a negative size empties the guard and the claim becomes
# vacuous).

def _pconst(value: int) -> dict:
    return {(): value} if value else {}


def _pvar(name: str) -> dict:
    return {(name,): 1}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def _pneg(a: dict) -> dict:
    return {mono: -coeff for mono, coeff in a.items()}


def _psub(a: dict, b: dict) -> dict:
    return _padd(a, _pneg(b))


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            new = out.get(mono, 0) + ca * cb
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def _pis_nonneg(a: dict) -> bool:
    return all(coeff >= 0 for coeff in a.values())


def _pis_nonpos(a: dict) -> bool:
    return all(coeff <= 0 for coeff in a.values())


def _pabs(a: dict) -> dict | None:
    if _pis_nonneg(a):
        return a
    if _pis_nonpos(a):
        return _pneg(a)
    return None


def _pas_int(a: dict) -> int | None:
    if not a:
        return 0
    if set(a) == {()}:
        return a[()]
    return None


def _pge(a: dict, b: dict) -> bool:
    """``a >= b`` provable under the nonnegative-parameter assumption."""
    return _pis_nonneg(_psub(a, b))


# ---------------------------------------------------------------------------
# Intervals with polynomial endpoints (None = unbounded)
# ---------------------------------------------------------------------------

def _iadd(a: tuple, b: tuple) -> tuple:
    lo = _padd(a[0], b[0]) if a[0] is not None and b[0] is not None else None
    hi = _padd(a[1], b[1]) if a[1] is not None and b[1] is not None else None
    return (lo, hi)


def _iscale(iv: tuple, poly: dict) -> tuple:
    if _pis_nonneg(poly):
        lo = _pmul(iv[0], poly) if iv[0] is not None else None
        hi = _pmul(iv[1], poly) if iv[1] is not None else None
        return (lo, hi)
    if _pis_nonpos(poly):
        lo = _pmul(iv[1], poly) if iv[1] is not None else None
        hi = _pmul(iv[0], poly) if iv[0] is not None else None
        return (lo, hi)
    return (None, None)


def _iintersect(a: tuple, b: tuple) -> tuple:
    def pick(x, y, prefer_greater):
        if x is None:
            return y
        if y is None:
            return x
        if _pge(x, y):
            return x if prefer_greater else y
        if _pge(y, x):
            return y if prefer_greater else x
        # Incomparable symbolically; keep the first (sound for refinement:
        # the true set is contained in either).
        return x

    return (pick(a[0], b[0], True), pick(a[1], b[1], False))


def _ihull(a: tuple, b: tuple) -> tuple:
    def pick(x, y, prefer_greater):
        if x is None or y is None:
            return None
        if _pge(x, y):
            return x if prefer_greater else y
        if _pge(y, x):
            return y if prefer_greater else x
        return None

    return (pick(a[0], b[0], False), pick(a[1], b[1], True))


_FULL = (None, None)


# ---------------------------------------------------------------------------
# Linear forms over analysis symbols
# ---------------------------------------------------------------------------

class _Lin(FrozenRecord):
    """``const + sum(terms[sym] * sym)`` with polynomial coefficients."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: tuple, const: tuple):
        _set(self, "terms", terms)  # sorted tuple of (symbol-id, poly-as-frozenset-of-items)
        _set(self, "const", const)  # poly as sorted tuple of items

    @staticmethod
    def _freeze(poly: dict) -> tuple:
        return tuple(sorted(poly.items()))

    @staticmethod
    def _thaw(frozen: tuple) -> dict:
        return dict(frozen)

    @classmethod
    def make(cls, terms: dict, const: dict) -> "_Lin":
        items = tuple(sorted((sym, cls._freeze(p)) for sym, p in terms.items() if p))
        return cls(terms=items, const=cls._freeze(const))

    def term_map(self) -> dict:
        return {sym: self._thaw(p) for sym, p in self.terms}

    def const_poly(self) -> dict:
        return self._thaw(self.const)


def _lin_const(poly: dict) -> _Lin:
    return _Lin.make({}, poly)


def _lin_sym(sym: str) -> _Lin:
    return _Lin.make({sym: _pconst(1)}, {})


def _lin_add(a: _Lin, b: _Lin, sign: int = 1) -> _Lin:
    terms = a.term_map()
    for sym, poly in b.term_map().items():
        add = poly if sign > 0 else _pneg(poly)
        terms[sym] = _padd(terms.get(sym, {}), add)
    const = _padd(a.const_poly(), b.const_poly() if sign > 0 else _pneg(b.const_poly()))
    return _Lin.make(terms, const)


def _lin_scale(a: _Lin, poly: dict) -> _Lin:
    return _Lin.make(
        {sym: _pmul(p, poly) for sym, p in a.term_map().items()},
        _pmul(a.const_poly(), poly),
    )


class _AbsVal(FrozenRecord):
    """Abstract value: optional linear form, interval, attainability flag."""

    __slots__ = ("lin", "iv", "exact")

    def __init__(self, lin: _Lin | None, iv: tuple, exact: bool):
        _set(self, "lin", lin)
        _set(self, "iv", iv)
        _set(self, "exact", exact)

    @classmethod
    def top(cls) -> "_AbsVal":
        return cls(lin=None, iv=_FULL, exact=False)


# ---------------------------------------------------------------------------
# Findings and reports
# ---------------------------------------------------------------------------

class Finding(FrozenRecord):
    """One analyzed hazard class for one buffer (or barrier/local)."""

    __slots__ = ("kind", "verdict", "buffer", "detail", "line")

    def __init__(self, kind: str, verdict: str, buffer: str, detail: str, line: int):
        _set(self, "kind", kind)
        _set(self, "verdict", verdict)
        _set(self, "buffer", buffer)
        _set(self, "detail", detail)
        _set(self, "line", line)

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "buffer": self.buffer,
            "detail": self.detail,
            "line": self.line,
        }


class StaticReport(Record):
    """Everything the static pass derived for one kernel definition.

    Each written buffer has one finding per race class
    (``write-write-race``, ``duplicate-scatter``, ``cross-lane-read``); the
    buffer is race-free when all three are ``SAFE``.  Under a concrete
    launch that holds for that launch; under a symbolic one it assumes the
    lane coordinates the store index ignores have extent 1.
    """

    __slots__ = ("kernel", "findings")

    def __init__(self, kernel: str, findings: tuple[Finding, ...] = ()):
        self.kernel = kernel
        self.findings = findings

    def verdict(self, kind: str) -> str:
        """The lattice join of every finding of ``kind`` (SAFE if none)."""
        verdicts = [f.verdict for f in self.findings if f.kind == kind]
        if HAZARD in verdicts:
            return HAZARD
        if UNKNOWN in verdicts:
            return UNKNOWN
        return SAFE

    @property
    def overall(self) -> str:
        verdicts = {self.verdict(kind) for kind in FINDING_KINDS}
        if HAZARD in verdicts:
            return HAZARD
        if UNKNOWN in verdicts:
            return UNKNOWN
        return SAFE

    def hazards(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.verdict == HAZARD)

    def to_payload(self) -> list[dict]:
        return [f.to_payload() for f in self.findings]


# ---------------------------------------------------------------------------
# Access records
# ---------------------------------------------------------------------------

class _Access(Record):
    __slots__ = ("buffer", "idx", "line", "pinned", "in_loop", "refine")

    def __init__(self, buffer: str, idx: _AbsVal, line: int, pinned: frozenset, in_loop: bool,
                 refine: dict | None = None):
        self.buffer = buffer
        self.idx = idx
        self.line = line
        self.pinned = pinned  # lane coords pinned to a single value by guards
        self.in_loop = in_loop
        self.refine = {} if refine is None else refine  # guard intervals at the site


class _State(Record):
    __slots__ = ("env", "refine", "defined", "uniform", "loop_depth")

    def __init__(self, env: dict, refine: dict, defined: set, uniform: str, loop_depth: int = 0):
        self.env = env
        self.refine = refine
        self.defined = defined
        self.uniform = uniform  # "uniform" | "lane" | "top"
        self.loop_depth = loop_depth

    def copy(self) -> "_State":
        return _State(
            env=dict(self.env),
            refine=dict(self.refine),
            defined=set(self.defined),
            uniform=self.uniform,
            loop_depth=self.loop_depth,
        )


class _SymInfo(Record):
    __slots__ = ("kind", "interval", "defexpr", "exact", "name")

    def __init__(self, kind: str, interval: tuple, defexpr: _Lin | None, exact: bool,
                 name: str = ""):
        self.kind = kind  # "lane" | "loop" | "var"
        self.interval = interval
        self.defexpr = defexpr
        self.exact = exact
        self.name = name


_WORST = {SAFE: 0, UNKNOWN: 1, HAZARD: 2}


def _join_verdict(a: str, b: str) -> str:
    return a if _WORST[a] >= _WORST[b] else b


class _Analysis:
    def __init__(self, definition, grid, block, buffer_sizes, scalar_args):
        self.definition = definition
        self.grid = tuple(grid) + (1, 1, 1) if grid else None
        self.block = tuple(block) + (1, 1, 1) if block else None
        self.buffer_sizes = dict(buffer_sizes or {})
        self.scalar_args = dict(scalar_args or {})
        self.symbols: dict[str, _SymInfo] = {}
        self.counter = itertools.count()
        self.pointer_params = {p.name for p in definition.params if p.is_pointer}
        self.stores: dict[str, list[_Access]] = {}
        self.reads: dict[str, list[_Access]] = {}
        self.atomic_targets: set[str] = set()
        self.poisoned: set[str] = set()
        self.barrier_findings: list[Finding] = []
        self.uninit: dict[str, Finding] = {}
        self.current_line = definition.line
        self.ever_assigned = set()
        self._collect_assigned(definition.body)
        self._lane_syms = {}
        #: Each lane coordinate's extent under the given launch, or None
        #: where the geometry is symbolic.
        self._extents: dict[str, int | None] = {}
        for coord in LANE_COORDS:
            which, axis = _COORD_EXTENT[coord]
            concrete = self.grid if which == "grid" else self.block
            extent = int(concrete[axis]) if concrete is not None else None
            self._extents[coord] = extent
            if extent is not None:
                hi = _pconst(extent - 1)
            else:
                dim = ("gridDim" if which == "grid" else "blockDim") + "." + "xyz"[axis]
                hi = _psub(_pvar(dim), _pconst(1))
            sym = f"lane:{coord}"
            self.symbols[sym] = _SymInfo(
                kind="lane", interval=(_pconst(0), hi), defexpr=None, exact=True, name=coord
            )
            self._lane_syms[coord] = sym
        self._resolved: dict[tuple, object] = {}

    # -- setup ---------------------------------------------------------------
    def _collect_assigned(self, node) -> None:
        if isinstance(node, ast.Block):
            for stmt in node.statements:
                self._collect_assigned(stmt)
        elif isinstance(node, ast.Decl):
            if node.init is not None:
                self.ever_assigned.add(node.name)
        elif isinstance(node, ast.Assign):
            if isinstance(node.target, ast.Var):
                self.ever_assigned.add(node.target.name)
            self._collect_assigned_expr(node.target)
        elif isinstance(node, ast.If):
            self._collect_assigned(node.then)
            if node.orelse is not None:
                self._collect_assigned(node.orelse)
        elif isinstance(node, ast.For):
            if node.init is not None:
                self._collect_assigned(node.init)
            if node.update is not None:
                self._collect_assigned(node.update)
            self._collect_assigned(node.body)
        elif isinstance(node, ast.While):
            self._collect_assigned(node.body)

    def _collect_assigned_expr(self, node) -> None:
        if isinstance(node, ast.Unary) and node.op in ("pre++", "pre--"):
            if isinstance(node.operand, ast.Var):
                self.ever_assigned.add(node.operand.name)

    def _initial_state(self) -> _State:
        env: dict = {}
        defined = set()
        for param in self.definition.params:
            defined.add(param.name)
            if param.is_pointer:
                env[param.name] = "__pointer__"
            elif param.type in _INT_TYPES:
                value = self.scalar_args.get(param.name)
                poly = _pconst(int(value)) if value is not None else _pvar(param.name)
                env[param.name] = _AbsVal(lin=_lin_const(poly), iv=(poly, poly), exact=True)
            else:
                env[param.name] = _AbsVal.top()
        return _State(env=env, refine={}, defined=defined, uniform="uniform")

    def _new_symbol(self, kind: str, name: str, interval: tuple,
                    defexpr: _Lin | None, exact: bool) -> str:
        sym = f"{kind}:{name}:{next(self.counter)}"
        self.symbols[sym] = _SymInfo(
            kind=kind, interval=interval, defexpr=defexpr, exact=exact, name=name
        )
        return sym

    # -- symbol resolution ---------------------------------------------------
    def _sym_interval(self, sym: str, state: _State) -> tuple:
        base = self.symbols[sym].interval
        refined = state.refine.get(sym)
        # Refined bounds first: on symbolically-incomparable endpoints the
        # intersection keeps its first argument, and the guard-established
        # bound is the one the injectivity proofs need.
        return _iintersect(refined, base) if refined is not None else base

    def _resolve(self, sym: str, state: _State):
        """(ok, coords, injective, contiguous) for one symbol.

        ``injective``/``contiguous`` describe the symbol as a function of its
        lane coordinates; loop counters resolve with empty coords.
        """
        info = self.symbols[sym]
        if info.kind == "lane":
            return (True, frozenset((info.name,)), True, True)
        if info.kind == "loop":
            return (True, frozenset(), True, True)
        if info.defexpr is None:
            return (False, frozenset(), False, False)
        ok, coords, injective, contiguous, _used = self._lane_check(info.defexpr, state)
        return (ok, coords, injective and bool(coords), contiguous)

    def _lane_check(self, lin: _Lin, state: _State):
        """Check lane-injectivity of a linear form via mixed-radix strides.

        Returns ``(ok, coords, injective, contiguous, lane_terms)``:
        *ok* means every symbol resolved; *injective* means two lanes that
        differ in any coordinate of *coords* produce different values —
        proven by finding a term ordering where each stride covers the
        guard-established span of everything inner to it.
        """
        terms = lin.term_map()
        resolved = []
        coords: set[str] = set()
        for sym, coeff in terms.items():
            ok, sym_coords, sym_inj, sym_contig = self._resolve(sym, state)
            if not ok:
                return (False, frozenset(), False, False, ())
            if sym_coords and not sym_inj:
                return (True, frozenset(coords | set(sym_coords)), False, False, ())
            if sym_coords & coords:
                # Two terms over the same coordinate: not independent.
                return (True, frozenset(coords | set(sym_coords)), False, False, ())
            coords |= set(sym_coords)
            abs_coeff = _pabs(coeff)
            if abs_coeff is None:
                return (True, frozenset(coords), False, False, ())
            resolved.append((sym, abs_coeff, sym_coords, sym_contig))
        if not coords:
            return (True, frozenset(), False, False, ())
        if len(resolved) > 6:
            return (True, frozenset(coords), False, False, ())
        # Try orderings: innermost-first list where each stride covers the
        # accumulated inner width.
        for order in itertools.permutations(resolved):
            widths: dict = _pconst(0)
            contiguous = all(item[3] for item in resolved)
            feasible = True
            for sym, coeff, _c, _contig in order:
                lo, hi = self._sym_interval(sym, state)
                if lo is None or hi is None:
                    feasible = False
                    break
                width = _pmul(coeff, _psub(hi, lo))
                # stride must exceed the inner width: coeff >= widths + 1
                if not _pge(coeff, _padd(widths, _pconst(1))):
                    feasible = False
                    break
                if contiguous and _psub(coeff, _padd(widths, _pconst(1))):
                    contiguous = False
                widths = _padd(widths, width)
            if feasible:
                return (True, frozenset(coords), True, contiguous, tuple(order))
        return (True, frozenset(coords), False, False, ())

    def _lin_interval(self, lin: _Lin, state: _State) -> tuple:
        iv = (lin.const_poly(), lin.const_poly())
        for sym, coeff in lin.term_map().items():
            iv = _iadd(iv, _iscale(self._sym_interval(sym, state), coeff))
        return iv

    # -- expression evaluation -----------------------------------------------
    def _eval(self, node, state: _State) -> _AbsVal:
        if isinstance(node, ast.Num):
            if isinstance(node.value, int):
                poly = _pconst(node.value)
                return _AbsVal(lin=_lin_const(poly), iv=(poly, poly), exact=True)
            return _AbsVal.top()
        if isinstance(node, ast.Var):
            return self._eval_var(node, state)
        if isinstance(node, ast.Member):
            key = (node.base, node.field)
            if key in _MEMBER_COORD:
                sym = self._lane_syms[_MEMBER_COORD[key]]
                return _AbsVal(
                    lin=_lin_sym(sym), iv=self._sym_interval(sym, state), exact=True
                )
            if key in _MEMBER_DIM:
                name = _MEMBER_DIM[key]
                which, axis = ("grid", "xyz".index(node.field)) if node.base == "gridDim" \
                    else ("block", "xyz".index(node.field))
                concrete = self.grid if which == "grid" else self.block
                poly = _pconst(int(concrete[axis])) if concrete is not None else _pvar(name)
                return _AbsVal(lin=_lin_const(poly), iv=(poly, poly), exact=True)
            return _AbsVal.top()
        if isinstance(node, ast.Index):
            self._record_read(node, state)
            return _AbsVal.top()
        if isinstance(node, ast.Unary):
            return self._eval_unary(node, state)
        if isinstance(node, ast.Binary):
            return self._eval_binary(node, state)
        if isinstance(node, ast.Ternary):
            return self._eval_ternary(node, state)
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        return _AbsVal.top()

    def _eval_var(self, node, state: _State) -> _AbsVal:
        name = node.name
        value = state.env.get(name)
        if value == "__pointer__":
            return _AbsVal.top()
        if isinstance(value, _AbsVal):
            return value
        if isinstance(value, str):  # local bound to a symbol
            info = self.symbols[value]
            return _AbsVal(
                lin=_lin_sym(value),
                iv=self._sym_interval(value, state),
                exact=info.exact,
            )
        # Unknown identifier: possibly read-before-assignment.
        if name not in self.uninit:
            verdict = UNKNOWN if name in self.ever_assigned else HAZARD
            detail = (
                f"local {name!r} may be read before assignment"
                if name in self.ever_assigned
                else f"identifier {name!r} is never assigned"
            )
            self.uninit[name] = Finding(
                kind="uninitialized-read", verdict=verdict, buffer=name,
                detail=detail, line=self.current_line,
            )
        return _AbsVal.top()

    def _eval_unary(self, node, state: _State) -> _AbsVal:
        operand = self._eval(node.operand, state)
        if node.op == "+":
            return operand
        if node.op == "-":
            if operand.lin is None:
                return _AbsVal.top()
            lin = _lin_scale(operand.lin, _pconst(-1))
            return _AbsVal(lin=lin, iv=_iscale(operand.iv, _pconst(-1)), exact=operand.exact)
        if node.op in ("pre++", "pre--") and isinstance(node.operand, ast.Var):
            self._rebind_top(node.operand.name, state)
        return _AbsVal.top()

    def _eval_binary(self, node, state: _State) -> _AbsVal:
        if node.op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
            self._eval(node.left, state)
            self._eval(node.right, state)
            return _AbsVal(lin=None, iv=(_pconst(0), _pconst(1)), exact=False)
        left = self._eval(node.left, state)
        right = self._eval(node.right, state)
        if node.op in ("+", "-"):
            sign = 1 if node.op == "+" else -1
            if left.lin is not None and right.lin is not None:
                # Recompute the interval from the combined form so repeated
                # symbols cancel (``i - i`` is exactly 0, not [lo-hi, hi-lo]).
                lin = _lin_add(left.lin, right.lin, sign)
                return _AbsVal(lin=lin, iv=self._lin_interval(lin, state),
                               exact=left.exact and right.exact)
            iv = _iadd(left.iv, _iscale(right.iv, _pconst(sign)))
            return _AbsVal(lin=None, iv=iv, exact=False)
        if node.op == "*":
            for a, b in ((left, right), (right, left)):
                if a.lin is not None and not a.lin.terms:
                    scale = a.lin.const_poly()
                    scale_int = _pas_int(scale)
                    # |scale| > 1 leaves gaps, so interval endpoints stay
                    # attained but interior values are not: exact only
                    # survives scaling by -1/0/1 or a single-point operand
                    # (e.g. blockIdx.x under a one-block launch).
                    single = (b.iv[0] is not None and b.iv[1] is not None
                              and not _psub(b.iv[1], b.iv[0]))
                    keeps_exact = b.exact and (
                        single or (scale_int is not None and abs(scale_int) <= 1)
                    )
                    if b.lin is not None:
                        return _AbsVal(
                            lin=_lin_scale(b.lin, scale),
                            iv=_iscale(b.iv, scale),
                            exact=keeps_exact,
                        )
                    return _AbsVal(lin=None, iv=_iscale(b.iv, scale), exact=False)
            return _AbsVal.top()
        return _AbsVal.top()

    def _eval_ternary(self, node, state: _State) -> _AbsVal:
        self._eval(node.cond, state)
        then = self._eval(node.then, state)
        orelse = self._eval(node.orelse, state)
        if then.lin is not None and then.lin == orelse.lin:
            return _AbsVal(
                lin=then.lin, iv=_ihull(then.iv, orelse.iv),
                exact=then.exact and orelse.exact,
            )
        return _AbsVal(lin=None, iv=_ihull(then.iv, orelse.iv), exact=False)

    def _eval_call(self, node, state: _State) -> _AbsVal:
        if node.name == "atomicAdd" and node.args:
            # Targets: `out[i]`, `&out[i]` (Unary wrapper), or a bare pointer
            # addressing element 0 — mirroring the interpreter's acceptance.
            target = node.args[0]
            if isinstance(target, ast.Unary):
                target = target.operand
            if isinstance(target, ast.Index):
                self._record_atomic(target, state)
            elif isinstance(target, ast.Var) and target.name in self.pointer_params:
                self.atomic_targets.add(target.name)
            for arg in node.args[1:]:
                self._eval(arg, state)
            return _AbsVal.top()
        for arg in node.args:
            self._eval(arg, state)
            if node.name not in _PURE_CALLS:
                self._poison_pointer_args(arg)
        return _AbsVal.top()

    def _poison_pointer_args(self, arg) -> None:
        """An unknown call taking a pointer may write anywhere through it."""
        if isinstance(arg, ast.Var) and arg.name in self.pointer_params:
            self.poisoned.add(arg.name)
        elif isinstance(arg, ast.Unary):
            self._poison_pointer_args(arg.operand)
        elif isinstance(arg, ast.Index):
            base = arg
            while isinstance(base, ast.Index):
                base = base.base
            if isinstance(base, ast.Var) and base.name in self.pointer_params:
                self.poisoned.add(base.name)

    # -- access recording ----------------------------------------------------
    def _buffer_of(self, node) -> str | None:
        base = node
        while isinstance(base, ast.Index):
            base = base.base
        if isinstance(base, ast.Var) and base.name in self.pointer_params:
            return base.name
        return None

    def _pinned_coords(self, state: _State) -> frozenset:
        pinned: set[str] = set()
        for sym, iv in state.refine.items():
            lo, hi = iv
            if lo is None or hi is None or _psub(hi, lo):
                continue
            ok, coords, injective, _ = self._resolve(sym, state)
            if ok and injective and coords:
                pinned |= set(coords)
        return frozenset(pinned)

    def _record_read(self, node, state: _State) -> None:
        buffer = self._buffer_of(node)
        if buffer is None:
            # Local-array access: evaluate the index for side effects only.
            self._eval(node.index, state)
            if isinstance(node.base, ast.Index):
                self._eval(node.base, state)
            return
        if isinstance(node.base, ast.Index):
            self.poisoned.add(buffer)
            return
        idx = self._eval(node.index, state)
        self.reads.setdefault(buffer, []).append(
            _Access(buffer=buffer, idx=idx, line=self.current_line,
                    pinned=self._pinned_coords(state), in_loop=state.loop_depth > 0,
                    refine=dict(state.refine))
        )

    def _record_store(self, node, state: _State) -> None:
        buffer = self._buffer_of(node)
        if buffer is None:
            self._eval(node.index, state)
            return
        if isinstance(node.base, ast.Index):
            self.poisoned.add(buffer)
            return
        idx = self._eval(node.index, state)
        self.stores.setdefault(buffer, []).append(
            _Access(buffer=buffer, idx=idx, line=self.current_line,
                    pinned=self._pinned_coords(state), in_loop=state.loop_depth > 0,
                    refine=dict(state.refine))
        )

    def _record_atomic(self, node, state: _State) -> None:
        buffer = self._buffer_of(node)
        if buffer is None:
            return
        self.atomic_targets.add(buffer)
        idx = self._eval(node.index, state)
        self.reads.setdefault(buffer, []).append(
            _Access(buffer=buffer, idx=idx, line=self.current_line,
                    pinned=self._pinned_coords(state), in_loop=state.loop_depth > 0,
                    refine=dict(state.refine))
        )

    # -- guard refinement ----------------------------------------------------
    def _single_symbol(self, val: _AbsVal):
        """``(sym, offset)`` when the value is ``sym + offset`` (coeff 1)."""
        if val.lin is None:
            return None
        terms = val.lin.term_map()
        if len(terms) != 1:
            return None
        (sym, coeff), = terms.items()
        if _pas_int(coeff) != 1:
            return None
        return (sym, val.lin.const_poly())

    def _apply_refinement(self, cond, state: _State) -> None:
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            self._apply_refinement(cond.left, state)
            self._apply_refinement(cond.right, state)
            return
        if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=", ">", ">=", "==")):
            return
        left = self._eval(cond.left, state)
        right = self._eval(cond.right, state)
        for val, other, op in ((left, right, cond.op), (right, left, _FLIP[cond.op])):
            target = self._single_symbol(val)
            if target is None:
                continue
            sym, offset = target
            lo, hi = None, None
            if op in ("<", "<="):
                bound = other.iv[1]
                if bound is not None:
                    hi = _psub(bound, offset)
                    if op == "<":
                        hi = _psub(hi, _pconst(1))
            elif op in (">", ">="):
                bound = other.iv[0]
                if bound is not None:
                    lo = _psub(bound, offset)
                    if op == ">":
                        lo = _padd(lo, _pconst(1))
            elif op == "==":
                if other.iv[0] is not None and other.iv[1] is not None \
                        and not _psub(other.iv[1], other.iv[0]):
                    lo = _psub(other.iv[0], offset)
                    hi = lo
            if lo is None and hi is None:
                continue
            current = state.refine.get(sym, _FULL)
            state.refine[sym] = _iintersect(current, (lo, hi))

    def _cond_uniformity(self, cond, state: _State) -> str:
        """"uniform" / "lane" / "top" for a branch condition."""
        val = self._cond_scan(cond, state)
        return val

    def _cond_scan(self, node, state: _State) -> str:
        if isinstance(node, (ast.Num,)):
            return "uniform"
        if isinstance(node, ast.Member):
            key = (node.base, node.field)
            if key in _MEMBER_COORD:
                return "lane"
            return "uniform"
        if isinstance(node, ast.Var):
            value = state.env.get(node.name)
            if isinstance(value, _AbsVal):
                return "uniform" if value.lin is not None else "top"
            if isinstance(value, str) and value != "__pointer__":
                ok, coords, _inj, _c = self._resolve(value, state)
                if not ok:
                    return "top"
                return "lane" if coords else "uniform"
            if value == "__pointer__":
                return "uniform"
            return "top"
        if isinstance(node, ast.Index):
            return "top"
        if isinstance(node, ast.Call):
            return "top"
        if isinstance(node, ast.Unary):
            return self._cond_scan(node.operand, state)
        if isinstance(node, ast.Binary):
            left = self._cond_scan(node.left, state)
            right = self._cond_scan(node.right, state)
            for level in ("lane", "top", "uniform"):
                if left == level or right == level:
                    return level
            return "uniform"
        if isinstance(node, ast.Ternary):
            results = {
                self._cond_scan(node.cond, state),
                self._cond_scan(node.then, state),
                self._cond_scan(node.orelse, state),
            }
            for level in ("lane", "top", "uniform"):
                if level in results:
                    return level
        return "top"

    @staticmethod
    def _merge_uniform(current: str, cond: str) -> str:
        order = {"uniform": 0, "top": 1, "lane": 2}
        return current if order[current] >= order[cond] else cond

    # -- statement walk ------------------------------------------------------
    def _rebind_top(self, name: str, state: _State) -> None:
        sym = self._new_symbol("var", name, _FULL, None, False)
        state.env[name] = sym
        state.defined.add(name)

    def _bind(self, name: str, value: _AbsVal, state: _State) -> None:
        defexpr = value.lin
        sym = self._new_symbol("var", name, value.iv, defexpr, value.exact)
        state.env[name] = sym
        state.defined.add(name)

    def _walk_block(self, block: ast.Block, state: _State) -> None:
        for stmt in block.statements:
            self._walk(stmt, state)

    def _walk(self, stmt, state: _State) -> None:
        line = getattr(stmt, "line", 0)
        if line:
            self.current_line = line
        if isinstance(stmt, ast.Block):
            self._walk_block(stmt, state)
        elif isinstance(stmt, ast.Decl):
            self._walk_decl(stmt, state)
        elif isinstance(stmt, ast.Assign):
            self._walk_assign(stmt, state)
        elif isinstance(stmt, ast.If):
            self._walk_if(stmt, state)
        elif isinstance(stmt, ast.For):
            self._walk_for(stmt, state)
        elif isinstance(stmt, ast.While):
            self._walk_while(stmt, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state)
        elif isinstance(stmt, ast.ExprStmt):
            self._walk_expr_stmt(stmt, state)
        # Break/Continue: nothing to evaluate; joins stay conservative.

    def _walk_decl(self, stmt: ast.Decl, state: _State) -> None:
        if isinstance(stmt.init, ast.Call) and stmt.init.name == "__local_array__":
            self._eval(stmt.init.args[0], state)
            state.env[stmt.name] = _AbsVal.top()
            state.defined.add(stmt.name)
            return
        if stmt.init is None:
            # Declared but not yet defined; reads before an assignment flag.
            state.env.pop(stmt.name, None)
            state.defined.discard(stmt.name)
            return
        value = self._eval(stmt.init, state)
        if stmt.type not in _INT_TYPES:
            value = _AbsVal(lin=None, iv=value.iv, exact=False)
        self._bind(stmt.name, value, state)

    def _walk_assign(self, stmt: ast.Assign, state: _State) -> None:
        value = self._eval(stmt.value, state)
        if isinstance(stmt.target, ast.Index):
            if stmt.op != "=":
                # Compound store reads the element before writing it back.
                self._record_read(stmt.target, state)
            self._record_store(stmt.target, state)
            return
        if isinstance(stmt.target, ast.Member):
            return
        name = stmt.target.name
        if stmt.op == "=":
            self._bind(name, value, state)
            return
        old = self._eval(stmt.target, state)
        if stmt.op in ("+=", "-=") and old.lin is not None and value.lin is not None:
            sign = 1 if stmt.op == "+=" else -1
            combined = _AbsVal(
                lin=_lin_add(old.lin, value.lin, sign),
                iv=_iadd(old.iv, _iscale(value.iv, _pconst(sign))),
                exact=old.exact and value.exact,
            )
            self._bind(name, combined, state)
        else:
            self._rebind_top(name, state)

    def _walk_if(self, stmt: ast.If, state: _State) -> None:
        cond_uniformity = self._cond_uniformity(stmt.cond, state)
        self._eval(stmt.cond, state)
        then_state = state.copy()
        then_state.uniform = self._merge_uniform(state.uniform, cond_uniformity)
        self._apply_refinement(stmt.cond, then_state)
        self._walk_block(stmt.then, then_state)
        if stmt.orelse is not None:
            else_state = state.copy()
            else_state.uniform = then_state.uniform
            self._walk_block(stmt.orelse, else_state)
            self._join_into(state, then_state, else_state)
        else:
            self._join_into(state, then_state, state.copy())

    def _join_into(self, state: _State, a: _State, b: _State) -> None:
        state.defined = a.defined & b.defined
        names = set(a.env) | set(b.env)
        env: dict = {}
        for name in names:
            va, vb = a.env.get(name), b.env.get(name)
            if va == vb and va is not None:
                env[name] = va
            elif name in state.defined:
                # Divergent values: a fresh opaque symbol with the hull.
                iv_a = self._value_interval(va, a)
                iv_b = self._value_interval(vb, b)
                env[name] = self._new_symbol("var", name, _ihull(iv_a, iv_b), None, False)
            # else: not definitely assigned; leave unbound.
        state.env = env
        # Refinements from inside the branches do not survive the join.

    def _value_interval(self, value, state: _State) -> tuple:
        if isinstance(value, _AbsVal):
            return value.iv
        if isinstance(value, str) and value in self.symbols:
            return self._sym_interval(value, state)
        return _FULL

    def _havoc_assigned(self, body, state: _State, skip: set) -> None:
        assigned: set[str] = set()

        def collect(node):
            if isinstance(node, ast.Block):
                for sub in node.statements:
                    collect(sub)
            elif isinstance(node, ast.Decl):
                assigned.add(node.name)
            elif isinstance(node, ast.Assign):
                if isinstance(node.target, ast.Var):
                    assigned.add(node.target.name)
            elif isinstance(node, ast.If):
                collect(node.then)
                if node.orelse is not None:
                    collect(node.orelse)
            elif isinstance(node, ast.For):
                if node.init is not None:
                    collect(node.init)
                if node.update is not None:
                    collect(node.update)
                collect(node.body)
            elif isinstance(node, ast.While):
                collect(node.body)

        collect(body)
        for name in assigned - skip:
            if name in state.env:
                self._rebind_top(name, state)

    def _loop_counter(self, stmt: ast.For):
        """``(name, init_expr, bound_expr, inclusive, step)`` or None."""
        name = None
        init_expr = None
        if isinstance(stmt.init, ast.Decl) and stmt.init.init is not None:
            name, init_expr = stmt.init.name, stmt.init.init
        elif isinstance(stmt.init, ast.Assign) and isinstance(stmt.init.target, ast.Var) \
                and stmt.init.op == "=":
            name, init_expr = stmt.init.target.name, stmt.init.value
        if name is None:
            return None
        cond = stmt.cond
        if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=")
                and isinstance(cond.left, ast.Var) and cond.left.name == name):
            return None
        update = stmt.update
        step = None
        if isinstance(update, ast.Assign) and isinstance(update.target, ast.Var) \
                and update.target.name == name and update.op == "+=" \
                and isinstance(update.value, ast.Num) and isinstance(update.value.value, int) \
                and update.value.value > 0:
            step = update.value.value
        if step is None:
            return None
        return (name, init_expr, cond.right, cond.op == "<=", step)

    def _walk_for(self, stmt: ast.For, state: _State) -> None:
        counter = self._loop_counter(stmt)
        if counter is None:
            if stmt.init is not None:
                self._walk(stmt.init, state)
            self._havoc_assigned(stmt.body, state, skip=set())
            if stmt.update is not None:
                self._havoc_assigned(stmt.update, state, skip=set())
            inner = state.copy()
            inner.uniform = self._merge_uniform(state.uniform, "top")
            inner.loop_depth += 1
            if stmt.cond is not None:
                self._eval(stmt.cond, inner)
                self._apply_refinement(stmt.cond, inner)
            self._walk_block(stmt.body, inner)
            state.defined &= inner.defined | state.defined
            return
        name, init_expr, bound_expr, inclusive, step = counter
        pre_defined = set(state.defined)
        self._havoc_assigned(stmt.body, state, skip={name})
        init_val = self._eval(init_expr, state)
        bound_val = self._eval(bound_expr, state)
        hi = bound_val.iv[1]
        if hi is not None and not inclusive:
            hi = _psub(hi, _pconst(1))
        exact = init_val.exact and bound_val.exact and step == 1
        sym = self._new_symbol("loop", name, (init_val.iv[0], hi), None, exact)
        inner = state.copy()
        inner.env[name] = sym
        inner.defined.add(name)
        inner.loop_depth += 1
        bound_uniformity = self._merge_uniform(
            self._cond_scan(init_expr, state), self._cond_scan(bound_expr, state)
        )
        inner.uniform = self._merge_uniform(state.uniform, bound_uniformity)
        self._walk_block(stmt.body, inner)
        # The body may not execute at all: only pre-loop definitions survive,
        # and variables the body assigned keep their havoced bindings.
        state.defined = pre_defined
        if isinstance(stmt.init, ast.Assign):
            self._rebind_top(name, state)

    def _walk_while(self, stmt: ast.While, state: _State) -> None:
        self._havoc_assigned(stmt.body, state, skip=set())
        pre_defined = set(state.defined)
        inner = state.copy()
        inner.loop_depth += 1
        cond_uniformity = self._cond_uniformity(stmt.cond, inner)
        self._eval(stmt.cond, inner)
        self._apply_refinement(stmt.cond, inner)
        inner.uniform = self._merge_uniform(state.uniform, cond_uniformity)
        self._walk_block(stmt.body, inner)
        state.defined = pre_defined

    def _walk_expr_stmt(self, stmt: ast.ExprStmt, state: _State) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.Call) and expr.name in ("__syncthreads", "__syncwarp"):
            if state.uniform == "lane":
                self.barrier_findings.append(Finding(
                    kind="barrier-divergence", verdict=HAZARD, buffer="",
                    detail=f"{expr.name}() under a lane-dependent condition",
                    line=self.current_line,
                ))
            elif state.uniform == "top":
                self.barrier_findings.append(Finding(
                    kind="barrier-divergence", verdict=UNKNOWN, buffer="",
                    detail=f"{expr.name}() under a condition the analysis cannot "
                           "prove uniform",
                    line=self.current_line,
                ))
            else:
                self.barrier_findings.append(Finding(
                    kind="barrier-divergence", verdict=SAFE, buffer="",
                    detail=f"{expr.name}() on a uniform path",
                    line=self.current_line,
                ))
            return
        self._eval(expr, state)

    # -- buffer classification ----------------------------------------------
    def _classify_store(self, access: _Access):
        """``(verdict, key, detail)`` for one store site.

        Classification replays the guard refinements that were live at the
        store site (branch joins deliberately drop them from the flowing
        state, but an access *inside* the guard is still bounded by it).
        """
        state = _State(env={}, refine=access.refine, defined=set(), uniform="uniform")
        idx = access.idx
        if idx.lin is None:
            return (UNKNOWN, None, "store index is not affine")
        ok, coords, injective, _contig, _ = self._lane_check(idx.lin, state)
        if not ok:
            return (UNKNOWN, None, "store index uses an unresolved value")
        has_loop = any(
            self.symbols[sym].kind == "loop" for sym in idx.lin.term_map()
        )
        if not coords:
            if access.pinned:
                return self._launch_checked(
                    access.pinned, idx.lin,
                    "lane-invariant store pinned to a single lane by a guard",
                )
            if has_loop:
                return (UNKNOWN, None, "loop-carried store index with no lane term")
            return (HAZARD, None, "every lane stores to the same element")
        if injective:
            return self._launch_checked(
                coords | access.pinned, idx.lin, "affine store index, injective across lanes"
            )
        return (UNKNOWN, None, "lane-dependent store index not proven injective")

    def _launch_checked(self, used: frozenset, key: _Lin, detail: str):
        """Classify a store site proven collision-free across the lane
        coordinates in ``used`` (its index's and any a guard pins): ``SAFE``,
        unless the launch spreads lanes along another coordinate.  Lanes
        differing only there store to the same element unless some guard
        keeps them apart, so the site is ``UNKNOWN``.  A symbolic extent
        counts as 1."""
        spread = [
            f"{coord} (extent {self._extents[coord]})"
            for coord in LANE_COORDS
            if coord not in used and (self._extents[coord] or 1) > 1
        ]
        if spread:
            return (UNKNOWN, None, f"store index ignores {', '.join(spread)} under this launch")
        return (SAFE, key, detail)

    def _buffer_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        written = sorted(set(self.stores) | self.atomic_targets)
        for buffer in written:
            stores = self.stores.get(buffer, [])
            line = stores[0].line if stores else self.definition.line
            if buffer in self.poisoned:
                for kind in ("write-write-race", "duplicate-scatter", "cross-lane-read"):
                    findings.append(Finding(
                        kind=kind, verdict=UNKNOWN, buffer=buffer,
                        detail="buffer escapes through an unknown call", line=line,
                    ))
                continue
            if buffer in self.atomic_targets:
                for kind in ("write-write-race", "duplicate-scatter", "cross-lane-read"):
                    findings.append(Finding(
                        kind=kind, verdict=UNKNOWN, buffer=buffer,
                        detail="atomic updates are ordered at runtime", line=line,
                    ))
                continue
            classified = [self._classify_store(s) for s in stores]
            ww = SAFE
            dup = SAFE
            keys = []
            detail = "affine store index, injective across lanes"
            for (verdict, key, det), store in zip(classified, stores):
                dup = _join_verdict(dup, verdict)
                ww = _join_verdict(ww, verdict)
                keys.append(key)
                if verdict != SAFE:
                    detail = det
                    line = store.line
            if ww == SAFE and len({k for k in keys}) > 1:
                # Individually injective stores with *different* index maps can
                # still collide across statements (lane 0's second store may hit
                # lane 1's first target).
                ww = UNKNOWN
                detail = "multiple store sites with different index maps"
            reads = self.reads.get(buffer, [])
            read_verdict = SAFE
            read_detail = "reads only the lane's own element"
            read_line = line
            if ww == SAFE and keys:
                store_key = keys[0]
                for read in reads:
                    if read.idx.lin is None:
                        read_verdict = UNKNOWN
                        read_detail = "read index of a written buffer is not affine"
                        read_line = read.line
                    elif read.idx.lin != store_key:
                        read_verdict = _join_verdict(read_verdict, UNKNOWN)
                        read_detail = "read index differs from the store index"
                        read_line = read.line
            else:
                read_verdict = UNKNOWN if reads else SAFE
                read_detail = "write pattern unresolved; reads not comparable"
            findings.append(Finding(
                kind="write-write-race", verdict=ww, buffer=buffer,
                detail=detail, line=line,
            ))
            findings.append(Finding(
                kind="duplicate-scatter", verdict=dup, buffer=buffer,
                detail=detail, line=line,
            ))
            findings.append(Finding(
                kind="cross-lane-read", verdict=read_verdict, buffer=buffer,
                detail=read_detail, line=read_line,
            ))
        return findings

    def _oob_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        buffers = sorted(set(self.stores) | set(self.reads))
        for buffer in buffers:
            size = self.buffer_sizes.get(buffer)
            accesses = self.stores.get(buffer, []) + self.reads.get(buffer, [])
            verdict = SAFE
            detail = "every access proven inside [0, size)"
            line = accesses[0].line if accesses else self.definition.line
            if size is None:
                verdict = UNKNOWN
                detail = "buffer size unknown to the analysis"
            else:
                for access in accesses:
                    lo = _pas_int(access.idx.iv[0]) if access.idx.iv[0] is not None else None
                    hi = _pas_int(access.idx.iv[1]) if access.idx.iv[1] is not None else None
                    if lo is None or hi is None:
                        verdict = _join_verdict(verdict, UNKNOWN)
                        detail = "index range not concrete under this launch"
                        line = access.line
                    elif 0 <= lo and hi < int(size):
                        continue
                    elif access.idx.exact:
                        verdict = HAZARD
                        detail = (f"index range [{lo}, {hi}] leaves [0, {int(size)})"
                                  " and every value in it is attained")
                        line = access.line
                        break
                    else:
                        verdict = _join_verdict(verdict, UNKNOWN)
                        detail = f"index range [{lo}, {hi}] may leave [0, {int(size)})"
                        line = access.line
            findings.append(Finding(
                kind="out-of-bounds", verdict=verdict, buffer=buffer,
                detail=detail, line=line,
            ))
        return findings

    # -- driver ---------------------------------------------------------------
    def run(self) -> StaticReport:
        state = self._initial_state()
        self._walk_block(self.definition.body, state)
        findings = self._buffer_findings()
        findings.extend(self._oob_findings())
        findings.extend(self.barrier_findings)
        findings.extend(self.uninit[name] for name in sorted(self.uninit))
        return StaticReport(kernel=self.definition.name, findings=tuple(findings))


def analyze_kernel(definition, *, grid=None, block=None,
                   buffer_sizes=None, scalar_args=None) -> StaticReport:
    """Statically analyze one parsed kernel definition.

    ``grid``/``block`` (3-tuples), ``buffer_sizes`` (pointer-param name →
    element count) and ``scalar_args`` (int-param name → value) are all
    optional; without them the race classes still resolve symbolically but
    out-of-bounds verdicts stay ``UNKNOWN``.  A race-class ``SAFE`` given
    ``grid`` and ``block`` holds for that launch: a store whose index
    ignores a lane coordinate the launch spreads over (extent > 1) is
    ``UNKNOWN``.  A symbolic ``SAFE`` assumes every ignored coordinate has
    extent 1.  The pass never executes the kernel and is deterministic for
    a given input.
    """
    try:
        return _Analysis(definition, grid, block, buffer_sizes, scalar_args).run()
    except RecursionError:
        # Pathological nesting: fall back to an empty, all-unknown report.
        return StaticReport(
            kernel=definition.name,
            findings=tuple(
                Finding(kind=kind, verdict=UNKNOWN, buffer="",
                        detail="analysis aborted on pathological nesting",
                        line=definition.line)
                for kind in FINDING_KINDS
            ),
        )


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

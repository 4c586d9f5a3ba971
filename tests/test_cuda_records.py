"""Tests for the CUDA-C stack's hand-written record types.

The AST nodes, ``Token``, ``Finding``, ``Dim3``, ``_Lin`` and ``_AbsVal``
are slotted classes that keep what their frozen-dataclass forms promised:
the constructor signature, field equality within one class (ignoring a
node's ``line``), matching hashes, immutability, ``pickle``/``copy`` round
trips and the dataclass ``repr`` (node reprs reach interpreter error
messages and through them verdict ``issues``).  Every expected ``repr`` below
was recorded from the dataclass implementation.  A guard keeps dataclasses
out of ``repro.sandbox.cuda_c``, whose import every evaluating process pays.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro.sandbox.cuda_c as cuda_c
from repro.sandbox.cuda_c import ast_nodes as ast
from repro.sandbox.cuda_c.interpreter import Dim3
from repro.sandbox.cuda_c.lexer import Token
from repro.sandbox.cuda_c.static import Finding, StaticReport, _AbsVal, _Access, _Lin, _State

_I = ast.Var("i")
_Y_I = ast.Index(ast.Var("y"), _I)
_UPDATE = ast.Assign(_Y_I, "+=", ast.Binary("*", ast.Var("a"), ast.Index(ast.Var("x"), _I)), line=4)
_BODY = ast.Block((_UPDATE,), line=3)
_GUARD = ast.Binary("<", _I, ast.Var("n"))
_LIN = _Lin.make({"tid.x": {(): 1}}, {(("n", 1),): 2})

_BODY_REPR = (
    "Block(statements=(Assign(target=Index(base=Var(name='y'), index=Var(name='i')), op='+=', "
    "value=Binary(op='*', left=Var(name='a'), right=Index(base=Var(name='x'), "
    "index=Var(name='i'))), line=4),), line=3)"
)

#: class -> (every constructor argument by name, in order; the defaults of
#: the optional ones; the dataclass ``repr`` of the instance they build)
CASES = {
    ast.Num: ({"value": 2.5}, {}, "Num(value=2.5)"),
    ast.Var: ({"name": "i"}, {}, "Var(name='i')"),
    ast.Index: (
        {"base": ast.Var("y"), "index": _I}, {},
        "Index(base=Var(name='y'), index=Var(name='i'))",
    ),
    ast.Member: (
        {"base": "threadIdx", "field": "x"}, {}, "Member(base='threadIdx', field='x')",
    ),
    ast.Unary: ({"op": "-", "operand": ast.Num(1)}, {}, "Unary(op='-', operand=Num(value=1))"),
    ast.Binary: (
        {"op": "<", "left": _I, "right": ast.Var("n")}, {},
        "Binary(op='<', left=Var(name='i'), right=Var(name='n'))",
    ),
    ast.Ternary: (
        {"cond": ast.Var("c"), "then": ast.Num(1), "orelse": ast.Num(0)}, {},
        "Ternary(cond=Var(name='c'), then=Num(value=1), orelse=Num(value=0))",
    ),
    ast.Call: (
        {"name": "atomicAdd", "args": (ast.Var("p"), ast.Num(1.0))}, {"args": ()},
        "Call(name='atomicAdd', args=(Var(name='p'), Num(value=1.0)))",
    ),
    ast.Block: ({"statements": (_UPDATE,), "line": 3}, {"statements": (), "line": 0}, _BODY_REPR),
    ast.Decl: (
        {"type": "int", "name": "k", "init": ast.Num(0), "line": 2}, {"init": None, "line": 0},
        "Decl(type='int', name='k', init=Num(value=0), line=2)",
    ),
    ast.Assign: (
        {"target": _Y_I, "op": "=", "value": ast.Num(0), "line": 5}, {"line": 0},
        "Assign(target=Index(base=Var(name='y'), index=Var(name='i')), op='=', "
        "value=Num(value=0), line=5)",
    ),
    ast.If: (
        {"cond": _GUARD, "then": _BODY, "orelse": ast.Block(), "line": 3},
        {"orelse": None, "line": 0},
        f"If(cond=Binary(op='<', left=Var(name='i'), right=Var(name='n')), then={_BODY_REPR}, "
        "orelse=Block(statements=(), line=0), line=3)",
    ),
    ast.For: (
        {
            "init": ast.Decl("int", "k", ast.Num(0), line=6),
            "cond": ast.Binary("<", ast.Var("k"), ast.Var("n")),
            "update": ast.Assign(ast.Var("k"), "+=", ast.Num(1), line=6),
            "body": ast.Block((ast.Break(line=7),), line=6),
            "line": 6,
        },
        {"line": 0},
        "For(init=Decl(type='int', name='k', init=Num(value=0), line=6), "
        "cond=Binary(op='<', left=Var(name='k'), right=Var(name='n')), "
        "update=Assign(target=Var(name='k'), op='+=', value=Num(value=1), line=6), "
        "body=Block(statements=(Break(line=7),), line=6), line=6)",
    ),
    ast.While: (
        {"cond": ast.Var("c"), "body": ast.Block((ast.Continue(line=9),), line=8), "line": 8},
        {"line": 0},
        "While(cond=Var(name='c'), body=Block(statements=(Continue(line=9),), line=8), line=8)",
    ),
    ast.Return: (
        {"value": ast.Var("r"), "line": 10}, {"value": None, "line": 0},
        "Return(value=Var(name='r'), line=10)",
    ),
    ast.ExprStmt: (
        {"expr": ast.Call("__syncthreads"), "line": 11}, {"line": 0},
        "ExprStmt(expr=Call(name='__syncthreads', args=()), line=11)",
    ),
    ast.Break: ({"line": 7}, {"line": 0}, "Break(line=7)"),
    ast.Continue: ({"line": 9}, {"line": 0}, "Continue(line=9)"),
    ast.Param: (
        {"type": "float", "name": "x", "is_pointer": True, "const": True},
        {"is_pointer": False, "const": False},
        "Param(type='float', name='x', is_pointer=True, const=True)",
    ),
    ast.KernelDef: (
        {
            "name": "axpy",
            "params": (ast.Param("int", "n"), ast.Param("float", "y", is_pointer=True)),
            "body": _BODY,
            "qualifiers": ("__global__",),
            "line": 1,
        },
        {"qualifiers": (), "line": 0},
        "KernelDef(name='axpy', params=(Param(type='int', name='n', is_pointer=False, "
        "const=False), Param(type='float', name='y', is_pointer=True, const=False)), "
        f"body={_BODY_REPR}, qualifiers=('__global__',), line=1)",
    ),
    Token: (
        {"kind": "ident", "text": "threadIdx", "line": 3}, {},
        "Token(kind='ident', text='threadIdx', line=3)",
    ),
    Finding: (
        {
            "kind": "write-write-race", "verdict": "SAFE", "buffer": "y",
            "detail": "injective store index", "line": 4,
        },
        {},
        "Finding(kind='write-write-race', verdict='SAFE', buffer='y', "
        "detail='injective store index', line=4)",
    ),
    Dim3: ({"x": 4, "y": 2, "z": 3}, {"x": 1, "y": 1, "z": 1}, "Dim3(x=4, y=2, z=3)"),
    _Lin: (
        {"terms": _LIN.terms, "const": _LIN.const}, {},
        "_Lin(terms=(('tid.x', (((), 1),)),), const=(((('n', 1),), 2),))",
    ),
    _AbsVal: (
        {"lin": _LIN, "iv": (None, None), "exact": False}, {},
        "_AbsVal(lin=_Lin(terms=(('tid.x', (((), 1),)),), const=(((('n', 1),), 2),)), "
        "iv=(None, None), exact=False)",
    ),
}

#: The node classes whose ``line`` stays out of equality and hashing.
LOCATED = {cls for cls in CASES if cls.__name__ in ast.__all__ and "line" in CASES[cls][0]}

_ids = [cls.__name__ for cls in CASES]


def _build(cls, **changes):
    fields = CASES[cls][0]
    return cls(**{**fields, **changes})


def test_cases_cover_every_node_class():
    assert {cls.__name__ for cls in CASES if cls.__module__ == ast.__name__} == set(ast.__all__)
    assert {cls.__name__ for cls in LOCATED} == {
        "Block", "Decl", "Assign", "If", "For", "While", "Return", "ExprStmt",
        "Break", "Continue", "KernelDef",
    }


@pytest.mark.parametrize("cls", CASES, ids=_ids)
class TestFrozenRecords:
    def test_signature_keeps_names_order_and_defaults(self, cls):
        fields, defaults, _ = CASES[cls]
        expected = [(name, defaults.get(name, inspect.Parameter.empty)) for name in fields]
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in parameters] == expected

    def test_positional_and_keyword_construction(self, cls):
        fields, defaults, _ = CASES[cls]
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        for record in (by_position, by_keyword):
            for name, value in fields.items():
                assert getattr(record, name) is value
        required = [value for name, value in fields.items() if name not in defaults]
        minimal = cls(*required)
        for name, default in defaults.items():
            assert getattr(minimal, name) == default

    def test_repr_is_the_dataclass_format(self, cls):
        fields, _, expected = CASES[cls]
        assert repr(cls(*fields.values())) == expected
        assert repr(cls(**fields)) == expected

    def test_equal_fields_compare_and_hash_equal(self, cls):
        left, right = _build(cls), _build(cls)
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)

    def test_every_field_but_a_node_line_is_compared(self, cls):
        record = _build(cls)
        for name in CASES[cls][0]:
            changed = _build(cls, **{name: "<changed>"})
            if cls in LOCATED and name == "line":
                assert changed == record
                assert hash(changed) == hash(record)
                assert repr(changed) != repr(record)
            else:
                assert changed != record

    def test_never_equal_across_classes(self, cls):
        record = _build(cls)
        for other_cls in CASES:
            if other_cls is not cls:
                other = _build(other_cls)
                assert record.__eq__(other) is NotImplemented
                assert record != other

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = _build(cls)
        before = repr(record)
        for name in CASES[cls][0]:
            with pytest.raises(AttributeError):
                setattr(record, name, "<changed>")
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == before

    def test_pickle_and_copy_round_trip(self, cls):
        record = _build(cls)
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(record), copy.deepcopy(record)]
        for clone in copies:
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == repr(record)  # ``line`` survives too


def test_statement_nodes_of_different_classes_differ():
    assert ast.Break() != ast.Continue()
    assert ast.Break(line=1) == ast.Break(line=2)
    assert hash(ast.Break(line=1)) == hash(ast.Break(line=2))
    assert ast.Return() != ast.Break()


def test_token_and_finding_compare_their_line():
    assert Token("op", "+", 1) != Token("op", "+", 2)
    assert Finding("out-of-bounds", "UNKNOWN", "y", "", 1) != Finding(
        "out-of-bounds", "UNKNOWN", "y", "", 2
    )


def test_mutable_records_stay_mutable_and_unhashable():
    report = StaticReport("axpy")
    assert report.findings == ()
    with pytest.raises(TypeError):
        hash(report)
    assert report == StaticReport("axpy") and report != StaticReport("gemv")
    report.findings = (_build(Finding),)
    assert repr(report) == f"StaticReport(kernel='axpy', findings=({CASES[Finding][2]},))"
    assert pickle.loads(pickle.dumps(report)) == report

    first = _Access("y", _build(_AbsVal), 4, frozenset(), False)
    second = _Access("y", _build(_AbsVal), 4, frozenset(), False)
    assert first.refine == {} and first.refine is not second.refine
    state = _State({}, {}, set(), "uniform")
    assert state.loop_depth == 0
    state.loop_depth += 1
    assert state.copy() == state and state.copy() is not state


def test_no_cuda_c_class_is_a_dataclass():
    """A ``@dataclass`` here would generate code at every import again."""
    checked = []
    for info in pkgutil.iter_modules(cuda_c.__path__):
        module = importlib.import_module(f"{cuda_c.__name__}.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                assert not dataclasses.is_dataclass(value), f"{module.__name__}.{value.__name__}"
                checked.append(value)
    assert set(CASES) | {StaticReport, _Access, _State} <= set(checked)

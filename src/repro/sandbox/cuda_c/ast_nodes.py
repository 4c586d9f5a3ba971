"""AST node definitions for the CUDA-C subset.

Statement nodes (and :class:`KernelDef`) carry the 1-based source ``line``
they started on so downstream passes — in particular the static hazard
analyzer in :mod:`repro.sandbox.cuda_c.static` — can attach source spans to
their findings.  ``line`` is excluded from equality and hashing: two parses
of the same kernel text are interchangeable as cache keys regardless of
where the text sat in the enclosing file.

The nodes are hand-written ``__slots__`` classes on
:class:`~repro.sandbox.cuda_c.records.FrozenRecord`, not frozen dataclasses,
because every evaluating process imports them: twenty dataclasses made this
module as costly to import as the 1,600-line lockstep engine, since each
generates and ``exec``s its methods at import.  What the dataclasses gave
stays: nodes are immutable and hashable, equal only to a node of the same
class with equal fields, and their ``repr`` (which the interpreter's error
messages embed) is the dataclass format, ``line`` included.
"""

from __future__ import annotations

from repro.sandbox.cuda_c.records import FrozenRecord

__all__ = [
    "Param", "KernelDef", "Block",
    "Decl", "Assign", "If", "For", "While", "Return", "ExprStmt", "Break", "Continue",
    "Num", "Var", "Index", "Member", "Unary", "Binary", "Ternary", "Call",
]

_set = object.__setattr__


# -- expressions -------------------------------------------------------------

class Num(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: float | int):
        _set(self, "value", value)


class Var(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Index(FrozenRecord):
    __slots__ = ("base", "index")

    def __init__(self, base: "Var | Index", index: object):
        _set(self, "base", base)
        _set(self, "index", index)


class Member(FrozenRecord):
    __slots__ = ("base", "field")

    def __init__(self, base: str, field: str):
        _set(self, "base", base)
        _set(self, "field", field)


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: object):
        _set(self, "op", op)
        _set(self, "operand", operand)


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Ternary(FrozenRecord):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: object, then: object, orelse: object):
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "orelse", orelse)


class Call(FrozenRecord):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        _set(self, "name", name)
        _set(self, "args", args)


# -- statements ---------------------------------------------------------------

class _Located(FrozenRecord):
    """A node whose last field is its source ``line``."""

    __slots__ = ()
    _uncompared = ("line",)


class Block(_Located):
    __slots__ = ("statements", "line")

    def __init__(self, statements: tuple = (), line: int = 0):
        _set(self, "statements", statements)
        _set(self, "line", line)


class Decl(_Located):
    __slots__ = ("type", "name", "init", "line")

    def __init__(self, type: str, name: str, init: object | None = None, line: int = 0):
        _set(self, "type", type)
        _set(self, "name", name)
        _set(self, "init", init)
        _set(self, "line", line)


class Assign(_Located):
    __slots__ = ("target", "op", "value", "line")

    def __init__(self, target: object, op: str, value: object, line: int = 0):
        _set(self, "target", target)    # Var or Index
        _set(self, "op", op)            # "=", "+=", "-=", "*=", "/="
        _set(self, "value", value)
        _set(self, "line", line)


class If(_Located):
    __slots__ = ("cond", "then", "orelse", "line")

    def __init__(self, cond: object, then: Block, orelse: Block | None = None, line: int = 0):
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "orelse", orelse)
        _set(self, "line", line)


class For(_Located):
    __slots__ = ("init", "cond", "update", "body", "line")

    def __init__(self, init: object | None, cond: object | None, update: object | None,
                 body: Block, line: int = 0):
        _set(self, "init", init)
        _set(self, "cond", cond)
        _set(self, "update", update)
        _set(self, "body", body)
        _set(self, "line", line)


class While(_Located):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: object, body: Block, line: int = 0):
        _set(self, "cond", cond)
        _set(self, "body", body)
        _set(self, "line", line)


class Return(_Located):
    __slots__ = ("value", "line")

    def __init__(self, value: object | None = None, line: int = 0):
        _set(self, "value", value)
        _set(self, "line", line)


class Break(_Located):
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        _set(self, "line", line)


class Continue(_Located):
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        _set(self, "line", line)


class ExprStmt(_Located):
    __slots__ = ("expr", "line")

    def __init__(self, expr: object, line: int = 0):
        _set(self, "expr", expr)
        _set(self, "line", line)


# -- definitions ----------------------------------------------------------------

class Param(FrozenRecord):
    __slots__ = ("type", "name", "is_pointer", "const")

    def __init__(self, type: str, name: str, is_pointer: bool = False, const: bool = False):
        _set(self, "type", type)
        _set(self, "name", name)
        _set(self, "is_pointer", is_pointer)
        _set(self, "const", const)


class KernelDef(_Located):
    __slots__ = ("name", "params", "body", "qualifiers", "line")

    def __init__(self, name: str, params: tuple[Param, ...], body: Block,
                 qualifiers: tuple[str, ...] = (), line: int = 0):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "body", body)
        _set(self, "qualifiers", qualifiers)
        _set(self, "line", line)

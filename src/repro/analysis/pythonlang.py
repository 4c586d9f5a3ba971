"""Static checks for Python suggestions.

Python is the one language whose suggestions we can *execute* against the
numerical oracles (see :mod:`repro.sandbox`); the static layer here only
establishes that the suggestion is syntactically valid Python, defines a
callable entry point for the kernel, and does not reference obviously
undefined helper functions at module scope.

Every check reads a :class:`ParsedSuggestion`: one ``ast.parse`` and one
breadth-first walk of the code.  Inside a
:func:`~repro.sandbox.cuda_c.interpreter.shared_parse_scope` (one analysis
batch) each distinct code is parsed once and the sandbox compiles the same
AST; outside a scope every call parses afresh.
"""

from __future__ import annotations

import ast
import builtins
import types

from repro.sandbox.cuda_c.interpreter import parse_once

__all__ = [
    "ParsedSuggestion",
    "check_structure",
    "find_entry_function",
    "parse_suggestion",
    "undefined_call_names",
]

#: Module roots the sandbox knows how to provide.
KNOWN_MODULE_ROOTS = {"numpy", "numba", "cupy", "pycuda", "math", "cupyx", "pykokkos"}


def _target_names(target: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}


class ParsedSuggestion:
    """What the static checks and the executor need from one parse.

    ``structure_issues`` are :func:`check_structure`'s issues in order,
    ``undefined_calls`` are :func:`undefined_call_names`' names and
    ``functions`` the top-level function names in source order.  ``tree``
    is the AST, ``None`` after a syntax error or once :meth:`compile` has
    taken it.
    """

    __slots__ = ("structure_issues", "undefined_calls", "functions", "tree")

    def __init__(self, code: str):
        self.structure_issues: tuple[str, ...] = ()
        self.undefined_calls: frozenset[str] = frozenset()
        self.functions: tuple[str, ...] = ()
        self.tree: ast.Module | None = None
        try:
            tree = ast.parse(code)
        except SyntaxError:
            self.structure_issues = ("not valid Python (syntax error)",)
            return
        has_function = False
        import_issues: list[str] = []
        defined: set[str] = set()
        called: set[str] = set()
        todo: list[ast.AST] = [tree]
        for node in todo:  # breadth-first, as ast.walk: import_issues keeps its order
            kind = type(node)  # ast.parse builds exact classes: ``is`` checks suffice
            if kind is ast.Name or kind is ast.Constant:
                continue  # leaves: only an expr_context below
            if kind is ast.Call:
                if type(node.func) is ast.Name:
                    called.add(node.func.id)
            elif kind is ast.FunctionDef:
                has_function = True
                defined.add(node.name)
                defined.update(arg.arg for arg in node.args.args)
                defined.update(arg.arg for arg in node.args.kwonlyargs)
            elif kind is ast.Import or kind is ast.ImportFrom:
                if kind is ast.Import:
                    defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                    modules = [alias.name for alias in node.names]
                else:
                    defined.update(alias.asname or alias.name for alias in node.names)
                    modules = [node.module] if node.module else [alias.name for alias in node.names]
                for module in modules:
                    root = module.split(".")[0]
                    if root and root not in KNOWN_MODULE_ROOTS:
                        import_issues.append(f"imports unavailable module {root!r}")
            elif kind is ast.Assign:
                for target in node.targets:
                    defined.update(_target_names(target))
            elif kind is ast.For or kind is ast.comprehension:
                defined.update(_target_names(node.target))
            for field in node._fields:
                child = getattr(node, field)
                if isinstance(child, list):
                    todo.extend([item for item in child if isinstance(item, ast.AST)])
                elif isinstance(child, ast.AST) and not isinstance(child, ast.expr_context):
                    todo.append(child)
        missing = () if has_function else ("no function definition found",)
        self.structure_issues = (*missing, *import_issues)
        self.undefined_calls = frozenset(
            name for name in called if name not in defined and name not in vars(builtins)
        )
        self.functions = tuple(
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        )
        self.tree = tree

    def entry_function(self, kernel: str) -> str | None:
        """See :func:`find_entry_function`."""
        # Only top-level functions can be called from the sandbox namespace.
        if not self.functions:
            return None
        kernel = kernel.lower()
        for name in self.functions:
            if name.lower() == kernel:
                return name
        public = [name for name in self.functions if not name.startswith("_")]
        for name in public:
            if kernel in name.lower():
                return name
        if len(public) == 1:
            return public[0]
        return None

    def compile(self, code: str, filename: str) -> types.CodeType:
        """Compile ``code`` for ``exec`` from the AST, releasing it; a second
        compile (the AST is gone) parses ``code`` again."""
        tree, self.tree = self.tree, None
        return compile(code if tree is None else tree, filename, "exec")


def parse_suggestion(code: str) -> ParsedSuggestion:
    """``code`` parsed once per parse scope (on every call outside one)."""
    return parse_once("python", code, ParsedSuggestion)


def check_structure(code: str) -> list[str]:
    """Syntax validity and presence of a function definition."""
    return list(parse_suggestion(code).structure_issues)


def find_entry_function(code: str, kernel: str) -> str | None:
    """Name of the function implementing ``kernel`` in ``code``.

    Preference order: exact kernel name, a name containing the kernel name
    (excluding private helpers), then the single public function if there is
    exactly one.
    """
    return parse_suggestion(code).entry_function(kernel)


def undefined_call_names(code: str) -> set[str]:
    """Plain-name calls that are neither defined in the module, imported,
    assigned, builtins, nor parameters of the enclosing functions."""
    return set(parse_suggestion(code).undefined_calls)

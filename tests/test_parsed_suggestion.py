"""Equivalence of the parse-once Python checks with the per-check parsers.

:class:`repro.analysis.pythonlang.ParsedSuggestion` replaced three checks
that each parsed and walked the code themselves.  The originals are kept
below, verbatim, as the oracle: on every stock and extended-grid template
and mutant, and on hand-written edge cases, the new checks must agree with
them inside a parse scope and outside one.
"""

from __future__ import annotations

import ast
import builtins

import pytest

from repro.analysis import pythonlang
from repro.corpus.store import build_default_corpus
from repro.extensions import install_extended_grid, uninstall_extended_grid
from repro.kernels.registry import KERNEL_NAMES
from repro.sandbox.cuda_c.interpreter import shared_parse_scope
from repro.sandbox.executor import run_python_suggestion

# -- oracle: the checks as they were before the parse scope -------------------

KNOWN_MODULE_ROOTS = {"numpy", "numba", "cupy", "pycuda", "math", "cupyx", "pykokkos"}


def parse_or_none(code: str) -> ast.Module | None:
    try:
        return ast.parse(code)
    except SyntaxError:
        return None


def check_structure(code: str) -> list[str]:
    """Syntax validity and presence of a function definition."""
    issues: list[str] = []
    tree = parse_or_none(code)
    if tree is None:
        issues.append("not valid Python (syntax error)")
        return issues
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    if not functions:
        issues.append("no function definition found")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            names = [module] if module else [alias.name for alias in node.names]
            for name in names:
                root = (name or "").split(".")[0]
                if root and root not in KNOWN_MODULE_ROOTS:
                    issues.append(f"imports unavailable module {root!r}")
    return issues


def find_entry_function(code: str, kernel: str) -> str | None:
    """Name of the function implementing ``kernel`` in ``code``.

    Preference order: exact kernel name, a name containing the kernel name
    (excluding private helpers), then the single public function if there is
    exactly one.
    """
    tree = parse_or_none(code)
    if tree is None:
        return None
    # Only top-level functions can be called from the sandbox namespace.
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    if not functions:
        return None
    kernel = kernel.lower()
    for name in functions:
        if name.lower() == kernel:
            return name
    public = [name for name in functions if not name.startswith("_")]
    for name in public:
        if kernel in name.lower():
            return name
    if len(public) == 1:
        return public[0]
    return None


def undefined_call_names(code: str) -> set[str]:
    """Plain-name calls that are neither defined in the module, imported,
    assigned, builtins, nor parameters of the enclosing functions."""
    tree = parse_or_none(code)
    if tree is None:
        return set()
    defined: set[str] = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            defined.update(arg.arg for arg in node.args.args)
            defined.update(arg.arg for arg in node.args.kwonlyargs)
        elif isinstance(node, ast.Import):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            defined.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defined.add(sub.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    defined.add(sub.id)
    called: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    return {name for name in called if name not in defined}


# -- inputs -------------------------------------------------------------------

EDGE_CASES = {
    "syntax error": "def axpy(a, x, y)\n    return a * x + y\n",
    "no def": "import numpy as np\nresult = np.zeros(3)\nprint(result)\n",
    "no def, unknown imports": "import torch\nfrom jax import numpy as jnp\nx = torch.zeros(3)\n",
    "only async def": "async def axpy(a, x, y):\n    return a * x + y\n",
    "relative import": "from . import helpers\n\ndef axpy(a, x, y):\n    return helpers.axpy(a, x, y)\n",
    "relative star import": "from . import *\n\ndef axpy(a, x, y):\n    return fused(a, x, y)\n",
    "relative module import": "from .kernels import fused\n\ndef axpy(a, x, y):\n    return fused(a, x, y)\n",
    "dotted import alias": "import a.b as c\nimport numpy.linalg\n\ndef gemv(A, x):\n    return c.dot(A, x)\n",
    "nested defs": (
        "def gemm(A, B):\n"
        "    def inner(i, j):\n"
        "        return helper(A[i], B[:, j])\n"
        "    return [[inner(i, j) for j in range(2)] for i in range(2)]\n"
    ),
    "keyword-only args": (
        "def axpy(a, x, *, y, out=None):\n"
        "    return scale(a, x) + y + out\n"
        "def scale(a, x, *, factor):\n"
        "    return factor(a) * x\n"
    ),
    "unpacking and comprehension targets": (
        "import numpy as np\n"
        "def jacobi(u, steps):\n"
        "    first, (second, *rest) = u, (1, 2, 3)\n"
        "    total = sum(f(v) for f, v in zip(rest, first))\n"
        "    for k, (lo, hi) in enumerate(steps):\n"
        "        lo(k); hi(k)\n"
        "    return [g(w) for g in rest for w in {h: h for h in second}]\n"
    ),
    "private helpers only": "def _axpy(a, x, y):\n    return a * x + y\n",
    "two public functions": "def axpy(a, x, y):\n    return a * x + y\ndef other():\n    return 1\n",
    "undefined helpers": "def cg(A, b):\n    x = solve(A, b)\n    return precondition(x)\n",
    "module-level return": "def axpy(a, x, y):\n    return a * x + y\nreturn None\n",
    "non-python": "__global__ void axpy(int n) { int i = threadIdx.x; }\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def corpus_codes() -> list[tuple[str, str]]:
    """``(code, kernel)`` of every template and mutant, stock and extended."""
    install_extended_grid()
    try:
        corpus = build_default_corpus()
    finally:
        uninstall_extended_grid()
    pairs = [(snippet.code, snippet.kernel) for snippet in corpus]
    assert {"scan", "histogram"} <= {kernel for _, kernel in pairs}
    assert any(snippet.mutation for snippet in corpus)
    return pairs


def _assert_matches_oracle(code: str, kernel: str) -> None:
    assert pythonlang.check_structure(code) == check_structure(code)
    assert pythonlang.undefined_call_names(code) == undefined_call_names(code)
    for name in sorted({kernel, *KERNEL_NAMES}):
        assert pythonlang.find_entry_function(code, name) == find_entry_function(code, name)


class TestOracleEquivalence:
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_every_template_and_mutant(self, corpus_codes, scoped):
        if scoped:
            with shared_parse_scope() as scope:
                for code, kernel in corpus_codes:
                    _assert_matches_oracle(code, kernel)
            assert len(scope.python) == len({code for code, _ in corpus_codes})
        else:
            for code, kernel in corpus_codes:
                _assert_matches_oracle(code, kernel)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_edge_case(self, case, scoped):
        code = EDGE_CASES[case]
        if scoped:
            with shared_parse_scope():
                _assert_matches_oracle(code, "axpy")
        else:
            _assert_matches_oracle(code, "axpy")

    def test_edge_cases_are_not_vacuous(self):
        assert check_structure(EDGE_CASES["only async def"]) == ["no function definition found"]
        assert check_structure(EDGE_CASES["no def, unknown imports"]) == [
            "no function definition found",
            "imports unavailable module 'torch'",
            "imports unavailable module 'jax'",
        ]
        assert check_structure(EDGE_CASES["relative import"]) == [
            "imports unavailable module 'helpers'"
        ]
        assert check_structure(EDGE_CASES["dotted import alias"]) == [
            "imports unavailable module 'a'"
        ]
        assert undefined_call_names(EDGE_CASES["nested defs"]) == {"helper"}
        assert undefined_call_names(EDGE_CASES["keyword-only args"]) == set()
        assert undefined_call_names(EDGE_CASES["unpacking and comprehension targets"]) == set()
        assert undefined_call_names(EDGE_CASES["undefined helpers"]) == {
            "solve", "precondition"
        }
        assert find_entry_function(EDGE_CASES["private helpers only"], "axpy") is None
        assert find_entry_function(EDGE_CASES["private helpers only"], "_axpy") == "_axpy"
        assert find_entry_function(EDGE_CASES["two public functions"], "gemv") is None


class TestScope:
    def test_one_parse_per_code_inside_a_scope(self, monkeypatch):
        parses: list[str] = []
        original = ast.parse

        def counting(source, *args, **kwargs):
            parses.append(source)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        code = EDGE_CASES["undefined helpers"]
        with shared_parse_scope():
            pythonlang.check_structure(code)
            pythonlang.undefined_call_names(code)
            pythonlang.find_entry_function(code, "cg")
        assert parses == [code]
        # Outside a scope every call parses afresh.
        pythonlang.check_structure(code)
        pythonlang.check_structure(code)
        assert parses == [code] * 3

    def test_compile_releases_the_tree(self):
        parsed = pythonlang.ParsedSuggestion(EDGE_CASES["keyword-only args"])
        assert isinstance(parsed.tree, ast.Module)
        first = parsed.compile(EDGE_CASES["keyword-only args"], "<suggestion>")
        assert parsed.tree is None
        # A second compile has no tree left and parses the source instead.
        second = parsed.compile(EDGE_CASES["keyword-only args"], "<suggestion>")
        assert first.co_names == second.co_names and first.co_consts == second.co_consts

    def test_scopes_join_and_drop_on_exit(self):
        from repro.sandbox.cuda_c import interpreter

        assert interpreter._PARSE_SCOPE.get() is None
        with shared_parse_scope() as outer:
            with shared_parse_scope() as inner:
                assert inner is outer
            assert interpreter._PARSE_SCOPE.get() is outer
        assert interpreter._PARSE_SCOPE.get() is None


class TestExecutorCompile:
    def test_compile_stage_syntax_error_text_matches_a_source_compile(self):
        """``return`` at module level parses but fails to compile; the
        executor compiles the AST, and its issue must read exactly as a
        compile of the source text would."""
        code = EDGE_CASES["module-level return"]
        assert pythonlang.check_structure(code) == []
        with pytest.raises(SyntaxError) as excinfo:
            compile(code, "<suggestion>", "exec")
        expected = [f"module execution failed: {excinfo.value!r}"]
        assert run_python_suggestion(code, "axpy").issues == expected
        with shared_parse_scope():
            pythonlang.check_structure(code)
            assert run_python_suggestion(code, "axpy").issues == expected

    def test_runtime_errors_read_the_same_from_the_ast(self):
        code = "def axpy(a, x, y):\n    return a * x + undefined_name\n"
        result = run_python_suggestion(code, "axpy")
        assert result.issues == [
            "calling axpy() raised NameError: name 'undefined_name' is not defined"
        ]

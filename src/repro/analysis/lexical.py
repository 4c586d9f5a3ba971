"""Language-agnostic lexical helpers used by the per-language analyzers.

Every code a process analyzes passes through them, and a Python loop over
each character costs several times what ``str`` methods and ``re`` (in C)
cost, so they avoid one, and skip a pass whose literal anchor is absent.
"""

from __future__ import annotations

import re

__all__ = [
    "strip_c_comments",
    "strip_line_comments",
    "strip_string_literals",
    "balanced_delimiters",
    "normalize_whitespace",
]


def strip_c_comments(code: str) -> str:
    """Remove ``//`` line comments and ``/* */`` block comments.

    ``#pragma`` lines are preserved (they are directives, not comments).
    """
    if "/*" in code:
        code = re.sub(r"/\*.*?\*/", " ", code, flags=re.DOTALL)
    if "//" in code:
        code = re.sub(r"//[^\n]*", "", code)
    return code


def strip_line_comments(code: str, prefix: str) -> str:
    """Remove line comments starting with ``prefix``.

    Directive sentinels (``!$omp`` / ``!$acc`` in Fortran) are preserved even
    though they share the comment prefix.
    """
    out_lines = []
    for line in code.splitlines():
        if prefix in line:  # most lines hold no comment
            stripped = line.lstrip()
            if stripped.startswith(prefix):
                # Whole-line comment: drop it, unless a directive sentinel.
                if not (prefix == "!" and stripped.lower().startswith(("!$omp", "!$acc"))):
                    continue
            else:
                # In-line trailing comments: cut at the prefix unless it is a
                # directive sentinel or inside a string literal (handled
                # coarsely by only cutting when whitespace precedes it).
                idx = line.find(f" {prefix}")
                if idx >= 0 and not (prefix == "!" and "!$" in line):
                    line = line[:idx]
        out_lines.append(line)
    return "\n".join(out_lines)


def strip_string_literals(code: str) -> str:
    """Replace the contents of string literals with spaces."""
    def _blank(match: re.Match[str]) -> str:
        return '"' + " " * (len(match.group(0)) - 2) + '"'

    if '"""' in code:
        code = re.sub(r'"""(?:[^"\\]|\\.|"(?!""))*"""', _blank, code, flags=re.DOTALL)
    if '"' in code:
        code = re.sub(r'"(?:[^"\\\n]|\\.)*"', _blank, code)
    if "'" in code:
        code = re.sub(r"'(?:[^'\\\n]|\\.)*'", _blank, code)
    return code


_OPENER_OF = {"}": "{", ")": "(", "]": "["}


def balanced_delimiters(code: str) -> bool:
    """Whether every opening brace, parenthesis and bracket has a matching
    closing one (each kind counted on its own, so ``([)]`` balances).

    Works on comment- and string-stripped code; a truncated completion almost
    always fails this check.
    """
    for close, open_ in _OPENER_OF.items():
        if code.count(open_) != code.count(close):
            return False
    depth = dict.fromkeys(_OPENER_OF.values(), 0)
    for ch in re.findall(r"[(){}\[\]]", code):
        if ch in depth:
            depth[ch] += 1
        else:
            depth[_OPENER_OF[ch]] -= 1
            if depth[_OPENER_OF[ch]] < 0:
                return False
    return True


def normalize_whitespace(code: str) -> str:
    """Collapse every whitespace run (``str.isspace()``, as ``re``'s ``\\s``) to one space."""
    return " ".join(code.split())

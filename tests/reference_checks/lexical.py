"""Language-agnostic lexical helpers used by the per-language analyzers."""

from __future__ import annotations

import re

__all__ = [
    "strip_c_comments",
    "strip_line_comments",
    "strip_string_literals",
    "balanced_delimiters",
    "extract_call_names",
    "extract_identifiers",
    "normalize_whitespace",
]


def strip_c_comments(code: str) -> str:
    """Remove ``//`` line comments and ``/* */`` block comments.

    ``#pragma`` lines are preserved (they are directives, not comments).
    """
    code = re.sub(r"/\*.*?\*/", " ", code, flags=re.DOTALL)
    code = re.sub(r"//[^\n]*", "", code)
    return code


def strip_line_comments(code: str, prefix: str) -> str:
    """Remove line comments starting with ``prefix``.

    Directive sentinels (``!$omp`` / ``!$acc`` in Fortran) are preserved even
    though they share the comment prefix.
    """
    out_lines = []
    for line in code.splitlines():
        stripped = line.lstrip()
        if stripped.startswith(prefix):
            if prefix == "!" and stripped.lower().startswith(("!$omp", "!$acc")):
                out_lines.append(line)
                continue
            # Whole-line comment: drop it.
            continue
        # In-line trailing comments: cut at the prefix unless it is a
        # directive sentinel or inside a string literal (handled coarsely by
        # only cutting when the prefix is preceded by whitespace).
        idx = line.find(f" {prefix}")
        if idx >= 0 and not (prefix == "!" and "!$" in line):
            line = line[:idx]
        out_lines.append(line)
    return "\n".join(out_lines)


def strip_string_literals(code: str) -> str:
    """Replace the contents of string literals with spaces."""
    def _blank(match: re.Match[str]) -> str:
        return '"' + " " * (len(match.group(0)) - 2) + '"'

    code = re.sub(r'"""(?:[^"\\]|\\.|"(?!""))*"""', lambda m: '"' + " " * (len(m.group(0)) - 2) + '"',
                  code, flags=re.DOTALL)
    code = re.sub(r'"(?:[^"\\\n]|\\.)*"', _blank, code)
    code = re.sub(r"'(?:[^'\\\n]|\\.)*'", _blank, code)
    return code


_DELIMITER_PAIRS = (("{", "}"), ("(", ")"), ("[", "]"))


def balanced_delimiters(code: str) -> bool:
    """Whether every opening brace, parenthesis and bracket has a matching
    closing one.

    Works on comment- and string-stripped code; a truncated completion almost
    always fails this check.
    """
    counts = {open_: 0 for open_, _ in _DELIMITER_PAIRS}
    closers = {close: open_ for open_, close in _DELIMITER_PAIRS}
    openers = {open_ for open_, _ in _DELIMITER_PAIRS}
    for ch in code:
        if ch in openers:
            counts[ch] += 1
        elif ch in closers:
            counts[closers[ch]] -= 1
            if counts[closers[ch]] < 0:
                return False
    return all(v == 0 for v in counts.values())


_CALL_RE = re.compile(r"([A-Za-z_][\w:.]*)\s*\(")


def extract_call_names(code: str) -> set[str]:
    """Names that appear in call position (``name(...)``).

    Namespaced and attribute calls keep their qualification
    (``Kokkos::parallel_for``, ``np.dot``), which lets the whitelists match on
    either the full name or its root.
    """
    return set(_CALL_RE.findall(code))


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def extract_identifiers(code: str) -> set[str]:
    """All bare identifiers appearing in the code."""
    return set(_IDENT_RE.findall(code))


def normalize_whitespace(code: str) -> str:
    """Collapse every whitespace run to a single space (for regex matching)."""
    return re.sub(r"\s+", " ", code).strip()

"""Tokenizer for the CUDA-C subset."""

from __future__ import annotations

import re

from repro.sandbox.cuda_c.records import FrozenRecord

__all__ = ["Token", "tokenize", "CudaLexError"]

_set = object.__setattr__


class CudaLexError(ValueError):
    """Raised when the source contains characters the subset does not allow."""


class Token(FrozenRecord):
    """One token: equal to another token only when every field matches."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        _set(self, "kind", kind)      # "ident", "number", "op", "keyword", "string"
        _set(self, "text", text)
        _set(self, "line", line)


KEYWORDS = {
    "if", "else", "for", "while", "return", "const", "void",
    "int", "float", "double", "unsigned", "long", "size_t", "bool",
    "__global__", "__device__", "__host__", "__shared__", "__restrict__",
    "extern", "static", "struct",
}

#: Multi-character operators, longest first so the tokenizer is greedy.
_OPERATORS = (
    "<<<", ">>>", "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
    "(", ")", "{", "}", "[", "]", ",", ";", ".",
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFuUlL]*)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize CUDA-C source into a flat token list (comments stripped)."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(source)
    while pos < n:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            snippet = source[pos:pos + 20].splitlines()[0]
            raise CudaLexError(f"unexpected character at line {line}: {snippet!r}")
        text = match.group(0)
        line += text.count("\n")
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        if match.lastgroup == "ident":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif match.lastgroup == "number":
            kind = "number"
        elif match.lastgroup == "string":
            kind = "string"
        else:
            kind = "op"
        tokens.append(Token(kind, text, line))
    return tokens

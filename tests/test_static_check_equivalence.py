"""Equivalence of the C++, Fortran and Julia static checks with their
reference versions.

The checks in :mod:`repro.analysis` skip a scan when the text lacks a
literal every match of it contains, and the lexical helpers leave their
per-character work to ``str`` methods and ``re``.  The versions before
those changes are kept verbatim in ``tests/reference_checks`` as the
oracle: on every stock and extended-grid template, on every template's
mutant under every operator, and on generated text, the checks and helpers
must return exactly what the oracle returns.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_checks import clike as ref_clike
from reference_checks import fortranlang as ref_fortranlang
from reference_checks import julialang as ref_julialang
from reference_checks import lexical as ref_lexical
from repro.analysis import clike, fortranlang, julialang, lexical
from repro.corpus.mutations import MUTATION_OPERATORS, apply_mutation
from repro.corpus.store import build_default_corpus
from repro.corpus.snippets import SnippetOrigin
from repro.extensions import install_extended_grid, uninstall_extended_grid

#: (checks, reference checks) per language.
CHECKS = {
    "cpp": (clike, ref_clike),
    "fortran": (fortranlang, ref_fortranlang),
    "julia": (julialang, ref_julialang),
}

#: Every code point ``str.isspace()`` accepts, which is the set ``re``'s
#: ``\s`` and ``str.split()`` treat as whitespace.
WHITESPACE = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


def _outcome(check, *args):
    """A check's result, or the type and text of what it raised."""
    try:
        return check(*args)
    except KeyError as exc:
        return ("KeyError", str(exc))


def _assert_matches_reference(code: str, language: str, kernel: str) -> None:
    checks, reference = CHECKS[language]
    assert checks.check_structure(code) == reference.check_structure(code)
    for name in sorted({kernel, *reference._KERNEL_CHECKS}):
        assert _outcome(checks.check_kernel_semantics, code, name) == _outcome(
            reference.check_kernel_semantics, code, name
        ), (language, name)


@pytest.fixture(scope="module")
def corpus_codes() -> list[tuple[str, str, str]]:
    """``(code, language, kernel)`` of every template, stock and extended,
    and of its mutant under every operator.  The extended grid adds only
    Python templates; every code goes through every language's checks."""
    install_extended_grid()
    try:
        templates = [
            snippet
            for snippet in build_default_corpus(include_mutations=False)
            if snippet.origin is SnippetOrigin.TEMPLATE
        ]
    finally:
        uninstall_extended_grid()
    snippets = list(templates)
    for template in templates:
        for name in MUTATION_OPERATORS:
            mutant = apply_mutation(template, name)
            if mutant is not None:
                snippets.append(mutant)
    assert {"scan", "histogram"} <= {snippet.kernel for snippet in snippets}
    assert {snippet.mutation for snippet in snippets} >= {"truncate", "off_by_one", ""}
    return [(snippet.code, snippet.language, snippet.kernel) for snippet in snippets]


class TestCorpusEquivalence:
    def test_every_template_and_mutant(self, corpus_codes):
        for code, _, kernel in corpus_codes:
            for language in CHECKS:
                _assert_matches_reference(code, language, kernel)

    def test_every_language_has_failing_and_passing_codes(self, corpus_codes):
        """Non-vacuity: the corpus reaches both outcomes of each check."""
        for language, (_, reference) in CHECKS.items():
            codes = [(code, kernel) for code, lang, kernel in corpus_codes if lang == language]
            structures = [reference.check_structure(code) for code, _ in codes]
            assert any(structures) and not all(structures), language
            semantics = [
                reference.check_kernel_semantics(code, kernel)
                for code, kernel in codes
                if kernel in reference._KERNEL_CHECKS
            ]
            assert any(semantics) and not all(semantics), language


class TestLexicalEquivalence:
    def test_the_alphabet_holds_every_whitespace_character(self):
        assert len(WHITESPACE) == 29
        assert set("\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000") <= set(WHITESPACE)
        assert not "\u200b".isspace()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=WHITESPACE + "\u200bab{}()[]", max_size=40))
    def test_normalize_whitespace_and_balanced_delimiters(self, text):
        assert lexical.normalize_whitespace(text) == ref_lexical.normalize_whitespace(text)
        assert lexical.balanced_delimiters(text) == ref_lexical.balanced_delimiters(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\n\r\x0b\x85\u2028ax/*\"'\\!#$&", max_size=40))
    def test_comment_and_string_stripping(self, text):
        assert lexical.strip_c_comments(text) == ref_lexical.strip_c_comments(text)
        assert lexical.strip_string_literals(text) == ref_lexical.strip_string_literals(text)
        for prefix in ("!", "#"):
            assert lexical.strip_line_comments(text, prefix) == ref_lexical.strip_line_comments(
                text, prefix
            )


#: Fragments the skipped scans look for, and text around them.
FRAGMENTS = [
    "\n", " ", "  ", ";", "{", "}", "(", ")", "=", " = ", " <= ", "x", "i", "n", "end", "end if",
    "endif", "end do", "@inbounds ", "Threads.@threads ", "function f()", "for i in 1:n",
    "subroutine s(n)", "end subroutine", "function g(x)", "end function", "do i = 1, n",
    "if (i <= n) then", "then", "&\n", "! note", "!$omp parallel do", "# note", "// note",
    "/* c */", '"s"', "'c'", "blockIdx.x", "blockIdx()", "workgroupIdx()",
    "int i = blockIdx.x * blockDim.x + threadIdx.x;", "i = blockIdx.x - threadIdx.x;",
    "i = (blockIdx().x - 1) * blockDim().x + threadIdx().x",
    "i = workgroupIdx().x * workgroupDim().x + workitemIdx().x",
]


class TestGeneratedEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
        st.sampled_from(sorted(CHECKS)),
        st.sampled_from(["axpy", "gemv", "gemm", "spmv", "jacobi", "cg"]),
    )
    def test_generated_code(self, code, language, kernel):
        _assert_matches_reference(code, language, kernel)

"""Tests for the code corpus: templates, snippets, mutations and the store."""

from __future__ import annotations

import dataclasses

import pytest

from repro.corpus.mutations import MUTATION_OPERATORS, apply_mutation, available_mutations
from repro.corpus.snippets import CodeSnippet, SnippetOrigin
from repro.corpus.store import CorpusStore, build_default_corpus
from repro.corpus.templates import TEMPLATE_INDEX, get_template, has_template, iter_templates
from repro.kernels.registry import KERNEL_NAMES
from repro.models.programming_models import PROGRAMMING_MODELS


class TestTemplates:
    def test_every_model_kernel_cell_has_a_template(self):
        for uid, model in PROGRAMMING_MODELS.items():
            for kernel in KERNEL_NAMES:
                assert has_template(model.language, model.short_name, kernel), (uid, kernel)

    def test_template_count(self):
        assert len(TEMPLATE_INDEX) == len(PROGRAMMING_MODELS) * len(KERNEL_NAMES)

    def test_templates_are_nonempty_code(self):
        for language, model, kernel, code in iter_templates():
            assert len(code.strip()) > 40, (language, model, kernel)

    def test_get_template_unknown_cell(self):
        with pytest.raises(KeyError):
            get_template("cpp", "mpi", "axpy")

    def test_directive_templates_carry_their_markers(self):
        assert "#pragma omp parallel for" in get_template("cpp", "openmp", "axpy")
        assert "#pragma omp target" in get_template("cpp", "openmp_offload", "gemm")
        assert "#pragma acc" in get_template("cpp", "openacc", "spmv")
        assert "!$omp" in get_template("fortran", "openmp", "cg")
        assert "!$acc" in get_template("fortran", "openacc", "jacobi")

    def test_gpu_templates_carry_their_markers(self):
        assert "__global__" in get_template("cpp", "cuda", "axpy")
        assert "hipLaunchKernelGGL" in get_template("cpp", "hip", "gemv")
        assert "thrust::" in get_template("cpp", "thrust", "gemm")
        assert "sycl::" in get_template("cpp", "sycl", "cg")
        assert "Kokkos::parallel_for" in get_template("cpp", "kokkos", "jacobi")

    def test_python_templates_import_their_stack(self):
        assert "import numpy" in get_template("python", "numpy", "cg")
        assert "from numba import" in get_template("python", "numba", "spmv")
        assert "import cupy" in get_template("python", "cupy", "axpy")
        assert "SourceModule" in get_template("python", "pycuda", "gemm")

    def test_julia_templates_use_their_packages(self):
        assert "Threads.@threads" in get_template("julia", "threads", "gemv")
        assert "@cuda" in get_template("julia", "cuda", "axpy")
        assert "@roc" in get_template("julia", "amdgpu", "spmv")
        assert "@kernel" in get_template("julia", "kernelabstractions", "jacobi")

    def test_fortran_templates_are_subroutines(self):
        for kernel in KERNEL_NAMES:
            code = get_template("fortran", "openmp", kernel)
            assert "subroutine" in code and "end subroutine" in code


class TestSnippets:
    def _snippet(self, code: str = "int x = 1;") -> CodeSnippet:
        return CodeSnippet(
            code=code, language="cpp", kernel="axpy", label_model="cpp.openmp", label_correct=True
        )

    def test_is_code_true_for_code(self):
        assert self._snippet().is_code

    def test_is_code_false_for_comments_only(self):
        snippet = CodeSnippet(
            code="// just a comment\n// another\n",
            language="cpp",
            kernel="axpy",
            label_model="none",
            label_correct=False,
        )
        assert not snippet.is_code

    def test_is_code_false_for_empty(self):
        snippet = self._snippet(code="   \n  ")
        assert not snippet.is_code

    def test_line_count_ignores_blank_lines(self):
        snippet = self._snippet(code="a\n\nb\n")
        assert snippet.line_count == 2

    def test_digest_is_stable_and_code_dependent(self):
        a = self._snippet("x = 1;")
        b = self._snippet("x = 1;")
        c = self._snippet("x = 2;")
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_with_code_preserves_metadata(self):
        snippet = self._snippet()
        mutated = snippet.with_code("y = 2;", mutation="test", label_correct=False,
                                    origin=SnippetOrigin.MUTATION)
        assert mutated.language == snippet.language
        assert mutated.mutation == "test"
        assert not mutated.label_correct
        assert mutated.origin is SnippetOrigin.MUTATION


class TestMutations:
    def _template_snippet(self, language="cpp", model="openmp", kernel="axpy") -> CodeSnippet:
        return CodeSnippet(
            code=get_template(language, model, kernel),
            language=language,
            kernel=kernel,
            label_model=f"{language}.{model}",
            label_correct=True,
            metadata={"model_short": model},
        )

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            apply_mutation(self._template_snippet(), "explode")

    def test_wrong_operator_flips_a_sign(self):
        snippet = self._template_snippet()
        mutated = apply_mutation(snippet, "wrong_operator")
        assert mutated is not None
        assert mutated.code != snippet.code
        assert not mutated.label_correct
        assert "- y[i]" in mutated.code

    def test_off_by_one_changes_loop_start(self):
        mutated = apply_mutation(self._template_snippet(), "off_by_one")
        assert mutated is not None
        assert "for (int i = 1;" in mutated.code

    def test_off_by_one_fortran(self):
        mutated = apply_mutation(self._template_snippet("fortran", "openmp", "gemv"), "off_by_one")
        assert mutated is not None
        assert "do i = 0," in mutated.code

    def test_off_by_one_julia(self):
        mutated = apply_mutation(self._template_snippet("julia", "threads", "gemv"), "off_by_one")
        assert mutated is not None
        assert "in 0:" in mutated.code

    def test_undefined_helper_inserts_unknown_call(self):
        mutated = apply_mutation(self._template_snippet(), "undefined_helper")
        assert mutated is not None
        assert "axpy_compute_element(" in mutated.code

    def test_drop_parallelism_removes_directives(self):
        mutated = apply_mutation(self._template_snippet(), "drop_parallelism")
        assert mutated is not None
        assert "#pragma omp" not in mutated.code
        assert mutated.label_model == "serial"

    def test_drop_parallelism_python_becomes_numpy(self):
        mutated = apply_mutation(self._template_snippet("python", "numba", "gemv"), "drop_parallelism")
        assert mutated is not None
        assert "numba" not in mutated.code
        assert "prange" not in mutated.code
        assert mutated.label_model == "python.numpy"

    def test_drop_parallelism_julia_threads(self):
        mutated = apply_mutation(self._template_snippet("julia", "threads", "axpy"), "drop_parallelism")
        assert mutated is not None
        assert "@threads" not in mutated.code

    def test_truncate_cuts_lines(self):
        snippet = self._template_snippet("cpp", "cuda", "gemm")
        mutated = apply_mutation(snippet, "truncate")
        assert mutated is not None
        assert mutated.line_count < snippet.line_count

    def test_comment_only_is_not_code(self):
        mutated = apply_mutation(self._template_snippet(), "comment_only")
        assert mutated is not None
        assert not mutated.is_code
        assert mutated.origin is SnippetOrigin.NON_CODE

    def test_available_mutations_nonempty_for_templates(self):
        names = available_mutations(self._template_snippet())
        assert "wrong_operator" in names
        assert "comment_only" in names

    def test_all_operators_have_positive_weights(self):
        for op in MUTATION_OPERATORS.values():
            assert op.weight > 0
            assert op.description

    def test_mutations_never_return_unchanged_code(self):
        snippet = self._template_snippet("cpp", "sycl", "gemv")
        for name in available_mutations(snippet):
            mutated = apply_mutation(snippet, name)
            assert mutated.code != snippet.code


class TestCorpusStore:
    def test_default_corpus_contains_all_templates(self, corpus):
        stats = corpus.stats()
        assert stats["origin:template"] == len(TEMPLATE_INDEX)
        assert stats["total"] > 500

    def test_template_lookup(self, corpus):
        snippet = corpus.template("cpp", "cpp.openmp", "axpy")
        assert snippet is not None
        assert snippet.label_correct
        assert snippet.origin is SnippetOrigin.TEMPLATE

    def test_candidates_cover_all_models_of_language(self, corpus):
        candidates = corpus.candidates("cpp", "axpy")
        models = {c.label_model for c in candidates if c.label_model.startswith("cpp.")}
        assert len(models) == 8

    def test_other_model_snippets_exclude_requested(self, corpus):
        others = corpus.other_model_snippets("python", "python.numpy", "axpy")
        assert others
        assert all(o.label_model != "python.numpy" for o in others)
        assert all(o.label_model not in ("serial", "none") for o in others)

    def test_store_without_mutations(self):
        store = build_default_corpus(include_mutations=False)
        assert store.stats()["total"] == len(TEMPLATE_INDEX)

    def test_mutant_table_matches_apply_mutation(self):
        store = build_default_corpus()
        templates = [s for s in store if s.origin is SnippetOrigin.TEMPLATE]
        assert len(store.mutants) == len(templates) * len(MUTATION_OPERATORS)
        snippet_ids = {id(s) for s in store}
        applies = skips = 0
        for template in templates:
            for name in MUTATION_OPERATORS:
                entry = store.mutants[template, name]
                expected = apply_mutation(template, name)
                assert entry == expected, (template.describe(), name)
                if entry is None:
                    skips += 1
                else:
                    applies += 1
                    assert id(entry) in snippet_ids  # the stored object, not a copy
        assert applies and skips

    def test_lookup_index_follows_add(self, corpus):
        store = CorpusStore(snippets=list(corpus))
        assert store.template("python", "python.handwritten", "axpy") is None
        before = store.candidates("python", "axpy")
        before.clear()  # callers get a fresh list, not the index itself
        assert store.candidates("python", "axpy")
        added = CodeSnippet(
            code="def axpy(a, x, y):\n    return a * x + y\n", language="python",
            kernel="axpy", label_model="python.handwritten", label_correct=True,
        )
        store.add(added)
        assert store.template("python", "python.handwritten", "axpy") is added
        assert store.candidates("python", "axpy")[-1] is added
        extra = dataclasses.replace(added, label_model="python.numpy", label_correct=False)
        store.extend([extra])
        assert store.candidates("python", "axpy")[-1] is extra
        # The first correct template of a cell wins, as before the index.
        assert store.template("python", "python.numpy", "axpy") is corpus.template(
            "python", "python.numpy", "axpy"
        )

    def test_manual_store_operations(self):
        store = CorpusStore()
        assert len(store) == 0
        snippet = CodeSnippet(
            code="x = 1", language="python", kernel="axpy",
            label_model="python.numpy", label_correct=False,
        )
        store.add(snippet)
        store.extend([snippet])
        assert len(store) == 2
        assert list(iter(store))

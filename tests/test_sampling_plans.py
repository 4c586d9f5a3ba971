"""Sampling plans: draw identity against numpy, plan lifetime, state tables.

:mod:`repro.codex.sampler` draws every index with a bisect over the
cumulative table ``Generator.choice`` would build, and orders the mutation
operators from one ``rng.random(k)`` call and a stable argsort instead of k
scalar draws inside a ``sorted`` key.  Both rely on how numpy implements
those calls; the properties below pin that behaviour, so a numpy upgrade
that changes it fails here before it moves a record.

The rest checks the plan table's lifetime: one plan per (corpus, cell),
shared by every seed and session, dropped when the corpus changes.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.codex.sampler as sampler_module
from repro.api.session import Session
from repro.codex.config import CodexConfig, KnowledgeState
from repro.codex.engine import SimulatedCodex
from repro.codex.prompt import Prompt
from repro.codex.sampler import (
    _STATE_FIELDS,
    SuggestionSampler,
    _choice_cdf,
    _probabilities,
    _weighted_order,
)
from repro.corpus.mutations import MUTATION_OPERATORS
from repro.corpus.snippets import SnippetOrigin
from repro.corpus.store import (
    CorpusStore,
    build_default_corpus,
    clear_default_corpus_cache,
    default_corpus,
)
from repro.extensions import install_extended_grid, uninstall_extended_grid
from repro.models.grid import experiment_grid
from repro.models.programming_models import STOCK_MODEL_UIDS
from repro.popularity.maturity import MODEL_MATURITY

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
#: Operator-like weights (ties included), arbitrary positive floats and zeros.
WEIGHT = st.one_of(
    st.just(0.0),
    st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.3, 1.5]),
    st.floats(min_value=1e-6, max_value=1e6),
)
WEIGHTS = st.lists(WEIGHT, min_size=1, max_size=12).filter(lambda w: sum(w) > 0)


def _generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestDrawIdentity:
    @given(weights=WEIGHTS, seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_bisect_returns_the_index_choice_draws(self, weights, seed):
        w = np.array(weights, dtype=np.float64)
        p = w / w.sum()
        reference, fast = _generators(seed)
        cdf = _choice_cdf(weights)
        assert cdf[-1] == 1.0  # so no uniform in [0, 1) falls past the table
        for _ in range(4):
            assert bisect_right(cdf, fast.random()) == int(reference.choice(len(w), p=p))
        assert fast.bit_generator.state == reference.bit_generator.state

    @given(weights=st.lists(st.floats(), min_size=1, max_size=12), seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_what_choice_rejects_is_rejected(self, weights, seed):
        w = np.array(weights, dtype=np.float64)
        with np.errstate(all="ignore"):  # overflowing sums are part of the domain
            p = w / w.sum()
            try:
                expected = int(np.random.default_rng(seed).choice(len(w), p=p))
            except ValueError:
                with pytest.raises(ValueError):
                    _choice_cdf(weights)
                return
            if (w < 0).any():
                # Stricter than choice: negative weights whose signs cancel
                # out in the normalisation are refused as well.
                with pytest.raises(ValueError):
                    _choice_cdf(weights)
                return
            cdf = _choice_cdf(weights)
        assert bisect_right(cdf, np.random.default_rng(seed).random()) == expected

    @given(k=st.integers(min_value=0, max_value=12), seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_one_vector_draw_equals_k_scalar_draws(self, k, seed):
        vector, scalar = _generators(seed)
        assert vector.random(k).tolist() == [scalar.random() for _ in range(k)]
        assert vector.bit_generator.state == scalar.bit_generator.state

    @given(weights=WEIGHTS, seed=SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_stable_argsort_equals_the_sorted_key(self, weights, seed):
        w = np.array(weights, dtype=np.float64)
        w /= w.sum()
        assert np.array_equal(_probabilities(weights), w)
        reference, fast = _generators(seed)
        order = reference.permutation(len(w))
        expected = sorted(order, key=lambda i: -w[i] * reference.random())
        order = fast.permutation(len(w))
        assert _weighted_order(-w, order, fast.random(len(w))) == [int(i) for i in expected]
        assert fast.bit_generator.state == reference.bit_generator.state


class TestStateTables:
    def test_key_covers_every_field_state_probabilities_reads(self):
        base = CodexConfig()
        competences = (0.05, 0.3, 0.5, 0.7, 0.95)
        for f in dataclasses.fields(CodexConfig):
            value = getattr(base, f.name)
            if not isinstance(value, (int, float)):
                continue
            changed = dataclasses.replace(base, **{f.name: value * 0.9 + 0.05})
            if any(changed.state_probabilities(c) != base.state_probabilities(c)
                   for c in competences):
                assert _STATE_FIELDS(changed) != _STATE_FIELDS(base), f.name

    def test_configs_sharing_a_competence_draw_from_their_own_tables(self):
        configs = (CodexConfig(), CodexConfig(state_temperature=3.0),
                   CodexConfig(fuzzy_center=0.2))
        samplers = [SuggestionSampler(config=config) for config in configs]
        for competence in (0.2, 0.45, 0.8):
            for seed in range(20):
                for sampler in samplers:
                    reference, fast = _generators(seed)
                    probs = sampler.config.state_probabilities(competence)
                    p = np.array(list(probs.values()))
                    expected = list(probs)[int(reference.choice(len(p), p=p / p.sum()))]
                    assert sampler._draw_state(competence, fast) is expected


def _template(model_uid: str, kernel: str = "axpy"):
    return default_corpus(include_mutations=False).template(
        model_uid.split(".")[0], model_uid, kernel
    )


def _grid_prompts() -> list[Prompt]:
    return [Prompt.from_cell(cell) for cell in experiment_grid()]


class TestPlanLifetime:
    def test_a_sweep_builds_each_plan_once_and_sessions_share_them(self, monkeypatch):
        clear_default_corpus_cache()
        builds: Counter = Counter()
        build = sampler_module._build_plan

        def counting(corpus, prompt):
            builds[prompt.cell_id] += 1
            return build(corpus, prompt)

        monkeypatch.setattr(sampler_module, "_build_plan", counting)
        with Session(seed=1) as session:
            session.sweep_seeds([1, 2, 3, 4], languages=["julia"])
        assert set(builds) == {cell.cell_id for cell in experiment_grid(languages=["julia"])}
        assert set(builds.values()) == {1}
        with Session(seed=5) as session:
            session.sweep_seeds([5, 6], languages=["julia"])
        assert set(builds.values()) == {1}

    def test_add_and_extend_drop_the_plans(self):
        corpus = CorpusStore(snippets=[_template("cpp.openmp")])
        sampler = SuggestionSampler(corpus=corpus)
        prompt = Prompt(kernel="axpy", model_uid="cpp.openmp", postfix="function")

        def other_models() -> set[str]:
            labels = set()
            for seed in range(20):
                rng = np.random.default_rng(seed)
                drawn = sampler.sample_for_state(prompt, KnowledgeState.CONFUSED, rng)
                labels |= {s.label_model for s in drawn}
            return labels - {"cpp.openmp", "serial", "none"}

        assert other_models() == set()
        assert corpus.plans
        corpus.add(_template("cpp.cuda"))
        assert not corpus.plans
        assert other_models() == {"cpp.cuda"}
        corpus.extend([_template("cpp.hip")])
        assert not corpus.plans
        assert other_models() == {"cpp.cuda", "cpp.hip"}

    def test_installing_the_extended_grid_swaps_the_plan_table(self):
        stock = _grid_prompts()

        def suggestions() -> list[tuple[str, ...]]:
            engine = SimulatedCodex(seed=3)
            return [engine.complete(prompt).suggestions for prompt in stock]

        before = suggestions()
        stock_corpus = default_corpus(include_mutations=False)
        assert stock_corpus.plans
        install_extended_grid()
        try:
            extended_corpus = default_corpus(include_mutations=False)
            assert extended_corpus is not stock_corpus and not extended_corpus.plans
            assert suggestions() == before
            kokkos = Prompt(kernel="scan", model_uid="python.kokkos", postfix="def")
            template = extended_corpus.template("python", "python.kokkos", "scan")
            assert template is not None
            drawn = SuggestionSampler().sample_for_state(
                kokkos, KnowledgeState.COMPETENT, np.random.default_rng(0)
            )
            assert drawn and all(s is template for s in drawn)
            # Stock python cells keep drawing their confusion from stock models only.
            numba = Prompt(kernel="axpy", model_uid="python.numba", postfix="def")
            others = sampler_module._build_plan(extended_corpus, numba).others
            assert others and all(s.label_model in STOCK_MODEL_UIDS for s in others)
        finally:
            uninstall_extended_grid()
        assert default_corpus(include_mutations=False) is not extended_corpus
        assert suggestions() == before

    def test_each_template_operator_pair_is_applied_at_most_once(self, monkeypatch):
        clear_default_corpus_cache()
        applied: Counter = Counter()
        apply = sampler_module.apply_mutation

        def counting(snippet, name):
            applied[snippet, name] += 1
            return apply(snippet, name)

        monkeypatch.setattr(sampler_module, "apply_mutation", counting)
        prompts = _grid_prompts()
        for seed in (1, 13):
            engine = SimulatedCodex(seed=seed)
            for _ in range(2):
                for prompt in prompts:
                    engine.complete(prompt)
        assert applied and max(applied.values()) == 1
        templates = [s for s in default_corpus(include_mutations=False)
                     if s.origin is SnippetOrigin.TEMPLATE]
        # Lazy: far fewer than the corpus' eager applications.
        assert len(applied) < len(templates) * len(MUTATION_OPERATORS)

    def test_threads_racing_on_one_plan_table_draw_the_serial_suggestions(self):
        prompts = _grid_prompts()
        seeds = range(8)
        serial_corpus = build_default_corpus(include_mutations=False)
        expected = {
            seed: [SimulatedCodex(seed=seed, corpus=serial_corpus).complete(p) for p in prompts]
            for seed in seeds
        }
        shared = build_default_corpus(include_mutations=False)
        barrier = threading.Barrier(len(seeds))
        drawn: dict[int, list] = {}
        errors: list[Exception] = []

        def draw(seed: int) -> None:
            try:
                engine = SimulatedCodex(seed=seed, corpus=shared)
                barrier.wait(10)
                drawn[seed] = [engine.complete(p) for p in prompts]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert drawn == expected

    def test_a_zero_sum_maturity_weighting_raises(self, monkeypatch):
        for uid in STOCK_MODEL_UIDS:
            if uid.startswith("cpp."):
                monkeypatch.setitem(MODEL_MATURITY, uid, 0.0)
        sampler = SuggestionSampler(corpus=build_default_corpus(include_mutations=False))
        prompt = Prompt(kernel="axpy", model_uid="cpp.openmp", postfix="function")
        with pytest.raises(ValueError, match="not all zero"):
            sampler.sample_for_state(prompt, KnowledgeState.CONFUSED, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_a_bad_maturity_weight_raises(self, monkeypatch, bad):
        monkeypatch.setitem(MODEL_MATURITY, "cpp.cuda", bad)
        sampler = SuggestionSampler(corpus=build_default_corpus(include_mutations=False))
        prompt = Prompt(kernel="axpy", model_uid="cpp.openmp", postfix="function")
        with pytest.raises(ValueError):
            sampler.sample_for_state(prompt, KnowledgeState.CONFUSED, np.random.default_rng(0))

"""Tests for the language/model registry, the experiment grid and the priors."""

from __future__ import annotations

import pytest

from repro.kernels.registry import KERNEL_NAMES
from repro.models.grid import ExperimentCell, cells_for_language, experiment_grid, table1_rows
from repro.models.keywords import CUDA_COMMUNITY_KEYWORDS, has_postfix_variant, postfix_keyword
from repro.models.languages import get_language, language_names
from repro.models.programming_models import (
    PROGRAMMING_MODELS,
    ExecutionTarget,
    get_model,
    model_names,
    models_for_language,
)
from repro.popularity.githut import GITHUT_2023_Q1, github_share, relative_code_volume
from repro.popularity.maturity import (
    MaturityModel,
    language_popularity,
    model_maturity,
    scientific_affinity,
)
from repro.popularity.tiobe import TIOBE_2023_APRIL, tiobe_rank, tiobe_rating


class TestLanguages:
    def test_four_languages_in_paper_order(self):
        assert language_names() == ("cpp", "fortran", "python", "julia")

    def test_aliases_resolve(self):
        assert get_language("C++").name == "cpp"
        assert get_language("f90").name == "fortran"
        assert get_language("jl").name == "julia"

    def test_unknown_language(self):
        with pytest.raises(KeyError):
            get_language("rust")

    def test_postfix_keywords_match_paper(self):
        assert postfix_keyword("cpp") == "function"
        assert postfix_keyword("fortran") == "subroutine"
        assert postfix_keyword("python") == "def"
        assert postfix_keyword("julia") == ""

    def test_julia_has_no_postfix_variant(self):
        assert not has_postfix_variant("julia")
        assert has_postfix_variant("cpp")

    def test_prompt_filename_and_comment(self):
        lang = get_language("fortran")
        assert lang.prompt_filename("axpy") == "axpy.f90"
        assert lang.comment("hello") == "! hello"

    def test_cuda_community_keywords(self):
        assert "kernel" in CUDA_COMMUNITY_KEYWORDS
        assert "__global__" in CUDA_COMMUNITY_KEYWORDS


class TestProgrammingModels:
    def test_counts_per_language_match_table1(self):
        assert len(models_for_language("cpp")) == 8
        assert len(models_for_language("fortran")) == 3
        assert len(models_for_language("python")) == 4
        assert len(models_for_language("julia")) == 4
        assert len(PROGRAMMING_MODELS) == 19

    def test_uids_are_language_prefixed(self):
        for uid, model in PROGRAMMING_MODELS.items():
            assert uid.startswith(model.language + ".")
            assert model.short_name == uid.split(".", 1)[1]

    def test_get_model_accepts_space_form(self):
        assert get_model("cpp openmp").uid == "cpp.openmp"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("cpp.mpi")

    def test_detection_markers_present(self):
        for model in PROGRAMMING_MODELS.values():
            assert model.detection_markers, f"{model.uid} has no detection markers"

    def test_gpu_models_target_gpu(self):
        assert get_model("cpp.cuda").target is ExecutionTarget.GPU
        assert get_model("cpp.openmp").target is ExecutionTarget.CPU
        assert get_model("cpp.kokkos").target is ExecutionTarget.BOTH

    def test_model_names_filter(self):
        assert set(model_names("fortran")) == {
            "fortran.openmp",
            "fortran.openmp_offload",
            "fortran.openacc",
        }

    def test_language_display(self):
        assert get_model("julia.cuda").language_display() == "Julia"


class TestExperimentGrid:
    def test_full_grid_size(self):
        # C++: 8 models x 6 kernels x 2 variants = 96; Fortran 36; Python 48; Julia 24.
        assert len(experiment_grid()) == 96 + 36 + 48 + 24

    def test_cells_for_language_variants(self):
        cpp = cells_for_language("cpp")
        assert sum(c.use_postfix for c in cpp) == len(cpp) // 2
        julia = cells_for_language("julia")
        assert all(not c.use_postfix for c in julia)

    def test_cell_properties(self):
        cell = ExperimentCell(language="cpp", model="cpp.openmp", kernel="axpy", use_postfix=True)
        assert cell.postfix == "function"
        assert cell.cell_id == "cpp.openmp:axpy+kw"
        assert "OpenMP" in cell.describe()

    def test_kernel_filter(self):
        cells = cells_for_language("python", kernels=["axpy"])
        assert all(c.kernel == "axpy" for c in cells)
        assert len(cells) == 4 * 2

    def test_every_cell_kernel_is_known(self):
        assert {c.kernel for c in experiment_grid()} == set(KERNEL_NAMES)

    def test_table1_rows(self):
        rows = list(table1_rows())
        assert ("C++", "OpenMP", "offload, function") not in rows  # plain OpenMP has no offload tag
        assert ("C++", "OpenMP offload", "offload, function") in rows
        assert ("Julia", "Threads", "") in rows
        assert len(rows) == 19


class TestPopularityPriors:
    def test_githut_ordering(self):
        assert github_share("python") > github_share("cpp") > github_share("fortran")
        assert github_share("fortran") > 0
        assert github_share("rust") == 0.0

    def test_relative_code_volume_normalised(self):
        assert relative_code_volume("python") == 1.0
        assert 0 < relative_code_volume("julia") < 0.1

    def test_tiobe_ordering(self):
        assert tiobe_rank("python") < tiobe_rank("cpp") < tiobe_rank("fortran") < tiobe_rank("julia")
        assert tiobe_rating("unknown") == 0.0
        assert tiobe_rank("unknown") == 999

    def test_snapshots_cover_all_languages(self):
        assert set(GITHUT_2023_Q1) == set(TIOBE_2023_APRIL) == {"cpp", "fortran", "python", "julia"}

    def test_model_maturity_bounds_and_ordering(self):
        for uid in PROGRAMMING_MODELS:
            assert 0.0 <= model_maturity(uid) <= 1.0
        assert model_maturity("cpp.openmp") > model_maturity("cpp.hip")
        assert model_maturity("python.numpy") > model_maturity("python.numba")
        assert model_maturity("julia.cuda") > model_maturity("julia.amdgpu")

    def test_model_maturity_unknown(self):
        with pytest.raises(KeyError):
            model_maturity("cpp.unknown")

    def test_language_popularity_ordering(self):
        assert language_popularity("python") > language_popularity("cpp")
        assert language_popularity("cpp") > language_popularity("fortran")

    def test_scientific_affinity_favours_domain_languages(self):
        assert scientific_affinity("fortran") > scientific_affinity("cpp")
        assert scientific_affinity("julia") > scientific_affinity("python")

    def test_effective_availability_bounds(self):
        model = MaturityModel()
        for uid, pm in PROGRAMMING_MODELS.items():
            value = model.effective_availability(pm.language, uid)
            assert 0.0 <= value <= 1.0

    def test_effective_availability_override(self):
        model = MaturityModel(overrides={"cpp.hip": 0.99})
        assert model.effective_availability("cpp", "cpp.hip") == pytest.approx(0.99)

    def test_ranking_orders_by_availability(self):
        model = MaturityModel()
        ranking = model.ranking("cpp")
        assert ranking[0][0] == "cpp.openmp"
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

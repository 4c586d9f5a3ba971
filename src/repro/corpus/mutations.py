"""Mutation operators: realistic ways in which suggestions go wrong.

The paper (and the related work it cites) reports recurring failure modes of
Copilot suggestions: code in a *different* programming model than requested,
"further simplified code that relies on undefined functions", incorrect or
incomplete code, and empty or comment-only answers.  Each operator below
implements one such failure mode as a deterministic text transformation of a
correct template, together with the resulting ground-truth labels.

Operators never raise when a pattern does not apply — ``apply`` returns
``None`` so the caller can fall back to a different operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.corpus.snippets import CodeSnippet, SnippetOrigin

__all__ = [
    "MutationOperator",
    "MUTATION_OPERATORS",
    "apply_mutation",
    "available_mutations",
]


# ---------------------------------------------------------------------------
# Helpers shared by the operators
# ---------------------------------------------------------------------------

_DIRECTIVE_PREFIXES = ("#pragma omp", "#pragma acc", "!$omp", "!$acc")


def _flip_plus_on_update_line(code: str) -> str | None:
    """Flip the last ``+`` into ``-`` on the first line that looks like the
    kernel's numerical update (an assignment whose right-hand side multiplies
    two operands and adds a third)."""
    lines = code.splitlines()
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith(("//", "#", "!", "*")) and not stripped.startswith("#pragma"):
            continue
        if "*" not in line:
            continue
        if not re.search(r"(=|\+=)", line):
            continue
        # Only touch lines that combine a product with an addition: the
        # canonical `y = a*x + y`, `sum += A*x`, `u_new = (u+...)/6` shapes.
        rhs = line.split("=", 1)[-1]
        if "+" not in rhs:
            continue
        flipped = line[: len(line) - len(rhs)] + _replace_last(rhs, "+", "-")
        new_lines = list(lines)
        new_lines[idx] = flipped
        return "\n".join(new_lines)
    return None


def _replace_last(text: str, old: str, new: str) -> str:
    pos = text.rfind(old)
    if pos < 0:
        return text
    return text[:pos] + new + text[pos + len(old):]


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------

def _mutate_wrong_operator(snippet: CodeSnippet) -> CodeSnippet | None:
    """Flip a ``+`` to ``-`` in the numerical update: plausible-looking code
    that computes the wrong quantity."""
    mutated = _flip_plus_on_update_line(snippet.code)
    if mutated is None or mutated == snippet.code:
        return None
    return snippet.with_code(
        mutated,
        mutation="wrong_operator",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_off_by_one(snippet: CodeSnippet) -> CodeSnippet | None:
    """Shift a loop's start index by one: the classic off-by-one bug."""
    code = snippet.code
    lang = snippet.language
    mutated: str | None = None
    if lang == "cpp":
        new_code, count = re.subn(
            r"for \(int (\w+) = 0;", r"for (int \1 = 1;", code, count=1
        )
        if count:
            mutated = new_code
        else:
            # CUDA-style guard: weaken `if (i < n)` to `if (i <= n)`.
            new_code, count = re.subn(r"if \((\w+) < (\w+)\)", r"if (\1 <= \2)", code, count=1)
            mutated = new_code if count else None
    elif lang == "fortran":
        new_code, count = re.subn(r"do (\w+) = 1,", r"do \1 = 0,", code, count=1)
        mutated = new_code if count else None
    elif lang == "julia":
        new_code, count = re.subn(r"in 1:(\w+)\b", r"in 0:\1", code, count=1)
        if not count:
            new_code, count = re.subn(r"in eachindex\((\w+)\)", r"in 0:length(\1)", code, count=1)
        mutated = new_code if count else None
    elif lang == "python":
        new_code, count = re.subn(r"range\((\w+)\)", r"range(1, \1 + 1)", code, count=1)
        if not count:
            new_code, count = re.subn(r"prange\((\w+)\)", r"prange(1, \1 + 1)", code, count=1)
        mutated = new_code if count else None
    if mutated is None or mutated == code:
        return None
    return snippet.with_code(
        mutated,
        mutation="off_by_one",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_undefined_helper(snippet: CodeSnippet) -> CodeSnippet | None:
    """Replace the computational core with a call to a function that is never
    defined — the "relies on undefined functions" failure mode."""
    code = snippet.code
    kernel = snippet.kernel
    helper = f"{kernel}_compute_element"
    lines = code.splitlines()
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith(("//", "#", "!", "*")) and not stripped.startswith("#pragma"):
            continue
        match = re.match(r"^(\s*)(\w+(?:\[[^\]]+\]|\([^\)]+\))?)\s*(=|\+=)\s*(.+?)(;?)\s*$", line)
        if not match:
            continue
        indent, lhs, op, rhs, semi = match.groups()
        if "*" not in rhs and "+" not in rhs:
            continue
        if any(tok in rhs for tok in ("blockIdx", "threadIdx", "workitemIdx", "workgroupIdx")):
            # Thread-index bookkeeping is not the computational core.
            continue
        if snippet.language == "python":
            replacement = f"{indent}{lhs} {op} {helper}(i)"
        elif snippet.language == "fortran":
            replacement = f"{indent}{lhs} {op} {helper}(i)"
        elif snippet.language == "julia":
            replacement = f"{indent}{lhs} {op} {helper}(i)"
        else:
            replacement = f"{indent}{lhs} {op} {helper}(i){semi or ';'}"
        new_lines = list(lines)
        new_lines[idx] = replacement
        return snippet.with_code(
            "\n".join(new_lines),
            mutation="undefined_helper",
            label_correct=False,
            origin=SnippetOrigin.MUTATION,
        )
    return None


def _mutate_drop_parallelism(snippet: CodeSnippet) -> CodeSnippet | None:
    """Remove the parallel construct, leaving serial (but numerically correct)
    code: a frequent Copilot failure for parallel-model prompts."""
    code = snippet.code
    lines = code.splitlines()
    changed = False
    new_lines: list[str] = []
    for line in lines:
        stripped = line.strip()
        if any(stripped.startswith(prefix) for prefix in _DIRECTIVE_PREFIXES):
            changed = True
            continue
        if stripped.startswith("@njit") or stripped.startswith("@jit") or stripped.startswith("@cuda.jit"):
            changed = True
            continue
        if "Threads.@threads " in line:
            new_lines.append(line.replace("Threads.@threads ", ""))
            changed = True
            continue
        new_lines.append(line)
    if not changed:
        return None
    mutated = "\n".join(new_lines)
    # Numba code without the decorator still imports numba, so strip the
    # import as well to make it a genuinely serial suggestion.
    mutated = re.sub(r"^from numba import .*$", "", mutated, flags=re.MULTILINE)
    mutated = re.sub(r"^import numba.*$", "", mutated, flags=re.MULTILINE)
    mutated = mutated.replace("prange(", "range(")
    from dataclasses import replace as _replace

    # Python code stripped of its JIT/GPU constructs degenerates to plain
    # numpy, which the paper treats as a model of its own; elsewhere the
    # result is serial code with no recognisable parallel model.
    fallback_model = "python.numpy" if snippet.language == "python" else "serial"
    return _replace(
        snippet,
        code=mutated,
        mutation="drop_parallelism",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
        label_model=fallback_model,
    )


def _mutate_truncate(snippet: CodeSnippet) -> CodeSnippet | None:
    """Cut the suggestion off mid-way, as an interrupted completion would be."""
    lines = [ln for ln in snippet.code.splitlines()]
    body_lines = [ln for ln in lines if ln.strip()]
    if len(body_lines) < 6:
        return None
    cut = max(3, int(len(lines) * 0.55))
    mutated = "\n".join(lines[:cut])
    if mutated == snippet.code:
        return None
    return snippet.with_code(
        mutated,
        mutation="truncate",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


#: ``int i = blockIdx.x * blockDim.x + threadIdx.x;`` — the canonical
#: global-lane-index computation in the embedded CUDA-C templates.
_CUDA_LANE_DECL_RE = re.compile(
    r"int\s+(\w+)\s*=\s*blockIdx\.\w+\s*\*\s*blockDim\.\w+\s*\+\s*threadIdx\.\w+\s*;"
)


def _mutate_race_injection(snippet: CodeSnippet) -> CodeSnippet | None:
    """Turn a per-lane store into a fixed-index store: every thread now
    writes element 0, a classic write-write race.  The result is still
    syntactically valid CUDA and usually numerically wrong only in the
    raced element, which makes it a good adversarial case for the static
    hazard analyzer (the lockstep runtime catches it as a cross-lane-write
    or duplicate-scatter hazard and falls back to the scalar sweep)."""
    if snippet.language != "python":
        return None
    code = snippet.code
    if "RawKernel" not in code and "SourceModule" not in code:
        return None
    if snippet.kernel == "cg":
        # CG re-launches its kernel ~1000x per solve; with the race injected
        # every launch takes the scalar-sweep fallback, which makes sandbox
        # evaluation of this mutant disproportionately slow.
        return None
    lane_match = _CUDA_LANE_DECL_RE.search(code)
    if lane_match is None:
        return None
    lane = lane_match.group(1)
    store_re = re.compile(r"(\w+)\[" + re.escape(lane) + r"\](\s*)(\+?=)(?!=)")
    mutated, count = store_re.subn(r"\g<1>[0]\g<2>\g<3>", code, count=1)
    if not count or mutated == code:
        return None
    return snippet.with_code(
        mutated,
        mutation="race_injection",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_reduction_order(snippet: CodeSnippet) -> CodeSnippet | None:
    """Reverse the scan accumulation direction: the inclusive prefix sum
    becomes a suffix sum.  The code still looks like a perfectly reasonable
    reduction loop — the classic "wrong reduction order" parallelization bug
    — and is race-free, so only the numerical oracle catches it."""
    if snippet.kernel != "scan":
        return None
    code = snippet.code
    mutated: str | None = None
    new_code, count = re.subn(
        r"for \(int j = 0; j <= i; j\+\+\)", "for (int j = i; j < n; j++)", code, count=1
    )
    if count:
        mutated = new_code
    else:
        new_code, count = re.subn(
            r"for j in range\(i \+ 1\):", "for j in range(i, x.shape[0]):", code, count=1
        )
        if count:
            mutated = new_code
        elif "np.cumsum(x)" in code:
            mutated = code.replace("np.cumsum(x)", "np.cumsum(x[::-1])[::-1]", 1)
    if mutated is None or mutated == code:
        return None
    return snippet.with_code(
        mutated,
        mutation="reduction_order",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_drop_atomic(snippet: CodeSnippet) -> CodeSnippet | None:
    """Replace the atomic histogram increment with a plain store: the
    lost-update bug.  The rewritten code sets ``hist[b] = 1.0`` instead of
    accumulating, so it is numerically wrong even under the serialized
    sandbox semantics — exactly like the real lost-update races that only
    *look* correct until two threads hit the same bin."""
    if snippet.kernel != "histogram":
        return None
    code = snippet.code
    mutated: str | None = None
    # The bin index is itself an indexed load (``hist[bins[i]]``), so the
    # index group must admit one level of nested brackets.
    index = r"((?:[^\[\]]|\[[^\]]*\])+)"
    new_code, count = re.subn(
        rf"atomicAdd\(&(\w+)\[{index}\], ([^)]+)\);", r"\1[\2] = \3;", code, count=1
    )
    if count:
        mutated = new_code
    else:
        new_code, count = re.subn(
            rf"pk\.atomic_add\((\w+), \[{index}\], ([^)]+)\)", r"\1[\2] = \3", code, count=1
        )
        if count:
            mutated = new_code
    if mutated is None or mutated == code:
        return None
    return snippet.with_code(
        mutated,
        mutation="drop_atomic",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_bounds_off_by_one(snippet: CodeSnippet) -> CodeSnippet | None:
    """Weaken the CUDA guard ``if (i < n)`` to ``if (i <= n)``: the halo /
    bounds off-by-one that sends exactly one lane out of bounds.  Restricted
    to the parallel kernel families whose geometry profiles give the static
    analyzer concrete buffer sizes, so the mutant is provably ``HAZARD``
    (the lane-index range leaves ``[0, size)`` and every value is attained)."""
    if snippet.kernel not in ("scan", "histogram") or snippet.language != "python":
        return None
    code = snippet.code
    if "RawKernel" not in code and "SourceModule" not in code:
        return None
    mutated, count = re.subn(r"if \((\w+) < (\w+)\)", r"if (\1 <= \2)", code, count=1)
    if not count or mutated == code:
        return None
    return snippet.with_code(
        mutated,
        mutation="bounds_off_by_one",
        label_correct=False,
        origin=SnippetOrigin.MUTATION,
    )


def _mutate_comment_only(snippet: CodeSnippet) -> CodeSnippet | None:
    """Replace the code with a restatement of the prompt as a comment — the
    "no code at all" answer."""
    prefix = {"cpp": "//", "fortran": "!", "python": "#", "julia": "#"}.get(snippet.language, "//")
    text = (
        f"{prefix} {snippet.kernel.upper()} implementation\n"
        f"{prefix} TODO: implement {snippet.kernel} here\n"
    )
    return CodeSnippet(
        code=text,
        language=snippet.language,
        kernel=snippet.kernel,
        label_model="none",
        label_correct=False,
        origin=SnippetOrigin.NON_CODE,
        mutation="comment_only",
        metadata=dict(snippet.metadata),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MutationOperator:
    """A named corruption operator."""

    name: str
    description: str
    func: Callable[[CodeSnippet], CodeSnippet | None]
    #: Relative frequency among incorrect suggestions (used by the sampler).
    weight: float = 1.0

    def apply(self, snippet: CodeSnippet) -> CodeSnippet | None:
        """Apply to ``snippet``; return None when the operator does not apply."""
        return self.func(snippet)


MUTATION_OPERATORS: dict[str, MutationOperator] = {
    op.name: op
    for op in [
        MutationOperator(
            name="wrong_operator",
            description="plausible code computing the wrong expression (sign flip)",
            func=_mutate_wrong_operator,
            weight=1.5,
        ),
        MutationOperator(
            name="off_by_one",
            description="loop bounds shifted by one",
            func=_mutate_off_by_one,
            weight=1.2,
        ),
        MutationOperator(
            name="undefined_helper",
            description="computation delegated to a function that is never defined",
            func=_mutate_undefined_helper,
            weight=1.0,
        ),
        MutationOperator(
            name="drop_parallelism",
            description="serial code with the parallel construct removed",
            func=_mutate_drop_parallelism,
            weight=1.3,
        ),
        MutationOperator(
            name="race_injection",
            description="per-lane CUDA store rewritten to a fixed index (write-write race)",
            func=_mutate_race_injection,
            weight=0.6,
        ),
        MutationOperator(
            name="reduction_order",
            description="scan accumulation reversed (prefix sum becomes suffix sum)",
            func=_mutate_reduction_order,
            weight=0.9,
        ),
        MutationOperator(
            name="drop_atomic",
            description="atomic histogram increment replaced by a plain store (lost update)",
            func=_mutate_drop_atomic,
            weight=0.9,
        ),
        MutationOperator(
            name="bounds_off_by_one",
            description="CUDA guard weakened from < to <= (one lane out of bounds)",
            func=_mutate_bounds_off_by_one,
            weight=0.6,
        ),
        MutationOperator(
            name="truncate",
            description="completion cut off before the code is finished",
            func=_mutate_truncate,
            weight=0.8,
        ),
        MutationOperator(
            name="comment_only",
            description="no code, only a comment restating the prompt",
            func=_mutate_comment_only,
            weight=0.7,
        ),
    ]
}


def available_mutations(snippet: CodeSnippet) -> list[str]:
    """Names of the operators that actually apply to ``snippet``."""
    names = []
    for name, op in MUTATION_OPERATORS.items():
        if op.apply(snippet) is not None:
            names.append(name)
    return names


def apply_mutation(snippet: CodeSnippet, name: str) -> CodeSnippet | None:
    """Apply operator ``name`` to ``snippet`` (None when it does not apply)."""
    if name not in MUTATION_OPERATORS:
        raise KeyError(f"unknown mutation operator {name!r}; known: {', '.join(MUTATION_OPERATORS)}")
    return MUTATION_OPERATORS[name].apply(snippet)

"""Structural and semantic checks for C-like suggestions (C++, CUDA, HIP,
Kokkos, Thrust, SyCL).

The checks are deliberately conservative: they verify properties that every
idiomatic correct implementation of the kernel exhibits and that the
realistic failure modes (sign flips, off-by-one bounds, undefined helper
calls, truncated completions) violate.  They are *not* a compiler — a
suggestion passing these checks corresponds to the paper's human judgement
"this looks like a correct kernel in the requested model".
"""

from __future__ import annotations

import re

from .lexical import (
    balanced_delimiters,
    normalize_whitespace,
    strip_c_comments,
    strip_string_literals,
)

__all__ = ["check_structure", "check_kernel_semantics"]


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_structure(code: str) -> list[str]:
    """Generic structural sanity of a C-like suggestion."""
    issues: list[str] = []
    cleaned = strip_string_literals(strip_c_comments(code))
    if not balanced_delimiters(cleaned):
        issues.append("unbalanced braces/brackets (truncated or malformed code)")
    if not re.search(r"[;{}]", cleaned):
        issues.append("no statements found")
    return issues


def _check_thread_index(norm: str) -> list[str]:
    """GPU thread-index sanity: ``blockIdx * blockDim + threadIdx`` shape.

    Every global-index assignment that references ``blockIdx`` must have the
    canonical affine form; a single malformed one (sign flip, missing term)
    makes that thread dimension address the wrong elements.
    """
    issues: list[str] = []
    for stmt in re.findall(r"\w+ = [^;{]*blockIdx\.[^;{]*;", norm):
        if not re.search(
            r"(blockIdx\.(\w) \* blockDim\.\2 \+ threadIdx\.\2|blockDim\.(\w) \* blockIdx\.\3 \+ threadIdx\.\3)",
            stmt,
        ):
            issues.append("malformed GPU thread-index computation")
            break
    return issues


def _check_loop_bounds(norm: str, kernel: str) -> list[str]:
    """Loop-bound sanity.

    For the dense/sparse kernels every counted ``for`` loop with a literal
    start must begin at 0; for the Jacobi stencil the spatial loops must
    begin at 1 (interior points only).  CUDA-style guards must be strict
    (``i < n``), not inclusive.
    """
    issues: list[str] = []
    starts = [int(m) for m in re.findall(r"for \( ?int \w+ = (\d+) ?;", norm)]
    expected_start = 1 if kernel == "jacobi" else 0
    for start in starts:
        if start != expected_start:
            issues.append(f"loop starts at {start}, expected {expected_start}")
            break
    # Guard of the form `if (i <= n)` over-runs the array by one element.
    if re.search(r"if \( ?\w+ <= [a-zA-Z_]\w* ?\)", norm) and kernel != "jacobi":
        issues.append("inclusive bound guard (off-by-one)")
    return issues


# ---------------------------------------------------------------------------
# Kernel-specific semantic patterns
# ---------------------------------------------------------------------------

_IDX = r"[\[\(] ?\w+ ?[\]\)]"  # [i] or (i)


def _axpy_ok(norm: str) -> bool:
    patterns = (
        rf"y ?{_IDX} ?= a \* x ?{_IDX} ?\+ y ?{_IDX}",
        rf"y ?{_IDX} ?\+= a \* x ?{_IDX}",
        rf"y ?{_IDX} ?= y ?{_IDX} ?\+ a \* x ?{_IDX}",
        r"return a \* x \+ y",          # functor / lambda style (Thrust)
        r"y_acc\[i\] = a \* x_acc\[i\] \+ y_acc\[i\]",  # SyCL accessor style
    )
    return any(re.search(p, norm) for p in patterns)


def _gemv_ok(norm: str) -> bool:
    acc_patterns = (
        r"\+= A\w* ?\[ ?i \* n \+ j ?\] \* x\w* ?\[ ?j ?\]",
        r"\+= A ?\( ?i ?, ?j ?\) \* x ?\( ?j ?\)",
        r"\+= A ?\[ ?i ?\] ?\[ ?j ?\] \* x ?\[ ?j ?\]",
    )
    return any(re.search(p, norm) for p in acc_patterns)


def _gemm_ok(norm: str) -> bool:
    acc_patterns = (
        r"\+= A\w* ?\[ ?i \* k \+ l ?\] \* B\w* ?\[ ?l \* n \+ j ?\]",
        r"\+= A ?\( ?i ?, ?l ?\) \* B ?\( ?l ?, ?j ?\)",
        r"\+= A ?\[ ?i ?\] ?\[ ?l ?\] \* B ?\[ ?l ?\] ?\[ ?j ?\]",
    )
    return any(re.search(p, norm) for p in acc_patterns)


def _spmv_ok(norm: str) -> bool:
    has_row_loop = bool(
        re.search(r"= (row_ptr|rp)\w* ?[\[\(] ?i ?[\]\)] ?; \w+ < (row_ptr|rp)\w* ?[\[\(] ?i \+ 1 ?[\]\)]", norm)
    )
    has_accumulation = bool(
        re.search(r"\+= (values|v)\w* ?[\[\(] ?j ?[\]\)] \* x\w* ?[\[\(] ?(col_idx|ci)\w* ?[\[\(] ?j ?[\]\)] ?[\]\)]", norm)
    )
    return has_row_loop and has_accumulation


def _jacobi_ok(norm: str) -> bool:
    # Locate the stencil assignment and verify it averages six neighbour
    # reads of u with five additions and a division by 6.
    match = re.search(r"\w*u\w* ?(\[[^=]*\]|\([^=]*\)) ?= \((.*?)\) / 6", norm)
    if not match:
        return False
    expr = match.group(2)
    neighbour_reads = len(re.findall(r"u\w* ?[\[\(]", expr))
    plus_count = expr.count("+")
    if neighbour_reads < 6 or plus_count < 5:
        return False
    # When a linearised index variable is used it must be well-formed.
    idx_match = re.search(r"int \w+ = (i \* n \* n[^;]*);", norm)
    if idx_match and idx_match.group(1).strip() != "i * n * n + j * n + k":
        return False
    return True


def _cg_ok(norm: str) -> bool:
    # (1) a matrix-vector accumulation against the search direction p
    has_matvec = bool(
        re.search(r"\+= \w*A\w* ?(\[ ?i \* n \+ j ?\]|\( ?i ?, ?j ?\)) \* \w*p\w* ?[\[\(] ?j ?[\]\)]", norm)
    )
    # (2) the residual dot product appears at least twice (before the loop
    #     and when computing rsnew inside it)
    residual_dots = len(re.findall(r"r\w* ?[\[\(] ?i ?[\]\)] \* r\w* ?[\[\(] ?i ?[\]\)]", norm))
    residual_dots += len(re.findall(r"inner_product ?\( ?r\.begin", norm))
    residual_dots += len(re.findall(r"device_dot ?\( ?n ?, ?d_r ?, ?d_r", norm))
    residual_dots += len(re.findall(r"dot ?\( ?r ?, ?r ?\)", norm))
    # (3) the solution update x += alpha * p
    has_x_update = bool(
        re.search(r"x\w* ?[\[\(] ?i ?[\]\)] ?(\+=|= \w*x\w* ?[\[\(] ?i ?[\]\)] ?\+) ?alpha \* \w*p", norm)
        or re.search(r"axpy_kernel ?<<<[^>]*>>> ?\( ?n ?, ?alpha ?, ?d_p ?, ?d_x ?\)", norm)
        or re.search(r"hipLaunchKernelGGL ?\( ?axpy_kernel[^;]*alpha ?, ?d_p ?, ?d_x ?\)", norm)
        or re.search(r"transform ?\( ?p\.begin[^;]*saxpy_functor ?\( ?alpha ?\)", norm)
    )
    # (4) the search-direction update p = r + beta * p
    has_p_update = bool(
        re.search(r"p\w* ?[\[\(] ?i ?[\]\)] ?= r\w* ?[\[\(] ?i ?[\]\)] ?\+ beta \* p", norm)
        or re.search(r"xpby_kernel", norm)
        or re.search(r"xpby_functor ?\( ?beta ?\)", norm)
    )
    # (5) alpha computed as a Rayleigh-style quotient
    has_alpha = bool(re.search(r"alpha = rsold / ", norm))
    score = sum((has_matvec, residual_dots >= 2, has_x_update, has_p_update, has_alpha))
    return score >= 5


_KERNEL_CHECKS = {
    "axpy": _axpy_ok,
    "gemv": _gemv_ok,
    "gemm": _gemm_ok,
    "spmv": _spmv_ok,
    "jacobi": _jacobi_ok,
    "cg": _cg_ok,
}


def check_kernel_semantics(code: str, kernel: str) -> list[str]:
    """Kernel-specific semantic checks; returns a list of issues (empty = ok)."""
    kernel = kernel.lower()
    if kernel not in _KERNEL_CHECKS:
        raise KeyError(f"no C-like semantic check for kernel {kernel!r}")
    cleaned = strip_string_literals(strip_c_comments(code))
    norm = normalize_whitespace(cleaned)
    issues: list[str] = []
    issues.extend(_check_thread_index(norm))
    issues.extend(_check_loop_bounds(norm, kernel))
    if not _KERNEL_CHECKS[kernel](norm):
        issues.append(f"characteristic {kernel} update expression not found or malformed")
    return issues

"""Structural and semantic checks for Julia suggestions."""

from __future__ import annotations

import re

from .lexical import normalize_whitespace, strip_line_comments, strip_string_literals

__all__ = ["check_structure", "check_kernel_semantics"]

_BLOCK_OPENERS = ("function ", "for ", "while ", "if ", "begin", "let ", "struct ", "module ")


def _clean(code: str) -> str:
    return strip_string_literals(strip_line_comments(code, "#"))


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_structure(code: str) -> list[str]:
    """Every block opener (`function`, `for`, `if`, ...) must have its `end`."""
    issues: list[str] = []
    cleaned = _clean(code)
    opens = 0
    closes = 0
    for raw_line in cleaned.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        # Macro-decorated definitions, e.g. `@kernel function foo!(...)` or
        # namespaced macros such as `Threads.@threads for ...`.
        line_wo_macros = re.sub(r"^((?:\w[\w.]*\.)?@[\w.!]+\s+)+", "", line)
        if line_wo_macros.startswith(_BLOCK_OPENERS):
            opens += 1
        if re.fullmatch(r"end", line) or re.match(r"end\b(?!\w)", line) and not line.startswith("end if"):
            closes += 1
    if opens != closes:
        issues.append(f"unbalanced begin/end blocks ({opens} openers vs {closes} ends)")
    if "function" not in cleaned:
        issues.append("no function definition found")
    if not re.search(r"[\w\]]\s*=", cleaned) and "return" not in cleaned:
        issues.append("no statements found")
    return issues


def _check_thread_index(norm: str) -> list[str]:
    """Every global-index assignment must have the canonical affine form."""
    issues: list[str] = []
    for stmt in re.findall(r"\w+ = [^\n]*?blockIdx\(\)[^\n]*?(?= \w+ =|$| if | for | return )", norm):
        if not re.search(r"\* blockDim\(\)\.(\w) \+ threadIdx\(\)\.\1", stmt):
            issues.append("malformed CUDA.jl thread-index computation")
            break
    for stmt in re.findall(r"\w+ = [^\n]*?workgroupIdx\(\)[^\n]*?(?= \w+ =|$| if | for | return )", norm):
        if not re.search(r"\* workgroupDim\(\)\.(\w) \+ workitemIdx\(\)\.\1", stmt):
            issues.append("malformed AMDGPU.jl work-item index computation")
            break
    return issues


def _check_loop_bounds(norm: str, kernel: str) -> list[str]:
    """Literal range starts must be 1 (2 for the Jacobi interior loops)."""
    issues: list[str] = []
    expected = 2 if kernel == "jacobi" else 1
    for start in re.findall(r"in (\d+) ?:", norm):
        if int(start) != expected:
            issues.append(f"range starts at {start}, expected {expected}")
            break
    if re.search(r"in 0 ?:", norm):
        issues.append("zero-based range in 1-based Julia code")
    return issues


# ---------------------------------------------------------------------------
# Kernel-specific semantic patterns
# ---------------------------------------------------------------------------

def _axpy_ok(norm: str) -> bool:
    return bool(
        re.search(r"y\[i\] = a \* x\[i\] \+ y\[i\]", norm)
        or re.search(r"y\[i\] \+= a \* x\[i\]", norm)
        or re.search(r"y \.= a \.\* x \.\+ y", norm)
        or re.search(r"y \.\+= a \.\* x", norm)
    )


def _gemv_ok(norm: str) -> bool:
    return bool(
        re.search(r"s \+= A\[i ?, ?j\] \* x\[j\]", norm)
        or re.search(r"y = A \* x", norm)
        or re.search(r"mul!\(y ?, ?A ?, ?x\)", norm)
    )


def _gemm_ok(norm: str) -> bool:
    return bool(
        re.search(r"s \+= A\[i ?, ?l\] \* B\[l ?, ?j\]", norm)
        or re.search(r"C = A \* B", norm)
        or re.search(r"mul!\(C ?, ?A ?, ?B\)", norm)
    )


def _spmv_ok(norm: str) -> bool:
    has_row_loop = bool(re.search(r"for j in row_ptr\[i\] ?: ?\(?row_ptr\[i \+ 1\] - 1\)?", norm))
    has_acc = bool(re.search(r"s \+= values\[j\] \* x\[col_idx\[j\]\]", norm))
    return has_row_loop and has_acc


def _jacobi_ok(norm: str) -> bool:
    match = re.search(r"u_new\[i ?, ?j ?, ?k\] = \((.*?)\) / 6", norm)
    if not match:
        return False
    expr = match.group(1)
    reads = len(re.findall(r"u\[", expr))
    return reads >= 6 and expr.count("+") >= 5


def _cg_ok(norm: str) -> bool:
    has_matvec = bool(
        re.search(r"s \+= A\[i ?, ?j\] \* p\[j\]", norm)
        or re.search(r"Ap = A\w* \* p", norm)
    )
    residual_dots = len(re.findall(r"dot\(r ?, ?r\)", norm))
    has_x_update = bool(
        re.search(r"x \.\+= alpha \.\* p", norm) or re.search(r"x\[i\] \+= alpha \* p\[i\]", norm)
    )
    has_p_update = bool(
        re.search(r"p \.= r \.\+ \(rsnew / rsold\) \.\* p", norm)
        or re.search(r"p\[i\] = r\[i\] \+ beta \* p\[i\]", norm)
    )
    has_alpha = bool(re.search(r"alpha = rsold / ", norm))
    return sum((has_matvec, residual_dots >= 2, has_x_update, has_p_update, has_alpha)) >= 5


_KERNEL_CHECKS = {
    "axpy": _axpy_ok,
    "gemv": _gemv_ok,
    "gemm": _gemm_ok,
    "spmv": _spmv_ok,
    "jacobi": _jacobi_ok,
    "cg": _cg_ok,
}


def check_kernel_semantics(code: str, kernel: str) -> list[str]:
    """Kernel-specific semantic checks for Julia code."""
    kernel = kernel.lower()
    if kernel not in _KERNEL_CHECKS:
        raise KeyError(f"no Julia semantic check for kernel {kernel!r}")
    norm = normalize_whitespace(_clean(code))
    issues: list[str] = []
    issues.extend(_check_thread_index(norm))
    issues.extend(_check_loop_bounds(norm, kernel))
    if not _KERNEL_CHECKS[kernel](norm):
        issues.append(f"characteristic {kernel} update expression not found or malformed")
    return issues

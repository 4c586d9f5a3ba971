"""Structural and semantic checks for Fortran suggestions."""

from __future__ import annotations

import re

from .lexical import normalize_whitespace, strip_line_comments

__all__ = ["check_structure", "check_kernel_semantics"]


def _clean(code: str) -> str:
    """Strip comments (keeping directive sentinels) and join continuation lines."""
    code = strip_line_comments(code, "!")
    # Join free-form continuation lines (trailing '&').
    code = re.sub(r"&\s*\n\s*", " ", code)
    return code


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_structure(code: str) -> list[str]:
    """Block-structure sanity: every ``do``/``if``/``subroutine`` is closed."""
    issues: list[str] = []
    cleaned = _clean(code)
    lowered = cleaned.lower()
    do_opens = len(re.findall(r"^\s*do\s+\w+\s*=", lowered, flags=re.MULTILINE))
    do_closes = len(re.findall(r"^\s*end\s*do\b", lowered, flags=re.MULTILINE))
    if do_opens != do_closes:
        issues.append(f"unbalanced do/end do blocks ({do_opens} vs {do_closes})")
    sub_opens = len(re.findall(r"^\s*subroutine\s+\w+", lowered, flags=re.MULTILINE))
    sub_closes = len(re.findall(r"^\s*end\s*subroutine\b", lowered, flags=re.MULTILINE))
    func_opens = len(re.findall(r"^\s*(?:pure\s+)?function\s+\w+", lowered, flags=re.MULTILINE))
    func_closes = len(re.findall(r"^\s*end\s*function\b", lowered, flags=re.MULTILINE))
    if sub_opens != sub_closes or func_opens != func_closes:
        issues.append("unterminated subroutine/function")
    if sub_opens + func_opens == 0:
        issues.append("no subroutine or function definition found")
    if_opens = len(re.findall(r"\bif\b[^\n]*\bthen\b", lowered))
    if_closes = len(re.findall(r"^\s*end\s*if\b", lowered, flags=re.MULTILINE))
    if if_opens != if_closes:
        issues.append(f"unbalanced if/end if blocks ({if_opens} vs {if_closes})")
    return issues


def _check_loop_bounds(norm: str, kernel: str) -> list[str]:
    """Counted ``do`` loops must start at 1 (2 for the Jacobi interior)."""
    issues: list[str] = []
    expected = 2 if kernel == "jacobi" else 1
    for start in re.findall(r"do \w+ = (\d+) ?,", norm):
        if int(start) != expected:
            issues.append(f"do loop starts at {start}, expected {expected}")
            break
    return issues


# ---------------------------------------------------------------------------
# Kernel-specific semantic patterns
# ---------------------------------------------------------------------------

def _axpy_ok(norm: str) -> bool:
    return bool(
        re.search(r"y\(i\) = a \* x\(i\) \+ y\(i\)", norm)
        or re.search(r"y\(i\) = y\(i\) \+ a \* x\(i\)", norm)
    )


def _gemv_ok(norm: str) -> bool:
    return bool(re.search(r"sum = sum \+ A\(i ?, ?j\) \* x\(j\)", norm, flags=re.IGNORECASE))


def _gemm_ok(norm: str) -> bool:
    return bool(re.search(r"sum = sum \+ A\(i ?, ?l\) \* B\(l ?, ?j\)", norm, flags=re.IGNORECASE))


def _spmv_ok(norm: str) -> bool:
    has_row_loop = bool(re.search(r"do j = row_ptr\(i\) ?, ?row_ptr\(i \+ 1\) - 1", norm))
    has_acc = bool(re.search(r"sum = sum \+ values\(j\) \* x\(col_idx\(j\)\)", norm))
    return has_row_loop and has_acc


def _jacobi_ok(norm: str) -> bool:
    match = re.search(r"u_new\(i ?, ?j ?, ?k\) = \((.*?)\) / 6", norm)
    if not match:
        return False
    expr = match.group(1)
    reads = len(re.findall(r"u\(", expr))
    return reads >= 6 and expr.count("+") >= 5


def _cg_ok(norm: str) -> bool:
    has_matvec = bool(re.search(r"sum = sum \+ A\(i ?, ?j\) \* p\(j\)", norm, flags=re.IGNORECASE))
    residual_dots = len(re.findall(r"rs\w+ = rs\w+ \+ r\(i\) \* r\(i\)", norm))
    has_x_update = bool(re.search(r"x\(i\) = x\(i\) \+ alpha \* p\(i\)", norm))
    has_p_update = bool(re.search(r"p\(i\) = r\(i\) \+ beta \* p\(i\)", norm))
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
    """Kernel-specific semantic checks for Fortran code."""
    kernel = kernel.lower()
    if kernel not in _KERNEL_CHECKS:
        raise KeyError(f"no Fortran semantic check for kernel {kernel!r}")
    norm = normalize_whitespace(_clean(code))
    issues: list[str] = []
    issues.extend(_check_loop_bounds(norm, kernel))
    if not _KERNEL_CHECKS[kernel](norm):
        issues.append(f"characteristic {kernel} update expression not found or malformed")
    return issues

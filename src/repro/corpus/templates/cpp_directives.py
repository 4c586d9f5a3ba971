"""C++ templates for the directive-based models: OpenMP, OpenMP offload, OpenACC.

The three models share the same serial loop nests and differ only in the
directives placed on them, which is exactly how such code appears in public
repositories (the same textbook loop with a different pragma).  A small
builder keeps the loop bodies in one place; the emitted code for each model
is a complete, self-contained C++ translation unit.
"""

from __future__ import annotations

__all__ = ["TEMPLATES"]


def _axpy(pragma: str, extra_header: str = "") -> str:
    return f"""#include <cstddef>
{extra_header}
// AXPY: y = a * x + y
void axpy(int n, double a, const double *x, double *y)
{{
    {pragma}
    for (int i = 0; i < n; i++) {{
        y[i] = a * x[i] + y[i];
    }}
}}
"""


def _gemv(pragma: str, extra_header: str = "") -> str:
    return f"""#include <cstddef>
{extra_header}
// GEMV: y = A * x for a dense row-major m x n matrix
void gemv(int m, int n, const double *A, const double *x, double *y)
{{
    {pragma}
    for (int i = 0; i < m; i++) {{
        double sum = 0.0;
        for (int j = 0; j < n; j++) {{
            sum += A[i * n + j] * x[j];
        }}
        y[i] = sum;
    }}
}}
"""


def _gemm(pragma_collapse: str, extra_header: str = "") -> str:
    return f"""#include <cstddef>
{extra_header}
// GEMM: C = A * B for dense row-major matrices (m x k) * (k x n)
void gemm(int m, int n, int k, const double *A, const double *B, double *C)
{{
    {pragma_collapse}
    for (int i = 0; i < m; i++) {{
        for (int j = 0; j < n; j++) {{
            double sum = 0.0;
            for (int l = 0; l < k; l++) {{
                sum += A[i * k + l] * B[l * n + j];
            }}
            C[i * n + j] = sum;
        }}
    }}
}}
"""


def _spmv(pragma: str, extra_header: str = "") -> str:
    return f"""#include <cstddef>
{extra_header}
// SpMV: y = A * x for a CSR matrix with n rows
void spmv(int n, const int *row_ptr, const int *col_idx, const double *values,
          const double *x, double *y)
{{
    {pragma}
    for (int i = 0; i < n; i++) {{
        double sum = 0.0;
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {{
            sum += values[j] * x[col_idx[j]];
        }}
        y[i] = sum;
    }}
}}
"""


def _jacobi(pragma_collapse: str, extra_header: str = "") -> str:
    return f"""#include <cstddef>
{extra_header}
// 3D Jacobi stencil sweep on an n x n x n grid with fixed boundaries
void jacobi(int n, const double *u, double *u_new)
{{
    {pragma_collapse}
    for (int i = 1; i < n - 1; i++) {{
        for (int j = 1; j < n - 1; j++) {{
            for (int k = 1; k < n - 1; k++) {{
                int idx = i * n * n + j * n + k;
                u_new[idx] = (u[(i - 1) * n * n + j * n + k] +
                              u[(i + 1) * n * n + j * n + k] +
                              u[i * n * n + (j - 1) * n + k] +
                              u[i * n * n + (j + 1) * n + k] +
                              u[i * n * n + j * n + (k - 1)] +
                              u[i * n * n + j * n + (k + 1)]) / 6.0;
            }}
        }}
    }}
}}
"""


def _cg(pragma: str, pragma_reduction: str, extra_header: str = "") -> str:
    return f"""#include <cmath>
#include <vector>
{extra_header}
// Conjugate gradient solve of A x = b for a dense SPD n x n matrix
void cg(int n, const double *A, const double *b, double *x, int max_iter, double tol)
{{
    std::vector<double> r(n), p(n), Ap(n);
    for (int i = 0; i < n; i++) {{
        x[i] = 0.0;
        r[i] = b[i];
        p[i] = r[i];
    }}
    double rsold = 0.0;
    {pragma_reduction.replace("REDVAR", "rsold")}
    for (int i = 0; i < n; i++) {{
        rsold += r[i] * r[i];
    }}
    for (int iter = 0; iter < max_iter; iter++) {{
        {pragma}
        for (int i = 0; i < n; i++) {{
            double sum = 0.0;
            for (int j = 0; j < n; j++) {{
                sum += A[i * n + j] * p[j];
            }}
            Ap[i] = sum;
        }}
        double pAp = 0.0;
        {pragma_reduction.replace("REDVAR", "pAp")}
        for (int i = 0; i < n; i++) {{
            pAp += p[i] * Ap[i];
        }}
        double alpha = rsold / pAp;
        {pragma}
        for (int i = 0; i < n; i++) {{
            x[i] += alpha * p[i];
            r[i] -= alpha * Ap[i];
        }}
        double rsnew = 0.0;
        {pragma_reduction.replace("REDVAR", "rsnew")}
        for (int i = 0; i < n; i++) {{
            rsnew += r[i] * r[i];
        }}
        if (std::sqrt(rsnew) < tol) {{
            break;
        }}
        double beta = rsnew / rsold;
        {pragma}
        for (int i = 0; i < n; i++) {{
            p[i] = r[i] + beta * p[i];
        }}
        rsold = rsnew;
    }}
}}
"""


# ---------------------------------------------------------------------------
# OpenMP (CPU threads)
# ---------------------------------------------------------------------------

_OMP_HEADER = "#include <omp.h>"
_OMP_FOR = "#pragma omp parallel for"
_OMP_FOR_2 = "#pragma omp parallel for collapse(2)"
_OMP_FOR_3 = "#pragma omp parallel for collapse(3)"
_OMP_RED = "#pragma omp parallel for reduction(+:REDVAR)"

# ---------------------------------------------------------------------------
# OpenMP target offload (GPU)
# ---------------------------------------------------------------------------

_OMP_TGT = "#pragma omp target teams distribute parallel for"
_OMP_TGT_RED = "#pragma omp target teams distribute parallel for reduction(+:REDVAR)"

_OMP_TGT_AXPY = "#pragma omp target teams distribute parallel for map(to: x[0:n]) map(tofrom: y[0:n])"
_OMP_TGT_GEMV = (
    "#pragma omp target teams distribute parallel for map(to: A[0:m*n], x[0:n]) map(from: y[0:m])"
)
_OMP_TGT_GEMM = (
    "#pragma omp target teams distribute parallel for collapse(2) "
    "map(to: A[0:m*k], B[0:k*n]) map(from: C[0:m*n])"
)
_OMP_TGT_SPMV = (
    "#pragma omp target teams distribute parallel for "
    "map(to: row_ptr[0:n+1], col_idx[0:row_ptr[n]], values[0:row_ptr[n]], x[0:n]) map(from: y[0:n])"
)
_OMP_TGT_JACOBI = (
    "#pragma omp target teams distribute parallel for collapse(3) "
    "map(to: u[0:n*n*n]) map(from: u_new[0:n*n*n])"
)

# ---------------------------------------------------------------------------
# OpenACC
# ---------------------------------------------------------------------------

_ACC_LOOP = "#pragma acc parallel loop"
_ACC_RED = "#pragma acc parallel loop reduction(+:REDVAR)"

_ACC_AXPY = "#pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])"
_ACC_GEMV = "#pragma acc parallel loop copyin(A[0:m*n], x[0:n]) copyout(y[0:m])"
_ACC_GEMM = "#pragma acc parallel loop collapse(2) copyin(A[0:m*k], B[0:k*n]) copyout(C[0:m*n])"
_ACC_SPMV = (
    "#pragma acc parallel loop copyin(row_ptr[0:n+1], col_idx[0:row_ptr[n]], "
    "values[0:row_ptr[n]], x[0:n]) copyout(y[0:n])"
)
_ACC_JACOBI = "#pragma acc parallel loop collapse(3) copyin(u[0:n*n*n]) copyout(u_new[0:n*n*n])"


TEMPLATES: dict[tuple[str, str], str] = {
    # -- OpenMP ------------------------------------------------------------
    ("openmp", "axpy"): _axpy(_OMP_FOR, _OMP_HEADER),
    ("openmp", "gemv"): _gemv(_OMP_FOR, _OMP_HEADER),
    ("openmp", "gemm"): _gemm(_OMP_FOR_2, _OMP_HEADER),
    ("openmp", "spmv"): _spmv(_OMP_FOR, _OMP_HEADER),
    ("openmp", "jacobi"): _jacobi(_OMP_FOR_3, _OMP_HEADER),
    ("openmp", "cg"): _cg(_OMP_FOR, _OMP_RED, _OMP_HEADER),
    # -- OpenMP offload ------------------------------------------------------
    ("openmp_offload", "axpy"): _axpy(_OMP_TGT_AXPY, _OMP_HEADER),
    ("openmp_offload", "gemv"): _gemv(_OMP_TGT_GEMV, _OMP_HEADER),
    ("openmp_offload", "gemm"): _gemm(_OMP_TGT_GEMM, _OMP_HEADER),
    ("openmp_offload", "spmv"): _spmv(_OMP_TGT_SPMV, _OMP_HEADER),
    ("openmp_offload", "jacobi"): _jacobi(_OMP_TGT_JACOBI, _OMP_HEADER),
    ("openmp_offload", "cg"): _cg(_OMP_TGT, _OMP_TGT_RED, _OMP_HEADER),
    # -- OpenACC --------------------------------------------------------------
    ("openacc", "axpy"): _axpy(_ACC_AXPY),
    ("openacc", "gemv"): _gemv(_ACC_GEMV),
    ("openacc", "gemm"): _gemm(_ACC_GEMM),
    ("openacc", "spmv"): _spmv(_ACC_SPMV),
    ("openacc", "jacobi"): _jacobi(_ACC_JACOBI),
    ("openacc", "cg"): _cg(_ACC_LOOP, _ACC_RED),
}

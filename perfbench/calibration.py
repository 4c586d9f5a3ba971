"""A fixed calibration workload: how fast this machine runs right now.

On a shared host, other tenants slow every process down, by up to a factor
of two, for seconds to minutes at a time, so a run of the benchmark can sit
wholly inside a slow period.  The calibration is a small, fixed piece of
work shaped like the program's own (parsing and compiling Python with
``ast``, regular expressions over C-like text, a JSON round trip,
elementwise numpy), timed in the same process right after each measured
operation.  The benchmark scales each operation's times by a nominal
calibration time over this one, which cancels most of a slowdown the two
share.  The calibration never changes with the program under test.
"""

from __future__ import annotations

import ast
import gc
import json
import re
import time

import numpy as np

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    x = [a * k + b for k in range({i % 7 + 2})]\n"
    f"    if sum(x) > {i}:\n"
    f"        return {{'k': x, 'n': len(x)}}\n"
    f"    return None\n"
    for i in range(60)
)
_C_TEXT = " ".join(
    f"#pragma omp parallel for\nfor (int i{i} = 0; i{i} < n; ++i{i}) {{ y[i{i}] += a * x[i{i}]; }}"
    for i in range(400)
)
_LOOP = re.compile(r"for\s*\(\s*int\s+(\w+)\s*=\s*0\s*;\s*\1\s*<\s*n")
_GRID = np.arange(4096, dtype=np.float64).reshape(64, 64) / 4096.0


def calibrate() -> float:
    """Seconds the fixed work takes now.

    Garbage collection is off meanwhile, so the size of the program's heap
    left in the process cannot make the calibration slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            tree = ast.parse(_SOURCE)
            names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            compile(tree, "<calibration>", "exec")
            loops = _LOOP.findall(_C_TEXT)
            json.loads(json.dumps({"names": names, "loops": loops}, sort_keys=True))
            grid = _GRID
            for _ in range(20):
                grid = np.tanh(grid * 0.5 + _GRID)
                grid = np.sort(grid, axis=1).cumsum(axis=0) / 64.0
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

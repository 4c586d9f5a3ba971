"""CI perf-regression gate: compare BENCH_perf.json against the baseline.

Usage::

    python benchmarks/check_regression.py [--baseline BENCH_baseline.json]
        [--current BENCH_perf.json] [--speedup-tolerance 0.6]
        [--wallclock-tolerance 2.5]

The gate reads the freshly-measured ``BENCH_perf.json`` (written by
``bench_parallel_scaling.py`` earlier in the CI run) and the committed
``BENCH_baseline.json``, and **fails the build** when the perf trajectory
regresses:

* **Speedups** (dimensionless ratios — ``lockstep_speedup``,
  ``warm_store_speedup``, ``dispatch_resume_speedup``, ...) must not fall
  below ``baseline * (1 - speedup_tolerance)``.  Ratios are largely
  machine-independent, so the tolerance mostly absorbs scheduler noise.
* **Wall-clocks** (every ``full_grid[*]`` experiment) must not exceed
  ``baseline * wallclock_tolerance``.  Absolute seconds vary across CI
  hardware generations, hence the deliberately loose default factor — the
  gate catches "the grid got 3x slower", not 10% jitter.
* **Missing keys are failures**: a metric silently vanishing from the
  record is itself a regression of the benchmark.

Exit status 0 = within tolerance, 1 = regression (each violation printed),
2 = unusable input.  Tested in ``tests/test_check_regression.py``; the CI
job additionally feeds a doctored record to prove the gate actually fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Dimensionless ratios gated against a relative drop.
SPEEDUP_KEYS = (
    "lockstep_speedup",
    "lockstep_speedup_e2e",
    "warm_store_speedup",
    "dispatch_resume_speedup",
    "batched_speedup",
)

#: Wall-clock experiment keys gated against a growth factor (prefix match).
WALLCLOCK_PREFIX = "full_grid["

#: A speedup may drop this fraction below baseline before the gate fires.
#: Wide on purpose: the committed baseline comes from one machine and CI
#: runs on another — the gate exists to catch "the optimization is gone"
#: (a 10x becoming 2x), not cross-hardware jitter.
DEFAULT_SPEEDUP_TOLERANCE = 0.6

#: A wall-clock may grow this factor over baseline before the gate fires.
DEFAULT_WALLCLOCK_TOLERANCE = 2.5

#: Absolute wall-clock slack added on top of the factor: sub-100ms
#: baselines (the warm/resume paths) are IO-noise-dominated, and a pure
#: ratio would turn scheduler jitter into build failures.
WALLCLOCK_SLACK_SECONDS = 0.1

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_regressions(
    baseline: dict,
    current: dict,
    *,
    speedup_tolerance: float = DEFAULT_SPEEDUP_TOLERANCE,
    wallclock_tolerance: float = DEFAULT_WALLCLOCK_TOLERANCE,
) -> list[str]:
    """All tolerance violations of ``current`` vs ``baseline`` (empty = pass)."""
    failures: list[str] = []
    for key in SPEEDUP_KEYS:
        reference = baseline.get(key)
        if reference is None:
            continue  # metric not tracked in this baseline generation
        measured = current.get(key)
        if measured is None:
            failures.append(f"{key}: missing from the current record (baseline {reference})")
            continue
        floor = reference * (1.0 - speedup_tolerance)
        if measured < floor:
            failures.append(
                f"{key}: x{measured} fell below x{floor:.3f} "
                f"(baseline x{reference}, tolerance -{speedup_tolerance:.0%})"
            )
    baseline_experiments = baseline.get("experiments", {})
    current_experiments = current.get("experiments", {})
    for key, reference in sorted(baseline_experiments.items()):
        if not key.startswith(WALLCLOCK_PREFIX):
            continue
        measured = current_experiments.get(key)
        if measured is None:
            failures.append(f"{key}: missing from the current record (baseline {reference}s)")
            continue
        ceiling = reference * wallclock_tolerance + WALLCLOCK_SLACK_SECONDS
        if measured > ceiling:
            failures.append(
                f"{key}: {measured}s exceeded {ceiling:.4f}s "
                f"(baseline {reference}s, tolerance x{wallclock_tolerance})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=REPO_ROOT / "BENCH_baseline.json",
        help="committed reference record",
    )
    parser.add_argument(
        "--current", type=Path, default=REPO_ROOT / "BENCH_perf.json",
        help="freshly measured record",
    )
    parser.add_argument(
        "--speedup-tolerance", type=float, default=DEFAULT_SPEEDUP_TOLERANCE,
        help="allowed fractional drop of speedup ratios (default %(default)s)",
    )
    parser.add_argument(
        "--wallclock-tolerance", type=float, default=DEFAULT_WALLCLOCK_TOLERANCE,
        help="allowed growth factor of full_grid wall-clocks (default %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(args.baseline.read_text("utf-8"))
        current = json.loads(args.current.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"check_regression: cannot read records: {exc}", file=sys.stderr)
        return 2
    failures = check_regressions(
        baseline,
        current,
        speedup_tolerance=args.speedup_tolerance,
        wallclock_tolerance=args.wallclock_tolerance,
    )
    if failures:
        print(f"PERF REGRESSION vs {args.baseline.name}:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    gated = [key for key in SPEEDUP_KEYS if key in baseline] + [
        key for key in sorted(baseline.get("experiments", {})) if key.startswith(WALLCLOCK_PREFIX)
    ]
    print(f"perf gate: {len(gated)} metric(s) within tolerance of {args.baseline.name}")
    for key in gated:
        measured = current.get(key, current.get("experiments", {}).get(key))
        print(f"  ok {key} = {measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

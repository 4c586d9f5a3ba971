"""Deterministic fault injection for the dispatch layer.

Fault tolerance that is never exercised is fault tolerance that does not
work, so the dispatch code carries **named fault points** — call sites that
ask this module "does anything go wrong here?" before or while doing their
real work.  In production the answer is always no and the check is one
``None`` comparison; in the chaos tests (and the CI chaos-smoke job) a
**fault plan** arms specific points with specific failures, deterministically:

=========  ==================================================================
action     effect at the fault point
=========  ==================================================================
``crash``  raise :class:`InjectedCrash` — an "ordinary" worker exception,
           exercising crash containment and the retry/quarantine machinery
``die``    ``os._exit(17)`` — a hard worker death (no exception handling,
           no cleanup), exercising lease expiry and subprocess reaping
``hang``   ``time.sleep(arg)`` — a wedged worker, exercising per-shard
           timeouts and heartbeat-lease takeover
``corrupt``  returned to the call site, which then writes deliberately
           garbled bytes instead of its payload — exercising the
           validate-on-read / degrade-to-recompute paths
``skew``   returned to the clock call site as ``arg`` seconds added to
           "now" — a worker whose clock runs fast sees every claim as
           stale, exercising the claim/requeue race protocol
=========  ==================================================================

The fault points, and the context each passes:

====================  ========================================================
point                 where it fires (context)
====================  ========================================================
``worker.evaluate``   before a worker evaluates a shard or piece (its label)
``worker.complete``   before a queue worker publishes a result (task name)
``worker.heartbeat``  before each lease renewal (task name)
``queue.claim``       in ``FileQueue.claim`` between the rename that takes
                      the task and the ``utime`` that stamps the lease (task
                      name): a ``hang`` holds the claimer while a stale
                      sweep can re-offer the task
``queue.clock``       in the staleness arithmetic of ``requeue_stale`` (no
                      context)
====================  ========================================================

A fault fires when its ``point`` matches, its ``match`` substring (if any)
is found in the call-site context string (e.g. the task name — this is how
one specific shard becomes the poison shard), and its ``times`` budget (if
any) is not yet spent.  Counting is per-process and thread-safe, so "crash
the first attempt, succeed on retry" is expressible and reproducible.  A
``process``-backend worker evaluates a whole run of shard pieces, so its
``times`` budget spans that run; a retry's fresh worker starts a new one.
A piece covering only part of its shard (one language's cells) fires with
the shard's context suffixed ``/<start>-<stop>``, so a plan can fail one
piece while the whole-shard retry succeeds.

Plans are installed through the API (:func:`install`, :func:`reset`) or the
``REPRO_FAULTS`` environment variable — a JSON list such as::

    REPRO_FAULTS='[{"point": "worker.evaluate", "action": "crash",
                    "match": "-00000-", "times": 2}]'

The env seam is what lets chaos CI inject faults into real subprocess
workers: children inherit the variable and arm the same plan.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

__all__ = [
    "FAULTS_ENV",
    "Fault",
    "InjectedCrash",
    "backoff_delay",
    "clock_skew",
    "fire",
    "install",
    "reset",
]

#: Environment variable carrying a JSON fault plan (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Actions a fault point knows how to apply (see module docstring).
ACTIONS: tuple[str, ...] = ("crash", "die", "hang", "corrupt", "skew")


class InjectedCrash(RuntimeError):
    """The exception an armed ``crash`` fault raises at its point."""


class Fault:
    """One armed fault: where it fires, what it does, and how often."""

    def __init__(
        self,
        point: str,
        action: str,
        *,
        arg: float = 0.0,
        times: int | None = None,
        match: str = "",
    ) -> None:
        if action not in ACTIONS:
            raise ValueError(f"unknown fault action {action!r}; choose from {ACTIONS}")
        if times is not None and times < 1:
            raise ValueError(f"fault times must be >= 1, got {times}")
        self.point = point
        self.action = action
        self.arg = float(arg)
        self.times = times
        self.match = match
        self.fired = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fault({self.point!r}, {self.action!r}, arg={self.arg}, "
            f"times={self.times}, match={self.match!r}, fired={self.fired})"
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "Fault":
        return cls(
            str(payload["point"]),
            str(payload["action"]),
            arg=float(payload.get("arg", 0.0)),
            times=None if payload.get("times") is None else int(payload["times"]),
            match=str(payload.get("match", "")),
        )


# The active plan.  ``None`` + env-not-checked is the cold state; the fast
# path through fire() is a single ``is None`` test once the env is known
# to be empty.
_plan: list[Fault] | None = None
_env_checked = False
_lock = threading.Lock()


def install(faults: list[Fault] | list[dict]) -> None:
    """Arm a fault plan for this process (replacing any previous plan)."""
    global _plan, _env_checked
    with _lock:
        _plan = [f if isinstance(f, Fault) else Fault.from_payload(f) for f in faults]
        _env_checked = True


def reset() -> None:
    """Disarm everything; the next :func:`fire` re-reads ``REPRO_FAULTS``."""
    global _plan, _env_checked
    with _lock:
        _plan = None
        _env_checked = False


def _active() -> list[Fault] | None:
    global _plan, _env_checked
    if _env_checked:
        return _plan
    with _lock:
        if not _env_checked:
            spec = os.environ.get(FAULTS_ENV)
            if spec:
                _plan = [Fault.from_payload(entry) for entry in json.loads(spec)]
            _env_checked = True
    return _plan


def fire(point: str, context: str = "") -> Fault | None:
    """Apply any armed fault at ``point`` (see module docstring).

    ``crash``/``die``/``hang`` are applied here (raise / exit / sleep);
    ``corrupt`` and ``skew`` are returned for the call site to interpret.
    Returns the fault that fired (after applying it), or ``None`` — the
    overwhelmingly common case, costing one comparison.
    """
    plan = _active()
    if plan is None:
        return None
    fault = None
    with _lock:
        for candidate in plan:
            if candidate.point != point:
                continue
            if candidate.match and candidate.match not in context:
                continue
            if candidate.times is not None and candidate.fired >= candidate.times:
                continue
            candidate.fired += 1
            fault = candidate
            break
    if fault is None:
        return None
    if fault.action == "crash":
        raise InjectedCrash(f"injected crash at {point} ({context or 'no context'})")
    if fault.action == "die":
        os._exit(17)
    if fault.action == "hang":
        time.sleep(fault.arg)
    return fault


def clock_skew(context: str = "") -> float:
    """Seconds to add to "now" in staleness arithmetic (``skew`` faults).

    The queue's lease checks compute claim age through this, so a chaos
    test can make one side believe every lease expired long ago without
    touching real clocks or sleeping.
    """
    fault = fire("queue.clock", context)
    return fault.arg if fault is not None and fault.action == "skew" else 0.0


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    rng: random.Random | None = None,
) -> float:
    """Full-jitter exponential backoff: uniform in ``[0, min(cap, base·2ⁿ)]``.

    Fixed-interval polling synchronises idle workers into stat storms on
    the shared queue directory; jittered exponential backoff is the
    standard cure.  ``rng`` is injectable so tests stay deterministic.
    """
    upper = min(cap, base * (2.0 ** min(63, max(0, attempt))))
    return (rng or random).uniform(0.0, upper)

"""Durable atomic file publication for the dispatch queue.

``os.replace`` alone makes a write *atomic* (readers see the old bytes or
the new bytes, never a mix) but not *durable*: after a power loss the
filesystem may have persisted the rename without the data, leaving an
empty-but-renamed file where a valid document used to be.  The cure is the
classic write → flush → ``fsync`` → rename sequence, plus a best-effort
directory fsync so the rename itself survives.

:class:`repro.dispatch.queue.FileQueue` publishes its tasks, claims,
results and failure records this way, because leases and claims are state,
not cache.  The verdict and shard-result stores do not: their entries are
validated on read, so a lost entry only costs a recompute, and they append
to segment files without fsync (:class:`repro.cache.backends.LocalBackend`).

This function always raises ``OSError`` on failure, so the decision how to
degrade stays visible at the call site.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["write_atomic_bytes", "write_atomic_json"]


def write_atomic_json(path: str | Path, payload: object, *, indent: int | None = None) -> None:
    """Publish ``payload`` as JSON at ``path`` atomically and durably.

    The document is serialised with ``sort_keys=True`` (stable bytes for
    byte-identity checks) and published through :func:`write_atomic_bytes`.
    """
    data = json.dumps(payload, indent=indent, sort_keys=True).encode("utf-8")
    write_atomic_bytes(path, data)


def write_atomic_bytes(path: str | Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically and durably.

    The bytes are written to a unique temporary file in the target
    directory, flushed and fsynced, then published with ``os.replace``; the
    containing directory is fsynced as well, best-effort, so a power loss
    cannot leave an empty-but-renamed file — the worst case is the *old*
    state, never a torn one.

    Raises ``OSError`` on any failure; the temporary file is removed
    best-effort so a failed write leaves no droppings behind.
    """
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "wb",
        dir=path.parent,
        prefix=f".{path.stem}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (persists a completed rename).

    Not every filesystem allows opening directories for fsync (and Windows
    has no equivalent at all), so failures are swallowed: the rename is
    already atomic, durability of the document data was handled by the
    file fsync, and "the rename may be lost on power cut" degrades to "the
    old state", never a torn one.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform/filesystem dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform/filesystem dependent
        pass
    finally:
        os.close(fd)

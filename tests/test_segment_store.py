"""Degradation tests for the append-only segment layout of the stores.

:class:`repro.cache.backends.LocalBackend` keeps every store's entries as
framed records in per-process segment files.  These tests pin what that
layout must survive without ever serving a wrong value:

* a torn last frame (a writer killed mid-append), corrupted bytes, and
  frames for one digest spread over several segments;
* two writer processes filling one store at once;
* a forked child writing through a store it inherited;
* a tombstone (``discard``) seen from a new process;
* read-only stores, which must create nothing;
* threads appending to one store at the same time;
* a schema-1 fanout store left behind by the previous layout.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import threading

import pytest

from repro.analysis.analyzer import clear_verdict_memo
from repro.analysis.store import VerdictStore
from repro.analysis.verdict import SuggestionVerdict
from repro.api import Session
from repro.cache.backends import _FRAME, _MAGIC
from repro.codex.config import DEFAULT_SEED

fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork()"
)


def _verdict(n: int = 0) -> SuggestionVerdict:
    return SuggestionVerdict(
        is_code=True,
        detected_models=("python.numpy",),
        uses_requested_model=True,
        math_correct=True,
        issues=[f"issue {n}"],
        method="executed",
    )


def _key(n: int = 0) -> tuple[str, str, str]:
    return (f"def axpy(a, x, y):\n    return a * x + y  # {n}\n", "python", "axpy")


def _frames(segment) -> list[tuple[str, int]]:
    """Every frame of a segment as ``(hex digest, payload length)``;
    asserts the segment is frame-valid to its last byte."""
    data = segment.read_bytes()
    frames = []
    position = 0
    while position < len(data):
        magic, raw, _, length, _ = _FRAME.unpack_from(data, position)
        assert magic == _MAGIC, f"malformed frame at byte {position} of {segment.name}"
        position += _FRAME.size + length
        assert position <= len(data), f"torn frame at the end of {segment.name}"
        frames.append((raw.hex(), length))
    return frames


def _segments(path) -> list:
    return sorted((path / "segments").glob("*.seg"))


def _fill(path, keys, start_event=None) -> None:
    """Process target: put one verdict per key into the store at ``path``."""
    if start_event is not None:
        start_event.wait(10)
    store = VerdictStore(path)
    for n in keys:
        store.put(_key(n), _verdict(n))


def _probe(path, keys, queue) -> None:
    """Process target: report which keys a fresh store serves correctly."""
    store = VerdictStore(path)
    queue.put([store.get(_key(n)) == _verdict(n) for n in keys])


def _run(target, *args) -> None:
    process = multiprocessing.get_context("fork").Process(target=target, args=args)
    process.start()
    process.join(30)
    assert process.exitcode == 0


def _probe_in_new_process(path, keys) -> list[bool]:
    queue = multiprocessing.get_context("fork").Queue()
    _run(_probe, path, keys, queue)
    return queue.get(timeout=10)


class TestDamagedSegments:
    def test_torn_last_frame_serves_earlier_records_and_is_rewritten(self, tmp_path):
        store = VerdictStore(tmp_path)
        for n in range(3):
            store.put(_key(n), _verdict(n))
        [segment] = _segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-5])  # killed inside the last frame

        fresh = VerdictStore(tmp_path)
        assert fresh.get(_key(0)) == _verdict(0)
        assert fresh.get(_key(1)) == _verdict(1)
        assert fresh.get(_key(2)) is None  # torn: a miss, never a wrong verdict
        fresh.put(_key(2), _verdict(2))  # the recompute is appended again
        assert fresh.writes == 1
        assert [VerdictStore(tmp_path).get(_key(n)) == _verdict(n) for n in range(3)] == [
            True
        ] * 3
        # The torn segment is left as it is; the new record has a segment of its own.
        assert len(_segments(tmp_path)) == 2

    def test_bit_rot_that_keeps_the_json_valid_is_a_miss(self, tmp_path):
        # A corrupted byte can leave a payload that parses and validates
        # but says something else; the frame CRC must catch it.
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        [segment] = _segments(tmp_path)
        data = segment.read_bytes()
        assert data.count(b'"executed"') == 1
        segment.write_bytes(data.replace(b'"executed"', b'"executeD"'))
        fresh = VerdictStore(tmp_path)
        assert fresh.get(_key()) is None
        fresh.put(_key(), _verdict())  # forgotten, so the recompute persists
        assert VerdictStore(tmp_path).get(_key()) == _verdict()

    @pytest.mark.parametrize("record_first", [True, False])
    @pytest.mark.parametrize("record_is_newer", [True, False])
    def test_the_newest_frame_wins_across_segments(self, tmp_path, record_first, record_is_newer):
        # Segment order on disk says nothing about age; the record time does.
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        [segment] = _segments(tmp_path)
        data = segment.read_bytes()
        segment.unlink()
        magic, raw, _, length, crc = _FRAME.unpack_from(data)
        older, newer = 100.0, 200.0
        record_time, tombstone_time = (newer, older) if record_is_newer else (older, newer)
        record = _FRAME.pack(magic, raw, record_time, length, crc) + data[_FRAME.size :]
        tombstone = _FRAME.pack(magic, raw, tombstone_time, 0, 0)
        first, last = (record, tombstone) if record_first else (tombstone, record)
        (tmp_path / "segments" / "a.seg").write_bytes(first)
        (tmp_path / "segments" / "b.seg").write_bytes(last)
        served = VerdictStore(tmp_path).get(_key())
        assert (served == _verdict()) is record_is_newer

    def test_garbage_mid_segment_stops_the_scan_there(self, tmp_path):
        store = VerdictStore(tmp_path)
        for n in range(3):
            store.put(_key(n), _verdict(n))
        [segment] = _segments(tmp_path)
        data = bytearray(segment.read_bytes())
        second = _FRAME.size + _frames(segment)[0][1]
        data[second : second + 4] = b"XXXX"  # the second frame's magic
        segment.write_bytes(bytes(data))
        fresh = VerdictStore(tmp_path)
        assert fresh.get(_key(0)) == _verdict(0)
        assert fresh.get(_key(1)) is None
        assert fresh.get(_key(2)) is None  # not trusted past a malformed frame


@fork
class TestProcesses:
    def test_two_writer_processes_fill_one_store(self, tmp_path):
        context = multiprocessing.get_context("fork")
        start = context.Event()
        # Overlapping key ranges: both processes also race the same entries.
        writers = [
            context.Process(target=_fill, args=(tmp_path, range(0, 60), start)),
            context.Process(target=_fill, args=(tmp_path, range(30, 90), start)),
        ]
        for writer in writers:
            writer.start()
        start.set()
        for writer in writers:
            writer.join(30)
            assert writer.exitcode == 0
        segments = _segments(tmp_path)
        assert len(segments) == 2  # one per writing process
        frames = [frame for segment in segments for frame in _frames(segment)]
        assert len(frames) >= 90
        assert _probe_in_new_process(tmp_path, range(90)) == [True] * 90

    def test_forked_child_writes_its_own_segment(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(0), _verdict(0))
        [parent_segment] = _segments(tmp_path)
        _run(_fill_through, store, [1, 2])
        store.put(_key(3), _verdict(3))
        segments = _segments(tmp_path)
        assert len(segments) == 2
        parent_frames = _frames(parent_segment)
        assert [digest for digest, _ in parent_frames] == [
            VerdictStore.digest(_key(0)),
            VerdictStore.digest(_key(3)),
        ]
        [child_segment] = [segment for segment in segments if segment != parent_segment]
        assert [digest for digest, _ in _frames(child_segment)] == [
            VerdictStore.digest(_key(1)),
            VerdictStore.digest(_key(2)),
        ]
        assert _probe_in_new_process(tmp_path, range(4)) == [True] * 4

    def test_tombstone_holds_in_a_new_process(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(0), _verdict(0))
        store.put(_key(1), _verdict(1))
        store.backend.discard(VerdictStore.digest(_key(0)))
        assert _probe_in_new_process(tmp_path, range(2)) == [False, True]
        assert len(VerdictStore(tmp_path)) == 1
        # ...until the next put, which wins over the tombstone.
        _run(_fill, tmp_path, [0])
        assert _probe_in_new_process(tmp_path, range(2)) == [True, True]


def _fill_through(store, keys) -> None:
    """Process target: put through a store object inherited from the parent."""
    for n in keys:
        store.put(_key(n), _verdict(n))


class TestReadonly:
    def test_readonly_store_creates_nothing(self, tmp_path):
        missing = tmp_path / "never-created"
        ro = VerdictStore(missing, readonly=True)
        assert ro.get(_key()) is None
        ro.put(_key(), _verdict())
        ro.backend.discard(VerdictStore.digest(_key()))
        assert ro.stats()["entries"] == 0
        assert not missing.exists()

    def test_readonly_store_over_a_populated_directory_adds_nothing(self, tmp_path):
        VerdictStore(tmp_path).put(_key(0), _verdict(0))
        before = sorted(path.name for path in tmp_path.rglob("*"))
        ro = VerdictStore(tmp_path, readonly=True)
        assert ro.get(_key(0)) == _verdict(0)
        ro.put(_key(1), _verdict(1))
        ro.backend.discard(VerdictStore.digest(_key(0)))  # this process's view only
        assert ro.get(_key(0)) is None
        assert sorted(path.name for path in tmp_path.rglob("*")) == before
        assert VerdictStore(tmp_path).get(_key(0)) == _verdict(0)


class TestThreads:
    def test_concurrent_appends_write_only_valid_frames(self, tmp_path):
        store = VerdictStore(tmp_path)
        barrier = threading.Barrier(8)
        errors: list[Exception] = []

        def writer(first: int) -> None:
            try:
                barrier.wait(10)
                for n in range(first, first + 40):
                    store.put(_key(n), _verdict(n))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(40 * i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        [segment] = _segments(tmp_path)  # one process, one segment
        frames = _frames(segment)
        assert len(frames) == 320
        assert len({digest for digest, _ in frames}) == 320
        reader = VerdictStore(tmp_path)
        assert all(reader.get(_key(n)) == _verdict(n) for n in range(320))


class TestLegacyFanoutStore:
    """A store written by the schema-1 layout: one fsynced JSON file per
    entry at ``<store>/<digest[:2]>/<digest>.json``, keyed on the old
    hand-bumped analysis version."""

    @staticmethod
    def _write_schema_1(path, key, verdict) -> None:
        code, language, kernel, model = key
        digest = hashlib.sha256(
            json.dumps([1, 3, code, language, kernel, model]).encode("utf-8")
        ).hexdigest()
        payload = {
            "schema": 1,
            "analysis": 3,
            "language": language,
            "kernel": kernel,
            "model": model,
            "code_sha": hashlib.sha256(code.encode("utf-8")).hexdigest(),
            "verdict": verdict.to_payload(),
        }
        entry = path / digest[:2] / f"{digest}.json"
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_text(json.dumps(payload, sort_keys=True))

    def test_schema_1_store_gives_no_hits_and_compact_removes_it(self, tmp_path, corpus, capsys):
        from repro.codex.engine import SimulatedCodex
        from repro.codex.prompt import Prompt
        from repro.harness.cli import main
        from repro.models.grid import experiment_grid

        store_dir = tmp_path / "store"
        engine = SimulatedCodex(seed=DEFAULT_SEED)
        written = 0
        for cell in experiment_grid(languages=("julia",)):
            for code in dict.fromkeys(engine.complete(Prompt.from_cell(cell)).suggestions):
                key = (code, "julia", cell.kernel, cell.model)
                self._write_schema_1(store_dir, key, _verdict())
                written += 1
        assert written > 0
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED, verdict_store=store_dir) as session:
                session.language_results("julia")
                assert session.store_hits == 0  # no schema-1 entry is ever served
        finally:
            clear_verdict_memo()
        assert len(list(store_dir.glob("??/*.json"))) == written
        assert main(["--verdict-store", str(store_dir), "cache", "compact"]) == 0
        assert f"removed {written} stale" in capsys.readouterr().out
        assert not list(store_dir.glob("??"))  # files and fanout directories gone
        assert len(VerdictStore(store_dir)) > 0  # the fresh segment entries stay

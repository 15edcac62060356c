"""On-disk store: columnar snapshots, torn last lines, and the writer lock."""

from __future__ import annotations

import json
import logging
import shutil

import numpy as np
import pytest

from svaa.errors import MalformedLine, StoreLocked
from svaa.records import RecordStore, ingest_stream

from conftest import make_line


def _lines(n: int, camera: int = 1, **extra) -> list[str]:
    return [make_line(record_time=f"2023-10-16T09:00:{i:02d}Z", camera_id=camera,
                      global_id=100 + i, local_id=i + 1, **extra) for i in range(n)]


def _build(root, lines) -> None:
    with RecordStore(root) as store:
        ingest_stream(lines, store)


_COLUMNS = ("times", "class_ids", "global_ids", "local_ids", "x", "y", "w", "h")


def _rows(store: RecordStore) -> list[tuple]:
    """(time, camera, global id, class, local id, x, y, w, h) of every stored row, by time, then camera, then index."""
    rows = []
    for camera in store.camera_ids():
        idx = store.index(camera)
        times, classes, gids, lids, *box = (getattr(idx, name).tolist() for name in _COLUMNS)
        rows += [(t, camera, g, *rest) for t, g, *rest in zip(times, gids, classes, lids, *box)]
    return sorted(rows, key=lambda row: row[:2])


def _snapshot(root, camera: int = 1):
    with np.load(root / f"camera_{camera:05d}.snap.npz", allow_pickle=False) as z:
        return int(z["covered"]), len(z["times"])


def _jsonl(root, camera: int = 1):
    return root / f"camera_{camera:05d}.jsonl"


class TestSnapshot:
    def test_close_writes_a_snapshot_of_the_whole_file(self, tmp_path):
        root = tmp_path / "store"
        raw_utf8 = make_line(record_time="2023-10-16T09:00:09Z", feature="@").replace("@", "Ünïcödé €")
        _build(root, _lines(4) + [raw_utf8])
        assert _snapshot(root) == (_jsonl(root).stat().st_size, 5)

    def test_stale_snapshot_parses_only_the_tail(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(5))
        old = _snapshot(root)
        with _jsonl(root).open("a") as fh:
            fh.write("\n".join(_lines(8)[5:]) + "\n")
        store = RecordStore(root)
        assert len(store) == 8
        assert _snapshot(root) == (_jsonl(root).stat().st_size, 8)  # rewritten on open
        assert old[1] == 5

    def test_tail_errors_number_lines_from_the_file_start(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(5))
        with _jsonl(root).open("a") as fh:
            fh.write(make_line(global_id=9) + "\ngarbage\n" + make_line(global_id=10) + "\n")
        with pytest.raises(MalformedLine, match=r"camera_00001\.jsonl:7: "):
            RecordStore(root)

    def test_mismatched_prefix_is_parsed_in_full(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(5))
        path = _jsonl(root)
        path.write_text(path.read_text().replace('"global_id":100', '"global_id":900', 1))
        assert 900 in [r[2] for r in _rows(RecordStore(root))]

    def test_truncated_file_is_parsed_in_full(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(5))
        path = _jsonl(root)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        assert len(RecordStore(root)) == 3
        assert _snapshot(root) == (path.stat().st_size, 3)

    def test_unreadable_snapshot_is_ignored(self, tmp_path, caplog):
        root = tmp_path / "store"
        _build(root, _lines(5))
        expected = _rows(RecordStore(root))
        (root / "camera_00001.snap.npz").write_bytes(b"not a zip file")
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            assert _rows(RecordStore(root)) == expected
        assert "ignoring snapshot" in caplog.text
        assert _snapshot(root)[1] == 5

    def test_snapshot_write_failure_is_logged_not_raised(self, tmp_path, caplog):
        root = tmp_path / "store"
        _build(root, _lines(5))
        expected = _rows(RecordStore(root))
        snap = root / "camera_00001.snap.npz"
        snap.unlink()
        snap.mkdir()  # neither readable as a snapshot nor replaceable by one
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            assert _rows(RecordStore(root)) == expected
            with RecordStore(root) as store:
                ingest_stream(_lines(6)[5:], store)
        assert "could not write snapshot" in caplog.text
        assert len(RecordStore(root)) == 6
        assert not [p for p in root.iterdir() if p.name.endswith(".tmp") or p.name.startswith(".camera")]

    def test_no_snapshot_when_the_file_changed_under_the_writer(self, tmp_path, caplog):
        root = tmp_path / "store"
        _build(root, _lines(5))
        before = _snapshot(root)
        store = RecordStore(root)
        ingest_stream(_lines(6)[5:], store)  # the snapshot waits for close
        with _jsonl(root).open("a") as fh:  # a writer that ignores the lock gets in first
            fh.write(make_line(record_time="2023-10-16T09:01:00Z", global_id=77) + "\n")
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            store.close()
        assert "snapshot is left stale" in caplog.text
        assert _snapshot(root) == before
        assert [r[2] for r in _rows(RecordStore(root))] == [100, 101, 102, 103, 104, 105, 77]

    def test_open_with_a_fresh_snapshot_parses_no_line(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        _build(root, _lines(3))
        _build(root, _lines(5)[3:])  # the second writer refreshes the snapshot at close
        with _jsonl(root).open("a") as fh:
            fh.write(_lines(6)[5] + "\n")
        RecordStore(root)  # parses the tail and rewrites the snapshot

        def no_parse(line):
            raise AssertionError("parsed a line that the snapshot holds")

        monkeypatch.setattr("svaa.records._parse_fields", no_parse)
        monkeypatch.setattr("svaa.records._parse_batch", no_parse)  # the decoder takes canonical lines
        assert [r[2] for r in _rows(RecordStore(root))] == [100, 101, 102, 103, 104, 105]

    def test_older_snapshot_with_extras_opens_without_parsing(self, tmp_path, monkeypatch):
        """Older snapshots also hold the rows' feature and batch_id as an `extras` member, which is not read."""
        root = tmp_path / "store"
        _build(root, _lines(3) + [
            make_line(record_time="2023-10-16T10:00:00Z", global_id=7, feature="AAAA//BBBB==", batch_id={"b": [1, 2.5]}),
            make_line(record_time="2023-10-16T10:00:01Z", global_id=8, batch_id="b7"),
        ])
        expected = _rows(RecordStore(root))
        snap = root / "camera_00001.snap.npz"
        with np.load(snap, allow_pickle=False) as z:
            members = {name: z[name] for name in z.files}
        assert "extras" not in members
        extras = [[3, "AAAA//BBBB==", {"b": [1, 2.5]}], [4, None, "b7"]]  # [row, feature, batch_id]
        np.savez(snap, extras=np.frombuffer(json.dumps(extras).encode(), dtype=np.uint8), **members)

        def no_parse(raw):
            raise AssertionError("parsed a line that the snapshot holds")

        monkeypatch.setattr("svaa.records._parse_stored", no_parse)
        assert _rows(RecordStore(root)) == expected

    def test_carriage_return_inside_a_line_is_not_a_line_break(self, tmp_path):
        root = tmp_path / "store"
        line = make_line().replace(',"class_id"', ',\r"class_id"')
        _build(root, [line])
        (root / "camera_00001.snap.npz").unlink()
        assert len(RecordStore(root)) == 1


class TestTornLastLine:
    def _torn_store(self, tmp_path, tail: str):
        root = tmp_path / "store"
        _build(root, _lines(3))
        with _jsonl(root).open("a") as fh:
            fh.write(tail)
        return root

    def test_reader_keeps_a_torn_line_that_parses(self, tmp_path):
        root = self._torn_store(tmp_path, make_line(record_time="2023-10-16T09:00:30Z", global_id=55))
        size = _jsonl(root).stat().st_size
        (root / "camera_00001.snap.npz").unlink()
        for _ in range(2):  # the second open goes through the snapshot the first one wrote
            store = RecordStore(root)
            assert [r[2] for r in _rows(store)] == [100, 101, 102, 55]
        covered, rows = _snapshot(root)
        assert rows == 3 and covered < size  # snapshots cover terminated lines only

    def test_reader_skips_a_torn_line_that_does_not_parse(self, tmp_path, caplog):
        root = self._torn_store(tmp_path, make_line(record_time="2023-10-16T09:00:30Z", global_id=55)[:40])
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            assert len(RecordStore(root)) == 3
        assert "camera_00001.jsonl:4: ignoring a torn last line" in caplog.text

    def test_writer_terminates_a_torn_line_that_parses(self, tmp_path, caplog):
        root = self._torn_store(tmp_path, make_line(record_time="2023-10-16T09:00:30Z", global_id=55))
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            _build(root, [make_line(record_time="2023-10-16T09:00:31Z", global_id=56)])
        assert "ended an unterminated last line" in caplog.text
        text = _jsonl(root).read_text()
        assert text.endswith("\n") and text.count("\n") == 5
        assert [r[2] for r in _rows(RecordStore(root))] == [100, 101, 102, 55, 56]
        assert _snapshot(root) == (len(text.encode()), 5)

    def test_writer_truncates_a_torn_line_that_does_not_parse(self, tmp_path, caplog):
        root = self._torn_store(tmp_path, make_line(record_time="2023-10-16T09:00:30Z", global_id=55)[:40])
        intact = "".join(_lines(3)[i] + "\n" for i in range(3))
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            _build(root, [make_line(record_time="2023-10-16T09:00:31Z", global_id=56)])
        assert "cut off a torn last line" in caplog.text
        assert _jsonl(root).read_text() == intact + make_line(record_time="2023-10-16T09:00:31Z", global_id=56) + "\n"
        assert [r[2] for r in _rows(RecordStore(root))] == [100, 101, 102, 56]

    def test_malformed_middle_line_still_raises(self, tmp_path):
        root = tmp_path / "store"
        lines = _lines(4)
        root.mkdir()
        _jsonl(root).write_text(lines[0] + "\n" + lines[1][:30] + "\n" + lines[2] + "\n" + lines[3])
        with pytest.raises(MalformedLine, match=r"camera_00001\.jsonl:2: "):
            RecordStore(root)


class TestWriterLock:
    def test_second_writer_is_refused_until_the_first_closes(self, tmp_path):
        root = tmp_path / "store"
        first, second = RecordStore(root), RecordStore(root)
        ingest_stream([make_line(global_id=1)], first)
        with pytest.raises(StoreLocked):
            ingest_stream([make_line(global_id=2)], second)
        first.close()
        ingest_stream([make_line(global_id=3)], second)
        second.close()
        assert [r[2] for r in _rows(RecordStore(root))] == [1, 3]

    def test_readers_do_not_take_the_lock(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(2))
        reader = RecordStore(root)
        with RecordStore(root) as writer:
            ingest_stream(_lines(3)[2:], writer)
        assert len(reader) == 2 and len(RecordStore(root)) == 3

    def test_writer_sees_appends_made_since_it_opened(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(2))
        late = RecordStore(root)
        _build(root, _lines(3)[2:])
        ingest_stream([make_line(record_time="2023-10-16T09:01:00Z", global_id=9)], late)
        late.close()
        assert len(late) == 4
        assert _snapshot(root) == (_jsonl(root).stat().st_size, 4)
        assert [r[2] for r in _rows(RecordStore(root))] == [100, 101, 102, 9]

    def test_writer_removes_stale_snapshot_temporaries(self, tmp_path, caplog):
        """A process killed while writing a snapshot leaves its temporary file; the next writer removes it."""
        root = tmp_path / "store"
        _build(root, _lines(2))
        stale = root / ".camera_00001.snap.npz.k1ll3d"
        stale.write_bytes(b"half a zip")
        keep = root / ".camera_notes"
        keep.write_bytes(b"not a snapshot temporary")
        with caplog.at_level(logging.WARNING, logger="svaa.records"):
            _build(root, _lines(3)[2:])
        assert not stale.exists() and keep.exists()
        assert "removed a stale snapshot temporary" in caplog.text
        assert _snapshot(root) == (_jsonl(root).stat().st_size, 3)

    def test_reader_leaves_snapshot_temporaries(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(2))
        stale = root / ".camera_00001.snap.npz.k1ll3d"
        stale.write_bytes(b"half a zip")
        (root / "camera_00001.snap.npz").unlink()
        assert len(RecordStore(root)) == 2  # opening rewrites the snapshot, but takes no lock
        assert stale.exists()

    def test_copied_store_keeps_its_snapshots(self, tmp_path):
        root = tmp_path / "store"
        _build(root, _lines(4))
        shutil.copytree(root, tmp_path / "copy")
        assert _rows(RecordStore(tmp_path / "copy")) == _rows(RecordStore(root))

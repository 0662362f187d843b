"""Pluggable datastore backends for the probe/price log.

:class:`~repro.core.database.ProbeDatabase` is the columnar in-memory
engine; the datastore layer puts it behind a small lifecycle interface
so a service can pick where its observations live:

* :class:`InMemoryDatastore` — the existing columnar store, volatile
  (``save``/``close`` are no-ops);
* :class:`SnapshotDatastore` — the same store bound to a directory on
  disk.  ``save()`` writes a full snapshot (probes + prices, CSV with
  exact float round-trip) and every insert is also appended to a
  write-ahead log, so a service that stops without a final snapshot
  still resumes from snapshot + log replay.  ``save()`` compacts: it
  rewrites the snapshot and retires the logs.

Snapshots are **generation-stamped**: data files are named
``probes.<gen>.csv`` / ``probes.wal.<gen>.csv`` and the manifest —
whose atomic replace is the single commit point of ``save()`` — names
the live generation.  A crash anywhere inside ``save()`` therefore
leaves either the old generation (snapshot + its WAL) or the new one
(whose snapshot already contains the WAL'd rows, and whose superseded
WAL is retired and never replayed on the clean path) — never a double
replay.

Crash-safety on top of that layout (see RELIABILITY.md):

* every WAL row carries a **CRC32 checksum column**; a load stops at
  the first torn or garbled row and recovers every complete record
  before it (the torn tail is trimmed so later appends stay parseable);
* the WAL has one reader, :class:`WalCursor`: a load drains it into
  the bulk ``append_*_rows`` appenders, and a live replica
  (:mod:`repro.replication`) polls one per WAL and applies what it
  reads through the same appenders;
* the manifest records **SHA-256 checksums** of the snapshot files it
  commits, plus the identity of the *previous* generation — whose
  snapshot **and WAL are retained until the next save** — so a load
  that finds the live snapshot missing or corrupt falls back one
  generation and replays both generations' WALs, losing nothing that
  was ever committed;
* the superseded manifest is kept as ``manifest.prev.json`` so even a
  garbled ``manifest.json`` recovers;
* IO fault points (``datastore.wal.append``, ``datastore.wal.fsync``,
  ``datastore.save.snapshot``, ``datastore.save.commit``) let
  :class:`repro.chaos.FaultInjector` rehearse all of the above
  deterministically.

Both backends expose the complete :class:`ProbeDatabase` read/query
surface — they *are* probe databases — so the query engine, analysis
readers, and exports work against either unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import zlib
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

from repro.core.database import (
    PRICE_CSV_FIELDS,
    ProbeDatabase,
    price_csv_row,
    stream_csv,
)
from repro.core.records import PROBE_CSV_FIELDS, PriceRecord, ProbeRecord

#: Version 2 added snapshot checksums, the ``previous`` generation
#: block, and the WAL ``crc`` column; version-1 layouts (no checksums,
#: no retained previous generation) still load.
SNAPSHOT_FORMAT_VERSION = 2
_SUPPORTED_FORMAT_VERSIONS = (1, 2)

_MANIFEST = "manifest.json"
_MANIFEST_PREV = "manifest.prev.json"

#: Upper bound on bytes a single cursor poll frames (keeps one slow
#: poll from buffering an arbitrarily large backlog at once; the next
#: poll simply continues from the advanced offset).
_MAX_POLL_BYTES = 4 << 20

#: Separator joining a WAL row's cells for its CRC (a byte that cannot
#: appear inside a CSV cell's text).
_CRC_SEP = "\x1f"


class CorruptSnapshotError(RuntimeError):
    """Neither the live snapshot generation nor its fallback could be
    verified — the directory needs operator attention."""


@runtime_checkable
class Datastore(Protocol):
    """Lifecycle contract a SpotLight datastore adds on top of the
    :class:`ProbeDatabase` ingestion/query surface."""

    def insert_probe(self, record: ProbeRecord) -> None: ...

    def insert_price(self, record: PriceRecord) -> None: ...

    def save(self) -> None:
        """Persist the current state (no-op for volatile backends)."""
        ...

    def close(self) -> None:
        """Flush and release any resources held by the backend."""
        ...


class InMemoryDatastore(ProbeDatabase):
    """The columnar in-memory backend: fast, volatile."""

    def save(self) -> None:
        return None

    def close(self) -> None:
        return None


def _fsync_path(path: Path) -> None:
    """Force a file's contents — or a directory's entries, i.e. its
    renames — to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _row_crc(cells: list[str]) -> int:
    return zlib.crc32(_CRC_SEP.join(cells).encode("utf-8"))


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _CsvAppender:
    """An append-mode CSV file whose writer is built once (the WAL sits
    on the per-sample insert path, so per-row writer construction would
    be pure overhead).

    New files get a trailing ``crc`` column (CRC32 of the row's cells)
    so a reload can tell a complete record from a torn tail; appending
    to a pre-checksum WAL keeps that file's legacy row shape, because a
    mixed-width file would read as torn at the transition.
    """

    def __init__(self, path: Path, header: list[str]) -> None:
        self.with_crc = True
        if path.exists() and path.stat().st_size > 0:
            with path.open(newline="") as probe:
                existing = next(csv.reader(probe), None)
            self.with_crc = existing is not None and existing[-1:] == ["crc"]
        self.handle: IO[str] = path.open("a", newline="")
        self.writer = csv.writer(self.handle)
        if self.handle.tell() == 0:
            self.writer.writerow([*header, "crc"])

    def append(self, cells: list[object]) -> None:
        text = [c if isinstance(c, str) else str(c) for c in cells]
        if self.with_crc:
            text.append(str(_row_crc(text)))
        self.writer.writerow(text)

    def flush(self) -> None:
        """Flush and fsync: rows a caller explicitly flushed must
        survive a crash, not just reach the page cache."""
        self.handle.flush()
        os.fsync(self.handle.fileno())

    def close(self) -> None:
        self.handle.flush()
        os.fsync(self.handle.fileno())
        self.handle.close()


class WalCursor:
    """The WAL reader: incrementally read complete, CRC-verified rows.

    A load drains one to replay a WAL; a replica polls one per WAL.
    :meth:`read` returns ``(header, rows)``, both without the ``crc``
    column, framed as ``csv.writer`` wrote them (a ``csv.reader`` over
    complete lines, so a quoted newline stays inside its cell).  The
    cursor never trusts anything past the first incomplete or garbled
    row — a record mid-append, or a torn tail the writer will trim —
    so it holds there *without advancing*.  ``offset`` is the byte
    offset just past the last verified row; the file is re-opened on
    every poll, so a writer-side trim (tmp + replace) is transparent.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.rows = 0       # verified rows consumed so far
        self.offset = 0     # byte offset just past the last verified row
        self.header: list[str] = []
        self.has_crc = False
        self.holds = 0      # polls that stopped at an unverifiable row
        self.rescans = 0    # realignments after the file shrank

    def read(
        self, max_rows: int | None = None
    ) -> tuple[list[str], list[list[str]]]:
        """Up to ``max_rows`` verified rows (all of one poll window when
        None); no rows when nothing new is durable."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return self.header, []
        if size < self.offset:
            # The file shrank below a verified position: a rewrite this
            # cursor cannot reconcile row by row.  Realign from the top.
            target = self.rows
            self.header, self.offset, self.rows = [], 0, 0
            self.rescans += 1
            self.advance(target)
        rows = self._scan(max_rows)  # reads the header on a first poll
        return self.header, rows

    def advance(self, target: int) -> int:
        """Consume verified rows until ``target`` have been read, or the
        verified data runs out; returns :attr:`rows`."""
        while self.rows < target and self.read(target - self.rows)[1]:
            pass
        return self.rows

    def _scan(self, max_rows: int | None) -> list[list[str]]:
        try:
            handle = self.path.open("rb")
        except OSError:
            return []
        with handle:
            if not self.header:
                head = handle.readline()
                header = next(csv.reader([head.decode(errors="replace")]), [])
                if not head.endswith(b"\n") or not header:
                    return []  # header itself not fully written yet
                self.has_crc = header[-1] == "crc"
                self.header = header[:-1] if self.has_crc else header
                self.offset = handle.tell()
            # A poll frames at most _MAX_POLL_BYTES, more only when not
            # even one complete row fits.
            window = _MAX_POLL_BYTES
            while True:
                handle.seek(self.offset)
                data = handle.read(window)
                holds = self.holds
                rows = self._frame(data.split(b"\n")[:-1], max_rows)
                if rows or len(data) < window or self.holds > holds:
                    return rows
                window *= 2

    def _frame(self, lines: list[bytes], max_rows: int | None) -> list[list[str]]:
        """Verified rows off the start of ``lines`` (complete lines)."""
        exhausted = []

        def feed():
            for line in lines:
                yield line.decode(errors="replace") + "\n"
            exhausted.append(True)

        reader = csv.reader(feed())
        out: list[list[str]] = []
        spanned = 0  # lines the verified rows span
        try:
            for row in reader:
                if exhausted:
                    break  # a quoted cell still being written
                ok = len(row) == len(self.header) + self.has_crc
                if ok and self.has_crc:
                    try:
                        ok = int(row.pop()) == _row_crc(row)
                    except ValueError:
                        ok = False
                if not ok:
                    self.holds += 1  # torn or garbled: hold position
                    break
                out.append(row)
                spanned = reader.line_num
                if len(out) == max_rows:
                    break
        except csv.Error:
            self.holds += 1
        self.offset += sum(map(len, lines[:spanned])) + spanned
        self.rows += len(out)
        return out


class SnapshotDatastore(ProbeDatabase):
    """A probe database bound to an on-disk snapshot directory.

    Opening a directory that holds a previous snapshot (and/or pending
    write-ahead logs) loads the full state back, so a second process
    answers queries over exactly the observations the first recorded.
    With ``must_exist`` the constructor refuses an empty directory
    instead of silently serving an empty store (catches typo'd paths).

    ``recovery_report`` describes what the load had to repair: per-WAL
    torn-tail drops and whether a snapshot-generation fallback was
    taken.  An empty report is the clean-world case.
    """

    def __init__(
        self,
        root: str | Path,
        append_log: bool = True,
        must_exist: bool = False,
        fault_injector: "object | None" = None,
        market_filter: "object | None" = None,
    ) -> None:
        # The filter must be installed before _load() so the snapshot
        # CSVs and WAL replay only materialize the owned slice.
        super().__init__(market_filter=market_filter)
        self.root = Path(root)
        if must_exist and not (self.root / _MANIFEST).exists():
            raise FileNotFoundError(
                f"{self.root}: no datastore snapshot here (missing {_MANIFEST})"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._append_log = append_log
        self._faults = fault_injector
        self._generation = 0
        self._previous_generation = 0
        self._probe_wal: _CsvAppender | None = None
        self._price_wal: _CsvAppender | None = None
        self._wal_counts: dict[int, dict[str, int]] = {}
        self.recovery_report: dict[str, object] = {}
        #: Where the load's time went: checksum verification of the
        #: snapshot files, and everything else (parse + WAL replay).
        self.load_timings = {"verify_s": 0.0, "load_s": 0.0}
        started = time.perf_counter()
        self._load()
        self.load_timings["load_s"] = (
            time.perf_counter() - started - self.load_timings["verify_s"]
        )

    @property
    def generation(self) -> int:
        """The live snapshot generation this store serves."""
        return self._generation

    @property
    def previous_generation(self) -> int:
        """The retained fallback generation (0 when there is none)."""
        return self._previous_generation

    @property
    def wal_row_counts(self) -> dict[str, int]:
        """Complete (CRC-verified) rows in the live generation's WALs:
        the rows replayed at load plus every row appended since.  This
        is the commit/apply cursor replication builds on — a recorder
        publishes these counts as its watermark, a read-only replica
        aligns its tail position to them after a load."""
        counts = self._wal_counts.get(self._generation)
        if counts is None:
            return {"probes": 0, "prices": 0}
        return dict(counts)

    def _bump_wal_count(
        self, kind: str, generation: int | None = None, rows: int = 1
    ) -> None:
        if generation is None:
            generation = self._generation
        counts = self._wal_counts.setdefault(
            generation, {"probes": 0, "prices": 0}
        )
        counts[kind] += rows

    def _fire(self, point: str) -> None:
        if self._faults is not None:
            self._faults.fire(point)

    # -- file layout --------------------------------------------------------
    def _snapshot_path(self, kind: str, generation: int) -> Path:
        return self.root / f"{kind}.{generation}.csv"

    def _wal_path(self, kind: str, generation: int) -> Path:
        return self.root / f"{kind}.wal.{generation}.csv"

    def _generations_on_disk(self) -> set[int]:
        """Every generation number any data file on disk claims (a
        failed ``save()`` can leave files of a generation no manifest
        names; the next save must not collide with them)."""
        generations: set[int] = set()
        for pattern in ("probes.*.csv", "prices.*.csv"):
            for path in self.root.glob(pattern):
                stem = path.name[:-len(".csv")]
                tail = stem.rsplit(".", 1)[-1]
                if tail.isdigit():
                    generations.add(int(tail))
        return generations

    # -- ingestion (write-through to the WAL) -------------------------------
    def insert_probe(self, record: ProbeRecord) -> None:
        if not self.owns(record.market):
            # Filtered records must not reach the WAL either: a shard's
            # snapshot directory holds only its own slice.
            return
        super().insert_probe(record)
        if self._append_log:
            self._fire("datastore.wal.append")
            if self._probe_wal is None:
                self._probe_wal = _CsvAppender(
                    self._wal_path("probes", self._generation), PROBE_CSV_FIELDS
                )
            row = record.to_row()
            self._probe_wal.append([row[field] for field in PROBE_CSV_FIELDS])
            self._bump_wal_count("probes")

    def insert_price(self, record: PriceRecord) -> None:
        if not self.owns(record.market):
            return
        super().insert_price(record)
        if self._append_log:
            self._fire("datastore.wal.append")
            if self._price_wal is None:
                self._price_wal = _CsvAppender(
                    self._wal_path("prices", self._generation), PRICE_CSV_FIELDS
                )
            self._price_wal.append(
                price_csv_row(record.time, record.market, record.price)
            )
            self._bump_wal_count("prices")

    # -- persistence --------------------------------------------------------
    def flush(self) -> None:
        """Push buffered WAL rows to disk without snapshotting."""
        for wal in (self._probe_wal, self._price_wal):
            if wal is not None:
                self._fire("datastore.wal.fsync")
                wal.flush()

    def save(self) -> None:
        """Write a full snapshot; the manifest replace is the atomic
        commit point.

        Every new-generation file is fsync'd (and the directory entry
        for its rename) *before* the manifest rename commits, and the
        manifest itself before its rename — so a crash immediately
        after "commit" can never leave a manifest pointing at torn or
        unwritten snapshot data.  The superseded generation (snapshot
        + WAL + manifest, kept as ``manifest.prev.json``) is retained
        until the *next* save as the fallback should the new snapshot
        ever fail verification; everything older is swept.
        """
        self._close_wals()
        old_generation = self._generation
        # Never reuse a generation number any file on disk claims — a
        # crashed save can leave un-manifested files behind, and a
        # fallback load can leave the live number "in the future".
        new_generation = (
            max({old_generation, *self._generations_on_disk()}) + 1
        )
        checksums: dict[str, str] = {}
        for kind, export in (
            ("probes", self.export_probes_csv),
            ("prices", self.export_prices_csv),
        ):
            self._fire("datastore.save.snapshot")
            tmp = self._snapshot_path(kind, new_generation).with_suffix(
                ".csv.tmp"
            )
            export(tmp)
            checksums[kind] = _sha256_file(tmp)
            _fsync_path(tmp)
            tmp.replace(self._snapshot_path(kind, new_generation))
        previous: dict[str, object] = {"generation": old_generation}
        manifest_path = self.root / _MANIFEST
        if manifest_path.exists():
            try:
                old_manifest = json.loads(manifest_path.read_text())
                previous = {
                    "generation": int(old_manifest.get("generation", 0)),
                    "checksums": old_manifest.get("checksums"),
                }
            except (json.JSONDecodeError, ValueError):
                pass  # a garbled old manifest cannot veto the new save
            prev_tmp = self.root / (_MANIFEST_PREV + ".tmp")
            prev_tmp.write_bytes(manifest_path.read_bytes())
            _fsync_path(prev_tmp)
            prev_tmp.replace(self.root / _MANIFEST_PREV)
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "generation": new_generation,
            "probe_count": len(self),
            "price_count": self.price_count(),
            "markets": len(self.markets),
            "checksums": checksums,
            "previous": previous,
        }
        manifest_tmp = self.root / (_MANIFEST + ".tmp")
        manifest_tmp.write_text(json.dumps(manifest, indent=2))
        _fsync_path(manifest_tmp)
        _fsync_path(self.root)  # snapshot renames are durable pre-commit
        self._fire("datastore.save.commit")
        manifest_tmp.replace(self.root / _MANIFEST)  # commit point
        _fsync_path(self.root)  # ... and so is the commit itself
        self._previous_generation = int(previous["generation"])
        self._generation = new_generation
        self._sweep_stale_files()

    def close(self) -> None:
        """Flush and close the WALs (state stays recoverable on disk)."""
        self._close_wals()

    def _close_wals(self) -> None:
        for attr in ("_probe_wal", "_price_wal"):
            wal = getattr(self, attr)
            if wal is not None:
                self._fire("datastore.wal.fsync")
                wal.close()
                setattr(self, attr, None)

    def _sweep_stale_files(self) -> None:
        """Remove snapshots and WALs of any generation but the live one
        and its retained fallback."""
        keep: set[Path] = set()
        for generation in {self._generation, self._previous_generation}:
            for kind in ("probes", "prices"):
                keep.add(self._snapshot_path(kind, generation))
                keep.add(self._wal_path(kind, generation))
        for pattern in ("probes.*.csv", "prices.*.csv"):
            for path in self.root.glob(pattern):
                if path not in keep:
                    path.unlink()

    # -- loading ------------------------------------------------------------
    def _parse_manifest(self, path: Path) -> dict | None:
        """The manifest as a dict, or None if unreadable/garbled.
        An explicitly *unsupported* version still raises: that is a
        future format, not corruption."""
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(manifest, dict):
            return None
        version = manifest.get("format_version")
        if version not in _SUPPORTED_FORMAT_VERSIONS:
            raise ValueError(
                f"{self.root}: unsupported snapshot format {version!r}"
            )
        return manifest

    def _verify_generation(self, manifest: dict) -> bool:
        """True if every snapshot file the manifest names exists and
        matches its recorded checksum (legacy manifests without
        checksums verify by existence alone; generation 0 has no
        snapshot files by construction)."""
        generation = int(manifest.get("generation", 0))
        if generation == 0:
            return True
        started = time.perf_counter()
        try:
            checksums = manifest.get("checksums") or {}
            for kind in ("probes", "prices"):
                path = self._snapshot_path(kind, generation)
                if not path.exists():
                    return False
                recorded = checksums.get(kind)
                if recorded is not None and _sha256_file(path) != recorded:
                    return False
            return True
        finally:
            self.load_timings["verify_s"] += time.perf_counter() - started

    def _load(self) -> None:
        manifest_path = self.root / _MANIFEST
        live_generation = 0
        fallback_reason: str | None = None
        manifest: dict | None = None
        if manifest_path.exists():
            manifest = self._parse_manifest(manifest_path)
            if manifest is None:
                fallback_reason = "manifest unreadable"
            else:
                live_generation = int(manifest.get("generation", 0))
        if manifest is not None and fallback_reason is None:
            if self._verify_generation(manifest):
                self._load_snapshot_generation(live_generation)
                self._generation = live_generation
                previous = manifest.get("previous") or {}
                self._previous_generation = int(
                    previous.get("generation", max(live_generation - 1, 0))
                )
                # Only now is it safe to retire generations the clean
                # load no longer needs.
                self._sweep_stale_files()
                self._replay_wal_generation(self._generation)
                return
            fallback_reason = "snapshot failed verification"
        if manifest is None and fallback_reason is None:
            # No manifest at all: a never-saved directory.  Replay
            # whatever WAL generation 0 holds.
            self._generation = 0
            self._previous_generation = 0
            self._replay_wal_generation(0)
            return
        self._fall_back(manifest, live_generation, fallback_reason)

    def _fall_back(
        self,
        manifest: dict | None,
        live_generation: int,
        reason: str,
    ) -> None:
        """The live generation is unusable: recover from the retained
        previous generation plus both generations' WALs.  Nothing is
        swept or rewritten here — a damaged directory is evidence, and
        the next successful ``save()`` supersedes all of it anyway."""
        previous = (manifest or {}).get("previous")
        if previous is None:
            prev_manifest = self._parse_manifest(self.root / _MANIFEST_PREV) \
                if (self.root / _MANIFEST_PREV).exists() else None
            if prev_manifest is not None:
                previous = {
                    "generation": int(prev_manifest.get("generation", 0)),
                    "checksums": prev_manifest.get("checksums"),
                }
        if previous is None:
            raise CorruptSnapshotError(
                f"{self.root}: {reason}, and no previous generation is "
                f"recorded to fall back to"
            )
        prev_generation = int(previous.get("generation", 0))
        if not self._verify_generation(
            {"generation": prev_generation,
             "checksums": previous.get("checksums")}
        ):
            raise CorruptSnapshotError(
                f"{self.root}: {reason}, and fallback generation "
                f"{prev_generation} failed verification too"
            )
        self._load_snapshot_generation(prev_generation)
        replayed = [prev_generation]
        # Every WAL generation after the fallback snapshot still holds
        # committed rows the snapshot does not: replay them in order.
        self._replay_wal_generation(prev_generation)
        wal_generations = sorted(
            generation
            for generation in self._generations_on_disk()
            if generation > prev_generation
            and (self._wal_path("probes", generation).exists()
                 or self._wal_path("prices", generation).exists())
        )
        for generation in wal_generations:
            self._replay_wal_generation(generation)
            replayed.append(generation)
        self._generation = max([live_generation, *replayed])
        self._previous_generation = prev_generation
        self.recovery_report["fallback"] = {
            "reason": reason,
            "live_generation": live_generation,
            "recovered_from": prev_generation,
            "wal_generations_replayed": replayed,
        }

    def _load_snapshot_generation(self, generation: int) -> None:
        if generation == 0:
            return
        for kind, append in (
            ("probes", self.append_probe_rows),
            ("prices", self.append_price_rows),
        ):
            path = self._snapshot_path(kind, generation)
            if path.exists():
                stream_csv(path, append)

    def _replay_wal_generation(self, generation: int) -> None:
        for kind, append in (
            ("probes", self.append_probe_rows),
            ("prices", self.append_price_rows),
        ):
            path = self._wal_path(kind, generation)
            if not path.exists():
                continue
            cursor = WalCursor(path)
            while True:
                header, rows = cursor.read()
                if not rows:
                    break
                append(header, rows)
            self._bump_wal_count(kind, generation, cursor.rows)
            with path.open("rb") as handle:
                handle.seek(cursor.offset)
                tail = handle.read()
            if tail:
                # Everything past the verified prefix is a torn or
                # garbled tail: count its lines as dropped.
                self.recovery_report[f"{kind}_wal"] = {
                    "generation": generation,
                    "recovered": cursor.rows,
                    "dropped": tail.count(b"\n") + (not tail.endswith(b"\n")),
                }
                if self._append_log:
                    self._trim_wal(path, cursor.offset)

    def _trim_wal(self, path: Path, size: int) -> None:
        """Cut a WAL back to its verified prefix of ``size`` bytes, so
        appends after a torn-tail recovery land on a clean row boundary
        (read-only opens skip this — they do not own the directory)."""
        tmp = path.with_suffix(".csv.tmp")
        with path.open("rb") as source, tmp.open("wb") as handle:
            handle.write(source.read(size))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
        _fsync_path(self.root)

"""Checkpoint and record-file persistence for long sweeps.

A sweep owns at most one checkpoint file (JSON, atomically replaced) and
any number of record files: the JSON-lines ledger and the CSV export, one
line per record in ascending prime order, appended between checkpoints.
The invariant for every record file: each record at or below the
checkpoint frontier is on disk in the file before the checkpoint naming
that frontier is visible. Resume therefore only ever has to discard lines
past the frontier, never invent missing ones, and RecordWriter does that
for every format; a format adds only its rule for which lines to keep.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import IO, Any, Iterator

from .modular import VerificationRecord

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "Checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "ensure_compatible",
    "RecordWriter",
    "LedgerWriter",
    "CsvWriter",
    "FileSink",
    "canonical_lines",
    "record_to_row",
    "CSV_HEADER",
]

CHECKPOINT_VERSION = 1

# Fields whose values legitimately differ between two runs of the same
# sweep; stripped before any determinism comparison.
VOLATILE_FIELDS = ("elapsed_ns", "wall_seconds")

CSV_HEADER = "prime,residue,violates_kh,elapsed_ns,method"


class CheckpointError(Exception):
    """Base class for checkpoint load/validation failures."""


class CheckpointCorrupt(CheckpointError):
    """File exists but cannot be trusted (bad JSON, wrong shape, wrong version)."""


class CheckpointMismatch(CheckpointError):
    """Valid checkpoint, but for a different command or parameter set."""


@dataclass(frozen=True)
class Checkpoint:
    command: str
    params: dict[str, Any]
    frontier: int
    counters: dict[str, int]
    wall_seconds: float
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if self.frontier < 0:
            raise ValueError(f"frontier must be nonnegative, got {self.frontier}")
        if self.wall_seconds < 0:
            raise ValueError("wall_seconds must be nonnegative")


def _fsync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically publish a checkpoint: temp file, fsync, rename over."""
    payload = json.dumps(dataclasses.asdict(checkpoint), sort_keys=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def load_checkpoint(path: str) -> Checkpoint | None:
    """Read a checkpoint; None when absent, CheckpointCorrupt when unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointCorrupt(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise CheckpointCorrupt(f"{path}: expected a JSON object")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise CheckpointCorrupt(
            f"{path}: unsupported checkpoint version {obj.get('version')!r}"
        )
    try:
        return Checkpoint(
            command=obj["command"],
            params=dict(obj["params"]),
            frontier=int(obj["frontier"]),
            counters={k: int(v) for k, v in obj["counters"].items()},
            wall_seconds=float(obj["wall_seconds"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(f"{path}: malformed field ({exc})") from exc


def ensure_compatible(
    checkpoint: Checkpoint, command: str, params: dict[str, Any]
) -> None:
    """Refuse checkpoints from a different command or parameter set.

    Worker count is intentionally absent from params: partitioning does not
    change the record stream, so a sweep may resume under a different
    process count.
    """
    if checkpoint.command != command:
        raise CheckpointMismatch(
            f"checkpoint is for command {checkpoint.command!r}, not {command!r}"
        )
    if checkpoint.params != params:
        diff = sorted(
            k
            for k in set(checkpoint.params) | set(params)
            if checkpoint.params.get(k) != params.get(k)
        )
        raise CheckpointMismatch(
            f"checkpoint params differ on {', '.join(diff)}: "
            f"{checkpoint.params} vs {params}"
        )


def record_to_row(record: VerificationRecord) -> str:
    return (
        f"{record.prime},{record.residue},"
        f"{str(record.violates_kh).lower()},{record.elapsed_ns},{record.method}"
    )


class RecordWriter:
    """A record file: opened fresh with its header, or cut back to a resume
    frontier by its format's kept_lines rule; then appended to."""

    header = ""

    def __init__(self, path: str, resume_frontier: int | None = None) -> None:
        self.path = path
        self.last_kept: str | None = None
        if resume_frontier is None:
            # treat any stale file as a fresh start
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.header)
        else:
            self._truncate_to(resume_frontier)
        self._fh: IO[str] = open(path, "a", encoding="utf-8", newline="\n")

    def _truncate_to(self, frontier: int) -> None:
        """Cut the file back to the lines kept_lines(file, frontier) yields
        from it (a missing file reads as empty), each ending in a newline,
        and make the cut durable: temp file, fsync, rename over, directory
        fsync. When reading raises, the file stays as it was and the temp
        file goes. last_kept is the last line kept."""
        tmp = f"{self.path}.tmp.{os.getpid()}"
        last = None
        # "a+" creates a missing file, which the rename then replaces
        with open(self.path, "a+", encoding="utf-8") as src, open(
            tmp, "w", encoding="utf-8", newline="\n"
        ) as fh:
            try:
                src.seek(0)
                for last in self.kept_lines(src, frontier):
                    fh.write(last if last.endswith("\n") else last + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            except BaseException:
                os.unlink(tmp)
                raise
        os.replace(tmp, self.path)
        _fsync_dir(self.path)
        self.last_kept = last

    def write(self, line: str) -> None:
        self._fh.write(line + "\n")

    def flush_fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


class LedgerWriter(RecordWriter):
    """Append-only JSON-lines ledger with resume truncation.

    Record lines carry type "record"; a single type "summary" line closes a
    run that finished. Interrupted runs leave no summary, which is how a
    reader tells a partial ledger from a complete one.
    """

    @staticmethod
    def kept_lines(src: IO[str], frontier: int) -> Iterator[str]:
        # every line is parsed, to find a torn tail or a stale summary, but a
        # kept line is copied as it was read; a line that parses but is no
        # record object raises
        for line in src:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                return  # partial tail from an interrupted write
            if not isinstance(obj, dict):
                raise ValueError(f"ledger line is not a JSON object: {line.rstrip()!r}")
            if obj.get("type") != "record":
                continue  # stale summary from an older completed run
            if int(obj.get("prime", -1)) > frontier:
                return
            yield line

    def write_record(self, record: VerificationRecord) -> None:
        # the line json.dumps({"type": "record", **asdict(record)},
        # sort_keys=True) gives, without building the dict; the method is
        # escaped by the function json.dumps uses for a str
        self._fh.write(
            f'{{"elapsed_ns": {record.elapsed_ns:d}, '
            f'"method": {json.encoder.encode_basestring_ascii(record.method)}, '
            f'"prime": {record.prime:d}, "residue": {record.residue:d}, '
            f'"type": "record", '
            f'"violates_kh": {"true" if record.violates_kh else "false"}}}\n'
        )

    def write_summary(self, **fields: Any) -> None:
        self._fh.write(json.dumps({"type": "summary", **fields}, sort_keys=True) + "\n")


class CsvWriter(RecordWriter):
    """The records as CSV rows (record_to_row) under CSV_HEADER."""

    header = CSV_HEADER + "\n"

    @staticmethod
    def kept_lines(src: IO[str], frontier: int) -> Iterator[str]:
        yield CSV_HEADER
        if next(src, "").rstrip("\n") != CSV_HEADER:
            return  # stale file from something else: start over
        for line in src:
            head, comma, _rest = line.partition(",")
            if not comma or not head.isdigit() or int(head) > frontier:
                return  # torn tail, or a row the resumed sweep re-emits
            yield line


def canonical_lines(path: str, volatile: tuple[str, ...] = VOLATILE_FIELDS) -> list[str]:
    """Ledger lines with volatile fields stripped, for determinism diffs."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            for key in volatile:
                obj.pop(key, None)
            out.append(json.dumps(obj, sort_keys=True))
    return out


@dataclass
class FileSink:
    """Checkpoint sink bound to a file, fronting the sweep's record files.

    counters are the caller's running totals: restored from the checkpoint
    and persisted with each frontier. advance() flushes and fsyncs every
    record writer in writers first and only then replaces the checkpoint, so
    a crash between the two leaves record files that are ahead of the
    checkpoint, which is the recoverable direction.
    """

    path: str
    command: str
    params: dict[str, Any]
    writers: tuple[RecordWriter, ...] = ()
    frontier: int | None = field(init=False, default=None)
    counters: dict[str, int] = field(init=False, default_factory=dict)
    base_wall: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        existing = load_checkpoint(self.path)
        if existing is not None:
            ensure_compatible(existing, self.command, self.params)
            self.frontier = existing.frontier
            self.counters = dict(existing.counters)
            self.base_wall = existing.wall_seconds
        self._t0 = time.monotonic()

    def wall_seconds(self) -> float:
        return self.base_wall + (time.monotonic() - self._t0)

    def advance(self, frontier: int) -> None:
        if self.frontier is not None and frontier < self.frontier:
            raise ValueError(f"frontier regressed: {frontier} < {self.frontier}")
        self.frontier = frontier
        for writer in self.writers:
            writer.flush_fsync()
        write_checkpoint(
            self.path,
            Checkpoint(
                command=self.command,
                params=self.params,
                frontier=frontier,
                counters=dict(self.counters),
                wall_seconds=self.wall_seconds(),
            ),
        )

"""Checkpoint and record-file persistence for long sweeps.

A sweep owns at most one checkpoint file (FileSink's, JSON) and any number
of record files: the JSON-lines ledger and the CSV export, one line per
record in ascending prime order, appended between checkpoints. The
invariant for every record file: each record at or below the checkpoint
frontier is on disk in the file before the checkpoint naming that frontier
is visible. Resume therefore only ever has to discard lines past the
frontier, never invent missing ones, and RecordWriter does that for every
format; a format adds only its rule for which lines to keep. Each
checkpoint write and each resume cut is one atomic replace (_replace).
A record is a prime and its residue; the method its line or row names is
the kernel's constant, sweeps.KERNEL_METHOD, written by the format itself.
"""

from __future__ import annotations

import io
import json
import os
import re
from typing import IO, Any, Iterable, Iterator, Sequence

from .sweeps import KERNEL_METHOD, VerificationRecord

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "write_checkpoint",
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
# sweep; stripped before any determinism comparison. Record lines carry
# none of them: the first is the span-average kernel time that the record
# lines of older ledgers carry, kept here so that such a ledger, resumed
# with new lines, compares equal to a clean run.
VOLATILE_FIELDS = ("elapsed_ns", "wall_seconds")

CSV_HEADER = "prime,residue,violates_kh,method"


class CheckpointError(Exception):
    """Base class for checkpoint load/validation failures."""


class CheckpointCorrupt(CheckpointError):
    """File exists but cannot be trusted (bad JSON, wrong shape, wrong version)."""


class CheckpointMismatch(CheckpointError):
    """Valid checkpoint, but for a different command or parameter set."""


def _fsync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace(path: str, lines: Iterable[str]) -> None:
    """Replace the file at path by lines, each ending in a newline, atomically
    and durably: temp file, write, flush, fsync, rename over, directory
    fsync. When writing or renaming raises, the temp file goes and the file
    at path stays as it was (or absent)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            for line in lines:
                fh.write(line if line.endswith("\n") else line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    _fsync_dir(path)


def write_checkpoint(path: str, fields: dict[str, Any]) -> None:
    """Publish a checkpoint's fields as one JSON line with sorted keys."""
    _replace(path, (json.dumps(fields, sort_keys=True),))


# the kernel's method ends every CSV row and starts every ledger line
_ROW_TAIL = f",{KERNEL_METHOD}\n"
_LINE_HEAD = f'{{"method": {json.dumps(KERNEL_METHOD)}, "prime": '


def _csv_rows(primes: Sequence[int], residues: Sequence[int]) -> str:
    """The CSV rows of the records, each ending in a newline; violates_kh is
    VerificationRecord's, residue 0 at an odd prime."""
    return "".join(
        [
            f"{p},{r},{'false' if r or p < 3 else 'true'}{_ROW_TAIL}"
            for p, r in zip(primes, residues)
        ]
    )


def _ledger_lines(primes: Sequence[int], residues: Sequence[int]) -> str:
    """The ledger lines of the records: each is the line
    json.dumps({"type": "record", "method": KERNEL_METHOD, **record._asdict(),
    "violates_kh": record.violates_kh}, sort_keys=True) gives, without
    building the dict, and a newline."""
    return "".join(
        [
            f'{_LINE_HEAD}{p}, "residue": {r}, "type": "record", '
            f'"violates_kh": {"false" if r or p < 3 else "true"}}}\n'
            for p, r in zip(primes, residues)
        ]
    )


# A JSON integer _ledger_lines writes, capped below the fewest digits
# sys.set_int_max_str_digits allows (640), so json.loads parses every one
_LEDGER_INT = r"(?:0|[1-9][0-9]{0,599})"
# The exact record line _ledger_lines writes, newline optional, with the
# prime as group 1. A line that does not match may still be a record, in
# another JSON layout or with another method.
_RECORD_LINE = re.compile(
    re.escape(_LINE_HEAD)
    + rf'({_LEDGER_INT}), "residue": {_LEDGER_INT}, "type": "record", '
    r'"violates_kh": (?:true|false)\}\n?'
)


def record_to_row(record: VerificationRecord) -> str:
    return _csv_rows((record.prime,), (record.residue,))[:-1]


class RecordWriter:
    """A record file: opened fresh with its header, or cut back to a resume
    frontier by its format's kept_lines rule; then appended to a chunk of
    records at a time, formatted by its format's lines function. The owner
    fsyncs it through flush_fsync before each checkpoint, and closes it."""

    header = ""

    def __init__(self, path: str, resume_frontier: int | None = None) -> None:
        self.path = path
        if resume_frontier is None:
            # treat any stale file as a fresh start
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.header)
        else:
            self._truncate_to(resume_frontier)
        self._fh: IO[str] = open(path, "a", encoding="utf-8", newline="\n")

    def _truncate_to(self, frontier: int) -> None:
        """Cut the file back to the lines kept_lines(file, frontier) yields
        from it (a missing file reads as empty), through _replace: when
        reading raises, the file stays as it was (or absent)."""
        try:
            src: IO[str] = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            src = io.StringIO()
        with src:
            _replace(self.path, self.kept_lines(src, frontier))

    def write_chunk(self, primes: Sequence[int], residues: Sequence[int]) -> None:
        """Append the records of one sweep chunk (sweeps.KhChunk) with one write."""
        self._fh.write(self.lines(primes, residues))

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

    lines = staticmethod(_ledger_lines)

    def __init__(
        self, path: str, resume_frontier: int | None = None, *, records: int | None = None
    ) -> None:
        """records: resume_frontier is a checkpoint's, the last prime of a
        chunk whose records all reached the ledger before the checkpoint
        did, and records is the checkpoint's count of them; a ledger that
        holds another number of records up to it, or whose records stop
        short of it, has lost or gained some, and resuming raises
        ValueError rather than cut it back."""
        self.records = records
        super().__init__(path, resume_frontier)

    def kept_lines(self, src: IO[str], frontier: int) -> Iterator[str]:
        # a line _ledger_lines wrote matches _RECORD_LINE and gives its prime
        # without a parse; every other line is parsed, to find a torn tail
        # or a stale summary. A kept line is copied as it was read; a line
        # that parses but is no record object raises, and so does one that
        # does not parse but has lines after it: a torn write is only ever
        # the last line
        last = None  # the prime of the last record kept
        kept = 0
        match = _RECORD_LINE.fullmatch
        for number, line in enumerate(src, 1):
            hit = match(line)
            if hit is not None:
                prime = int(hit[1])
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    if next(src, None) is None:
                        break  # partial tail from an interrupted write
                    raise ValueError(
                        f"ledger {self.path}: line {number} is damaged and lines follow it, "
                        f"so it is no torn tail; refusing to resume from frontier {frontier}"
                    ) from None
                if not isinstance(obj, dict):
                    raise ValueError(f"ledger line is not a JSON object: {line.rstrip()!r}")
                if obj.get("type") != "record":
                    continue  # stale summary from an older completed run
                prime = int(obj.get("prime", -1))
            if prime > frontier:
                break
            last = prime
            kept += 1
            yield line
        if self.records is None:
            return
        if last is None or last < frontier:
            held = "no record" if last is None else f"records only up to {last}"
            raise ValueError(
                f"ledger {self.path} has {held}, short of the checkpoint frontier "
                f"{frontier}; refusing to resume"
            )
        if kept != self.records:
            raise ValueError(
                f"ledger {self.path} has {kept} records up to the checkpoint frontier "
                f"{frontier}, where the checkpoint counts {self.records}; refusing to resume"
            )

    def write_record(self, record: VerificationRecord) -> None:
        self.write_chunk((record.prime,), (record.residue,))

    def write_summary(self, **fields: Any) -> None:
        self._fh.write(json.dumps({"type": "summary", **fields}, sort_keys=True) + "\n")


class CsvWriter(RecordWriter):
    """The records as CSV rows (record_to_row's) under CSV_HEADER.

    The CSV is not authoritative: a resume keeps what it can of a file that
    falls short of the frontier, and short says so. short is true when no
    kept row is the frontier's: the file was missing or stale (another
    header), or its rows stop below the frontier; a fresh writer is never
    short.
    """

    header = CSV_HEADER + "\n"
    lines = staticmethod(_csv_rows)
    short = False

    def kept_lines(self, src: IO[str], frontier: int) -> Iterator[str]:
        self.short = True
        yield CSV_HEADER
        if next(src, "").rstrip("\n") != CSV_HEADER:
            return  # stale file from something else: start over
        for line in src:
            head, comma, _rest = line.partition(",")
            if not comma or not head.isdigit():
                return  # torn tail
            prime = int(head)
            if prime > frontier:
                return  # a row the resumed sweep re-emits
            self.short = prime < frontier
            yield line


def canonical_lines(path: str) -> list[str]:
    """Ledger lines with volatile fields stripped, for determinism diffs."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            for key in VOLATILE_FIELDS:
                obj.pop(key, None)
            out.append(json.dumps(obj, sort_keys=True))
    return out


class FileSink:
    """The sweep's checkpoint file, and only that: its JSON schema (command,
    params, frontier, counters, version), its validation and its writes.

    frontier and counters are the file's: as read when the sink opened it
    (None and {} when there was none), then as each advance() wrote them.
    Fields the schema does not hold are ignored, such as the wall_seconds
    that earlier version-1 files carry. Worker count is intentionally absent
    from params: partitioning does not change the record stream, so a sweep
    may resume under a different process count. The caller owns the running
    counters and the record writers and hands both to advance(), which
    flushes and fsyncs every writer first and only then replaces the
    checkpoint, so a crash between the two leaves record files that are
    ahead of the checkpoint, which is the recoverable direction.
    """

    def __init__(self, path: str, command: str, params: dict[str, Any]) -> None:
        self.path, self.command, self.params = path, command, params
        self.frontier: int | None = None
        self.counters: dict[str, int] = {}
        # the load keeps its own method: perfbench/tracer.py wraps
        # FileSink.__post_init__ to time it
        self.__post_init__()

    def __post_init__(self) -> None:
        path = self.path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointCorrupt(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise CheckpointCorrupt(f"{path}: expected a JSON object")
        # json.loads gives bool for true and false, and float for 1.0
        version = obj.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(f"{path}: unsupported checkpoint version {version!r}")
        params, frontier, counters = obj.get("params"), obj.get("frontier"), obj.get("counters")
        if not isinstance(params, dict) or not isinstance(counters, dict):
            raise CheckpointCorrupt(f"{path}: params and counters must be JSON objects")
        if not all(type(v) is int for v in (frontier, *counters.values())):
            raise CheckpointCorrupt(f"{path}: frontier and counters must be JSON integers")
        if "command" not in obj:
            raise CheckpointCorrupt(f"{path}: malformed field ('command')")
        if frontier < 0:
            raise CheckpointCorrupt(
                f"{path}: malformed field (frontier must be nonnegative, got {frontier})"
            )
        if obj["command"] != self.command:
            raise CheckpointMismatch(
                f"checkpoint is for command {obj['command']!r}, not {self.command!r}"
            )
        # compared as JSON text, so that 20000.0 or true is not 20000 or 1
        found = {k: json.dumps(v, sort_keys=True) for k, v in params.items()}
        wanted = {k: json.dumps(v, sort_keys=True) for k, v in self.params.items()}
        if found != wanted:
            diff = sorted(k for k in found.keys() | wanted.keys() if found.get(k) != wanted.get(k))
            raise CheckpointMismatch(
                f"checkpoint params differ on {', '.join(diff)}: {params} vs {self.params}"
            )
        self.frontier, self.counters = frontier, counters

    def advance(
        self, frontier: int, counters: dict[str, int], writers: Sequence[RecordWriter] = ()
    ) -> None:
        if frontier < (self.frontier or 0):
            raise ValueError(f"frontier regressed: {frontier} < {self.frontier or 0}")
        for writer in writers:
            writer.flush_fsync()
        counters = dict(counters)
        write_checkpoint(self.path, {
            "command": self.command, "params": self.params, "frontier": frontier,
            "counters": counters, "version": CHECKPOINT_VERSION,
        })
        self.frontier, self.counters = frontier, counters

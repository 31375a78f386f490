"""Fakes that drive kh's interrupted-run and violation paths from outside
the command, in the test's own process, and the environment of a child
process that runs this checkout's package."""

from __future__ import annotations

import contextlib
import os

import pytest

import leftfact
from leftfact import sweeps
from leftfact.harness import FileSink, RecordWriter


@contextlib.contextmanager
def interrupted_at_advance(k):
    """FileSink.advance raises KeyboardInterrupt on its kth call inside the
    block, before it syncs or checkpoints anything, as Ctrl-C or a crash
    between a chunk's write and its checkpoint would: that chunk's records
    reach the files, and the checkpoint stays at the chunk before it (there
    is none for k = 1). The block must end in that interrupt."""
    advance, calls = FileSink.advance, []

    def advance_or_interrupt(self, frontier, counters, writers=()):
        calls.append(frontier)
        if len(calls) == k:
            raise KeyboardInterrupt
        advance(self, frontier, counters, writers)

    FileSink.advance = advance_or_interrupt
    try:
        with pytest.raises(KeyboardInterrupt):
            yield
    finally:
        FileSink.advance = advance


@contextlib.contextmanager
def interrupted_after_records(n):
    """A record writer raises KeyboardInterrupt inside the block once its file
    holds n records, partway through writing a chunk when n falls inside one,
    as Ctrl-C or a crash during a chunk's write would: the records before it
    reach the file, and the checkpoint stays at the last whole chunk that
    advanced (there is none while n <= CHUNK_PRIMES). The block must end in
    that interrupt."""
    write_chunk, written = RecordWriter.write_chunk, {}

    def write_or_interrupt(self, primes, residues):
        before = written.get(id(self), 0)
        take = min(len(primes), n - before)
        write_chunk(self, primes[:take], residues[:take])
        written[id(self)] = before + take
        if before + take == n:
            raise KeyboardInterrupt

    RecordWriter.write_chunk = write_or_interrupt
    try:
        with pytest.raises(KeyboardInterrupt):
            yield
    finally:
        RecordWriter.write_chunk = write_chunk


def zero_residue_at(monkeypatch, prime):
    """The kernel gives prime a zero residue, as a real violation would. Only
    a one-worker sweep is sure to run its kernel in this process, so a sweep
    under it runs one worker."""
    kernel = sweeps.batch_residues

    def zero_at(primes):
        residues = kernel(primes)
        residues[primes == prime] = 0
        return residues

    monkeypatch.setattr(sweeps, "batch_residues", zero_at)


def child_env():
    """os.environ with PYTHONPATH led by the source this test imports, so a
    child process runs it whatever the working directory or an installed
    copy of the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}

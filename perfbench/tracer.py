"""In-memory spans and the wrappers that record them, for the traced run only.

A span is [name id, start ns, end ns, parent index]; spans nest by a stack,
so a span opened inside another (a kernel call inside a `kh_sweep` step)
records it as parent. Nothing under `src/` knows about tracing: `install_*`
rebinds the names each module looks up at call time, and the untraced run
never imports this file.

Span names are `<layer>.<what>`; the layer is the module the span wraps,
`python` (interpreter start-up) or `oracles` (the query driver itself).
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, _now(), 0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A finished top-level span timed elsewhere (on the same clock)."""
        self.end(self.begin(name))
        self.spans[-1][1:3] = [start_ns, end_ns]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counters": self.counters, **extra},
                fh,
            )


class _TracedIterator:
    """A generator stand-in whose every step is one span (close() forwarded)."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.begin(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.end(idx)

    def close(self) -> None:
        self._inner.close()


class _FsyncOs:
    """Stands in for the `os` module inside one module, tracing fsync only."""

    def __init__(self, real, fsync) -> None:
        self._real = real
        self.fsync = fsync

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def _install_kernel(tracer: Tracer) -> None:
    from leftfact import sweeps

    kernel = tracer.wrap("sweeps.kernel", sweeps.batch_residues)

    def batch_residues(primes, *args, **kwargs):
        out = kernel(primes, *args, **kwargs)
        if len(primes):
            # the kernel walks i over [2, top) and prime p is live for p - 2 of them
            tracer.count("sweeps.kernel_loop_iters", int(primes[-1]) - 2)
            tracer.count("sweeps.kernel_element_steps", int(primes.sum()) - 2 * len(primes))
        return out

    sweeps.batch_residues = batch_residues
    sweeps.build_sieve = tracer.wrap("primes.sieve", sweeps.build_sieve)


def install_cli(tracer: Tracer) -> None:
    """Wrap what `leftfact.cli` binds by name and what `sweeps` and `harness`
    look up through their module globals."""
    import os

    from leftfact import cli, harness

    _install_kernel(tracer)

    sweep = cli.kh_sweep
    cli.kh_sweep = lambda *a, **k: _TracedIterator(tracer, "sweeps.kh_sweep", sweep(*a, **k))
    cli.record_to_row = tracer.wrap("cli.csv_row", cli.record_to_row)
    harness.write_checkpoint = tracer.wrap("harness.checkpoint_write", harness.write_checkpoint)
    harness.os = _FsyncOs(os, tracer.wrap("harness.fsync", os.fsync))

    # subclasses, so that FileSink's own __init__ and advance() reach the
    # traced methods; write_checkpoint and fsync calls nest inside them
    sink, ledger = cli.FileSink, cli.LedgerWriter
    cli.FileSink = type("FileSink", (sink,), {
        "__post_init__": tracer.wrap("harness.checkpoint_load", sink.__post_init__),
        "advance": tracer.wrap("harness.advance", sink.advance),
    })
    cli.LedgerWriter = type("LedgerWriter", (ledger,), {
        "__init__": tracer.wrap("harness.ledger_open", ledger.__init__),
        "write_record": tracer.wrap("harness.ledger_write", ledger.write_record),
        "write_summary": tracer.wrap("harness.ledger_write", ledger.write_summary),
        "flush_fsync": tracer.wrap("harness.ledger_flush", ledger.flush_fsync),
    })


def install_library(tracer: Tracer) -> None:
    """Wrap the public functions the oracle queries call, plus the one
    escalation point inside factorint (`sympy.factorint`, looked up on the
    sympy module at call time)."""
    import sympy

    from leftfact import analytic, exact, factorint, modular, primes, sweeps

    _install_kernel(tracer)
    primes.build_sieve = tracer.wrap("primes.sieve", primes.build_sieve)
    sweeps.kh2_scan = tracer.wrap("sweeps.kh2_scan", sweeps.kh2_scan)
    factorint.factorize = tracer.wrap("factorint.factorize", factorint.factorize)
    sympy.factorint = tracer.wrap("factorint.sympy", sympy.factorint)
    exact.evaluate_identity = tracer.wrap("exact.identity", exact.evaluate_identity)
    exact.partial_sum_gcd = tracer.wrap("exact.identity", exact.partial_sum_gcd)
    modular.kh_equivalent_residue = tracer.wrap("modular.variant", modular.kh_equivalent_residue)
    analytic.k_continued = tracer.wrap("analytic.k_continued", analytic.k_continued)

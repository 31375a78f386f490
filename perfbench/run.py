#!/usr/bin/env python3
"""The leftfact benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --ledger-sha256 HEX --workload kh-sweep \
        --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing, children
get `PYTHONPATH=src`. Workloads (a closed loop with one client, each
repetition in a fresh process):

  kh-sweep  `leftfact kh --from 3 --to 100000 --workers 1` with checkpoint,
            ledger and CSV, into a fresh directory each time.
  kh-rerun  the same command over a completed checkpoint, ledger and CSV
            (the resume path: no kernel work, only file work).
  oracles   criteria 01, 05, 06 and 08 replayed through the library
            (factoring, identities, variant residues, analytic pairs).

The run pins itself and its children to one core, and the end-to-end times
are scaled to that core's speed, which this process samples while each
child runs (see refclock.py); raw medians are printed too.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from an in-process traced run (see tracer.py) alternated with untraced
repetitions, whose ratio is the tracing overhead. Before the result, stdout
carries one line per metric and a provenance line; the last line is the
JSON result. A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refclock
from checks import KH_HI

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a set-up that fails)."""


# ---------------------------------------------------------------- processes


@dataclass
class Child:
    returncode: int
    wall_s: float  # core-speed samples excluded
    sampled_s: float  # the samples this process took on the child's core
    rss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, meter: refclock.Meter | None = None) -> Child:
    """Run argv to completion; wall time and the child's own peak RSS.

    With a meter, this process takes a core-speed sample every GAP_S while
    the child runs on the same core, and the samples' own time is left out
    of the child's wall time. A pidfd shows the child's end at once. The
    RSS comes from os.wait4. Linux starts a child's high-water mark at its
    parent's RSS when it spawns, which is why this process stays free of
    numpy and the package. A child that outlives CHILD_TIMEOUT_S is killed.
    """
    err = cwd / "child.stderr"
    with open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=fe)
        sampled = 0.0
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ended = select.poll()
                ended.register(pidfd, select.POLLIN)
                gap_ms = refclock.GAP_S * 1000 if meter else 1000
                while True:
                    if meter is not None:
                        sampled += meter.take()
                    if ended.poll(gap_ms):
                        break
                    if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                        proc.kill()
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - t0 - sampled
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: keep Popen from waiting
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        sampled_s=sampled,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        stderr=err.read_text(encoding="utf-8", errors="replace"),
    )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_probe(cwd: Path, meter: refclock.Meter) -> None:
    """Import the package in a child. This warms the page cache and, unless
    PYTHONDONTWRITEBYTECODE is set, writes the bytecode cache, so that the
    first timed repetition pays neither."""
    child = run_child([sys.executable, "-c", "import leftfact.cli"], cwd, meter)
    if child.returncode != 0:
        raise BenchError(f"importing leftfact failed:\n{child.stderr}")


# --------------------------------------------------------------- workloads


@dataclass
class Rep:
    child: Child
    scaled_s: float  # the child's wall time scaled to the reference core speed (refclock.py)
    primes: int  # primes whose KH residue the repetition produced or verified
    queries: int
    failures: list[str]
    layers: dict[str, float] | None = None  # traced repetitions only
    layer_self_s: dict[str, float] | None = None


def checked_rep(workload: str, child: Child, d: Path, traced: bool, scaled_s: float,
                *check_args: str, meter: refclock.Meter | None = None) -> Rep:
    """Judge a finished repetition in a checker process (checks.py); a
    meter makes the checker's time part of the stretch it measures."""
    if child.returncode != 0:
        failure = f"exit code {child.returncode}: {child.stderr[-2000:]}"
        return Rep(child, scaled_s, 0, 1, [failure])
    argv = [sys.executable, str(HERE / "checks.py"), workload, "--dir", str(d), *check_args]
    checker = run_child(argv + (["--trace"] if traced else []), d, meter)
    if checker.returncode != 0:
        raise BenchError(f"checker failed:\n{checker.stderr}")
    got = json.loads((d / "check.json").read_text(encoding="utf-8"))
    return Rep(child, scaled_s, got["primes"], got["queries"], got["failures"],
               got["layers"], got["layer_self_s"])


class KhSweep:
    """The checkpointed CLI sweep over [3, 10^5], from scratch each time."""

    name = "kh-sweep"

    def __init__(self, work: Path, args: argparse.Namespace) -> None:
        self.work = work
        self.ledger_sha256 = args.ledger_sha256

    def cli_args(self, d: Path) -> list[str]:
        return [
            "kh", "--from", "3", "--to", str(KH_HI), "--workers", "1",
            "--checkpoint", str(d / "cp.json"),
            "--ledger", str(d / "ledger.jsonl"),
            "--csv", str(d / "out.csv"),
        ]

    def setup(self, meter: refclock.Meter) -> None:
        import_probe(fresh_dir(self.work / "setup"), meter)

    def prepare(self, d: Path) -> None:
        """Lay out the run directory before the timed command (nothing here)."""

    def check_args(self) -> list[str]:
        return ["--ledger-sha256", self.ledger_sha256]

    def rep(self, traced: bool) -> Rep:
        d = fresh_dir(self.work / "run")
        self.prepare(d)
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "kh",
                    "--trace-out", str(d / "trace.json"),
                    "--launched-ns", str(time.perf_counter_ns()), "--", *self.cli_args(d)]
        else:
            argv = [sys.executable, "-m", "leftfact.cli", *self.cli_args(d)]
        meter = refclock.Meter()
        child = run_child(argv, d, meter)
        return checked_rep(self.name, child, d, traced, meter.scale(child.wall_s),
                           *self.check_args())


class KhRerun(KhSweep):
    """The same command over a completed run: the resume path alone."""

    name = "kh-rerun"

    def setup(self, meter: refclock.Meter) -> None:
        d = fresh_dir(self.work / "fixture")
        child = run_child([sys.executable, "-m", "leftfact.cli", *self.cli_args(d)], d, meter)
        got = checked_rep("kh-sweep", child, d, False, child.wall_s,
                          "--ledger-sha256", self.ledger_sha256, meter=meter)
        if got.failures:
            raise BenchError(f"fixture sweep failed its checks: {got.failures}")
        self.fixture = d

    def prepare(self, d: Path) -> None:
        for name in ("cp.json", "ledger.jsonl", "out.csv"):
            shutil.copyfile(self.fixture / name, d / name)

    def check_args(self) -> list[str]:
        return ["--fixture", str(self.fixture)]


class Oracles:
    """The exact and analytic query set, one full pass per repetition."""

    name = "oracles"

    def __init__(self, work: Path, args: argparse.Namespace) -> None:
        self.work = work
        self.seed = args.seed
        self.plan = self.work / "plan.json"

    def setup(self, meter: refclock.Meter) -> None:
        import oracles

        d = fresh_dir(self.work / "setup")
        self.plan.write_text(json.dumps(oracles.make_plan(self.seed)), encoding="utf-8")
        import_probe(d, meter)

    def rep(self, traced: bool) -> Rep:
        d = fresh_dir(self.work / "run")
        argv = [sys.executable, str(HERE / "child.py"), "oracles",
                "--plan", str(self.plan), "--out", str(d / "answers.json")]
        if traced:
            argv += ["--trace-out", str(d / "trace.json"),
                     "--launched-ns", str(time.perf_counter_ns())]
        meter = refclock.Meter()
        child = run_child(argv, d, meter)
        return checked_rep(self.name, child, d, traced, meter.scale(child.wall_s),
                           "--plan", str(self.plan))


WORKLOADS = {w.name: w for w in (KhSweep, KhRerun, Oracles)}


# ------------------------------------------------------------ measurement


def provenance(work: Path, cpu: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    def fs_type(path: Path) -> str:
        best, kind = "", "unknown"
        try:
            with open("/proc/self/mountinfo", encoding="utf-8") as fh:
                for line in fh:
                    left, _, right = line.partition(" - ")
                    mount = left.split()[4]
                    inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                    if inside and len(mount) >= len(best):
                        best, kind = mount, right.split()[0]
        except OSError:
            pass
        return kind

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "work_dir_fs": fs_type(work),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def measure(workload, seconds: int, traced: bool) -> tuple[list[float], list[Rep], list[Rep]]:
    """Set up SETUP_REPS times (each scaled like a repetition), then repeat
    until the next repetition would overrun `seconds`. Traced runs alternate untraced and traced repetitions
    and make at least one of each."""
    setups = []
    for _ in range(SETUP_REPS):
        meter = refclock.Meter()
        t0 = time.perf_counter()
        workload.setup(meter)
        setups.append(meter.scale(time.perf_counter() - t0 - meter.taken_s))
    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    cycle: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if traced and len(cycle) % 2 == 1:
            traced_reps.append(workload.rep(traced=True))
        else:
            plain.append(workload.rep(traced=False))
        cycle.append(time.perf_counter() - t0)
        if len(cycle) >= (2 if traced else 1) and (
            time.perf_counter() + statistics.median(cycle) > deadline
        ):
            return setups, plain, traced_reps


def end_to_end(setups: list[float], reps: list[Rep]) -> dict[str, float]:
    """Medians; the time metrics at the reference core speed."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r.scaled_s for r in reps),
        "primes_per_s": statistics.median(r.primes / r.scaled_s for r in reps),
        "queries_per_s": statistics.median(r.queries / r.scaled_s for r in reps),
        "peak_rss_mb": statistics.median(r.child.rss_mb for r in reps),
    }


def per_layer(plain: list[Rep], traced: list[Rep]) -> tuple[dict[str, float], Rep | None]:
    """Medians over the traced repetitions plus the two ratios against wall
    time, and the median traced repetition (for its per-layer self times).
    Without a traced repetition that passed its checks, every value is 0."""
    rows = [r for r in traced if r.layers]
    if not rows:
        return collections.defaultdict(int), None
    out = {name: statistics.median(r.layers[name] for r in rows) for name in rows[0].layers}
    out["trace.overhead_ratio"] = (
        statistics.median(r.scaled_s for r in traced) / statistics.median(r.scaled_s for r in plain)
    )
    out["host.raw_wall_s"] = statistics.median(r.child.wall_s for r in plain)
    out["host.slowdown"] = statistics.median(r.child.wall_s / r.scaled_s for r in plain)
    # the spans also cover the time the child lost to the samples
    out["trace.accounted_ratio"] = statistics.median(
        r.layers["trace.traced_s"] / (r.child.wall_s + r.child.sampled_s) for r in rows
    )
    return out, sorted(rows, key=lambda r: r.child.wall_s)[len(rows) // 2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ledger-sha256", required=True,
                    help="sha256 of canonical_lines of the kh ledger at [3, 10^5]")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "leftfact" / "cli.py").is_file():
        print(f"perfbench: no leftfact source tree under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cpu = refclock.pin()
    work = fresh_dir(WORK / f"{args.workload}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](work, args)
        try:
            setups, plain, traced = measure(workload, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"provenance": provenance(work, cpu)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    reps = plain + traced
    attempted = sum(r.queries for r in reps)
    failed = sum(min(len(r.failures), r.queries) for r in reps)
    for r in reps:
        for msg in r.failures[:5]:
            print(f"check failed: {msg}", file=sys.stderr)
    print(f"# {args.workload}: {len(plain)} untraced and {len(traced)} traced repetitions, "
          f"fail_ratio {failed / attempted} ({failed}/{attempted})")
    print(f"# raw wall_s median {statistics.median(r.child.wall_s for r in plain)} s, "
          f"core slowdown median {statistics.median(r.child.wall_s / r.scaled_s for r in plain)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, mid = per_layer(plain, traced)
        if mid is not None:
            for layer, sec in sorted(mid.layer_self_s.items(), key=lambda kv: -kv[1]):
                life_s = mid.child.wall_s + mid.child.sampled_s
                print(f"# self time {layer:<10} {sec:10.4f} s {sec / life_s:7.2%} "
                      f"of the median traced repetition's {life_s:.4f} s")
    else:
        values = end_to_end(setups, plain)
    for name, unit in units.items():
        print(f"# {name} = {values[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

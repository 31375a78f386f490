#!/usr/bin/env python3
"""Time `kh`'s start-up, `kh` runs and reruns and the prime sieve on two
source trees, and write the comparison as JSON.

    python3 tools/bench_numpy_free_kh.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json. Every measurement runs in a fresh child process with
PYTHONPATH=<tree>/src, in pairs that alternate which tree goes first, and
takes the child's wall time and its own peak RSS (os.wait4). This process
imports neither numpy nor the package, because Linux starts a child's peak
RSS at its parent's.

- `import`: `python -c "import leftfact.cli"`.
- `kh-fresh`: `python -m leftfact.cli kh --from 3 --to 100000 --workers 1`
  with checkpoint, ledger and CSV, in an empty directory.
- `kh-rerun`: the same command over copies of a finished run's files.
- `kh-rerun 10^k`, k = 7, 8: a rerun over a finished `kh --from 10^k - 2000
  --to 10^k`. The short range keeps the fixture's sweep to about a minute;
  the parent sieves all of [0, 10^k] on every rerun whatever --from is.
- `sieve 10^k`: `build_sieve(10**k)`, timed inside the child, for k = 6, 7, 8.
- `perfbench W`: PERFBENCH[W] pairs of BENCHMARK.json's command on workload
  W (seeds from SEED on, `--seconds 30`), and TRACE_PAIRS traced pairs of
  each kh workload for the layers `cli.import_s`, `primes.sieve_s` and
  `cli.self_s`.

Each row gives both sides' medians and quartiles and how many pairs the
change won. --cpu pins this process and its children to one core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10
SIEVE_PAIRS = 3
PERFBENCH = {"kh-rerun": 10, "kh-sweep": 5, "oracles": 3}
TRACE_PAIRS = 2
SEED = 201
KH_FILES = ("cp.json", "ledger.jsonl", "out.csv")
SIEVE_LIMITS = (6, 7, 8)
SIEVE_CODE = (
    "import time\n"
    "from leftfact.primes import build_sieve\n"
    "t0 = time.perf_counter()\n"
    "build_sieve(10**{k})\n"
    "print(time.perf_counter() - t0)\n"
)
LAYERS = ("cli.import_s", "primes.sieve_s", "cli.self_s")


def kh(lo: int, hi: int) -> list[str]:
    return ["kh", "--from", str(lo), "--to", str(hi), "--workers", "1",
            "--checkpoint", "cp.json", "--ledger", "ledger.jsonl", "--csv", "out.csv"]


# the runs to rerun, by their upper limit's exponent
RUNS = {5: kh(3, 10**5), 7: kh(10**7 - 2000, 10**7), 8: kh(10**8 - 2000, 10**8)}
HIGHER_BETTER = ("primes_per_s", "queries_per_s")


def run(tree: Path, argv: list[str], cwd: Path) -> tuple[float, float, str]:
    """Wall time, peak RSS in MB and stdout of argv run from cwd on tree's src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} on {tree} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, out


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Probes:
    """The child-process measurements, each returning {metric: value}."""

    def __init__(self, trees: dict[str, Path], work: Path) -> None:
        self.trees, self.work = trees, work
        self.fixtures = {}
        for k, argv in RUNS.items():
            for side, tree in trees.items():
                d = fresh(work / f"fixture-{k}-{side}")
                run(tree, [sys.executable, "-m", "leftfact.cli", *argv], d)
                self.fixtures[k, side] = d

    def timed(self, side: str, argv: list[str], cwd: Path) -> dict[str, float]:
        wall, rss, _ = run(self.trees[side], [sys.executable, *argv], cwd)
        return {"wall_s": wall, "peak_rss_mb": rss}

    def import_cli(self, side: str) -> dict[str, float]:
        return self.timed(side, ["-c", "import leftfact.cli"], self.work)

    def kh_fresh(self, side: str) -> dict[str, float]:
        return self.timed(side, ["-m", "leftfact.cli", *RUNS[5]], fresh(self.work / "run"))

    def kh_rerun(self, k: int):
        def probe(side: str) -> dict[str, float]:
            d = fresh(self.work / "run")
            for name in KH_FILES:
                shutil.copyfile(self.fixtures[k, side] / name, d / name)
            return self.timed(side, ["-m", "leftfact.cli", *RUNS[k]], d)
        return probe

    def sieve(self, k: int):
        def probe(side: str) -> dict[str, float]:
            argv = [sys.executable, "-c", SIEVE_CODE.format(k=k)]
            _, rss, out = run(self.trees[side], argv, self.work)
            return {"sieve_s": float(out), "peak_rss_mb": rss}
        return probe


def perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict[str, float]:
    """BENCHMARK.json's command on one workload, run in tree; its metrics."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "30", "--trace", str(trace)]
    got = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    result = json.loads(got.stdout.strip().splitlines()[-1])
    if got.returncode != 0 or not result["correct"]:
        raise SystemExit(f"perfbench {workload} failed on {tree}:\n{got.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def pairs(count: int, probe) -> list[dict[str, dict[str, float]]]:
    """count pairs of probe(side), alternating which side goes first."""
    out = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out.append({side: probe(side, i) for side in order})
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(rows: list[dict[str, dict[str, float]]]) -> dict:
    """Per metric: both sides' quartiles, the relative change of the
    medians, and how many pairs the change won."""
    out = {}
    for metric in rows[0]["parent"]:
        parent = [r["parent"][metric] for r in rows]
        change = [r["change"][metric] for r in rows]
        p, c = quartiles(parent), quartiles(change)
        higher = metric in HIGHER_BETTER
        won = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
        out[metric] = {
            "parent_q1_median_q3": [round(v, 6) for v in p],
            "change_q1_median_q3": [round(v, 6) for v in c],
            "relative": round(c[1] / p[1] - 1, 4) if p[1] else None,
            "change_better_pairs": f"{won}/{len(rows)}",
            "parent_iqr": round(p[2] - p[0], 6),
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--cpu", type=int, help="pin this process and its children to one core")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {
        "host": {"nproc": os.cpu_count(), "pinned_cpu": args.cpu,
                 "python": platform.python_version(), "machine": platform.machine()},
        "trees": {side: tree.name for side, tree in trees.items()},
        "options": {"pairs": PAIRS, "sieve_pairs": SIEVE_PAIRS, "perfbench": PERFBENCH,
                    "trace_pairs": TRACE_PAIRS, "seed": SEED},
        "traced_layers": LAYERS,
        "rows": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-numpy-free-") as tmp:
        probes = Probes(trees, Path(tmp))
        plan = [("import leftfact.cli", PAIRS, probes.import_cli),
                ("kh to 10^5, rerun", PAIRS, probes.kh_rerun(5)),
                ("kh to 10^5, fresh", PAIRS, probes.kh_fresh)]
        plan += [(f"kh from 10^{k} - 2000 to 10^{k}, rerun", PAIRS, probes.kh_rerun(k))
                 for k in RUNS if k != 5]
        plan += [(f"build_sieve(10^{k})", SIEVE_PAIRS, probes.sieve(k)) for k in SIEVE_LIMITS]
        for name, count, probe in plan:
            rows = pairs(count, lambda side, _i, probe=probe: probe(side))
            report["rows"][name] = summarize(rows)
            print(name, json.dumps(report["rows"][name]), flush=True)

    for workload, count in PERFBENCH.items():
        for trace, n in ((0, count), (1, TRACE_PAIRS if workload != "oracles" else 0)):
            if not n:
                continue
            rows = pairs(n, lambda side, i, w=workload, t=trace:
                         perfbench(trees[side], w, SEED + i, t))
            if trace:
                rows = [{s: {k: r[s][k] for k in LAYERS} for s in r} for r in rows]
            name = f"perfbench {workload}" + (" traced" if trace else "")
            report["rows"][name] = summarize(rows)
            print(name, json.dumps(report["rows"][name]), flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

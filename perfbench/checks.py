"""Checks one repetition's outputs, and turns its trace into per-layer metrics.

    checks.py kh-sweep --dir D --ledger-sha256 HEX [--trace]
    checks.py kh-rerun --dir D --fixture F [--trace]
    checks.py oracles --dir D --plan P [--trace]

Runs as its own process after each repetition, so that the benchmark's
parent never imports numpy, sympy or the package: a child's peak RSS, read
through os.wait4, starts from its parent's high-water mark at spawn time.
Writes D/check.json: {"failures", "primes", "queries", "layers", "layer_self_s"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

KH_HI = 100_000
KH_RECORDS = 9591  # odd primes in [3, 10^5]


def ledger_digest(path: Path) -> str:
    from leftfact.harness import canonical_lines

    h = hashlib.sha256()
    for line in canonical_lines(str(path)):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def csv_without_elapsed(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    col = rows[0].index("elapsed_ns") if rows and "elapsed_ns" in rows[0] else None
    return [r[:col] + r[col + 1:] if col is not None else r for r in rows]


def check_sweep(d: Path, want_sha: str) -> tuple[list[str], int]:
    """Record and violation counts, the canonical ledger's digest, and the
    CSV's prime/residue columns against the ledger; returns the records
    the summary line reports."""
    failures = []
    with open(d / "ledger.jsonl", encoding="utf-8") as fh:
        ledger = [json.loads(line) for line in fh]
    records = [r for r in ledger if r.get("type") == "record"]
    summaries = [r for r in ledger if r.get("type") == "summary"]
    if len(records) != KH_RECORDS:
        failures.append(f"{len(records)} ledger records, want {KH_RECORDS}")
    violations = sum(bool(r["violates_kh"]) for r in records)
    if violations:
        failures.append(f"{violations} violations")
    if len(summaries) != 1 or summaries[0].get("records") != KH_RECORDS:
        failures.append(f"ledger summaries {summaries}")
    digest = ledger_digest(d / "ledger.jsonl")
    if digest != want_sha:
        failures.append(f"canonical ledger sha256 {digest}, want {want_sha}")
    rows = csv_without_elapsed(d / "out.csv")[1:]
    if [r[:2] for r in rows] != [[str(r["prime"]), str(r["residue"])] for r in records]:
        failures.append("CSV prime,residue columns differ from the ledger")
    return failures, summaries[0].get("records", 0) if summaries else 0


def check_rerun(d: Path, fixture: Path) -> tuple[list[str], int]:
    """The resumed ledger (canonically) and the CSV, elapsed_ns aside, are
    the fixture's."""
    failures = []
    if ledger_digest(d / "ledger.jsonl") != ledger_digest(fixture / "ledger.jsonl"):
        failures.append("resumed ledger differs from the fixture")
    if csv_without_elapsed(d / "out.csv") != csv_without_elapsed(fixture / "out.csv"):
        failures.append("resumed CSV differs from the fixture")
    with open(d / "ledger.jsonl", encoding="utf-8") as fh:
        summary = json.loads(fh.readlines()[-1])
    return failures, summary.get("records", 0)


def check_element_steps(trace: dict) -> list[str]:
    """The counted kernel element steps must equal the cost model's
    A(x)/4 - 2*pi(x) whenever the sweep ran through batch_residues."""
    steps = trace["counters"].get("sweeps.kernel_element_steps", 0)
    if not steps:
        return []
    from leftfact.modular import cost_model
    from leftfact.primes import build_sieve

    want = cost_model(KH_HI).exact_a // 4 - 2 * len(build_sieve(KH_HI).primes_up_to(KH_HI))
    return [] if steps == want else [f"kernel element steps {steps}, cost model says {want}"]


def summarize(trace: dict) -> dict[str, dict]:
    """Per span name: inclusive ns, self ns (duration minus children), calls
    and the list of durations; plus the total of the top-level spans."""
    spans, names = trace["spans"], trace["names"]
    children_ns = [0] * len(spans)
    for _nid, start, end, parent in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    out: dict[str, dict] = {}
    top_ns = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        row = out.setdefault(names[nid], {"incl": 0, "self": 0, "durs": []})
        row["incl"] += end - start
        row["self"] += end - start - children_ns[i]
        row["durs"].append(end - start)
        if parent < 0:
            top_ns += end - start
    return {"names": out, "top_ns": top_ns}


def layer_metrics(trace: dict, ledger_bytes: int) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced repetition (all but the two
    ratios against wall time, which the parent forms), and self seconds per
    layer (the span-name prefix), which sum to `trace.traced_s`."""
    summary = summarize(trace)
    spans, counters = summary["names"], trace["counters"]
    empty = {"incl": 0, "self": 0, "durs": []}

    def s(name: str) -> float:
        return spans.get(name, empty)["incl"] / 1e9

    def calls(name: str) -> int:
        return len(spans.get(name, empty)["durs"])

    iters = counters.get("sweeps.kernel_loop_iters", 0)
    k_durs = spans.get("analytic.k_continued", empty)["durs"]
    hits = trace.get("integral_cache_hits", 0)
    lookups = hits + trace.get("integral_cache_misses", 0)
    metrics = {
        "primes.sieve_s": s("primes.sieve"),
        "sweeps.kernel_s": s("sweeps.kernel"),
        "sweeps.kernel_calls": calls("sweeps.kernel"),
        "sweeps.kernel_loop_iters": iters,
        "sweeps.kernel_element_steps": counters.get("sweeps.kernel_element_steps", 0),
        "sweeps.kernel_ns_per_loop_iter": s("sweeps.kernel") * 1e9 / iters if iters else 0,
        "sweeps.emit_self_s": spans.get("sweeps.kh_sweep", empty)["self"] / 1e9,
        "sweeps.kh2_scan_s": s("sweeps.kh2_scan"),
        "modular.variant_s": s("modular.variant"),
        "modular.variant_calls": calls("modular.variant"),
        "harness.ledger_write_s": s("harness.ledger_write"),
        "harness.ledger_bytes": ledger_bytes,
        "harness.advance_s": s("harness.advance"),
        "harness.checkpoint_write_s": s("harness.checkpoint_write"),
        "harness.fsync_s": s("harness.fsync"),
        "harness.fsync_calls": calls("harness.fsync"),
        "harness.checkpoint_load_s": s("harness.checkpoint_load"),
        "harness.ledger_open_s": s("harness.ledger_open"),
        "cli.import_s": s("cli.import"),
        "cli.csv_row_s": s("cli.csv_row"),
        "cli.self_s": spans.get("cli.main", empty)["self"] / 1e9,
        "factorint.factorize_s": s("factorint.factorize"),
        "factorint.factorize_calls": calls("factorint.factorize"),
        "factorint.slowest_s": max(spans.get("factorint.factorize", empty)["durs"], default=0) / 1e9,
        "factorint.sympy_escalations": calls("factorint.sympy"),
        "factorint.sympy_s": s("factorint.sympy"),
        "factorint.own_s": s("factorint.factorize") - s("factorint.sympy"),
        "exact.identity_s": s("exact.identity"),
        "exact.identity_calls": calls("exact.identity"),
        "analytic.k_continued_s": s("analytic.k_continued"),
        "analytic.k_continued_calls": len(k_durs),
        "analytic.k_continued_p50_ms": statistics.median(k_durs) / 1e6 if k_durs else 0,
        "analytic.integral_cache_hit_ratio": hits / lookups if lookups else 0,
        "trace.traced_s": summary["top_ns"] / 1e9,
    }
    layers: dict[str, float] = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self"] / 1e9
    return metrics, layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=("kh-sweep", "kh-rerun", "oracles"))
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--ledger-sha256")
    ap.add_argument("--fixture", type=Path)
    ap.add_argument("--plan", type=Path)
    ap.add_argument("--trace", action="store_true", help="also summarize D/trace.json")
    args = ap.parse_args()
    d = args.dir
    result: dict = {"layers": None, "layer_self_s": None}

    if args.workload == "oracles":
        import oracles

        plan = json.loads(args.plan.read_text(encoding="utf-8"))
        answers = json.loads((d / "answers.json").read_text(encoding="utf-8"))
        result["queries"], result["failures"] = oracles.check_pass(plan, answers)
        result["primes"] = len(plan["residues"])
    else:
        if args.workload == "kh-sweep":
            failures, records = check_sweep(d, args.ledger_sha256)
        else:
            failures, records = check_rerun(d, args.fixture)
        result.update(queries=1, failures=failures, primes=records)

    if args.trace:
        trace = json.loads((d / "trace.json").read_text(encoding="utf-8"))
        ledger = d / "ledger.jsonl"
        ledger_bytes = ledger.stat().st_size if ledger.exists() else 0
        result["layers"], result["layer_self_s"] = layer_metrics(trace, ledger_bytes)
        result["failures"] += check_element_steps(trace)

    (d / "check.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 anomaly (a
verified arithmetic surprise, e.g. a prime dividing its left factorial).
Sweep commands stream results and can checkpoint/resume; everything else
is a direct computation printed to stdout. kh has one loop: each chunk
is counted, its violations reported, its records written and then
checkpointed. An interruption (Ctrl-C or a crash) and a violation (a zero
residue from the kernel) take that same loop; kh has no option to stage
either.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Iterable, Sequence

from .exact import (
    IDENTITIES_WITH_M,
    IDENTITY_IDS,
    evaluate_identity,
    left_factorial,
)
from .harness import (
    CheckpointError,
    CheckpointMismatch,
    CsvWriter,
    FileSink,
    LedgerWriter,
    RecordWriter,
    # kh writes whole chunks and calls no record_to_row; the name stays
    # bound here because perfbench/tracer.py rebinds cli.record_to_row
    record_to_row,
)
from .primes import (
    build_sieve,
    count_pair_progressions,
    good_prime_check,
    p_set,
    pi_sequence,
    s_sequence,
    sign_statistics,
    sum_inequality_scan,
)
from .sweeps import (
    KERNEL_METHOD,
    KNOWN_SQUARE_HITS,
    a_set_scan,
    alternating_divisor_hits,
    h4_witness_search,
    kh2_scan,
    kh_chunks,
    kh_sweep,
    sweep_workers,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ANOMALY = 3

REPORT_TOPICS = ("kh-status", "cost-model", "identities", "analytic", "primes")


def _fmt_complex(v: complex) -> str:
    if abs(v.imag) <= 1e-12 * max(1.0, abs(v.real)):
        return f"{v.real:.12g}"
    return f"({v.real:.12g}{v.imag:+.12g}j)"


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _nonnegative(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _nth_prime_bound(k: int) -> int:
    # p_k < k(ln k + ln ln k) for k >= 6
    if k < 6:
        return 15
    x = float(k)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 10


def _sieve_for_primes(count: int):
    return build_sieve(_nth_prime_bound(count))


def _write_table(path: str, header: str, rows: Iterable[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _cmd_kn(args: argparse.Namespace) -> int:
    print(left_factorial(args.n))
    return EXIT_OK


def _cmd_factor(args: argparse.Namespace) -> int:
    from .factorint import factorize

    if args.raw:
        label, value = str(args.n), args.n
    else:
        label, value = f"!{args.n}", left_factorial(args.n)
    print(f"{label} = {value}")
    if value < 2:
        print(f"{label} has no prime factorization")
        return EXIT_OK
    fz = factorize(value, limit=args.limit)
    print(f"{label} = {fz}")
    print(f"complete: {str(fz.complete).lower()}")
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace) -> int:
    ids = IDENTITY_IDS if args.id == "all" else (args.id,)
    bad = 0
    for iid in ids:
        params = {"n": args.n}
        needs_m = iid in IDENTITIES_WITH_M
        if needs_m:
            params["m"] = args.m
        lhs, rhs = evaluate_identity(iid, **params)
        ok = lhs == rhs
        bad += not ok
        tag = f"{iid} n={args.n}" + (f" m={args.m}" if needs_m else "")
        if ok:
            print(f"{tag}: OK ({lhs})")
        else:
            print(f"{tag}: MISMATCH lhs={lhs} rhs={rhs}")
    return EXIT_ANOMALY if bad else EXIT_OK


def _cmd_kh(args: argparse.Namespace) -> int:
    if args.lo < 3 or args.hi < args.lo:
        print(f"kh: need 3 <= --from <= --to, got {args.lo}..{args.hi}", file=sys.stderr)
        return EXIT_USAGE
    params = {"lo": args.lo, "hi": args.hi, "method": KERNEL_METHOD}
    try:
        sink = FileSink(args.checkpoint, "kh", params) if args.checkpoint else None
    except CheckpointError as exc:
        print(f"kh: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, CheckpointMismatch) else EXIT_RUNTIME
    frontier = sink.frontier if sink is not None else None
    counters = {"records": 0, "violations": 0}
    if sink is not None:
        counters.update(sink.counters)

    chunks = kh_chunks((args.lo, args.hi), worker_count=args.workers, after=frontier)
    writers: list[RecordWriter] = []
    ledger = None
    try:
        if args.ledger:
            ledger = LedgerWriter(args.ledger, resume_frontier=frontier, records=counters["records"])
            writers.append(ledger)
        if args.csv:
            csv = CsvWriter(args.csv, resume_frontier=frontier)
            writers.append(csv)
            if csv.short:
                # checkpoints keep the csv on disk at or ahead of the
                # frontier; a file that still falls short (started mid-run,
                # or damaged out of band) is warned about, not repaired
                print(
                    f"kh: csv {args.csv} is missing rows below the checkpoint frontier; "
                    "the resumed table will be incomplete (the ledger is authoritative)",
                    file=sys.stderr,
                )
        t0 = time.monotonic()
        for primes, residues, elapsed_ns in chunks:
            violations = residues.count(0)
            counters["records"] += len(primes)
            counters["violations"] += violations
            if violations:
                for p, r in zip(primes, residues):
                    if r == 0:
                        print(f"VIOLATION: {p} divides !{p}", file=sys.stderr)
            for writer in writers:
                writer.write_chunk(primes, residues, elapsed_ns, KERNEL_METHOD)
            if sink is not None:
                sink.advance(primes[-1], counters, writers)
        wall = time.monotonic() - t0
        workers = sweep_workers(args.workers)

        if ledger is not None:
            ledger.write_summary(
                command="kh",
                lo=args.lo,
                hi=args.hi,
                method=KERNEL_METHOD,
                records=counters["records"],
                violations=counters["violations"],
                wall_seconds=wall,
            )
        print(
            f"kh [{args.lo}, {args.hi}]: {counters['records']} primes, "
            f"{counters['violations']} violations, {wall:.2f}s "
            f"({workers} worker{'s' if workers != 1 else ''})"
        )
    finally:
        chunks.close()
        for writer in writers:
            writer.close()
    return EXIT_ANOMALY if counters["violations"] else EXIT_OK


def _cmd_kh2(args: argparse.Namespace) -> int:
    hits = kh2_scan((2, args.p_max), args.n_max)
    if args.csv:
        _write_table(args.csv, "p,n", hits)
    print(f"kh2 scan p <= {args.p_max}, n <= {args.n_max}: {len(hits)} hit(s)")
    for p, n in hits:
        print(f"  {p}^2 divides !{n}")
    unexpected = [h for h in hits if h not in KNOWN_SQUARE_HITS]
    return EXIT_ANOMALY if unexpected else EXIT_OK


def _cmd_aset(args: argparse.Namespace) -> int:
    members = a_set_scan(args.r, args.n_bound, primes_only=args.primes_only)
    if args.csv:
        _write_table(args.csv, "n", ((n,) for n in members))
    domain = "odd primes" if args.primes_only else "integers"
    print(f"A({args.r}) among {domain} in ({args.r}, {args.n_bound}]: {len(members)} member(s)")
    if members:
        print("  " + " ".join(str(n) for n in members))
    if args.primes_only and args.r == 0 and members:
        return EXIT_ANOMALY
    return EXIT_OK


def _cmd_h4(args: argparse.Namespace) -> int:
    witnesses = h4_witness_search(args.n_bound, args.s_bound)
    if args.csv:
        _write_table(args.csv, "n,s,gcd", witnesses)
    print(
        f"gcd(K(n), K(n+s)) != 2 for n < {args.n_bound}, s <= {args.s_bound}: "
        f"{len(witnesses)} witness(es)"
    )
    for n, s, g in witnesses:
        print(f"  gcd(K({n}), K({n + s})) = {g}")
    return EXIT_OK


def _cmd_altfact(args: argparse.Namespace) -> int:
    hits = " ".join(map(str, alternating_divisor_hits(args.n_max))) or "none"
    print(f"n <= {args.n_max} with n+1 | n! - (n-1)! + ... +/- 1!: {hits}")
    return EXIT_OK


def _cmd_pset(args: argparse.Namespace) -> int:
    rep = p_set(args.n, x_bound=args.x_bound)
    gap = 2 * args.n
    print(f"P({args.n}) (gap {gap}, n mod 3 = {rep.residue_case}):")
    if rep.forced_candidate is not None:
        print(f"  only possible member: {rep.forced_candidate}")
    found = ", ".join(str(x) for x in rep.members) or "none"
    scope = "exhaustive" if rep.exhaustive else f"x <= {rep.x_bound}"
    print(f"  members ({scope}): {found}")
    for x in rep.members:
        print(f"    {x - gap}, {x}, {x + gap}")
    return EXIT_OK


def _cmd_primeseq(args: argparse.Namespace) -> int:
    kind = args.which
    n_max = args.n_max
    if kind == "s":
        sieve = _sieve_for_primes(n_max + 1)
        values = [s_sequence(n, sieve) for n in range(2, n_max + 1)]
        worst = min(values)
        print(f"s_n for 2 <= n <= {n_max}: min {worst}, first values {values[:6]}")
        if worst <= 0:
            print("NONPOSITIVE VALUE FOUND", file=sys.stderr)
            return EXIT_ANOMALY
        return EXIT_OK
    if kind == "pi":
        sieve = _sieve_for_primes(n_max + 1)
        values = [pi_sequence(n, sieve) for n in range(2, n_max + 1)]
        stats = sign_statistics(values)
        print(f"pi_n for 2 <= n <= {n_max}: first values {values[:6]}")
        print(
            f"  signs: {stats.positives} positive, {stats.negatives} negative, "
            f"{stats.runs} runs, longest +run {stats.longest_positive_run}, "
            f"longest -run {stats.longest_negative_run}"
        )
        return EXIT_OK
    if kind == "good":
        sieve = _sieve_for_primes(2 * n_max)
        good = [good_prime_check(n, sieve) for n in range(1, n_max + 1)]
        hits = [r for r in good if r.is_good]
        shown = " ".join(f"p_{r.n}={r.prime}{'*' if r.vacuous else ''}" for r in hits)
        print(f"good primes with index <= {n_max} (* = vacuous): {shown}")
        return EXIT_OK
    # sumineq
    sieve = _sieve_for_primes(n_max + 1)
    n0, failures = sum_inequality_scan(n_max, sieve)
    print(
        f"p_n^2 > p_1 + ... + p_(n+1) holds for all {n0} <= n <= {n_max}; "
        f"failures: {failures or 'none'}"
    )
    return EXIT_OK


def _cmd_analytic(args: argparse.Namespace) -> int:
    from .analytic import (
        QuadratureConfig,
        asymptotic_ratio,
        k_continued,
        k_integral_detailed,
        k_slavic,
        pole_residue,
        slavic_constant_block,
    )

    cfg = QuadratureConfig() if args.tolerance is None else QuadratureConfig(args.tolerance)
    which = args.which
    if which == "eval":
        value = k_continued(args.z, cfg)
        print(f"K({_fmt_complex(args.z)}) = {_fmt_complex(value)}")
        if args.z.real > 0:
            detail = k_integral_detailed(args.z, cfg)
            print(
                f"  error estimate {detail.error_estimate:.3e}, "
                f"{detail.panels} panels, tail from t = {detail.truncation:.3f}"
            )
        return EXIT_OK
    if which == "slavic":
        direct = k_continued(args.z, cfg)
        series = k_slavic(args.z)
        print(f"K({_fmt_complex(args.z)}) continuation = {_fmt_complex(direct)}")
        print(f"K({_fmt_complex(args.z)}) closed form  = {_fmt_complex(series)}")
        print(f"  |difference| = {abs(direct - series):.3e}")
        print(f"  constant block = {slavic_constant_block():.16f}")
        return EXIT_OK
    if which == "residues":
        for n in range(1, args.n_max + 1):
            if n == 2:
                print("z = -2: not a pole (the gamma singularities cancel)")
                continue
            info = pole_residue(n)
            print(f"z = {info.location}: residue {info.residue} = {float(info.residue):.12g}")
        return EXIT_OK
    # ratio
    r_gamma, r_gamma1 = asymptotic_ratio(args.x, cfg)
    print(f"K(x)/Gamma(x)   at x = {args.x:g}: {r_gamma:.12g}")
    print(f"K(x)/Gamma(x+1) at x = {args.x:g}: {r_gamma1:.12g}")
    return EXIT_OK


def _cmd_pairs(args: argparse.Namespace) -> int:
    count, ratio = count_pair_progressions(args.m_bound)
    print(f"k <= {args.m_bound} with 6k+5 and 12k+7 both prime: {count}")
    print(f"  count / integral_2^m dx/ln^2 x = {ratio:.4f}")
    return EXIT_OK


def _report_kh_status() -> int:
    from .analytic import congruence_bridge
    from .modular import VARIANTS, kh_equivalent_residue, residue_direct

    bad = 0
    records = list(kh_sweep((3, 10_000)))
    violations = [r for r in records if r.violates_kh]
    bad += len(violations)
    print(f"divisibility sweep p <= 10000: {len(records)} primes, {len(violations)} violations")
    p = 9973
    want = residue_direct(p, p).residue
    for variant in VARIANTS:
        got = kh_equivalent_residue(variant, p)
        expect = want if variant in ("T21_2", "T21_4", "DERANGE") else (-want) % p
        ok = got == expect
        bad += not ok
        print(f"variant {variant} at p = {p}: {'agrees' if ok else 'DISAGREES'}")
    hits = kh2_scan((2, 200), 300)
    print(f"square-divisor scan p <= 200, n <= 300: hits {hits} (expected [(2, 3)])")
    bad += hits != [(2, 3)]
    bridge = congruence_bridge(23)
    print(f"floor((p-1)!/e) bridge at p = 23: {'holds' if bridge.holds else 'FAILS'}")
    bad += not bridge.holds
    return EXIT_ANOMALY if bad else EXIT_OK


def _report_cost_model() -> int:
    from .modular import cost_model

    small = cost_model(10)
    print(f"A(10) = {small.exact_a}")
    for x in (1_000, 100_000):
        cm = cost_model(x, k=2)
        print(
            f"x = {x}: A(x) = {cm.exact_a}, 2x^2/ln x = {cm.asymptotic_a:.4g}, "
            f"A(2x)/A(x) = {cm.ratio_a:.4f} (k^2 = 4)"
        )
    print("wall clock, divisibility sweep p <= 100000:")
    # the workers a sweep runs when asked for 1, 2 and 4, each count once
    for workers in sorted({sweep_workers(asked) for asked in (1, 2, 4)}):
        t0 = time.monotonic()
        n = sum(1 for _ in kh_sweep((3, 100_000), worker_count=workers))
        dt = time.monotonic() - t0
        print(f"  {workers} worker(s): {dt:.2f}s for {n} primes")
    return EXIT_OK


def _report_identities() -> int:
    bad = 0
    for iid in IDENTITY_IDS:
        for n in (8, 20, 30):
            params = {"n": n}
            if iid in IDENTITIES_WITH_M:
                params["m"] = 3
            lhs, rhs = evaluate_identity(iid, **params)
            if lhs != rhs:
                bad += 1
                print(f"{iid} n={n}: MISMATCH {lhs} != {rhs}")
    print(f"{len(IDENTITY_IDS)} identities at n in (8, 20, 30): {'all agree' if not bad else f'{bad} mismatches'}")
    return EXIT_ANOMALY if bad else EXIT_OK


def _report_analytic() -> int:
    from .analytic import (
        QuadratureConfig,
        asymptotic_ratio,
        congruence_bridge,
        gamma,
        k_continued,
        k_integral_detailed,
        k_slavic,
        pole_residue,
    )

    cfg = QuadratureConfig()
    worst = 0.0
    for n in range(1, 13):
        exact = left_factorial(n)
        got = k_integral_detailed(complex(n, 0), cfg).value.real
        worst = max(worst, abs(got - exact) / exact)
    print(f"integral vs exact !n, n = 1..12: worst relative error {worst:.3e}")
    z = complex(0.5, 0.5)
    resid = abs(k_continued(z + 1, cfg) - k_continued(z, cfg) - gamma(z + 1))
    print(f"functional equation residual at z = 0.5+0.5j: {resid:.3e}")
    diff = abs(k_continued(complex(-0.75, 0.25), cfg) - k_slavic(complex(-0.75, 0.25)))
    print(f"closed form vs continuation at z = -0.75+0.25j: {diff:.3e}")
    for n in (1, 3, 4, 5):
        print(f"residue at z = {-n}: {pole_residue(n).residue}")
    print(f"K(-2) = {_fmt_complex(k_continued(-2.0, cfg))} (removable, exactly 1)")
    r1, r2 = asymptotic_ratio(40.0, cfg)
    print(f"x = 40: K/Gamma = {r1:.9f} (to 1), K/(x Gamma) = {r2:.3e} (to 0)")
    for p in (5, 13, 23):
        print(f"bridge at p = {p}: {'holds' if congruence_bridge(p).holds else 'FAILS'}")
    return EXIT_OK


def _report_primes() -> int:
    sieve = _sieve_for_primes(20_002)
    s_min = min(s_sequence(n, sieve) for n in range(2, 2_001))
    print(f"s_n, n <= 2000: min {s_min} (> 0)")
    stats = sign_statistics([pi_sequence(n, sieve) for n in range(2, 10_001)])
    print(
        f"pi_n, n <= 10000: {stats.positives} positive, {stats.negatives} negative, "
        f"never zero"
    )
    good = [r for n in range(1, 51) if (r := good_prime_check(n, sieve)).is_good]
    print(
        "good prime indices <= 50: "
        + " ".join(f"{r.n}{'*' if r.vacuous else ''}" for r in good)
        + " (* = vacuous; least non-vacuous prime "
        + str(next(r.prime for r in good if not r.vacuous))
        + ")"
    )
    n0, failures = sum_inequality_scan(50, sieve)
    print(f"square vs prefix sum: holds from n = {n0}, failures {failures}")
    for n in (1, 4, 13):
        rep = p_set(n, x_bound=200_000)
        members = ", ".join(map(str, rep.members)) or "none"
        print(f"P({n}): {members} ({'exhaustive' if rep.exhaustive else 'searched'})")
    count, ratio = count_pair_progressions(1_000)
    print(f"prime pairs 6k+5/12k+7, k <= 1000: {count} (ratio {ratio:.3f})")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    return {
        "kh-status": _report_kh_status,
        "cost-model": _report_cost_model,
        "identities": _report_identities,
        "analytic": _report_analytic,
        "primes": _report_primes,
    }[args.topic]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftfact",
        description="Left factorial arithmetic: exact values, identities, "
        "prime divisibility sweeps, and the analytic extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kn", help="print !n exactly")
    p.add_argument("n", type=_nonnegative)
    p.set_defaults(func=_cmd_kn)

    p = sub.add_parser("factor", help="factor !n (or n itself with --raw)")
    p.add_argument("n", type=_nonnegative)
    p.add_argument("--raw", action="store_true", help="factor the literal n, not !n")
    p.add_argument("--limit", type=_positive, metavar="N", help="bound the factoring effort (sympy's limit)")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("identity", help="check a summation identity exactly")
    p.add_argument("id", choices=IDENTITY_IDS + ("all",))
    p.add_argument("--n", type=_nonnegative, default=30)
    p.add_argument("--m", type=_nonnegative, default=3)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("kh", help="verify p does not divide !p over a prime range")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--workers", type=_positive, default=os.cpu_count() or 1)
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--ledger", metavar="PATH")
    p.add_argument("--csv", metavar="PATH", help="also write the records as CSV to PATH")
    p.set_defaults(func=_cmd_kh)

    p = sub.add_parser("kh2", help="scan for p^2 dividing !n")
    p.add_argument("--p-max", type=_positive, required=True)
    p.add_argument("--n-max", type=_positive, required=True)
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV to PATH")
    p.set_defaults(func=_cmd_kh2)

    p = sub.add_parser("aset", help="members of A(r): n with !n ≡ r (mod n)")
    p.add_argument("--r", type=_nonnegative, required=True)
    p.add_argument("--n-bound", type=_positive, required=True)
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV to PATH")
    p.set_defaults(func=_cmd_aset)

    p = sub.add_parser("h4", help="witnesses gcd(K(n), K(n+s)) != 2")
    p.add_argument("--n-bound", type=_positive, required=True)
    p.add_argument("--s-bound", type=_positive, required=True)
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV to PATH")
    p.set_defaults(func=_cmd_h4)

    p = sub.add_parser("altfact", help="n for which n+1 divides n! - (n-1)! + ... +/- 1!")
    p.add_argument("--n-max", type=_positive, required=True)
    p.set_defaults(func=_cmd_altfact)

    p = sub.add_parser("pset", help="prime 3-progressions x-2n, x, x+2n")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--x-bound", type=_positive, default=100_000)
    p.set_defaults(func=_cmd_pset)

    p = sub.add_parser("primeseq", help="prime-square sequence scans")
    p.add_argument("which", choices=("s", "pi", "good", "sumineq"))
    p.add_argument("--n-max", type=_positive, required=True)
    p.set_defaults(func=_cmd_primeseq)

    p = sub.add_parser("analytic", help="the analytic extension K(z)")
    p.add_argument("which", choices=("eval", "slavic", "residues", "ratio"))
    p.add_argument("--z", type=_complex_arg, default=complex(0.5, 0.0))
    p.add_argument("--x", type=float, default=30.0)
    p.add_argument("--n-max", type=_positive, default=5)
    p.add_argument("--tolerance", type=float)  # default: QuadratureConfig's
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("pairs", help="count k with 6k+5 and 12k+7 both prime")
    p.add_argument("--m-bound", type=_positive, required=True)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("report", help="multi-check status reports")
    p.add_argument("topic", choices=REPORT_TOPICS)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"leftfact: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

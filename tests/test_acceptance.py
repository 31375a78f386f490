"""Acceptance criteria, one test per criterion.

Each test appends a CRITERION NN PASS/FAIL line with the measured numbers;
the module-teardown fixture prints the block past pytest's capture so the
lines always appear once, even when every test is green. Stated runtime
budgets are asserted along with the substance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from fakes import interrupted_at_advance, zero_residue_at
from stepper import residue_digest

import leftfact
from leftfact import (
    a_set_scan,
    batch_residues,
    build_sieve,
    canonical_lines,
    congruence_bridge,
    cost_model,
    evaluate_identity,
    factorize,
    gamma,
    good_prime_check,
    h4_witness_search,
    iter_left_factorials,
    k_continued,
    k_integral,
    k_slavic,
    kh2_scan,
    kh_equivalent_residue,
    kh_sweep,
    left_factorial,
    p_set,
    partial_sum_gcd,
    pole_residue,
    residue_backward_s,
    residue_direct,
    residue_forward_t,
    sum_inequality_scan,
    sweeps,
)
from leftfact.cli import EXIT_ANOMALY, EXIT_OK, main

LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def criterion_report(request):
    yield
    cap = request.config.pluginmanager.getplugin("capturemanager")
    with cap.global_and_fixture_disabled():
        print("\n" + "\n".join(LINES))


def conclude(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    LINES.append(line)
    assert ok, line


def test_criterion_01_value_table_and_factorizations():
    t0 = time.monotonic()
    values_ok = (
        left_factorial(7) == 874
        and left_factorial(12) == 43954714
        and left_factorial(16) == 1401602636314
        and left_factorial(25) == 647478071469567844940314
    )
    table = {
        7: ((2, 1), (19, 1), (23, 1)),
        12: ((2, 1), (19, 1), (31, 1), (37313, 1)),
        16: ((2, 1), (19, 1), (41, 1), (491, 1), (1832213, 1)),
        25: ((2, 1), (41, 1), (103, 1), (2875688099, 1), (26658285041, 1)),
    }
    factors_ok = all(
        factorize(left_factorial(n)).factors == want for n, want in table.items()
    )
    dt = time.monotonic() - t0
    conclude(
        1,
        values_ok and factors_ok and dt < 1.0,
        f"K(7), K(12), K(16), K(25) values and factorizations exact ({dt:.2f}s < 1s)",
    )


def test_criterion_02_recurrence_oracle_equivalence():
    t0 = time.monotonic()
    sieve = build_sieve(10**4)
    primes = sieve.primes_up_to(10**4)
    primes = primes[primes >= 3]
    # forward_v by the kernel's remainder tree; forward_t and backward_s
    # stepped one prime at a time by their own scalar code
    v = batch_residues(primes)
    t = [residue_forward_t(p).residue for p in primes.tolist()]
    s = [residue_backward_s(p).residue for p in primes.tolist()]
    methods_ok = v.tolist() == t == s
    # direct big-integer remainder: one exact incremental pass over K(n)
    prime_set = set(primes.tolist())
    direct = {}
    for n, _fact, kn in iter_left_factorials(10**4):
        if n in prime_set:
            direct[n] = kn % n
    direct_ok = all(direct[p] == r for p, r in zip(primes.tolist(), v.tolist()))
    dt = time.monotonic() - t0
    conclude(
        2,
        methods_ok and direct_ok and dt < 30.0,
        f"three recurrences + exact remainder agree on {primes.size} odd primes "
        f"<= 10^4 ({dt:.1f}s < 30s)",
    )


def test_criterion_03_kh_desk_scale():
    t0 = time.monotonic()
    workers = os.cpu_count() or 1
    violations = 0
    records = 0
    for rec in kh_sweep((3, 10**5), worker_count=workers):
        records += 1
        violations += rec.violates_kh
    dt = time.monotonic() - t0
    conclude(
        3,
        violations == 0 and records == 9591 and dt < 300.0,
        f"no prime <= 10^5 divides its left factorial ({records} primes, "
        f"{workers} worker(s), {dt:.1f}s < 300s)",
    )


# residue_digest of every odd prime <= 10^6 and its residue, from the numpy
# stepper, which gave this digest for each of its three recurrences:
#     PYTHONPATH=src python tests/stepper.py 1000000
# (210 to 226 s per recurrence on a 2-core x86-64 host, CPython 3.11)
STEPPED_DIGEST_1E6 = "d07c196245ed2977f8b585d8f03fcb755109e406b7b092dd38caa22fd4418066"


def _direct_sample(primes: np.ndarray, count: int, seed: int) -> list[int]:
    """The indices of count primes for residue_direct: the first and last
    prime of every span that kh_sweep cuts for 1, 2 and 3 workers, and the
    rest drawn with the seed."""
    chunk = sweeps.CHUNK_PRIMES
    ends = [min(s + chunk, primes.size) - 1 for s in range(0, primes.size, chunk)]
    edges = [int(primes[0])] + primes[ends].tolist()
    picked = set()
    for workers in (1, 2, 3):
        for a, b in sweeps._spans(edges, workers):
            picked.update((a * chunk, min(b * chunk, primes.size) - 1))
    rest = sorted(set(range(primes.size)) - picked)
    return sorted(picked | set(random.Random(seed).sample(rest, count - len(picked))))


@pytest.mark.skipif(
    os.environ.get("LEFTFACT_TIER_FULL") != "1",
    reason="full-scale tier, opt-in: LEFTFACT_TIER_FULL=1 (CI runs it on Python 3.11)",
)
def test_criterion_03_tier_kh_full_scale(capsys):
    t0 = time.monotonic()
    records = list(kh_sweep((3, 10**6)))
    dt = time.monotonic() - t0
    with capsys.disabled():
        print(f"\nfull-scale tier: {len(records)} primes <= 10^6, 1 worker, {dt:.1f}s")
    assert not any(rec.violates_kh for rec in records)
    assert len(records) == 78497
    primes = np.array([rec.prime for rec in records])
    residues = [rec.residue for rec in records]
    assert residue_digest(primes, residues) == STEPPED_DIGEST_1E6
    for k in _direct_sample(primes, 32, seed=11):
        p = int(primes[k])
        assert residues[k] == residue_direct(p, p).residue, p


def _ledger_digest(path) -> str:
    """sha256 of the canonical ledger, as the benchmark's checks compute it."""
    h = hashlib.sha256()
    for line in canonical_lines(str(path)):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.skipif(
    os.environ.get("LEFTFACT_TIER_1E7") != "1",
    reason="10^7 tier, about 10 min, run manually: LEFTFACT_TIER_1E7=1",
)
def test_criterion_03_tier_kh_1e7(tmp_path, capsys):
    # the checkpointed CLI sweep in a child process, whose peak RSS wait4
    # reports on its own
    led = tmp_path / "led.jsonl"
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    cmd = [
        sys.executable, "-m", "leftfact", "kh", "--from", "3", "--to", str(10**7),
        "--workers", "1", "--checkpoint", str(tmp_path / "cp.json"), "--ledger", str(led),
    ]
    t0 = time.monotonic()
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    dt = time.monotonic() - t0
    with capsys.disabled():
        print(f"\n10^7 tier: 1 worker, {dt:.0f}s, peak RSS {usage.ru_maxrss // 1024} MB")
    assert child.returncode == EXIT_OK
    residues = {}
    with open(led, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["type"] == "record":
                assert not rec["violates_kh"], rec
                residues[rec["prime"]] = rec["residue"]
    assert len(residues) == 664578
    assert _ledger_digest(led) == "a11d677e20ed1a9ba8f411e08b62d37475782b1047d5e92c40a2254b6380f6a9"
    near = [p for p in residues if p > 10**7 - 10**5]
    for p in random.Random(7).sample(near, 8):
        assert residues[p] == residue_direct(p, p).residue, p


def test_criterion_04_a3_membership():
    t0 = time.monotonic()
    members = a_set_scan(3, 500)
    dt = time.monotonic() - t0
    conclude(
        4,
        members == [467] and dt < 10.0,
        f"A(3) up to 500 is exactly {{467}} ({dt:.2f}s < 10s)",
    )


def test_criterion_05_squarefree_scan():
    t0 = time.monotonic()
    square_hits = []
    for n, _fact, kn in iter_left_factorials(40):
        if n < 2:
            continue
        f = factorize(kn)
        assert f.complete, n
        square_hits += [(p, n) for p, e in f.factors if e > 1]
    modp2 = kh2_scan((2, 1227), 1300)
    dt = time.monotonic() - t0
    conclude(
        5,
        square_hits == [(2, 3)] and modp2 == [(2, 3)] and dt < 120.0,
        f"!3 = 2^2 is the only square divisor for n <= 40 (full factorizations) "
        f"and mod-p^2 scan p <= 1227, n <= 1300 is clean ({dt:.1f}s < 120s)",
    )


def test_criterion_06_identity_suite():
    t0 = time.monotonic()
    bad = []
    for n in range(1, 61):
        if evaluate_identity("I221", n=n)[0] != evaluate_identity("I221", n=n)[1]:
            bad.append(("I221", n))
    for ident in ("I222", "I223"):
        for n in range(2, 61):
            lhs, rhs = evaluate_identity(ident, n=n)
            if lhs != rhs:
                bad.append((ident, n))
    for ident in ("I224", "I225", "I226", "IDUAL"):
        for m in range(0, 9):
            for n in range(0, 61):
                lhs, rhs = evaluate_identity(ident, m=m, n=n)
                if lhs != rhs:
                    bad.append((ident, m, n))
    gcd_bad = [n for n in range(3, 201) if partial_sum_gcd(n) != 2]
    variant_bad = []
    for p in build_sieve(2000).primes_up_to(2000).tolist():
        if p < 3:
            continue
        r = residue_direct(p, p).residue
        vals = {v: kh_equivalent_residue(v, p) for v in
                ("T21_2", "T21_4", "T21_5", "T21_6", "STANK", "DERANGE")}
        if vals["T21_2"] != r or vals["DERANGE"] != r:
            variant_bad.append(p)
        if any((val == 0) != (r == 0) for val in vals.values()):
            variant_bad.append(p)
    dt = time.monotonic() - t0
    conclude(
        6,
        not bad and not gcd_bad and not variant_bad and dt < 60.0,
        f"identities exact for m <= 8, n <= 60; partial-sum gcds = 2 to n = 200; "
        f"variant residues consistent to p = 2000 ({dt:.1f}s < 60s)",
    )


def test_criterion_07_h4_falsification():
    t0 = time.monotonic()
    found = {(n, s): g for n, s, g in h4_witness_search(25, 20)}
    needed = {(7, 5): 38, (7, 9): 38, (16, 9): 82}
    ok = all(found.get(pair) == g for pair, g in needed.items())
    dt = time.monotonic() - t0
    conclude(
        7,
        ok and dt < 5.0,
        f"gcd(K(n), K(n+s)) != 2 witnessed at (7,5), (7,9), (16,9), refuting the "
        f"pairwise-coprimality claim for s in {{5, 9}} ({dt:.2f}s < 5s)",
    )


def test_criterion_08_analytic_suite():
    t0 = time.monotonic()
    checks = []

    checks.append(abs(k_integral(1.0) - 1) < 1e-9)
    checks.append(abs(k_continued(0.0)) < 1e-9)

    rng = np.random.default_rng(874)
    residual_worst = 0.0
    sampled = 0
    while sampled < 100:
        z = complex(rng.uniform(-9, 9), rng.uniform(-4.5, 4.5))
        if min(abs(z + k) for k in range(0, 11)) < 0.1:
            continue
        residual_worst = max(
            residual_worst, abs(k_continued(z) - k_continued(z + 1) + gamma(z + 1))
        )
        sampled += 1
    checks.append(residual_worst < 1e-8)

    slavic_worst = 0.0
    for z in (-1.5 + 0.4j, -0.75 + 0.25j, 0.3 - 0.6j, 1.45, 2.6 + 1.2j, 4.5 - 0.3j):
        slavic_worst = max(slavic_worst, abs(k_slavic(z) - k_continued(z)))
    checks.append(slavic_worst < 1e-6)

    residue_worst = 0.0
    for n, exact in ((1, -1.0), (3, -0.5), (4, -1 / 3)):
        v3 = 1e-3 * k_continued(-n + 1e-3)
        v4 = 1e-4 * k_continued(-n + 1e-4)
        residue_worst = max(residue_worst, abs((10 * v4 - v3) / 9 - exact))
        assert float(pole_residue(n).residue) == pytest.approx(exact)
    checks.append(residue_worst < 1e-4)

    bridges_ok = all(congruence_bridge(p).holds for p in (3, 5, 7, 11, 13, 17, 19, 23))
    checks.append(bridges_ok)

    dt = time.monotonic() - t0
    conclude(
        8,
        all(checks) and dt < 30.0,
        f"K(1), K(0) exact to 1e-9; functional-equation residual {residual_worst:.1e} "
        f"< 1e-8 on 100 points; Slavic split {slavic_worst:.1e} < 1e-6; pole residues "
        f"within {residue_worst:.1e} of exact; integral congruence exact to p = 23 "
        f"({dt:.1f}s < 30s)",
    )


def test_criterion_09_prime_problem_suite():
    t0 = time.monotonic()
    sieve = build_sieve(1_400_000)

    p1 = p_set(1)
    p13 = p_set(13)
    psets_ok = p1.members == (5,) and p1.exhaustive and p13.members == () and p13.exhaustive

    p = sieve.primes
    upto = int(np.searchsorted(p, 1_000_000, side="right"))
    s_vals = p[1:upto] ** 2 - p[:upto - 1] - p[2:upto + 1]
    s_ok = int(s_vals.min()) > 0

    n0, failures = sum_inequality_scan(10**5, sieve)
    threshold_ok = n0 == 3 and failures == [1, 2]

    brute_ok = True
    for n in range(2, 201):
        square = int(p[n - 1]) ** 2
        brute = all(square > int(p[n - 1 - i]) * int(p[n - 1 + i]) for i in range(1, n))
        if good_prime_check(n, sieve).is_good != brute:
            brute_ok = False
    least_good = next(
        n for n in range(2, 50) if good_prime_check(n, sieve).is_good
    )
    good_ok = brute_ok and sieve.prime_at(least_good) == 5

    dt = time.monotonic() - t0
    conclude(
        9,
        psets_ok and s_ok and threshold_ok and good_ok and dt < 120.0,
        f"P(1) = {{5}}, P(13) empty (exhaustive); s_n > 0 through p_n <= 10^6; "
        f"prefix-sum threshold n0 = 3 at 10^5; good primes match brute force to "
        f"n = 200 with least good prime 5 ({dt:.1f}s < 120s)",
    )


@pytest.mark.skipif(
    os.environ.get("LEFTFACT_TIER_ALTFACT") != "1",
    reason="alternating-factorial tier, about 2 min, run manually: LEFTFACT_TIER_ALTFACT=1",
)
def test_criterion_09_tier_altfact(tmp_path, capsys):
    # altfact past Zivkovic's prime 3612703 in a child process, whose peak
    # RSS wait4 reports on its own
    out = tmp_path / "altfact.txt"
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    cmd = [sys.executable, "-m", "leftfact", "altfact", "--n-max", "3700000"]
    t0 = time.monotonic()
    with open(out, "w", encoding="utf-8") as fh:
        child = subprocess.Popen(cmd, env=env, stdout=fh)
        _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    dt = time.monotonic() - t0
    with capsys.disabled():
        print(f"\naltfact tier: n <= 3700000, {dt:.0f}s, peak RSS {usage.ru_maxrss // 1024} MB")
    assert child.returncode == EXIT_OK
    assert out.read_text(encoding="utf-8").rsplit(": ", 1)[1].split() == ["3612702"]


def test_criterion_10_cost_model_and_scaling():
    t0 = time.monotonic()
    a10 = cost_model(10).exact_a
    ratio = cost_model(10**5, k=2).ratio_a
    ratio_off = abs(ratio / 4.0 - 1.0)

    walls = {}
    for workers in (1, 4):
        w0 = time.monotonic()
        for _ in kh_sweep((3, 10**5), worker_count=workers):
            pass
        walls[workers] = time.monotonic() - w0
    speedup = walls[1] / walls[4]
    cores = os.cpu_count() or 1

    dt = time.monotonic() - t0
    # the speedup is reported, not gated: operation-count scaling is the
    # model's claim; wall-clock parallelism depends on the host core count
    conclude(
        10,
        a10 == 68 and ratio_off < 0.15,
        f"A(10) = {a10} exactly; a(2, 10^5) = {ratio:.4f} is {ratio_off:.1%} from "
        f"the limiting 4; speedup {speedup:.2f}x with sweep_workers(4) = "
        f"{sweeps.sweep_workers(4)} worker(s) on a {cores}-core host "
        f"(reported, not gated) ({dt:.1f}s)",
    )


def test_criterion_11_harness_interrupt_and_anomaly(tmp_path, monkeypatch, capsys):
    t0 = time.monotonic()
    clean = tmp_path / "clean.jsonl"
    assert main(["kh", "--from", "3", "--to", "30000", "--ledger", str(clean)]) == EXIT_OK

    cp = tmp_path / "cp.json"
    part = tmp_path / "part.jsonl"
    # interrupted as it checkpoints chunk 2, whose records are written
    with interrupted_at_advance(2):
        main(["kh", "--from", "3", "--to", "30000", "--checkpoint", str(cp), "--ledger", str(part)])
    assert main([
        "kh", "--from", "3", "--to", "30000",
        "--checkpoint", str(cp), "--ledger", str(part),
    ]) == EXIT_OK
    ledger_ok = canonical_lines(str(part)) == canonical_lines(str(clean))
    with open(part) as fh:
        summaries = [json.loads(line) for line in fh if json.loads(line)["type"] == "summary"]
    summary_ok = len(summaries) == 1

    # the kernel gives 101 a zero residue, as a real violation would
    zero_residue_at(monkeypatch, 101)
    injected = main(["kh", "--from", "3", "--to", "500", "--workers", "1"])
    anomaly_ok = injected == EXIT_ANOMALY
    capsys.readouterr()

    dt = time.monotonic() - t0
    conclude(
        11,
        ledger_ok and summary_ok and anomaly_ok and dt < 120.0,
        f"interrupted-and-resumed ledger is canonically identical to the clean "
        f"run (single summary); injected violation exits {EXIT_ANOMALY} "
        f"({dt:.1f}s)",
    )

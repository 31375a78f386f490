from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leftfact
from leftfact import (
    Checkpoint,
    CheckpointCorrupt,
    CheckpointMismatch,
    FileSink,
    LedgerWriter,
    VerificationRecord,
    canonical_lines,
    ensure_compatible,
    kh_sweep,
    load_checkpoint,
    write_checkpoint,
)
from leftfact.cli import EXIT_ANOMALY, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from leftfact.harness import CSV_HEADER, record_to_row
from leftfact.primes import build_sieve
from leftfact.sweeps import CHUNK_PRIMES, KERNEL_METHOD


def rec(prime, residue, ns=7, method="forward_v"):
    return VerificationRecord(
        prime=prime,
        residue=residue,
        violates_kh=residue == 0 and prime > 2,
        elapsed_ns=ns,
        method=method,
    )


def checkpoint_for(frontier=100, records=5):
    return Checkpoint(
        command="kh",
        params={"lo": 3, "hi": 500, "method": "forward_v"},
        frontier=frontier,
        counters={"records": records, "violations": 0},
        wall_seconds=1.25,
    )


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "cp.json")
    original = checkpoint_for()
    write_checkpoint(path, original)
    loaded = load_checkpoint(path)
    assert loaded == original
    # atomic publish leaves no temp litter
    assert os.listdir(tmp_path) == ["cp.json"]


def test_checkpoint_missing_is_none(tmp_path):
    assert load_checkpoint(str(tmp_path / "absent.json")) is None


def test_checkpoint_rejects_garbage(tmp_path):
    path = str(tmp_path / "cp.json")
    path2 = str(tmp_path / "cp2.json")
    with open(path, "w") as fh:
        fh.write("{truncated")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)
    with open(path2, "w") as fh:
        fh.write("[1, 2, 3]\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path2)


def test_checkpoint_rejects_other_versions(tmp_path):
    path = str(tmp_path / "cp.json")
    write_checkpoint(path, checkpoint_for())
    with open(path) as fh:
        obj = json.load(fh)
    obj["version"] = 99
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_fields(tmp_path):
    path = str(tmp_path / "cp.json")
    write_checkpoint(path, checkpoint_for())
    with open(path) as fh:
        obj = json.load(fh)
    del obj["frontier"]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_checkpoint_field_validation():
    with pytest.raises(ValueError):
        Checkpoint("kh", {}, frontier=-1, counters={}, wall_seconds=0.0)
    with pytest.raises(ValueError):
        Checkpoint("kh", {}, frontier=0, counters={}, wall_seconds=-1.0)


def test_ensure_compatible():
    cp = checkpoint_for()
    ensure_compatible(cp, "kh", {"lo": 3, "hi": 500, "method": "forward_v"})
    with pytest.raises(CheckpointMismatch):
        ensure_compatible(cp, "kh2", {"lo": 3, "hi": 500, "method": "forward_v"})
    with pytest.raises(CheckpointMismatch) as err:
        ensure_compatible(cp, "kh", {"lo": 3, "hi": 600, "method": "forward_v"})
    assert "hi" in str(err.value)


# -------------------------------------------------------------------- ledger


def test_ledger_records_and_summary(tmp_path):
    path = str(tmp_path / "run.jsonl")
    writer = LedgerWriter(path)
    writer.write_record(rec(3, 1))
    writer.write_record(rec(5, 4))
    writer.write_summary(records=2, violations=0)
    writer.close()
    lines = [json.loads(l) for l in open(path)]
    assert [l["type"] for l in lines] == ["record", "record", "summary"]
    assert lines[0]["prime"] == 3
    assert lines[2]["records"] == 2


def test_ledger_fresh_start_clears_stale_file(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with open(path, "w") as fh:
        fh.write('{"type": "record", "prime": 3}\n')
    writer = LedgerWriter(path)  # no resume frontier: start over
    writer.close()
    assert open(path).read() == ""


def test_ledger_resume_truncates_to_frontier(tmp_path):
    path = str(tmp_path / "run.jsonl")
    writer = LedgerWriter(path)
    for p, r in ((3, 1), (5, 4), (7, 6), (11, 7)):
        writer.write_record(rec(p, r))
    writer.write_summary(records=4)
    writer.close()
    resumed = LedgerWriter(path, resume_frontier=5)
    resumed.close()
    lines = [json.loads(l) for l in open(path)]
    assert [l["prime"] for l in lines] == [3, 5]
    assert all(l["type"] == "record" for l in lines)


def test_ledger_resume_drops_partial_tail(tmp_path):
    path = str(tmp_path / "run.jsonl")
    writer = LedgerWriter(path)
    writer.write_record(rec(3, 1))
    writer.write_record(rec(5, 4))
    writer.close()
    with open(path, "a") as fh:
        fh.write('{"type": "record", "prime": 7, "resi')  # torn write
    resumed = LedgerWriter(path, resume_frontier=1000)
    resumed.close()
    lines = [json.loads(l) for l in open(path)]
    assert [l["prime"] for l in lines] == [3, 5]


@pytest.mark.parametrize("bad", ["[3, 5]", '{"type": "record", "prime": "seven"}'])
def test_ledger_resume_rejects_malformed_line_and_leaves_no_temp_file(tmp_path, bad):
    path = tmp_path / "run.jsonl"
    writer = LedgerWriter(str(path))
    writer.write_record(rec(3, 1))
    writer.close()
    with open(path, "a") as fh:
        fh.write(bad + "\n")
    before = path.read_bytes()
    with pytest.raises(ValueError):
        LedgerWriter(str(path), resume_frontier=1000)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.jsonl"]


@st.composite
def ascending_records(draw):
    """VerificationRecords on ascending primes: violations (residue 0),
    primes far past int64, the kernel's method and arbitrary method text."""
    primes = draw(
        st.lists(st.integers(min_value=2, max_value=2**80), min_size=1, max_size=6, unique=True)
    )
    out = []
    for p in sorted(primes):
        residue = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1)))
        out.append(
            rec(
                p,
                residue,
                ns=draw(st.integers(min_value=0, max_value=2**64)),
                method=draw(st.one_of(st.just(KERNEL_METHOD), st.text(max_size=8))),
            )
        )
    return out


@settings(max_examples=60, deadline=None)
@given(records=ascending_records(), cut=st.integers(min_value=0, max_value=6))
def test_ledger_record_lines_are_json_dumps_and_resume_keeps_them(tmp_path_factory, records, cut):
    path = str(tmp_path_factory.mktemp("ledger") / "run.jsonl")
    writer = LedgerWriter(path)
    for r in records:
        writer.write_record(r)
    writer.write_summary(records=len(records))
    writer.close()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    want = [
        json.dumps({"type": "record", **dataclasses.asdict(r)}, sort_keys=True) + "\n"
        for r in records
    ]
    assert [line.decode("utf-8") for line in lines[:-1]] == want
    # resume at a frontier inside the records: the kept prefix is the
    # original file's, byte for byte
    kept = records[: min(cut, len(records))]
    frontier = kept[-1].prime if kept else records[0].prime - 1
    LedgerWriter(path, resume_frontier=frontier).close()
    with open(path, "rb") as fh:
        assert fh.read() == b"".join(lines[: len(kept)])


def test_ledger_resume_restores_missing_final_newline(tmp_path):
    path = tmp_path / "run.jsonl"
    writer = LedgerWriter(str(path))
    writer.write_record(rec(3, 1))
    writer.write_record(rec(5, 4))
    writer.close()
    whole = path.read_bytes()
    path.write_bytes(whole.rstrip(b"\n"))  # a valid last line, cut before its newline
    LedgerWriter(str(path), resume_frontier=1000).close()
    assert path.read_bytes() == whole


def test_canonical_lines_strip_timing(tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    for path, ns in ((a, 10), (b, 99999)):
        writer = LedgerWriter(path)
        writer.write_record(rec(3, 1, ns=ns))
        writer.write_summary(records=1, wall_seconds=float(ns))
        writer.close()
    assert canonical_lines(a) == canonical_lines(b)
    assert "elapsed_ns" not in canonical_lines(a)[0]


def test_record_to_row_and_header():
    assert CSV_HEADER == "prime,residue,violates_kh,elapsed_ns,method"
    assert record_to_row(rec(5, 4, ns=12)) == "5,4,false,12,forward_v"
    assert record_to_row(rec(5, 0, ns=12)).split(",")[2] == "true"


# ------------------------------------------------------------------ FileSink


def test_file_sink_persists_advances(tmp_path):
    path = str(tmp_path / "cp.json")
    params = {"lo": 3, "hi": 9999, "method": "forward_v"}
    sink = FileSink(path, "kh", params)
    sink.counters = {"records": 0}
    consumed = []
    for r in kh_sweep((3, 9999), checkpoint_sink=sink):
        consumed.append(r)
        sink.counters["records"] += 1
    saved = load_checkpoint(path)
    assert saved is not None
    assert saved.frontier == consumed[-1].prime
    # the caller's counts, as they stood at the last frontier
    assert saved.counters == {"records": len(consumed)}
    assert saved.command == "kh"

    # a second sink over the same file resumes rather than restarting
    again = FileSink(path, "kh", params)
    assert again.frontier == saved.frontier
    assert again.counters == saved.counters
    assert list(kh_sweep((3, 9999), checkpoint_sink=again)) == []


def test_file_sink_rejects_incompatible_resume(tmp_path):
    path = str(tmp_path / "cp.json")
    sink = FileSink(path, "kh", {"lo": 3, "hi": 9999, "method": "forward_v"})
    for _ in kh_sweep((3, 9999), checkpoint_sink=sink):
        pass
    with pytest.raises(CheckpointMismatch):
        FileSink(path, "kh", {"lo": 3, "hi": 12000, "method": "forward_v"})


def test_file_sink_frontier_regression_rejected(tmp_path):
    sink = FileSink(str(tmp_path / "cp.json"), "kh", {})
    sink.advance(100)
    with pytest.raises(ValueError):
        sink.advance(50)


def test_file_sink_persists_the_callers_counters_after_its_writers(tmp_path):
    # advance syncs every writer before the checkpoint and persists the
    # counters the caller keeps in sink.counters
    path = str(tmp_path / "cp.json")
    order = []

    class Spy:
        def flush_fsync(self):
            order.append(("flush", load_checkpoint(path)))

    sink = FileSink(path, "kh", {}, writers=(Spy(), Spy()))
    sink.counters["violations"] = 7
    sink.advance(100)
    assert order == [("flush", None), ("flush", None)]
    assert load_checkpoint(path).counters == {"violations": 7}


# ------------------------------------------------------------- CLI behaviour


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_exit_ok_simple_commands(capsys):
    assert run_cli("kn", "7") == EXIT_OK
    assert capsys.readouterr().out.strip() == "874"
    assert run_cli("identity", "I221", "--n", "40") == EXIT_OK
    assert run_cli("factor", "12") == EXIT_OK
    out = capsys.readouterr().out
    assert "2 * 19 * 31 * 37313" in out
    assert "complete: true" in out


def test_cli_factor_output(capsys):
    assert run_cli("factor", "25") == EXIT_OK
    assert capsys.readouterr().out == (
        "!25 = 647478071469567844940314\n"
        "!25 = 2 * 41 * 103 * 2875688099 * 26658285041\n"
        "complete: true\n"
    )
    v = (2**89 - 1) * (2**61 - 1) * 12
    assert run_cli("factor", "--raw", v, "--limit", "10") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "complete: false"
    assert run_cli("factor", "12", "--limit", "0") == EXIT_USAGE


def test_cli_usage_exits():
    # inverted range
    assert run_cli("kh", "--from", "50", "--to", "10") == EXIT_USAGE
    # below the odd-prime floor
    assert run_cli("kh", "--from", "2", "--to", "100") == EXIT_USAGE
    # argparse-level rejection
    assert run_cli("kh", "--from", "3") == EXIT_USAGE
    assert run_cli("nonsense") == EXIT_USAGE


def test_cli_kh_plain_run(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = run_cli("kh", "--from", "3", "--to", "2000", "--csv", csv_path)
    assert code == EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 302  # odd primes in [3, 2000]
    assert lines[1].startswith("3,1,false,")


def test_cli_kh_injected_violation_trips_anomaly(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    ledger = tmp_path / "ledger.jsonl"
    code = run_cli(
        "kh", "--from", "3", "--to", "500",
        "--csv", csv_path, "--ledger", ledger, "--inject-violation", "101",
    )
    assert code == EXIT_ANOMALY
    assert "VIOLATION: 101" in capsys.readouterr().err
    flagged = [l for l in csv_path.read_text().splitlines() if l.startswith("101,")]
    assert flagged == ["101,0,true," + flagged[0].split(",", 3)[3]]
    led = [json.loads(l) for l in open(ledger)]
    assert [l for l in led if l["type"] == "summary"][0]["violations"] == 1


def test_cli_kh_checkpoint_mismatch_and_corrupt(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    assert run_cli("kh", "--from", "3", "--to", "1000", "--checkpoint", cp) == EXIT_OK
    # changed range: refuse, usage error
    assert run_cli("kh", "--from", "3", "--to", "2000", "--checkpoint", cp) == EXIT_USAGE
    assert "differ" in capsys.readouterr().err
    cp.write_text("not json at all")
    assert run_cli("kh", "--from", "3", "--to", "1000", "--checkpoint", cp) == EXIT_RUNTIME


def test_cli_kh_finished_checkpoint_resumes_to_noop(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp) == EXIT_OK
    # counters restored from the checkpoint even though nothing new ran
    assert "668 primes, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("halt_after", [1, 1023, 1024, 1025, 2500])
def test_cli_interrupt_resume_ledger_identity(tmp_path, capsys, halt_after):
    clean = tmp_path / "clean.jsonl"
    run_cli("kh", "--from", "3", "--to", "30000", "--ledger", clean)

    cp = tmp_path / "cp.json"
    part = tmp_path / "part.jsonl"
    first = run_cli(
        "kh", "--from", "3", "--to", "30000",
        "--checkpoint", cp, "--ledger", part, "--halt-after", halt_after,
    )
    assert first == EXIT_OK
    assert "halted" in capsys.readouterr().err
    # no summary line on the interrupted ledger
    partial = [json.loads(l) for l in open(part)]
    assert all(l["type"] == "record" for l in partial)

    second = run_cli(
        "kh", "--from", "3", "--to", "30000",
        "--checkpoint", cp, "--ledger", part,
    )
    assert second == EXIT_OK
    assert canonical_lines(part) == canonical_lines(clean)


def _csv_rows_no_timing(path):
    lines = path.read_text().splitlines()
    rows = []
    for row in lines[1:]:
        cells = row.split(",")
        rows.append(",".join(cells[:3] + cells[4:]))  # drop elapsed_ns
    return lines[0], rows


def test_cli_interrupt_resume_csv_matches_clean(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    run_cli("kh", "--from", "3", "--to", "30000", "--csv", clean)

    cp = tmp_path / "cp.json"
    part = tmp_path / "part.csv"
    # halt lands mid-chunk, so the csv is ahead of the checkpoint frontier
    run_cli(
        "kh", "--from", "3", "--to", "30000",
        "--checkpoint", cp, "--csv", part, "--halt-after", "1500",
    )
    run_cli("kh", "--from", "3", "--to", "30000", "--checkpoint", cp, "--csv", part)
    capsys.readouterr()

    assert _csv_rows_no_timing(part) == _csv_rows_no_timing(clean)
    assert part.read_text().splitlines().count(CSV_HEADER) == 1


def test_cli_csv_resume_fsyncs_its_directory(tmp_path, monkeypatch, capsys):
    # the truncated csv is renamed over the old one; until its directory is
    # synced, a crash can bring the old file back
    cp_dir, csv_dir = tmp_path / "cp", tmp_path / "csv"
    cp_dir.mkdir()
    csv_dir.mkdir()
    cp, out = cp_dir / "cp.json", csv_dir / "out.csv"
    run_cli(
        "kh", "--from", "3", "--to", "30000",
        "--checkpoint", cp, "--csv", out, "--halt-after", "1500",
    )
    synced_dirs = []
    real_fsync = os.fsync

    def spy(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            synced_dirs.append((info.st_dev, info.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    code = run_cli("kh", "--from", "3", "--to", "30000", "--checkpoint", cp, "--csv", out)
    capsys.readouterr()
    assert code == EXIT_OK
    info = os.stat(csv_dir)
    assert (info.st_dev, info.st_ino) in synced_dirs


def test_cli_finished_checkpoint_rerun_keeps_csv(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    out = tmp_path / "out.csv"
    run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp, "--csv", out)
    before = out.read_text()
    assert len(before.splitlines()) == 1 + 668
    # no-op resume must not wipe the finished table
    run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp, "--csv", out)
    capsys.readouterr()
    assert out.read_text() == before


def _halted_csv_run(tmp_path, *extra):
    """A checkpointed [3, 30000] run halted mid-chunk 2; returns the
    checkpoint and CSV paths and the checkpoint frontier."""
    cp, out = tmp_path / "cp.json", tmp_path / "out.csv"
    code = run_cli(
        "kh", "--from", "3", "--to", "30000", "--workers", "1",
        "--checkpoint", cp, "--csv", out, "--halt-after", "1500", *extra,
    )
    assert code == EXIT_OK
    return cp, out, load_checkpoint(str(cp)).frontier


def _resume_csv_run(cp, out, *extra):
    return run_cli(
        "kh", "--from", "3", "--to", "30000", "--workers", "1",
        "--checkpoint", cp, "--csv", out, *extra,
    )


def test_cli_csv_resume_drops_a_torn_last_row(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    run_cli("kh", "--from", "3", "--to", "30000", "--workers", "1", "--csv", clean)
    cp, out, frontier = _halted_csv_run(tmp_path)
    lines = out.read_text().splitlines(keepends=True)
    # the last row, cut inside its residue and without its newline
    out.write_text("".join(lines[:-1]) + lines[-1][: lines[-1].index(",") + 2])
    assert _resume_csv_run(cp, out) == EXIT_OK
    assert "missing rows" not in capsys.readouterr().err
    assert _csv_rows_no_timing(out) == _csv_rows_no_timing(clean)


def test_cli_csv_resume_drops_a_torn_row_whose_head_is_below_the_frontier(tmp_path, capsys):
    # a row cut inside its prime leaves digits that may read as a small
    # prime; a row with no comma is torn, not a record
    clean = tmp_path / "clean.csv"
    run_cli("kh", "--from", "3", "--to", "30000", "--workers", "1", "--csv", clean)
    cp, out, frontier = _halted_csv_run(tmp_path)
    kept = [l for l in out.read_text().splitlines(keepends=True)[1:] if int(l.split(",")[0]) <= frontier]
    out.write_text(CSV_HEADER + "\n" + "".join(kept) + str(frontier)[:2])
    assert _resume_csv_run(cp, out) == EXIT_OK
    assert "missing rows" not in capsys.readouterr().err
    assert _csv_rows_no_timing(out) == _csv_rows_no_timing(clean)


def test_cli_csv_resume_restarts_a_file_with_another_header(tmp_path, capsys):
    cp, out, frontier = _halted_csv_run(tmp_path)
    out.write_text("p,n\n3,1,false,0,forward_v\n")
    assert _resume_csv_run(cp, out) == EXIT_OK
    assert "missing rows" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and "p,n" not in lines
    assert int(lines[1].split(",")[0]) > frontier  # only the resumed rows follow


def test_cli_csv_resume_short_of_the_frontier_warns_and_succeeds(tmp_path, capsys):
    cp, out, frontier = _halted_csv_run(tmp_path)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:101]))  # header and the first 100 rows
    assert _resume_csv_run(cp, out) == EXIT_OK
    err = capsys.readouterr().err
    assert f"kh: csv {out} is missing rows below the checkpoint frontier" in err
    rows = out.read_text().splitlines()[1:]
    assert rows[:100] == [l.rstrip("\n") for l in lines[1:101]]
    assert int(rows[100].split(",")[0]) > frontier


def test_cli_resume_leaves_no_temporary_files(tmp_path, capsys):
    led = tmp_path / "led.jsonl"
    cp, out, _frontier = _halted_csv_run(tmp_path, "--ledger", led)
    assert _resume_csv_run(cp, out, "--ledger", led) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["cp.json", "led.jsonl", "out.csv"]
    # a resume that raises on a malformed ledger line leaves both files as
    # they were and no temporary file beside them
    capsys.readouterr()
    for bad, shown in (('{"type": "record", "prime": "seven"}', "seven"), ("[3, 5]", "[3, 5]")):
        led.write_text(bad + "\n")
        before = out.read_bytes()
        assert _resume_csv_run(cp, out, "--ledger", led) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("leftfact: ") and shown in err, err
        assert led.read_text() == bad + "\n"
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["cp.json", "led.jsonl", "out.csv"]


def test_cli_resume_may_change_workers(tmp_path):
    cp = tmp_path / "cp.json"
    led = tmp_path / "led.jsonl"
    run_cli(
        "kh", "--from", "3", "--to", "20000", "--workers", "1",
        "--checkpoint", cp, "--ledger", led, "--halt-after", "1500",
    )
    code = run_cli(
        "kh", "--from", "3", "--to", "20000", "--workers", "2",
        "--checkpoint", cp, "--ledger", led,
    )
    assert code == EXIT_OK
    clean = tmp_path / "clean.jsonl"
    run_cli("kh", "--from", "3", "--to", "20000", "--ledger", clean)
    assert canonical_lines(led) == canonical_lines(clean)


def test_cli_kh_ledger_is_the_same_for_any_worker_count(tmp_path):
    # one worker takes 10^5 as one span, two and three cut it into as many
    ledgers = []
    for workers in ("1", "2", "3"):
        led = tmp_path / f"w{workers}.jsonl"
        code = run_cli(
            "kh", "--from", "3", "--to", "100000", "--workers", workers, "--ledger", led
        )
        assert code == EXIT_OK
        ledgers.append(canonical_lines(led))
    assert len(ledgers[0]) == 9592  # 9591 records and the summary
    assert ledgers[0] == ledgers[1] == ledgers[2]


def _child_env():
    # run the very source this test imports, whatever the working directory
    # or an installed copy of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


# The CLI, killed by SIGKILL as it is about to persist its fourth chunk: that
# chunk's records are already with the writers, so the record files run
# ahead of the checkpoint. One worker sweeps [3, 10^5] as one span, so the
# kill falls inside it whatever the host's speed.
_KILLED_AT_FOURTH_CHUNK = """
import os, signal, sys
from leftfact.cli import main
from leftfact.harness import FileSink

advance, calls = FileSink.advance, []

def advance_or_die(self, frontier):
    calls.append(frontier)
    if len(calls) == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    advance(self, frontier)

FileSink.advance = advance_or_die
sys.exit(main(sys.argv[1:]))
"""


def test_cli_sigkill_then_resume_matches_clean_run(tmp_path):
    # a hard kill mid-sweep must leave a resumable checkpoint + ledger + csv
    cp = tmp_path / "cp.json"
    led = tmp_path / "led.jsonl"
    csv = tmp_path / "led.csv"
    args = [
        "kh", "--from", "3", "--to", "100000",
        "--checkpoint", str(cp), "--ledger", str(led), "--csv", str(csv),
    ]
    env = _child_env()
    killed = subprocess.run(
        [sys.executable, "-c", _KILLED_AT_FOURTH_CHUNK, *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr  # killed mid-sweep, not exited

    # the frontier is the third chunk's last prime, inside the span
    third_chunk_end = int(build_sieve(100000).primes_up_to(100000)[3 * CHUNK_PRIMES])
    assert load_checkpoint(str(cp)).frontier == third_chunk_end

    argv = [sys.executable, "-m", "leftfact", *args]
    resume = subprocess.run(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        env=env,
    )
    assert resume.returncode == EXIT_OK, resume.stderr
    assert "incomplete" not in resume.stderr  # csv kept pace with the frontier

    clean = tmp_path / "clean.jsonl"
    clean_csv = tmp_path / "clean.csv"
    code = run_cli(
        "kh", "--from", "3", "--to", "100000", "--ledger", clean, "--csv", clean_csv
    )
    assert code == EXIT_OK
    assert canonical_lines(led) == canonical_lines(clean)
    assert _csv_rows_no_timing(csv) == _csv_rows_no_timing(clean_csv)


def _processes_naming(text):
    """pids whose command line contains text (empty without /proc)."""
    found = []
    for pid in os.listdir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if text.encode() in fh.read():
                    found.append(pid)
        except OSError:
            pass  # not a process, or one that has just exited
    return found


def test_cli_pooled_sweep_closed_early_exits_and_leaves_no_worker(tmp_path):
    # --halt-after closes the record stream while chunks are in flight on
    # two workers; a worker left alive would also hold the output pipes
    # open and run into the timeout
    argv = [
        sys.executable, "-m", "leftfact", "kh", "--from", "3", "--to", "30000",
        "--workers", "2", "--halt-after", "1500",
        "--checkpoint", str(tmp_path / "cp.json"), "--csv", str(tmp_path / "out.csv"),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "halted after 1500 records" in proc.stderr
    assert _processes_naming(str(tmp_path)) == []


@pytest.mark.parametrize("start_method", ["forkserver", "spawn"])
def test_cli_pooled_sweep_runs_under_every_start_method(tmp_path, start_method):
    # under forkserver, the Linux default from Python 3.14, a pool worker's
    # parent is the server, not the sweep's process
    out = tmp_path / "out.csv"
    script = (
        "import multiprocessing, sys\n"
        "from leftfact.cli import main\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    argv = [
        sys.executable, "-c", script, start_method,
        "kh", "--from", "3", "--to", "20000", "--workers", "2", "--csv", str(out),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    serial = tmp_path / "serial.csv"
    assert run_cli("kh", "--from", "3", "--to", "20000", "--workers", "1", "--csv", serial) == EXIT_OK
    assert _csv_rows_no_timing(out) == _csv_rows_no_timing(serial)


def test_cli_kh_never_imports_sympy():
    # sympy costs about 0.4 s to import; only factoring and primality need it
    code = (
        "import sys\n"
        "from leftfact.cli import main\n"
        "rc = main(['kh', '--from', '3', '--to', '2000', '--workers', '1'])\n"
        "print('exit', rc, 'sympy', 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"exit {EXIT_OK} sympy False", proc.stderr


def test_cli_report_topics_smoke(capsys):
    assert run_cli("report", "identities") == EXIT_OK
    out = capsys.readouterr().out
    assert "all agree" in out


# commands no other test runs, with a line each must print
SMOKE = [
    # the two reports that drive kh_sweep
    (
        ("report", "kh-status"),
        re.escape("divisibility sweep p <= 10000: 1228 primes, 0 violations"),
    ),
    (("report", "cost-model"), r"  4 worker\(s\): \d+\.\d\ds for 9591 primes"),
    (("report", "analytic"), re.escape("K(-2) = 1 (removable, exactly 1)")),
    (("report", "primes"), re.escape("P(13): none (exhaustive)")),
    (
        ("primeseq", "s", "--n-max", "50"),
        re.escape("s_n for 2 <= n <= 50: min 2, first values [2, 15, 33, 101, 141, 257]"),
    ),
    (
        ("primeseq", "pi", "--n-max", "50"),
        re.escape("  signs: 26 positive, 23 negative, 37 runs, longest +run 3, longest -run 2"),
    ),
    (
        ("primeseq", "good", "--n-max", "7"),
        re.escape("good primes with index <= 7 (* = vacuous): p_1=2* p_3=5 p_5=11 p_7=17"),
    ),
    (("analytic", "slavic"), re.escape("K(0.5) closed form  = 0.562186545899")),
]


@pytest.mark.parametrize(("argv", "line"), SMOKE, ids=["-".join(a[:2]) for a, _line in SMOKE])
def test_cli_command_smoke(capsys, argv, line):
    assert run_cli(*argv) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert any(re.fullmatch(line, got) for got in out), out


def test_cli_misc_commands_smoke(capsys, tmp_path):
    assert run_cli("kh2", "--p-max", "60", "--n-max", "80") == EXIT_OK
    assert run_cli("aset", "--r", "3", "--n-bound", "500") == EXIT_OK
    assert "467" in capsys.readouterr().out
    assert run_cli("h4", "--n-bound", "13", "--s-bound", "5") == EXIT_OK
    assert run_cli("altfact", "--n-max", "200") == EXIT_OK
    assert run_cli("pset", "--n", "19") == EXIT_OK
    assert "41" in capsys.readouterr().out
    assert run_cli("primeseq", "sumineq", "--n-max", "100") == EXIT_OK
    assert run_cli("analytic", "eval", "--z", "2.5+1.5j") == EXIT_OK
    assert run_cli("analytic", "residues", "--n-max", "5") == EXIT_OK
    assert run_cli("pairs", "--m-bound", "500") == EXIT_OK


@pytest.mark.parametrize(
    ("argv", "csv"),
    [
        (("kh2", "--p-max", "200", "--n-max", "300"), b"p,n\n2,3\n"),
        (("aset", "--r", "1", "--n-bound", "100"), b"n\n3\n9\n11\n33\n99\n"),
        (("aset", "--r", "0", "--n-bound", "100", "--primes-only"), b"n\n"),
        (("h4", "--n-bound", "20", "--s-bound", "10"), b"n,s,gcd\n7,5,38\n7,9,38\n12,4,38\n"),
    ],
)
def test_cli_table_csv_bytes(tmp_path, argv, csv):
    out = tmp_path / "table.csv"
    out.write_text("stale content\n" * 10)  # an existing file is replaced
    assert run_cli(*argv, "--csv", out) == EXIT_OK
    assert out.read_bytes() == csv


def test_cli_analytic_eval_honours_tolerance(capsys):
    assert run_cli("analytic", "eval", "--z", "2.5+1.5j", "--tolerance", "1e-12") == EXIT_OK
    detail = capsys.readouterr().out.splitlines()[1]
    assert float(detail.split()[2].rstrip(",")) <= 1e-12, detail
    # at |Im z| = 20 the error estimate misses the tolerance
    assert run_cli("analytic", "eval", "--z", "1+20j", "--tolerance", "1e-12") == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("leftfact: achieved error estimate"), err


def test_cli_analytic_ratio_out_of_double_range(capsys):
    assert run_cli("analytic", "ratio", "--x", "100") == EXIT_OK
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    assert float(out.splitlines()[0].split(": ")[1]) == pytest.approx(1.0102, abs=1e-4)
    # at 108 the panel sum overflowed to nan and the CLI exited 0; from 109
    # it printed a bare "(34, 'Numerical result out of range')"
    for x, cause in (("108", "panel sum"), ("109", "tail bound"), ("171", "tail bound")):
        assert run_cli("analytic", "ratio", "--x", x) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"leftfact: K(z) is out of double range at z = ({x}+0j)")
        assert cause in captured.err


def test_cli_runtime_error_paths(capsys):
    # pole evaluation surfaces as a runtime failure, not a crash
    assert run_cli("analytic", "eval", "--z=-3") == EXIT_RUNTIME
    assert "pole" in capsys.readouterr().err.lower()
    assert run_cli("factor", "0") == EXIT_OK  # !0 = 0 has no factorization
    assert run_cli("kn", "--", "-4") == EXIT_USAGE

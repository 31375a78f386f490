from __future__ import annotations

import contextlib
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
from fakes import interrupted_after_records, interrupted_at_advance, zero_residue_at

import leftfact
from leftfact import (
    CheckpointCorrupt,
    CheckpointMismatch,
    FileSink,
    LedgerWriter,
    VerificationRecord,
    canonical_lines,
    kh_chunks,
    kh_sweep,
)
from leftfact.cli import EXIT_ANOMALY, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from leftfact import cli
from leftfact.harness import _RECORD_LINE, CSV_HEADER, CsvWriter, _ledger_lines, record_to_row
from leftfact.primes import build_sieve
from leftfact.sweeps import CHUNK_PRIMES, KERNEL_METHOD, KNOWN_SQUARE_HITS, MAX_SWEEP_PRIME


def rec(prime, residue, ns=7, method="forward_v"):
    return VerificationRecord(prime=prime, residue=residue, elapsed_ns=ns, method=method)


def json_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def saved(path):
    """The fields of the checkpoint file at path."""
    with open(path) as fh:
        return json.load(fh)


PARAMS = {"lo": 3, "hi": 500, "method": "forward_v"}
COUNTERS = {"records": 5, "violations": 0}
MISSING = object()


def sink_at(tmp_path, frontier=100):
    """A FileSink over tmp_path/cp.json that has advanced to frontier."""
    sink = FileSink(str(tmp_path / "cp.json"), "kh", PARAMS)
    sink.advance(frontier, COUNTERS)
    return sink


# ---------------------------------------------------------------- checkpoint


def refused(tmp_path, error, text=None, **fields):
    """The message of the error a FileSink for kh and PARAMS raises over
    tmp_path/cp.json holding text, or else the fields of a valid file
    updated by fields, MISSING deleting one."""
    path = tmp_path / "cp.json"
    if text is None:
        path.unlink(missing_ok=True)
        sink_at(tmp_path)
        obj = {**saved(path), **fields}
        text = json.dumps({k: v for k, v in obj.items() if v is not MISSING}, sort_keys=True)
    path.write_text(text)
    with pytest.raises(error) as err:
        FileSink(str(path), "kh", PARAMS)
    return str(err.value).replace(f"{path}: ", "cp.json: ")


def test_checkpoint_roundtrip(tmp_path):
    sink_at(tmp_path)
    again = FileSink(str(tmp_path / "cp.json"), "kh", PARAMS)
    assert (again.frontier, again.counters) == (100, COUNTERS)
    # atomic publish leaves no temp litter
    assert os.listdir(tmp_path) == ["cp.json"]


def test_checkpoint_missing_is_none(tmp_path):
    sink = FileSink(str(tmp_path / "absent.json"), "kh", PARAMS)
    assert (sink.frontier, sink.counters) == (None, {})
    assert os.listdir(tmp_path) == []


def test_cli_kh_checkpoint_format_is_pinned(tmp_path, capsys):
    # sorted keys, json.dumps's default separators and a trailing newline:
    # the bytes every earlier version wrote for the same run
    cp = tmp_path / "cp.json"
    assert run_cli("kh", "--from", "3", "--to", "3000", "--workers", "1", "--checkpoint", cp) == EXIT_OK
    assert cp.read_text() == (
        '{"command": "kh", "counters": {"records": 429, "violations": 0}, "frontier": 2999, '
        '"params": {"hi": 3000, "lo": 3, "method": "forward_v"}, "version": 1}\n'
    )


def test_checkpoint_rejects_garbage(tmp_path):
    assert refused(tmp_path, CheckpointCorrupt, "{truncated") == (
        "cp.json: not valid JSON (Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1))"
    )
    assert refused(tmp_path, CheckpointCorrupt, "[1, 2, 3]\n") == "cp.json: expected a JSON object"


def test_checkpoint_rejects_other_versions(tmp_path):
    for version, shown in ((99, "99"), (None, "None"), (MISSING, "None")):
        message = refused(tmp_path, CheckpointCorrupt, version=version)
        assert message == f"cp.json: unsupported checkpoint version {shown}"


def test_checkpoint_rejects_malformed_fields(tmp_path):
    objects = "cp.json: params and counters must be JSON objects"
    integers = "cp.json: frontier and counters must be JSON integers"
    assert refused(tmp_path, CheckpointCorrupt, params=None) == objects
    assert refused(tmp_path, CheckpointCorrupt, counters=MISSING) == objects
    assert refused(tmp_path, CheckpointCorrupt, frontier=MISSING) == integers
    # a missing command is a corrupt file, not one for another command
    assert refused(tmp_path, CheckpointCorrupt, command=MISSING) == "cp.json: malformed field ('command')"


def test_checkpoint_field_validation(tmp_path):
    message = refused(tmp_path, CheckpointCorrupt, frontier=-1)
    assert message == "cp.json: malformed field (frontier must be nonnegative, got -1)"
    (tmp_path / "cp.json").unlink()
    with pytest.raises(ValueError):
        FileSink(str(tmp_path / "cp.json"), "kh", {}).advance(-1, {})
    assert os.listdir(tmp_path) == []


def test_ensure_compatible(tmp_path):
    assert refused(tmp_path, CheckpointMismatch, command="kh2") == (
        "checkpoint is for command 'kh2', not 'kh'"
    )
    assert refused(tmp_path, CheckpointMismatch, params={**PARAMS, "hi": 600}) == (
        "checkpoint params differ on hi: {'hi': 600, 'lo': 3, 'method': 'forward_v'} "
        "vs {'lo': 3, 'hi': 500, 'method': 'forward_v'}"
    )


def _fail_fsync(monkeypatch):
    def fsync(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(os, "fsync", fsync)


def test_a_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    sink = sink_at(tmp_path)
    before = (tmp_path / "cp.json").read_bytes()
    _fail_fsync(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        sink.advance(200, COUNTERS)
    assert (tmp_path / "cp.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["cp.json"]


@pytest.mark.parametrize(
    "records,fsync_fails", [(2, False), (3, True)], ids=["kept_lines", "fsync"]
)
def test_a_failed_resume_cut_keeps_the_record_file(tmp_path, monkeypatch, records, fsync_fails):
    # a ledger that holds another count of records than the checkpoint's
    # raises in kept_lines; one that holds the count meets the failing fsync
    path = tmp_path / "led.jsonl"
    path.write_text(_ledger_lines([3, 5, 7], [1, 4, 1], 7, "forward_v") + '{"type": "summary"}\n')
    before = path.read_bytes()
    if fsync_fails:
        _fail_fsync(monkeypatch)
    with pytest.raises(OSError if fsync_fails else ValueError):
        LedgerWriter(str(path), resume_frontier=7, records=records)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["led.jsonl"]


# -------------------------------------------------------------------- ledger


def test_ledger_records_and_summary(tmp_path):
    path = str(tmp_path / "run.jsonl")
    writer = LedgerWriter(path)
    writer.write_record(rec(3, 1))
    writer.write_record(rec(5, 4))
    writer.write_summary(records=2, violations=0)
    writer.close()
    lines = json_lines(path)
    assert [l["type"] for l in lines] == ["record", "record", "summary"]
    assert lines[0]["prime"] == 3
    assert lines[2]["records"] == 2


def test_ledger_fresh_start_clears_stale_file(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with open(path, "w") as fh:
        fh.write('{"type": "record", "prime": 3}\n')
    writer = LedgerWriter(path)  # no resume frontier: start over
    writer.close()
    with open(path) as fh:
        assert fh.read() == ""


def test_ledger_resume_truncates_to_frontier(tmp_path):
    path = str(tmp_path / "run.jsonl")
    writer = LedgerWriter(path)
    for p, r in ((3, 1), (5, 4), (7, 6), (11, 7)):
        writer.write_record(rec(p, r))
    writer.write_summary(records=4)
    writer.close()
    resumed = LedgerWriter(path, resume_frontier=5)
    resumed.close()
    lines = json_lines(path)
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
    lines = json_lines(path)
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
        json.dumps(
            {"type": "record", **dataclasses.asdict(r), "violates_kh": r.violates_kh},
            sort_keys=True,
        )
        + "\n"
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


@settings(max_examples=60, deadline=None)
@given(records=ascending_records(), data=st.data())
def test_ledger_record_line_pattern_agrees_with_json_loads(tmp_path_factory, records, data):
    lines = [_ledger_lines((r.prime,), (r.residue,), r.elapsed_ns, r.method) for r in records]
    for line in lines:
        hit = _RECORD_LINE.fullmatch(line)
        assert hit is not None, line  # resume reads every written line without a parse
        assert int(hit[1]) == json.loads(line)["prime"]
        # a line the pattern still matches after losing or changing a
        # character is one json.loads reads the same prime from
        at = data.draw(st.integers(min_value=0, max_value=len(line) - 1))
        head, tail = line[:at], line[at + 1:]
        for bent in (head + tail, head + data.draw(st.characters()) + tail):
            hit = _RECORD_LINE.fullmatch(bent)
            if hit is not None:
                assert int(hit[1]) == json.loads(bent)["prime"], bent
    # the same ledger in another JSON layout (compact, keys reversed) resumes
    # through json.loads to the same records and count
    d = tmp_path_factory.mktemp("ledger")
    other = [
        json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")) + "\n"
        for line in lines
    ]
    assert not any(_RECORD_LINE.fullmatch(line) for line in other)
    kept = data.draw(st.integers(min_value=1, max_value=len(records)))
    frontier = records[kept - 1].prime
    resumed = []
    for name, text in (("ours.jsonl", lines), ("other.jsonl", other)):
        path = d / name
        path.write_text("".join(text) + '{"type": "summary"}\n')
        before = path.read_bytes()
        with pytest.raises(ValueError, match=rf"has {kept} records up to .* counts {kept + 1}"):
            LedgerWriter(str(path), resume_frontier=frontier, records=kept + 1)
        assert path.read_bytes() == before
        LedgerWriter(str(path), resume_frontier=frontier, records=kept).close()
        assert path.read_text() == "".join(text[:kept])
        resumed.append([json.loads(line) for line in text[:kept]])
    assert resumed[0] == resumed[1]


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


def test_ledger_resume_rejects_a_damaged_line_that_is_not_the_last(tmp_path):
    # a torn write is only ever the last line; one with lines after it is
    # damage, and cutting the file back to it would drop intact records
    path = tmp_path / "run.jsonl"
    writer = LedgerWriter(str(path))
    for p, r in ((3, 1), (5, 4), (7, 6)):
        writer.write_record(rec(p, r))
    writer.close()
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + lines[1][:20] + "\n" + lines[2])
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"line 2 is damaged.*frontier 1000"):
        LedgerWriter(str(path), resume_frontier=1000)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.jsonl"]


def test_ledger_resume_complete_refuses_a_ledger_short_of_the_frontier(tmp_path):
    path = tmp_path / "run.jsonl"
    writer = LedgerWriter(str(path))
    for p, r in ((3, 1), (5, 4), (7, 6)):
        writer.write_record(rec(p, r))
    writer.write_summary(records=3)
    writer.close()
    before = path.read_bytes()
    # the record at the frontier is there: the summary goes, the records stay
    LedgerWriter(str(path), resume_frontier=7, records=3).close()
    assert path.read_bytes() == b"".join(before.splitlines(keepends=True)[:3])
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"run.jsonl has records only up to 7, short of the checkpoint frontier 11"):
        LedgerWriter(str(path), resume_frontier=11, records=3)
    assert path.read_bytes() == before
    # a missing ledger holds no record at all, and is not created
    path.unlink()
    with pytest.raises(ValueError, match=r"run.jsonl has no record, short of the checkpoint frontier 7"):
        LedgerWriter(str(path), resume_frontier=7, records=3)
    assert os.listdir(tmp_path) == []


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


def test_csv_writer_is_short_when_no_kept_row_is_the_frontiers(tmp_path):
    path = tmp_path / "out.csv"
    rows = "".join(f"{p},1,false,7,forward_v\n" for p in (3, 5, 7, 11))
    for text, frontier, short in (
        (None, 7, True),  # missing
        ("p,n\n3,1\n", 7, True),  # stale: another header
        (CSV_HEADER + "\n", 7, True),  # header only
        (CSV_HEADER + "\n" + rows, 13, True),  # rows stop below the frontier
        (CSV_HEADER + "\n" + rows, 7, False),
        (CSV_HEADER + "\n" + rows + "13,1,fa", 11, False),  # torn tail past the frontier
    ):
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
        writer = CsvWriter(str(path), resume_frontier=frontier)
        writer.close()
        assert writer.short is short, (text, frontier)
    fresh = CsvWriter(str(path))
    fresh.close()
    assert fresh.short is False


# ------------------------------------------------------------------ FileSink


def test_file_sink_persists_advances(tmp_path):
    path = str(tmp_path / "cp.json")
    params = {"lo": 3, "hi": 9999, "method": "forward_v"}
    sink = FileSink(path, "kh", params)
    counters = {"records": 0}
    consumed = []
    for chunk in kh_chunks((3, 9999), after=sink.frontier):
        consumed += chunk.primes
        counters["records"] += len(chunk.primes)
        sink.advance(chunk.primes[-1], counters)
    fields = saved(path)
    assert fields["frontier"] == consumed[-1]
    # the caller's counts, as they stood at the last frontier
    assert fields["counters"] == {"records": len(consumed)}
    assert fields["command"] == "kh"

    # a second sink over the same file resumes rather than restarting
    again = FileSink(path, "kh", params)
    assert again.frontier == fields["frontier"]
    assert again.counters == fields["counters"]
    assert list(kh_chunks((3, 9999), after=again.frontier)) == []


def test_file_sink_rejects_incompatible_resume(tmp_path):
    path = str(tmp_path / "cp.json")
    sink = FileSink(path, "kh", {"lo": 3, "hi": 9999, "method": "forward_v"})
    for chunk in kh_chunks((3, 9999), after=sink.frontier):
        sink.advance(chunk.primes[-1], {})
    with pytest.raises(CheckpointMismatch):
        FileSink(path, "kh", {"lo": 3, "hi": 12000, "method": "forward_v"})


def test_file_sink_frontier_regression_rejected(tmp_path):
    sink = FileSink(str(tmp_path / "cp.json"), "kh", {})
    sink.advance(100, {})
    with pytest.raises(ValueError):
        sink.advance(50, {})


def test_file_sink_persists_the_callers_counters_after_its_writers(tmp_path):
    # advance syncs every writer it is given before the checkpoint, and
    # persists the counters as they stand then
    path = str(tmp_path / "cp.json")
    order = []

    class Spy:
        def flush_fsync(self):
            order.append(("flush", os.path.exists(path)))

    sink = FileSink(path, "kh", {})
    counters = {"violations": 7}
    sink.advance(100, counters, (Spy(), Spy()))
    counters["violations"] += 1  # the checkpoint keeps its own copy
    assert order == [("flush", False), ("flush", False)]
    assert saved(path)["counters"] == {"violations": 7}
    assert sink.counters == {"violations": 7}


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


def test_cli_kh_injected_violation_trips_anomaly(tmp_path, monkeypatch, capsys):
    csv_path = tmp_path / "out.csv"
    ledger = tmp_path / "ledger.jsonl"
    zero_residue_at(monkeypatch, 101)
    code = run_cli(
        "kh", "--from", "3", "--to", "500", "--workers", "1", "--csv", csv_path, "--ledger", ledger,
    )
    assert code == EXIT_ANOMALY
    assert capsys.readouterr().err == "VIOLATION: 101 divides !101\n"
    flagged = [l for l in csv_path.read_text().splitlines() if l.startswith("101,")]
    assert flagged == ["101,0,true," + flagged[0].split(",", 3)[3]]
    led = json_lines(ledger)
    assert [l for l in led if l["type"] == "summary"][0]["violations"] == 1


def test_cli_kh_checkpoint_mismatch_and_corrupt(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    assert run_cli("kh", "--from", "3", "--to", "1000", "--checkpoint", cp) == EXIT_OK
    # changed range: refuse, usage error
    assert run_cli("kh", "--from", "3", "--to", "2000", "--checkpoint", cp) == EXIT_USAGE
    assert "differ" in capsys.readouterr().err
    cp.write_text("not json at all")
    assert run_cli("kh", "--from", "3", "--to", "1000", "--checkpoint", cp) == EXIT_RUNTIME


@pytest.mark.parametrize(
    "field,value",
    [
        ("params", [["lo", 3]]),
        ("params", None),
        ("counters", [1, 2]),
        ("counters", "records=1024"),
        ("frontier", None),
        ("frontier", True),
        ("frontier", 8167.0),
        ("frontier", "8167"),
        ("counters", {"records": 1024, "violations": False}),
        ("counters", {"records": 1024.0, "violations": 0}),
        ("version", True),
        ("version", 1.0),
    ],
)
def test_cli_kh_refuses_a_checkpoint_of_the_wrong_shape(tmp_path, capsys, field, value):
    # a field of the wrong JSON type is a corrupt checkpoint, reported as
    # such: exit 1 with kh's message, no traceback, and the file kept
    cp = tmp_path / "cp.json"
    obj = {
        "command": "kh", "counters": {"records": 1024, "violations": 0}, "frontier": 8167,
        "params": {"hi": 20000, "lo": 3, "method": KERNEL_METHOD}, "version": 1,
    }
    cp.write_text(json.dumps({**obj, field: value}))
    before = cp.read_bytes()
    code = run_cli("kh", "--from", "3", "--to", "20000", "--workers", "1", "--checkpoint", cp)
    captured = capsys.readouterr()
    assert code == EXIT_RUNTIME
    assert captured.err.startswith(f"kh: {cp}: "), captured.err
    assert cp.read_bytes() == before


@pytest.mark.parametrize("param", ["hi", "lo"])
def test_cli_kh_refuses_checkpoint_params_of_another_json_type(tmp_path, capsys, param):
    # 20000.0 == 20000 in Python but not in JSON: a checkpoint whose params
    # hold a float is not one that kh --from 3 --to 20000 writes
    cp = tmp_path / "cp.json"
    params = {"hi": 20000, "lo": 3, "method": KERNEL_METHOD}
    cp.write_text(json.dumps({
        "command": "kh", "counters": {"records": 1024, "violations": 0}, "frontier": 8167,
        "params": {**params, param: float(params[param])}, "version": 1,
    }))
    before = cp.read_bytes()
    assert run_cli("kh", "--from", "3", "--to", "20000", "--workers", "1", "--checkpoint", cp) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"kh: checkpoint params differ on {param}: "), err
    assert cp.read_bytes() == before


def test_cli_kh_finished_checkpoint_resumes_to_noop(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("kh", "--from", "3", "--to", "5000", "--checkpoint", cp) == EXIT_OK
    # counters restored from the checkpoint even though nothing new ran
    assert "668 primes, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("records", [1, 1023, 1024, 1025, 2500, 3072])
def test_cli_interrupt_resume_ledger_identity(tmp_path, capsys, records):
    # interrupted once the ledger holds that many records of [3, 30000]:
    # inside chunk 1, at its end, inside chunks 2 and 3, and at chunk 3's end
    clean = tmp_path / "clean.jsonl"
    run_cli("kh", "--from", "3", "--to", "30000", "--ledger", clean)

    cp = tmp_path / "cp.json"
    part = tmp_path / "part.jsonl"
    with interrupted_after_records(records):
        run_cli("kh", "--from", "3", "--to", "30000", "--checkpoint", cp, "--ledger", part)
    # no summary line on the interrupted ledger
    partial = json_lines(part)
    assert len(partial) == records
    assert all(l["type"] == "record" for l in partial)
    # the checkpoint is the last whole chunk's before the interrupted one,
    # and there is none while the interrupt falls in chunk 1
    assert cp.exists() is (records > CHUNK_PRIMES)

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
    # interrupted as it checkpoints chunk 2, so the csv is ahead of the
    # checkpoint frontier
    with interrupted_at_advance(2):
        run_cli("kh", "--from", "3", "--to", "30000", "--checkpoint", cp, "--csv", part)
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
    with interrupted_at_advance(2):
        run_cli("kh", "--from", "3", "--to", "30000", "--checkpoint", cp, "--csv", out)
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


def _interrupted_csv_run(tmp_path, *extra):
    """A checkpointed [3, 30000] run interrupted as it checkpoints chunk 2;
    returns the checkpoint and CSV paths and the checkpoint frontier."""
    cp, out = tmp_path / "cp.json", tmp_path / "out.csv"
    with interrupted_at_advance(2):
        run_cli(
            "kh", "--from", "3", "--to", "30000", "--workers", "1",
            "--checkpoint", cp, "--csv", out, *extra,
        )
    return cp, out, saved(cp)["frontier"]


def _resume_csv_run(cp, out, *extra):
    return run_cli(
        "kh", "--from", "3", "--to", "30000", "--workers", "1",
        "--checkpoint", cp, "--csv", out, *extra,
    )


def test_cli_csv_resume_drops_a_torn_last_row(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    run_cli("kh", "--from", "3", "--to", "30000", "--workers", "1", "--csv", clean)
    cp, out, frontier = _interrupted_csv_run(tmp_path)
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
    cp, out, frontier = _interrupted_csv_run(tmp_path)
    kept = [l for l in out.read_text().splitlines(keepends=True)[1:] if int(l.split(",")[0]) <= frontier]
    out.write_text(CSV_HEADER + "\n" + "".join(kept) + str(frontier)[:2])
    assert _resume_csv_run(cp, out) == EXIT_OK
    assert "missing rows" not in capsys.readouterr().err
    assert _csv_rows_no_timing(out) == _csv_rows_no_timing(clean)


def test_cli_csv_resume_restarts_a_file_with_another_header(tmp_path, capsys):
    cp, out, frontier = _interrupted_csv_run(tmp_path)
    out.write_text("p,n\n3,1,false,0,forward_v\n")
    assert _resume_csv_run(cp, out) == EXIT_OK
    assert "missing rows" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and "p,n" not in lines
    assert int(lines[1].split(",")[0]) > frontier  # only the resumed rows follow


def test_cli_csv_resume_short_of_the_frontier_warns_and_succeeds(tmp_path, capsys):
    cp, out, frontier = _interrupted_csv_run(tmp_path)
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
    cp, out, _frontier = _interrupted_csv_run(tmp_path, "--ledger", led)
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


def _interrupted_ledger_run(tmp_path):
    """A checkpointed [3, 20000] run with ledger and CSV, interrupted as it
    checkpoints chunk 2; returns the three paths and the frontier."""
    cp, led, out = tmp_path / "cp.json", tmp_path / "led.jsonl", tmp_path / "out.csv"
    with interrupted_at_advance(2):
        run_cli(
            "kh", "--from", "3", "--to", "20000", "--workers", "1",
            "--checkpoint", cp, "--ledger", led, "--csv", out,
        )
    frontier = saved(cp)["frontier"]
    assert frontier == 8167  # the last prime of chunk 1
    return cp, led, out, frontier


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _refused_resume(tmp_path, capsys, led, frontier):
    """Resume the interrupted run over a damaged or missing ledger: it must exit 1
    naming the ledger and the frontier, and change no file. Returns stderr."""
    before = _files(tmp_path)
    capsys.readouterr()
    code = run_cli(
        "kh", "--from", "3", "--to", "20000", "--workers", "1",
        "--checkpoint", tmp_path / "cp.json", "--ledger", led, "--csv", tmp_path / "out.csv",
    )
    captured = capsys.readouterr()
    assert code == EXIT_RUNTIME
    assert captured.out == ""
    assert captured.err.startswith("leftfact: "), captured.err
    assert str(led) in captured.err and f"frontier {frontier}" in captured.err, captured.err
    assert _files(tmp_path) == before
    return captured.err


def test_cli_resume_refuses_a_ledger_damaged_below_the_frontier(tmp_path, capsys):
    cp, led, out, frontier = _interrupted_ledger_run(tmp_path)
    lines = led.read_text().splitlines(keepends=True)
    assert len(lines) == 2 * CHUNK_PRIMES
    lines[500] = lines[500][:20] + "\n"  # line 501
    led.write_text("".join(lines))
    _refused_resume(tmp_path, capsys, led, frontier)


def test_cli_resume_refuses_a_ledger_that_lost_a_record_below_the_frontier(tmp_path, capsys):
    cp, led, out, frontier = _interrupted_ledger_run(tmp_path)
    lines = led.read_text().splitlines(keepends=True)
    del lines[500]  # line 501, a whole record
    led.write_text("".join(lines))
    err = _refused_resume(tmp_path, capsys, led, frontier)
    assert "has 1023 records up to the checkpoint frontier 8167, where the checkpoint counts 1024" in err


def test_cli_resume_refuses_a_missing_ledger_under_a_checkpoint(tmp_path, capsys):
    cp, led, out, frontier = _interrupted_ledger_run(tmp_path)
    led.unlink()
    _refused_resume(tmp_path, capsys, led, frontier)
    assert not led.exists()


def test_cli_resumes_from_a_checkpoint_that_carries_a_wall_clock(tmp_path, capsys):
    # version-1 checkpoints once carried a wall_seconds field: one of them,
    # at the end of chunk 1, over a ledger cut there, resumes to the clean run
    clean, led, cp = tmp_path / "clean.jsonl", tmp_path / "led.jsonl", tmp_path / "cp.json"
    argv = ["kh", "--from", "3", "--to", "20000", "--workers", "1", "--ledger"]
    assert run_cli(*argv, clean) == EXIT_OK
    want = capsys.readouterr().out
    lines = clean.read_text().splitlines(keepends=True)
    assert json.loads(lines[CHUNK_PRIMES - 1])["prime"] == 8167  # the last prime of chunk 1
    led.write_text("".join(lines[:CHUNK_PRIMES]))
    cp.write_text(
        '{"command": "kh", "counters": {"records": 1024, "violations": 0}, "frontier": 8167, '
        '"params": {"hi": 20000, "lo": 3, "method": "forward_v"}, "version": 1, '
        '"wall_seconds": 0.42}\n'
    )
    assert run_cli(*argv, led, "--checkpoint", cp) == EXIT_OK
    assert _masked(capsys.readouterr().out) == _masked(want)
    assert canonical_lines(led) == canonical_lines(clean)
    assert json.loads(cp.read_text()) == {
        "command": "kh", "counters": {"records": len(lines) - 1, "violations": 0},
        "frontier": json.loads(lines[-2])["prime"],
        "params": {"hi": 20000, "lo": 3, "method": "forward_v"}, "version": 1,
    }


def test_cli_kh_failing_mid_stream_closes_its_files(tmp_path, monkeypatch, capsys):
    # an error out of the chunk stream ends kh with exit 1, and kh closes
    # the ledger and the CSV it opened rather than leave them to the garbage
    # collector; the two chunks written before the error stay written
    sweep = cli.kh_chunks

    def fails_at_chunk_3(*args, **kwargs):
        for number, chunk in enumerate(sweep(*args, **kwargs), 1):
            if number == 3:
                raise OSError("injected failure at chunk 3")
            yield chunk

    monkeypatch.setattr(cli, "kh_chunks", fails_at_chunk_3)
    led = tmp_path / "l.jsonl"
    code = run_cli(
        "kh", "--from", "3", "--to", "30000", "--workers", "1",
        "--checkpoint", tmp_path / "cp.json", "--ledger", led, "--csv", tmp_path / "o.csv",
    )
    assert code == EXIT_RUNTIME
    assert "injected failure at chunk 3" in capsys.readouterr().err
    assert len(led.read_text().splitlines()) == 2 * CHUNK_PRIMES


def test_cli_kh_refuses_a_range_past_the_bound_before_opening_its_files(tmp_path, capsys):
    # the range is checked before the ledger and the CSV open, so a refused
    # run leaves the files of an earlier one as they were
    led, out = tmp_path / "old.jsonl", tmp_path / "old.csv"
    assert run_cli("kh", "--from", "3", "--to", "1000", "--ledger", led, "--csv", out) == EXIT_OK
    before = led.read_bytes(), out.read_bytes()
    capsys.readouterr()
    hi = 99999999999999
    code = run_cli("kh", "--from", "3", "--to", hi, "--ledger", led, "--csv", out)
    assert code == EXIT_RUNTIME
    assert f"hi {hi} exceeds sweep bound {MAX_SWEEP_PRIME}" in capsys.readouterr().err
    assert (led.read_bytes(), out.read_bytes()) == before


def test_cli_resume_may_change_workers(tmp_path):
    cp = tmp_path / "cp.json"
    led = tmp_path / "led.jsonl"
    with interrupted_at_advance(2):
        run_cli(
            "kh", "--from", "3", "--to", "20000", "--workers", "1",
            "--checkpoint", cp, "--ledger", led,
        )
    code = run_cli(
        "kh", "--from", "3", "--to", "20000", "--workers", "2",
        "--checkpoint", cp, "--ledger", led,
    )
    assert code == EXIT_OK
    clean = tmp_path / "clean.jsonl"
    run_cli("kh", "--from", "3", "--to", "20000", "--ledger", clean)
    assert canonical_lines(led) == canonical_lines(clean)


def test_cli_kh_summary_reports_the_workers_after_the_cpu_cap(monkeypatch, capsys):
    # [3, 2000] is one chunk, so no worker process starts whatever is asked
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for asked, shown in (("64", "(2 workers)"), ("2", "(2 workers)"), ("1", "(1 worker)")):
        assert run_cli("kh", "--from", "3", "--to", "2000", "--workers", asked) == EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith(shown), asked


def test_cli_kh_ledger_is_the_same_for_any_worker_count(tmp_path, monkeypatch):
    # one worker takes 10^5 as one span, two and three cut it into as many
    # (on four CPUs: kh_chunks cuts the workers to the CPU count)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
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


def _masked(text):
    """Ledger, CSV, checkpoint or stdout text with its timing fields zeroed."""
    text = re.sub(r'"(elapsed_ns|wall_seconds)": [0-9.e+-]+', r'"\1": 0', text)
    text = re.sub(r"^(\d+,\d+,(?:true|false)),\d+,", r"\1,0,", text, flags=re.M)
    return re.sub(r"\d+\.\d\ds \(", "0.00s (", text)


class _Synced:
    def __init__(self, fh):
        self.fh = fh

    def flush_fsync(self):
        self.fh.flush()


def _per_record_kh(d, lo, hi, workers):
    """The kh command, formatted one record at a time: kh_sweep's records
    through write_record and record_to_row, each violation and the closing
    line printed as kh prints them. The checkpoint advances at the end of
    each chunk, every CHUNK_PRIMES-th record and the last. Returns the exit
    code."""
    counters = {"records": 0, "violations": 0}
    sink = FileSink(str(d / "cp.json"), "kh", {"lo": lo, "hi": hi, "method": KERNEL_METHOD})
    ledger = LedgerWriter(str(d / "led.jsonl"))
    stream = kh_sweep((lo, hi), worker_count=workers)
    try:
        with open(d / "out.csv", "w", encoding="utf-8", newline="\n") as csv:
            csv.write(CSV_HEADER + "\n")
            writers = (ledger, _Synced(csv))
            for emitted, r in enumerate(stream, 1):
                counters["records"] += 1
                counters["violations"] += r.violates_kh
                if r.violates_kh:
                    print(f"VIOLATION: {r.prime} divides !{r.prime}", file=sys.stderr)
                ledger.write_record(r)
                csv.write(record_to_row(r) + "\n")
                if emitted % CHUNK_PRIMES == 0:
                    sink.advance(r.prime, counters, writers)
            if emitted % CHUNK_PRIMES:
                sink.advance(r.prime, counters, writers)  # the range's last chunk, cut short
        ledger.write_summary(
            command="kh", lo=lo, hi=hi, method=KERNEL_METHOD,
            records=counters["records"], violations=counters["violations"], wall_seconds=0.0,
        )
        print(
            f"kh [{lo}, {hi}]: {counters['records']} primes, {counters['violations']} violations, "
            f"0.00s ({workers} worker{'s' if workers != 1 else ''})"
        )
    finally:
        stream.close()
        ledger.close()
    return EXIT_ANOMALY if counters["violations"] else EXIT_OK


# an odd prime inside the second chunk of [3, 20000]
_SECOND_CHUNK_PRIME = int(build_sieve(20000).primes[1 + CHUNK_PRIMES + 100])


@pytest.mark.parametrize(
    "hi,workers,interrupt_at,violation_at",
    [
        (100_000, 1, None, None),
        (20_000, 1, 1, None),
        (20_000, 1, 2, None),
        (20_000, 1, None, _SECOND_CHUNK_PRIME),
        (20_000, 2, None, None),
        (20_000, 3, None, None),
    ],
    ids=["full-1e5", "interrupt-1", "interrupt-2", "inject", "workers-2", "workers-3"],
)
def test_cli_kh_chunk_writes_match_per_record_writes(
    tmp_path, monkeypatch, capsys, hi, workers, interrupt_at, violation_at
):
    # both runs see the same kernel, and are interrupted at the same advance;
    # on four CPUs, so that --workers 3 gets three
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if violation_at is not None:
        zero_residue_at(monkeypatch, violation_at)
    ref, got = tmp_path / "ref", tmp_path / "got"
    ref.mkdir()
    got.mkdir()
    argv = [
        "kh", "--from", "3", "--to", hi, "--workers", workers,
        "--checkpoint", got / "cp.json", "--ledger", got / "led.jsonl", "--csv", got / "out.csv",
    ]
    outcomes = []
    for run in (lambda: _per_record_kh(ref, 3, hi, workers), lambda: run_cli(*argv)):
        code = None  # an interrupted run returns none
        capsys.readouterr()
        with interrupted_at_advance(interrupt_at) if interrupt_at else contextlib.nullcontext():
            code = run()
        captured = capsys.readouterr()
        outcomes.append((code, _masked(captured.out), captured.err))
    assert outcomes[1] == outcomes[0]
    # an interrupt at chunk 1's checkpoint leaves no cp.json
    assert sorted(os.listdir(got)) == sorted(os.listdir(ref))
    assert ("cp.json" in os.listdir(got)) is (interrupt_at != 1)
    for name in os.listdir(ref):
        assert _masked((got / name).read_text()) == _masked((ref / name).read_text()), name
    if violation_at is not None:
        code, _out, err = outcomes[1]
        assert code == EXIT_ANOMALY
        assert err.count("VIOLATION") == 1
        assert f"{violation_at},0,true," in (got / "out.csv").read_text()
        led = json_lines(got / "led.jsonl")
        flagged = [l for l in led if l.get("prime") == violation_at]
        assert [(l["residue"], l["violates_kh"]) for l in flagged] == [(0, True)]


def _child_env():
    # run the very source this test imports, whatever the working directory
    # or an installed copy of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(leftfact.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


# The CLI, stopped as it is about to persist its kth chunk (argv[1]): by
# SIGKILL when argv[2] is "kill", else by a KeyboardInterrupt, as from
# Ctrl-C. That chunk's records are already with the writers, so the record
# files run ahead of the checkpoint.
_STOPPED_AT_ADVANCE = """
import os, signal, sys
from leftfact.cli import main
from leftfact.harness import FileSink

advance, calls = FileSink.advance, []
k, how = int(sys.argv[1]), sys.argv[2]

def advance_or_stop(self, frontier, counters, writers=()):
    calls.append(frontier)
    if len(calls) == k:
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise KeyboardInterrupt
    advance(self, frontier, counters, writers)

FileSink.advance = advance_or_stop
sys.exit(main(sys.argv[3:]))
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
    # [3, 10^5] has ten chunks, so the kill at chunk 4 falls mid-sweep
    killed = subprocess.run(
        [sys.executable, "-c", _STOPPED_AT_ADVANCE, "4", "kill", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr  # killed mid-sweep, not exited

    # the frontier is the third chunk's last prime, inside the span
    third_chunk_end = int(build_sieve(100000).primes_up_to(100000)[3 * CHUNK_PRIMES])
    assert saved(cp)["frontier"] == third_chunk_end

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


# The CLI over a kernel that gives prime 101 a zero residue, as a real
# violation would: the sweep itself reports nothing
_KERNEL_ZERO_AT_101 = """
import sys
from leftfact import sweeps
from leftfact.cli import main

kernel = sweeps.batch_residues

def zero_at_101(primes):
    residues = kernel(primes)
    residues[primes == 101] = 0
    return residues

sweeps.batch_residues = zero_at_101
sys.exit(main(sys.argv[1:]))
"""


def test_cli_reports_a_kernel_violation_once(tmp_path):
    led = tmp_path / "led.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_ZERO_AT_101,
         "kh", "--from", "3", "--to", "500", "--workers", "1", "--ledger", str(led)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == EXIT_ANOMALY, proc.stderr
    assert proc.stderr == "VIOLATION: 101 divides !101\n"
    flagged = [r for r in json_lines(led) if r.get("prime") == 101]
    assert [(r["residue"], r["violates_kh"]) for r in flagged] == [(0, True)]


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
    # the interrupt closes the chunk stream while chunks are in flight on
    # two workers; a worker left alive would also hold the output pipes
    # open and run into the timeout
    argv = [
        sys.executable, "-c", _STOPPED_AT_ADVANCE, "2", "interrupt",
        "kh", "--from", "3", "--to", "30000", "--workers", "2",
        "--checkpoint", str(tmp_path / "cp.json"), "--csv", str(tmp_path / "out.csv"),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == -signal.SIGINT, proc.stderr
    assert proc.stderr.rstrip().endswith("KeyboardInterrupt"), proc.stderr
    assert saved(tmp_path / "cp.json")["counters"]["records"] == CHUNK_PRIMES
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
    # importing sympy 1.14 took 0.31-0.36 s and 36 MB of peak RSS in fresh
    # CPython 3.11 processes on a 2-core x86-64 host; only what factoring
    # hands to sympy.factorint needs it
    code = (
        "import sys\n"
        "from leftfact.cli import main\n"
        "rc = main(['kh', '--from', '3', '--to', '2000', '--workers', '1'])\n"
        "print('analytic', 'leftfact.analytic' in sys.modules, file=sys.stderr)\n"
        "print('factorint', 'leftfact.factorint' in sys.modules, file=sys.stderr)\n"
        "print('exit', rc, 'sympy', 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"exit {EXIT_OK} sympy False", proc.stderr
    assert proc.stderr.splitlines()[-2] == "factorint False", proc.stderr
    assert proc.stderr.splitlines()[-3] == "analytic False", proc.stderr


def test_harness_never_imports_modular():
    # the record files need VerificationRecord for annotations only
    code = "import sys, leftfact.harness\nprint('leftfact.modular' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_kh_rerun_and_kh2_never_import_numpy(tmp_path):
    # numpy costs about as much to import as the rest of a kh rerun; only the
    # kernel and the vector prime problems need it. Nor does kh load
    # dataclasses (with inspect), fractions (with decimal) or the modular
    # oracles, which only other commands use
    c, led, out = tmp_path / "c.json", tmp_path / "l.jsonl", tmp_path / "t.csv"
    kh = ["kh", "--from", "3", "--to", "10000", "--workers", "1",
          "--checkpoint", str(c), "--ledger", str(led), "--csv", str(out)]
    assert main(kh) == EXIT_OK
    finished = canonical_lines(led)
    unused = ("dataclasses", "inspect", "fractions", "decimal", "leftfact.modular")
    code = (
        "import sys\n"
        "import leftfact.cli\n"
        f"unused = {unused!r}\n"
        "print('import', 'numpy' in sys.modules, file=sys.stderr)\n"
        "print('import loads', [m for m in unused if m in sys.modules], file=sys.stderr)\n"
        f"rc = leftfact.cli.main({kh!r})\n"
        "print('kh', rc, 'numpy' in sys.modules, file=sys.stderr)\n"
        "print('kh loads', [m for m in unused if m in sys.modules], file=sys.stderr)\n"
        "rc = leftfact.cli.main(['kh2', '--p-max', '200', '--n-max', '300'])\n"
        "print('kh2', rc, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-5:] == [
        "import False", "import loads []", f"kh {EXIT_OK} False", "kh loads []",
        f"kh2 {EXIT_OK} False",
    ], proc.stderr
    assert canonical_lines(led) == finished


TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize("tool", sorted(f for f in os.listdir(TOOLS) if f.endswith(".py")))
def test_tool_help_exits_0(tool):
    # the tools import private kernel names, so a kernel change that breaks
    # one fails here rather than at the tool's next run
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, tool), "--help"], capture_output=True,
        text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:"), proc.stdout


def test_perfbench_tracer_finds_the_names_it_rebinds(tmp_path):
    # the traced benchmark runs rebind names in cli, harness, sweeps and
    # factorint (perfbench/tracer.py); a rename of one breaks them there,
    # so a traced kh run and the library install are checked here
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "from tracer import Tracer, install_cli, install_library\n"
        "from leftfact.cli import main\n"
        "tracer = Tracer()\n"
        "install_cli(tracer)\n"
        "rc = main(sys.argv[1:])\n"
        "install_library(Tracer())\n"
        "print(rc, *sorted(set(tracer.names)))\n"
    )
    kh = ["kh", "--from", "3", "--to", "3000", "--workers", "1", "--checkpoint",
          str(tmp_path / "c.json"), "--ledger", str(tmp_path / "l.jsonl"), "--csv", str(tmp_path / "t.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *kh], capture_output=True, text=True, timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    rc, *names = proc.stdout.splitlines()[-1].split()
    assert rc == str(EXIT_OK)
    assert {"harness.advance", "harness.checkpoint_write", "harness.fsync", "sweeps.kernel"} <= set(names)


def test_package_names_all_resolve_in_their_order():
    # the names load on first use, so a name mapped to the wrong submodule
    # would fail only when someone asked for it
    assert leftfact.__all__ == (
        "BridgeReport PoleError PoleInfo QuadratureConfig QuadratureError "
        "QuadratureResult asymptotic_ratio congruence_bridge euler_constant gamma "
        "k_continued k_integral k_integral_detailed k_slavic pole_residue "
        "slavic_constant_block IDENTITY_IDS StirlingTable "
        "alternating_factorial evaluate_identity gcd_pair iter_left_factorials "
        "left_factorial partial_sum_gcd pole_residue_fraction stirling_table "
        "weighted_sum Factorization factorize "
        "CheckpointCorrupt CheckpointError CheckpointMismatch FileSink LedgerWriter "
        "canonical_lines write_checkpoint "
        "MAX_MODULUS VARIANTS CostModel ResidueResult VerificationRecord cost_model "
        "derangement_number floor_factorial_over_e kh_equivalent_residue "
        "residue_backward_s residue_direct residue_forward_t residue_forward_v "
        "residue_mod_p_squared GoodPrimeResult PrimeSieve SignStatistics "
        "TripletReport build_sieve count_pair_progressions good_prime_check "
        "is_probable_prime p_set "
        "pi_sequence s_sequence sign_statistics sum_inequality_scan CHUNK_PRIMES "
        "SPAN_PRIMES MAX_SWEEP_PRIME KhChunk a_set_scan alternating_divisor_hits "
        "batch_residues h4_witness_search kh2_scan kh_chunks kh_sweep residue_summatory"
    ).split()
    for name in leftfact.__all__:
        getattr(leftfact, name)
    assert set(leftfact.__all__) <= set(dir(leftfact))


def test_cli_factor_to_40_never_imports_sympy():
    # from K(26) up the cofactors pass PSI_13: the strong Lucas test, the
    # perfect-power check and the sieve take them, and none needs sympy
    code = (
        "import sys\n"
        "from leftfact.cli import main\n"
        "rc = [main(['factor', str(n)]) for n in range(41)]\n"
        "print('exit', set(rc), 'sympy', 'sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "!26 = 2 * 49297 * 1348619023 * 121525196147" in proc.stdout
    assert proc.stdout.count("complete: true") == 39
    assert proc.stderr.splitlines()[-1] == f"exit {{{EXIT_OK}}} sympy False", proc.stderr


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
    (("report", "cost-model"), r"  \d+ worker\(s\): \d+\.\d\ds for 9591 primes"),
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


@pytest.mark.parametrize("cores,counts", [(1, [1]), (2, [1, 2]), (8, [1, 2, 4])])
def test_cli_cost_model_reports_each_worker_count_its_sweeps_run(monkeypatch, capsys, cores, counts):
    # asked for 1, 2 and 4 workers, a sweep runs sweep_workers of each: the
    # report times and prints each distinct count once
    runs = []

    def sweep(bounds, worker_count):
        runs.append(worker_count)
        return iter(range(9591))

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli, "kh_sweep", sweep)
    assert run_cli("report", "cost-model") == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [int(l.split()[0]) for l in out if "worker(s)" in l] == runs == counts


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


def test_cli_kh2_expects_only_the_known_square_hits(monkeypatch, capsys):
    hits = list(KNOWN_SQUARE_HITS)
    monkeypatch.setattr(cli, "kh2_scan", lambda p_range, n_bound: hits)
    assert run_cli("kh2", "--p-max", "60000", "--n-max", "27000") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  2^2 divides !3", "  54503^2 divides !26541"
    ]
    hits.append((7, 100))
    assert run_cli("kh2", "--p-max", "60000", "--n-max", "27000") == EXIT_ANOMALY
    assert capsys.readouterr().out.splitlines()[-1] == "  7^2 divides !100"


def test_cli_altfact_output(capsys):
    # the first n with n+1 | n! - (n-1)! + ... - 1! is 3612702
    assert run_cli("altfact", "--n-max", "200") == EXIT_OK
    assert capsys.readouterr().out == "n <= 200 with n+1 | n! - (n-1)! + ... +/- 1!: none\n"


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

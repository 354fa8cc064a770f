import csv
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import satsemi
from satsemi.cli import (
    SEMIGROUP_CSV_COLUMNS,
    _emit_records,
    _emit_semigroups,
    _table_speller,
    _walk_records,
    main,
)
from satsemi.extremal import maximal_elements
from satsemi.satsets import closure, minimal_system
from satsemi.semigroup import (
    NumericalSemigroup,
    _apery_mask,
    _gap_window,
    _set_bits,
    _small_window,
)
from satsemi.tree import _genus_layer, _walk, enumerate_sat, enumerate_sat_genus
from test_satsets import literal_drops

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def captured(emit, *args):
    out = io.StringIO()
    with redirect_stdout(out):
        emit(*args)
    return out.getvalue()


def reference_record(S: NumericalSemigroup) -> dict:
    """The output record of a saturated member as a dict, the reference
    that the CLI's formatters are compared against.

    The msg shortcut holds only for saturated members (see ``cli._msg``);
    the minimal system is the small elements at which the running gcd
    drops, found by a literal loop over them that shares no code with
    ``semigroup._drops``.
    """
    F = S.frobenius
    mask = S._mask
    small = _set_bits(mask & _small_window(F))
    m = small[0] if small else F + 1
    msg = _set_bits((_apery_mask(F, mask, m) & ~1) | 1 << m)
    system = literal_drops(small)
    return {
        "frobenius": F,
        "small_elements": small,
        "msg": msg,
        "genus": F - len(small),
        "multiplicity": m,
        "gaps": _set_bits(~mask & _gap_window(F)),
        "sat_msg": system,
        "embedding_dimension": len(msg),
        "rank": len(system),
    }


def test_enumerate_text_f7():
    code, out = run_cli("enumerate", "--frobenius", "7")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 8  # seven semigroups plus the count footer
    assert lines[0] == "0,8→ | msg=⟨8,9,10,11,12,13,14,15⟩ | g=7 | rank=0"
    assert lines[4] == "0,3,6,8→ | msg=⟨3,8,10⟩ | g=5 | rank=1"
    assert lines[6] == "0,2,4,6,8→ | msg=⟨2,9⟩ | g=4 | rank=1"
    assert lines[-1] == "7"


def test_enumerate_stream_drops_footer():
    code, out = run_cli("enumerate", "--frobenius", "7", "--stream")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 7
    assert all("msg=" in line for line in lines)


def test_genus_subcommand():
    code, out = run_cli("genus", "--frobenius", "7", "--genus", "5")
    lines = out.splitlines()
    assert code == 0
    assert lines == [
        "0,3,6,8→ | msg=⟨3,8,10⟩ | g=5 | rank=1",
        "0,4,6,8→ | msg=⟨4,6,9,11⟩ | g=5 | rank=2",
        "2",
    ]


def test_maximal_subcommand():
    code, out = run_cli("maximal", "--frobenius", "30")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "10"
    assert len(lines) == 11
    assert lines[0].startswith("0,4,8,12,16,20,24,28,31→")


def test_min_genus_formats():
    assert run_cli("min-genus", "--frobenius", "7") == (0, "4\n")
    code, out = run_cli("min-genus", "--frobenius", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"frobenius": 6, "min_genus": 5}
    code, out = run_cli("min-genus", "--frobenius", "12", "--format", "csv")
    assert out.splitlines() == ["frobenius,min_genus", "12,10"]


def test_closure_json_record():
    code, out = run_cli(
        "closure", "--frobenius", "51", "--set", "8,28,42", "--format", "json"
    )
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["small_elements"] == [8, 16, 24, 28, 32, 36, 40, 42, 44, 46, 48, 50]
    assert rec["sat_msg"] == [8, 28, 42]
    assert rec["rank"] == 3
    assert rec["genus"] + 1 + len(rec["small_elements"]) == rec["frobenius"] + 1


def test_json_records_round_trip():
    code, out = run_cli("enumerate", "--frobenius", "9", "--format", "json")
    assert code == 0
    records = json.loads(out)
    for rec in records:
        S = NumericalSemigroup.from_small_elements(
            rec["frobenius"], rec["small_elements"]
        )
        assert S.canonical_json() == {
            key: rec[key]
            for key in ("frobenius", "small_elements", "msg", "genus", "multiplicity")
        }
        assert sorted(rec["gaps"] + [0] + rec["small_elements"] + [rec["frobenius"] + 1]) == list(
            range(rec["frobenius"] + 2)
        )


def general_record(S):
    # the record built from the public API, with no saturation shortcut
    system = minimal_system(S)
    rec = S.canonical_json()
    rec["gaps"] = list(S.gaps())
    rec["sat_msg"] = list(system.elements)
    rec["embedding_dimension"] = S.embedding_dimension
    rec["rank"] = len(system.elements)
    return rec


def test_empty_json_array():
    out = run_cli("genus", "--frobenius", "7", "--genus", "99", "--format", "json")
    assert out == (0, "[]\n")


def reference_line(rec, fmt, stream):
    """A record as the literal encoders write it: a text line, a csv row,
    a json line, or its block of the indented json array."""
    if fmt == "text":
        members = ",".join(map(str, [0, *rec["small_elements"], rec["frobenius"] + 1]))
        msg = ",".join(map(str, rec["msg"]))
        return f"{members}→ | msg=⟨{msg}⟩ | g={rec['genus']} | rank={rec['rank']}\n"
    if fmt == "csv":
        row = [rec[k] for k in ("frobenius", "genus", "multiplicity", "embedding_dimension", "rank")]
        row += [";".join(map(str, rec[k])) for k in ("small_elements", "msg", "sat_msg")]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(row)
        return out.getvalue()
    if stream:
        return json.dumps(rec) + "\n"
    return json.dumps([rec], indent=2)[2:-2]  # "[\n" and "\n]" cut off


def reference_output(lines, fmt, stream):
    # a command's whole output around its records' reference lines
    if fmt == "text":
        return "".join(lines) + ("" if stream else f"{len(lines)}\n")
    if fmt == "csv":
        return ",".join(SEMIGROUP_CSV_COLUMNS) + "\n" + "".join(lines)
    if stream:
        return "".join(lines)
    return "[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n"


@pytest.fixture(scope="module")
def references():
    """enumerate's families, each with its walked records and its reference
    records, and the groups that only the other commands print: maximal
    members, closures and an empty group.  Built once; every reference
    record is checked once against the general path, which pins the msg
    shortcut against minimal_generators() beyond the golden F."""

    def checked(members):
        records = [reference_record(S) for S in members]
        for S, rec in zip(members, records):
            assert list(rec.items()) == list(general_record(S).items()), S
        return records

    families = {}
    for f in [*range(1, 61), 83]:
        members = enumerate_sat(f)
        families[f] = members, list(_walk_records(f, _walk(f))), checked(members)
    groups = [maximal_elements(f) for f in (61, 97, 128)]
    groups += [
        [closure(51, [8, 28, 42])],
        [closure(101, [30, 42, 70])],
        [closure(150, [16, 24, 44])],
        [closure(199, [12, 20, 46]), closure(199, [])],
        [],
    ]
    return families, [(members, checked(members)) for members in groups]


FORMATS = [("text", False), ("text", True), ("json", False), ("json", True), ("csv", False)]
# enumerate's families past F=40 that a format is also checked on; the
# largest, F=83, only whole through main
WIDER = {("json", True): range(41, 61), ("json", False): [83]}


@pytest.mark.parametrize("fmt, stream", FORMATS)
def test_formatters_match_reference_encoders(references, fmt, stream):
    # whole families spell entries from the label table from the second
    # record on; each record alone, and the one-member families F=1, 2,
    # take the path without a table.  enumerate prints the walk's records
    # and is the only command that streams; the other commands build
    # theirs from the members
    families, groups = references
    for f in [*range(1, 41), *WIDER.get((fmt, stream), [])]:
        members, walked, records = families[f]
        lines = [reference_line(rec, fmt, stream) for rec in records]
        # lists, not strings: a failing string comparison this long takes
        # pytest minutes to diff
        want = reference_output(lines, fmt, stream).split("\n")
        argv = ["enumerate", "--frobenius", str(f), "--format", fmt] + ["--stream"] * stream
        assert captured(main, argv).split("\n") == want, f
        if f == 83:
            continue
        if not stream:
            assert captured(_emit_semigroups, members, fmt).split("\n") == want, f
        for S, rec, line in zip(members, walked, lines, strict=True):
            want = reference_output([line], fmt, stream)
            assert captured(_emit_records, [rec], fmt, stream) == want, (f, S)
            if not stream:
                assert captured(_emit_semigroups, [S], fmt) == want, (f, S)
    if not stream:
        for members, records in groups:
            want = reference_output([reference_line(r, fmt, stream) for r in records], fmt, stream)
            assert captured(_emit_semigroups, members, fmt).split("\n") == want.split("\n")


@pytest.mark.parametrize("fmt, stream", FORMATS)
def test_formatters_match_reference_encoders_at_large_f(fmt, stream):
    # 2F+2 = 516 labels: the table's last row holds labels 512..519, only
    # four of them in range.  The maximal members have small multiplicity;
    # the msg of {0, F+1, ->}, F+1..2F+1, reaches into that row
    family = maximal_elements(257) + [closure(257, [])]
    records = [reference_record(S) for S in family]
    want = reference_output([reference_line(r, fmt, stream) for r in records], fmt, stream)
    triples = [(257, S._mask, rec["sat_msg"]) for S, rec in zip(family, records)]
    # lists, not strings, as in the test above
    assert captured(_emit_records, triples, fmt, stream).split("\n") == want.split("\n")


def test_genus_walk_records_match_the_drops_path():
    # genus prints its layer's nodes with sat_msg read off their chains;
    # the other commands derive it from each member with semigroup._drops
    for f in range(1, 41):
        for g in range(f + 2):
            layer = _genus_layer(f, g)
            members = enumerate_sat_genus(f, g)
            for fmt in ("text", "json", "csv"):
                got = captured(_emit_records, _walk_records(f, [layer]), fmt)
                want = captured(_emit_semigroups, members, fmt)
                assert got.split("\n") == want.split("\n"), (f, g, fmt)


@pytest.mark.parametrize("sep", [",", ";", ", ", ",\n      "])
def test_table_speller_joins_the_set_bits(sep):
    # every residue of 2F+2 mod 8 up to F=40, and rows past the first few
    rng = random.Random(29)
    for f in [*range(1, 41), 127, 128, 1000]:
        width = 2 * f + 2
        spell = _table_speller(f, sep)
        masks = [0, 1 << (width - 1), (1 << width) - 1]
        masks += [rng.getrandbits(width) for _ in range(20)]
        for mask in masks * 2:  # the second pass reads entries already filled
            assert spell(mask) == sep.join(map(str, _set_bits(mask))), (f, mask)


@pytest.fixture(scope="module")
def pinned_emit():
    return json.loads(PINNED.read_text())["emit"]


@pytest.mark.parametrize(
    "f, fmt", [(83, "json"), (82, "text"), (100, "csv"), (114, "json-stream")]
)
def test_enumerate_matches_pinned_benchmark_digest(pinned_emit, f, fmt):
    # one input of the benchmark's emit workload per format, above the
    # golden F <= 60, against the digest the benchmark pins
    argv = ["enumerate", "--frobenius", str(f), "--format", fmt.removesuffix("-stream")]
    if fmt == "json-stream":
        argv.append("--stream")
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned_emit[str(f)][fmt]["sha256"]


def test_json_array_written_record_by_record():
    out = io.StringIO()

    def produce():
        for k, S in enumerate(enumerate_sat(12), 1):
            assert out.getvalue().count('"frobenius"') == k - 1
            yield S

    with redirect_stdout(out):
        _emit_semigroups(produce(), "json")
    assert json.loads(out.getvalue()) == [reference_record(S) for S in enumerate_sat(12)]


def test_min_gens_subcommand():
    code, out = run_cli(
        "min-gens", "--frobenius", "21", "--small", "4,8,10,12,14,16,18,20"
    )
    assert code == 0
    assert out == "sat_msg=⟨4,10⟩ | rank=2\n"
    code, out = run_cli(
        "min-gens", "--frobenius", "21", "--small",
        "4,8,10,12,14,16,18,20", "--format", "json",
    )
    assert json.loads(out) == {"frobenius": 21, "sat_msg": [4, 10], "rank": 2}


def test_rank_subcommand():
    code, out = run_cli("rank", "--frobenius", "7", "--rank", "2")
    assert code == 0
    assert out.splitlines() == [
        "0,4,6,8→ | msg=⟨4,6,9,11⟩ | g=5 | rank=2",
        "1",
    ]
    # a rank past the bit length of F is refused before 2**p is built
    assert run_cli("rank", "--frobenius", "7", "--rank", "1000000000000") == (0, "0\n")


def test_feasible_subcommand():
    assert run_cli("feasible", "--frobenius", "18", "--rank", "3") == (0, "false\n")
    assert run_cli("feasible", "--frobenius", "7", "--rank", "2") == (0, "true\n")
    code, out = run_cli(
        "feasible", "--frobenius", "18", "--rank", "3", "--format", "json"
    )
    assert json.loads(out) == {"frobenius": 18, "rank": 3, "feasible": False}


def test_verify_subcommand():
    code, out = run_cli("verify", "--max-frobenius", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F=1: ok, 1 semigroups"
    assert lines[-1] == "all checks passed"


def test_verify_json():
    code, out = run_cli("verify", "--max-frobenius", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["frobenius"] for r in reports] == [1, 2, 3]
    assert all(r["ok"] for r in reports)


def test_csv_layout():
    code, out = run_cli("enumerate", "--frobenius", "7", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "frobenius,genus,multiplicity,edim,rank,small_elements,msg,sat_msg"
    assert lines[-1] == "7,4,2,2,1,2;4;6,2;9,2"
    assert len(lines) == 8


def test_domain_error_exit_code(capsys):
    code, out = run_cli("closure", "--frobenius", "4", "--set", "2")
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("enumerate")
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli("enumerate", "--frobenius", "7", "--format", "yaml")
    assert excinfo.value.code == 2


def test_sort_flag_reserved():
    code, _ = run_cli("enumerate", "--frobenius", "5", "--sort", "canonical")
    assert code == 0


def child_env():
    src = str(Path(satsemi.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": src}


def fresh_interpreter(code):
    return subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout


def cli_process(*argv, **popen_args):
    # F=199 writes megabytes, so the child is still writing after line one
    return subprocess.Popen(
        [sys.executable, "-m", "satsemi.cli", *argv],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        **popen_args,
    )


def test_closed_pipe_exits_quietly():
    proc = cli_process("enumerate", "--frobenius", "199")
    proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert proc.wait(timeout=10) == 141


def test_interrupt_exits_quietly():
    # a shell that starts the child in the background would ignore SIGINT
    proc = cli_process(
        "enumerate",
        "--frobenius",
        "199",
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    proc.stdout.readline()
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=10)
    assert err == b""
    assert proc.returncode == 130


def test_cli_import_skips_dataclasses():
    # dataclasses costs about 10 ms of start-up for every command
    code = "import satsemi.cli, sys; print('dataclasses' in sys.modules)"
    assert fresh_interpreter(code) == "False\n"


def test_commands_start_no_process_pool():
    # concurrent.futures cost about a third of every command's start-up,
    # and --jobs starts no pool, so no command may import it
    code = (
        "import sys; from satsemi.cli import main; "
        "main(['enumerate', '--frobenius', '12', '--jobs', '3']); "
        "main(['min-genus', '--frobenius', '12']); "
        "print('concurrent.futures' in sys.modules)"
    )
    assert fresh_interpreter(code).splitlines()[-1] == "False"


def test_color_env_decorates_verify_only(monkeypatch):
    monkeypatch.setenv("SATSEMI_COLOR", "1")
    _, verify_out = run_cli("verify", "--max-frobenius", "2")
    assert "\x1b[32m" in verify_out
    _, data_out = run_cli("enumerate", "--frobenius", "5")
    assert "\x1b[" not in data_out
    monkeypatch.setenv("SATSEMI_COLOR", "0")
    _, plain = run_cli("verify", "--max-frobenius", "2")
    assert "\x1b[" not in plain


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("enumerate", "--frobenius", "0"), 2, "argument --frobenius: must be at least 1"),
        (("genus", "--frobenius", "-1", "--genus", "0"), 2, "argument --frobenius: must be at least 1"),
        (("maximal", "--frobenius", "0"), 2, "argument --frobenius: must be at least 1"),
        (("min-genus", "--frobenius", "0"), 2, "argument --frobenius: must be at least 1"),
        (("feasible", "--frobenius", "0", "--rank", "1"), 2, "argument --frobenius: must be at least 1"),
        (("rank", "--frobenius", "0", "--rank", "1"), 2, "argument --frobenius: must be at least 1"),
        (("rank", "--frobenius", "7", "--rank", "-1"), 2, "argument --rank: must be at least 0"),
        (("feasible", "--frobenius", "7", "--rank", "-1"), 2, "argument --rank: must be at least 0"),
        (("enumerate", "--frobenius", "7", "--jobs", "0"), 2, "argument --jobs: must be at least 1"),
        (("enumerate", "--frobenius", "7", "--jobs", "-3"), 2, "argument --jobs: must be at least 1"),
        (("enumerate", "--frobenius", "x"), 2, "argument --frobenius: invalid int value: 'x'"),
        (("verify", "--max-frobenius", "21"), 1, "error: subset search above F=20 is not practical"),
        (("verify", "--max-frobenius", "0"), 2, "argument --max-frobenius: must be at least 1"),
        (("verify", "--max-frobenius", "-3"), 2, "argument --max-frobenius: must be at least 1"),
        (("genus", "--frobenius", "7", "--genus", "-1"), 2, "argument --genus: must be at least 0"),
        (("min-gens", "--frobenius", "7", "--small", "2,4,6,9"), 1, "error: small element 9 outside 1..6"),
        (("min-gens", "--frobenius", "7", "--small", "0"), 1, "error: small element 0 outside 1..6"),
        (("closure", "--frobenius", "0", "--set", "1"), 2, "argument --frobenius: must be at least 1"),
        (("min-gens", "--frobenius", "-2", "--small", "1"), 2, "argument --frobenius: must be at least 1"),
        (("enumerate", "--frobenius", str(10**18)), 1, "error: the input is too large to represent"),
        (("closure", "--frobenius", str(10**18), "--set", "3"), 1, "error: the input is too large to represent"),
        (("enumerate", "--frobenius", str(10**30)), 1, "error: the input is too large to represent"),
        (("closure", "--frobenius", str(10**30), "--set", "3"), 1, "error: the input is too large to represent"),
        (("rank", "--frobenius", str(10**18), "--rank", "1"), 1, "error: the input is too large to represent"),
        (("rank", "--frobenius", str(10**30), "--rank", "1"), 1, "error: the input is too large to represent"),
        (("maximal", "--frobenius", str(10**18)), 1, "error: the input is too large to represent"),
    ],
)
def test_bad_input_gives_one_line_diagnostic(monkeypatch, capsys, argv, code, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the input was refused")

    monkeypatch.setattr("satsemi.cli.check_all", unreachable)
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert message in lines[-1]
    assert sum("error:" in line for line in lines) == 1
    if code == 2:
        assert lines[0].startswith("usage: satsemi")
    else:
        assert len(lines) == 1

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import satsemi
from satsemi.cli import SEMIGROUP_CSV_COLUMNS, _emit_semigroups, _json_line, _record, main
from satsemi.extremal import maximal_elements
from satsemi.satsets import closure, minimal_system
from satsemi.semigroup import NumericalSemigroup
from satsemi.tree import enumerate_sat


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


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


def test_one_pass_record_matches_general_path():
    # pins the maximal-embedding-dimension shortcut for msg against
    # minimal_generators() on every member up to F=60, beyond the golden F
    members = [S for f in range(1, 61) for S in enumerate_sat(f)]
    members += [S for f in (61, 97, 128) for S in maximal_elements(f)]
    members += [
        closure(51, [8, 28, 42]),
        closure(101, [30, 42, 70]),
        closure(150, [16, 24, 44]),
        closure(199, [12, 20, 46]),
        closure(199, []),
    ]
    for S in members:
        want = general_record(S)
        assert list(_record(S).items()) == list(want.items()), S
        del want["gaps"]  # text and csv print no gaps
        assert list(_record(S, gaps=False).items()) == list(want.items()), S


@pytest.mark.parametrize("f", [1, 2, 7, 40, 83])
def test_json_array_matches_indented_encoder(f):
    code, out = run_cli("enumerate", "--frobenius", str(f), "--format", "json")
    assert code == 0
    expected = json.dumps([_record(S) for S in enumerate_sat(f)], indent=2) + "\n"
    # lists, not strings: a failing string comparison this long takes pytest minutes to diff
    assert out.split("\n") == expected.split("\n")


def test_empty_json_array():
    out = run_cli("genus", "--frobenius", "7", "--genus", "99", "--format", "json")
    assert out == (0, "[]\n")


def test_json_line_matches_compact_encoder():
    for f in range(1, 61):
        labels = [str(i) for i in range(2 * f + 2)].__getitem__
        for S in enumerate_sat(f):
            rec = _record(S)
            assert _json_line(rec, str) == json.dumps(rec) + "\n", S
            assert _json_line(rec, labels) == json.dumps(rec) + "\n", S
    out = io.StringIO()
    with redirect_stdout(out):
        _emit_semigroups([], "json", stream=True)
    assert out.getvalue() == ""


def reference_text_line(rec):
    # the text formatter as it was before the label table
    members = ",".join(
        map(str, [0, *rec["small_elements"], rec["frobenius"] + 1])
    )
    msg = ",".join(map(str, rec["msg"]))
    return (
        f"{members}→ | msg=⟨{msg}⟩"
        f" | g={rec['genus']} | rank={rec['rank']}"
    )


def reference_csv_row(rec):
    return [
        rec["frobenius"],
        rec["genus"],
        rec["multiplicity"],
        rec["embedding_dimension"],
        rec["rank"],
        ";".join(map(str, rec["small_elements"])),
        ";".join(map(str, rec["msg"])),
        ";".join(map(str, rec["sat_msg"])),
    ]


def reference_output(members, fmt, stream):
    out = io.StringIO()
    if fmt == "text":
        for S in members:
            out.write(reference_text_line(_record(S, gaps=False)) + "\n")
        if not stream:
            out.write(f"{len(members)}\n")
    elif fmt == "json" and stream:
        for S in members:
            out.write(json.dumps(_record(S)) + "\n")
    elif fmt == "json":
        out.write(json.dumps([_record(S) for S in members], indent=2) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SEMIGROUP_CSV_COLUMNS)
        writer.writerows(reference_csv_row(_record(S, gaps=False)) for S in members)
    return out.getvalue()


FORMATS = [("text", False), ("text", True), ("json", False), ("json", True), ("csv", False)]


@pytest.mark.parametrize("fmt, stream", FORMATS)
def test_formatters_match_reference_encoders(fmt, stream):
    # whole families spell entries from the label table from the second
    # record on; each member alone, and the one-member families F=1, 2,
    # take the path without a table
    for f in range(1, 41):
        family = enumerate_sat(f)
        for members in [family, *([S] for S in family)]:
            out = io.StringIO()
            with redirect_stdout(out):
                _emit_semigroups(members, fmt, stream=stream)
            assert out.getvalue() == reference_output(members, fmt, stream), (f, members[0])


def test_json_array_written_record_by_record():
    out = io.StringIO()

    def produce():
        for k, S in enumerate(enumerate_sat(12), 1):
            assert out.getvalue().count('"frobenius"') == k - 1
            yield S

    with redirect_stdout(out):
        _emit_semigroups(produce(), "json")
    assert json.loads(out.getvalue()) == [_record(S) for S in enumerate_sat(12)]


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


def test_jobs_outputs_byte_identical():
    runs = [
        run_cli("enumerate", "--frobenius", "12", "--jobs", str(jobs))[1]
        for jobs in (1, 3, 3)
    ]
    assert runs[0] == runs[1] == runs[2]


def fresh_interpreter(code):
    src = str(Path(satsemi.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


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

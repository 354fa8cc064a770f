"""Command line front end.

Subcommands mirror the library: enumerate, genus, maximal, min-genus,
closure, min-gens, rank, feasible, verify.  Formats: text (one semigroup
per line, then a count footer), json (an array, written record by record
so memory stays flat) and csv.  ``enumerate --stream`` drops the text
footer and writes json as one object per line.  Exit codes: 0 on
success, 1 on a domain error (one-line diagnostic on stderr), 2 on a
usage error.  Set SATSEMI_COLOR=1 to color verify status lines; data
lines are never decorated.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterable, Iterator

from .errors import SemigroupError
from .extremal import maximal_elements, min_genus
from .oracle import check_all, refuse_above_limit
from .rank_enum import enumerate_rank, feasible_rank
from .satsets import _drops, closure, minimal_system
from .semigroup import (
    NumericalSemigroup,
    _apery_mask,
    _gap_window,
    _set_bits,
    _small_window,
)
from .tree import enumerate_sat_genus, iter_sat

SEMIGROUP_CSV_COLUMNS = (
    "frobenius",
    "genus",
    "multiplicity",
    "edim",
    "rank",
    "small_elements",
    "msg",
    "sat_msg",
)


def _record(S: NumericalSemigroup, gaps: bool = True) -> dict:
    """The output record of a saturated member, in one pass over its bitmap.

    ``gaps=False`` leaves out the gap list, which only json prints.

    Every caller of ``_emit_semigroups`` (enumerate, genus, maximal,
    closure, rank) passes saturated members, and the msg shortcut holds
    only for them; S is not checked here.  A saturated semigroup is Arf,
    and an Arf semigroup has maximal embedding dimension (Rosales and
    Garcia-Sanchez, Numerical Semigroups, 2009, ch. 3): its minimal
    generators are the multiplicity m together with the nonzero elements
    of ``semigroup._apery_mask`` of m.  The minimal system is
    ``satsets._drops`` of the small elements, as in ``minimal_system``.
    """
    F = S.frobenius
    mask = S._mask
    small = _set_bits(mask & _small_window(F))
    m = small[0] if small else F + 1
    msg = _set_bits((_apery_mask(F, mask, m) & ~1) | 1 << m)
    system = _drops(small)
    rec = {
        "frobenius": F,
        "small_elements": small,
        "msg": msg,
        "genus": F - len(small),
        "multiplicity": m,
    }
    if gaps:
        rec["gaps"] = _set_bits(~mask & _gap_window(F))
    rec["sat_msg"] = system
    rec["embedding_dimension"] = len(msg)
    rec["rank"] = len(system)
    return rec


def _text_line(rec: dict, label: Callable[[int], str]) -> str:
    small = ",".join(map(label, rec["small_elements"]))
    top = label(rec["frobenius"] + 1)
    members = f"0,{small},{top}" if small else f"0,{top}"
    msg = ",".join(map(label, rec["msg"]))
    return (
        f"{members}→ | msg=⟨{msg}⟩"
        f" | g={rec['genus']} | rank={rec['rank']}\n"
    )


def _json_block(rec: dict, label: Callable[[int], str]) -> str:
    # json.dumps(rec, indent=2) as it sits in the top-level array, for a
    # record whose values are ints or lists of ints
    fields = []
    for key, value in rec.items():
        if isinstance(value, list):
            value = (
                "[\n      " + ",\n      ".join(map(label, value)) + "\n    ]"
                if value
                else "[]"
            )
        fields.append(f'    "{key}": {value}')
    return "  {\n" + ",\n".join(fields) + "\n  }"


def _json_line(rec: dict, label: Callable[[int], str]) -> str:
    # json.dumps(rec), for a record whose values are ints or lists of ints
    fields = [
        f'"{key}": [' + ", ".join(map(label, value)) + "]"
        if isinstance(value, list)
        else f'"{key}": {value}'
        for key, value in rec.items()
    ]
    return "{" + ", ".join(fields) + "}\n"


def _csv_row(rec: dict, label: Callable[[int], str]) -> str:
    # what csv.writer writes: no field holds a comma, quote or line break
    return (
        f"{rec['frobenius']},{rec['genus']},{rec['multiplicity']},"
        f"{rec['embedding_dimension']},{rec['rank']},"
        + ";".join(map(label, rec["small_elements"])) + ","
        + ";".join(map(label, rec["msg"])) + ","
        + ";".join(map(label, rec["sat_msg"])) + "\n"
    )


def _labelled_records(
    semigroups: Iterable[NumericalSemigroup], gaps: bool
) -> Iterator[tuple[dict, Callable[[int], str]]]:
    # each record with the function that spells its list entries: str for
    # the first, then a table of 0..2F+1 built once from the second
    # record's F, so that a one-record command at huge F never builds it
    label = str
    for k, S in enumerate(semigroups):
        if k == 1:
            label = [str(i) for i in range(2 * S.frobenius + 2)].__getitem__
        yield _record(S, gaps), label


def _emit_semigroups(
    semigroups: Iterable[NumericalSemigroup], fmt: str, stream: bool = False
) -> None:
    """Write members of one Sat(F) in the given format.

    One F per call: every member must have the same Frobenius number F.
    From the second record on, list entries are spelled from one table of
    the labels 0..2F+1, built from that record's F, which covers them
    all: small elements and gaps lie below F+1, and a minimal generator
    is the multiplicity m <= F+1 or a member of its Apery set, so it is
    at most F + m <= 2F+1.
    """
    out = sys.stdout
    records = _labelled_records(semigroups, gaps=fmt == "json")
    if fmt == "text":
        count = 0
        for rec, label in records:
            out.write(_text_line(rec, label))
            count += 1
        if not stream:
            out.write(f"{count}\n")
    elif fmt == "json":
        if stream:
            for rec, label in records:
                out.write(_json_line(rec, label))
        else:
            # record by record, so the array is never held in memory
            sep = "[\n"
            for rec, label in records:
                out.write(sep + _json_block(rec, label))
                sep = ",\n"
            out.write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        out.write(",".join(SEMIGROUP_CSV_COLUMNS) + "\n")
        for rec, label in records:
            out.write(_csv_row(rec, label))


def _emit_value(fmt: str, columns: tuple[str, ...], record: dict, text: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(record))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        row = [record[c] for c in columns]
        writer.writerow(
            [";".join(map(str, v)) if isinstance(v, list) else v for v in row]
        )
    else:
        print(text)


def _decorate(line: str, good: bool) -> str:
    if os.environ.get("SATSEMI_COLOR") == "1":
        code = "32" if good else "31"
        return f"\x1b[{code}m{line}\x1b[0m"
    return line


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _emit_semigroups(iter_sat(args.frobenius), args.format, stream=args.stream)
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    _emit_semigroups(enumerate_sat_genus(args.frobenius, args.genus), args.format)
    return 0


def _cmd_maximal(args: argparse.Namespace) -> int:
    _emit_semigroups(maximal_elements(args.frobenius), args.format)
    return 0


def _cmd_min_genus(args: argparse.Namespace) -> int:
    value = min_genus(args.frobenius)
    _emit_value(
        args.format,
        ("frobenius", "min_genus"),
        {"frobenius": args.frobenius, "min_genus": value},
        str(value),
    )
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    _emit_semigroups([closure(args.frobenius, args.set)], args.format)
    return 0


def _cmd_min_gens(args: argparse.Namespace) -> int:
    try:
        S = NumericalSemigroup.from_small_elements(args.frobenius, args.small)
    except ValueError as err:  # an element outside 1..F-1
        print(f"error: {err}", file=sys.stderr)
        return 1
    system = minimal_system(S, args.frobenius)
    elems = ",".join(map(str, system.elements))
    _emit_value(
        args.format,
        ("frobenius", "rank", "sat_msg"),
        {
            "frobenius": args.frobenius,
            "rank": len(system.elements),
            "sat_msg": list(system.elements),
        },
        f"sat_msg=⟨{elems}⟩ | rank={len(system.elements)}",
    )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    _emit_semigroups(enumerate_rank(args.frobenius, args.rank), args.format)
    return 0


def _cmd_feasible(args: argparse.Namespace) -> int:
    value = feasible_rank(args.frobenius, args.rank)
    _emit_value(
        args.format,
        ("frobenius", "rank", "feasible"),
        {"frobenius": args.frobenius, "rank": args.rank, "feasible": value},
        "true" if value else "false",
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    refuse_above_limit(args.max_frobenius)
    reports = [check_all(f) for f in range(1, args.max_frobenius + 1)]
    all_ok = all(r.ok for r in reports)
    if args.format == "json":
        import json

        print(json.dumps([r.to_json() for r in reports], indent=2))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("frobenius", "semigroup_count", "ok", "discrepancies"))
        for r in reports:
            writer.writerow(
                [r.frobenius, r.semigroup_count, r.ok, ";".join(r.discrepancies)]
            )
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.discrepancies)} discrepancies"
            print(
                _decorate(
                    f"F={r.frobenius}: {status}, {r.semigroup_count} semigroups",
                    r.ok,
                )
            )
            for line in r.discrepancies:
                print(f"  {line}")
        print(_decorate("all checks passed" if all_ok else "FAILED", all_ok))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsemi",
        description=(
            "Saturated numerical semigroups with a fixed Frobenius number: "
            "enumeration, generating systems, ranks."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--jobs", type=_positive, default=1,
        help="accepted for compatibility; enumeration runs in one process",
    )
    common.add_argument(
        "--sort", choices=("canonical",), default="canonical",
        help="output order; only the canonical order exists",
    )
    with_frobenius = argparse.ArgumentParser(add_help=False, parents=[common])
    with_frobenius.add_argument("--frobenius", type=_positive, required=True, metavar="F")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate", parents=[with_frobenius],
        help="all saturated semigroups with Frobenius number F",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="json: one object per line instead of an array; text: no count footer",
    )
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser(
        "genus", parents=[with_frobenius], help="the members with a fixed genus"
    )
    p.add_argument("--genus", type=_nonnegative, required=True, metavar="G")
    p.set_defaults(run=_cmd_genus)

    p = sub.add_parser(
        "maximal", parents=[with_frobenius], help="the inclusion-maximal members"
    )
    p.set_defaults(run=_cmd_maximal)

    p = sub.add_parser(
        "min-genus", parents=[with_frobenius], help="the least genus in the family"
    )
    p.set_defaults(run=_cmd_min_genus)

    p = sub.add_parser(
        "closure", parents=[with_frobenius],
        help="least member containing the given set",
    )
    p.add_argument(
        "--set", type=_int_list, required=True, metavar="A,B,C",
        help="comma-separated integers in 1..F-1",
    )
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser(
        "min-gens", parents=[with_frobenius],
        help="minimal generating system and rank of a member given by its small elements",
    )
    p.add_argument(
        "--small", type=_int_list, required=True, metavar="A,B,C",
        help="comma-separated nonzero members below F",
    )
    p.set_defaults(run=_cmd_min_gens)

    p = sub.add_parser(
        "rank", parents=[with_frobenius], help="the members with a fixed rank"
    )
    p.add_argument("--rank", type=_nonnegative, required=True, metavar="P")
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser(
        "feasible", parents=[with_frobenius],
        help="whether any member has the given rank",
    )
    p.add_argument("--rank", type=_nonnegative, required=True, metavar="P")
    p.set_defaults(run=_cmd_feasible)

    p = sub.add_parser(
        "verify", parents=[common],
        help="cross-validate the fast paths against the brute-force oracle",
    )
    p.add_argument("--max-frobenius", type=_positive, required=True, metavar="N")
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SemigroupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        # a bitmap over 0..F+1 cannot be built, e.g. for F = 10**18
        print("error: the input is too large to represent", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands mirror the library: enumerate, genus, maximal, min-genus,
closure, min-gens, rank, feasible, verify.  Formats: text (one semigroup
per line, then a count footer), json (an array, written record by
record) and csv.  ``enumerate --stream`` drops the text footer and
writes json as one object per line.  Only ``enumerate`` streams: it
writes the walk's members a layer at a time, while ``rank``, ``genus``
and ``maximal`` build their whole list before the first write.  Exit
codes: 0 on success, 1 on a domain error (one-line diagnostic on
stderr), 2 on a usage error; 141 when the reader closes stdout and 130
on Ctrl-C, both silent.  Set SATSEMI_COLOR=1 to color verify status
lines; data lines are never decorated.

The commands that print members build each record as (F, mask,
sat_msg): the Frobenius number, the membership bitmap and the minimal
system.  ``enumerate`` and ``genus`` take sat_msg from the walk's
nodes, whose gcd-drop chains are their minimal systems; maximal, closure
and rank read it off the small-element bitmap with ``semigroup._drops``.
The formatters spell every other list straight off a bitmap, already
joined with the format's separator: the first record through
``semigroup._set_bits``, every later one a byte at a time from a table
of rows (``_table_speller``), each mapping a byte value to the labels of
its set bits.  The genus and the embedding dimension are bit counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Callable, Iterable, Iterator

from .errors import SemigroupError
from .extremal import maximal_elements, min_genus
from .oracle import check_all, refuse_above_limit
from .rank_enum import enumerate_rank, feasible_rank
from .satsets import closure, minimal_system
from .semigroup import (
    NumericalSemigroup,
    _apery_mask,
    _drops,
    _gap_window,
    _set_bits,
    _small_window,
)
from .tree import _Node, _genus_layer, _walk

# a record: F, the membership bitmap over 0..F+1, and the minimal system
_Record = tuple[int, int, list[int]]
# maps a bitmap to the labels of its set bits, joined with a separator
_Spell = Callable[[int], str]
# the separator of the lists in the json array, one entry a line
_BLOCK_SEP = ",\n      "

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


def _msg(F: int, mask: int) -> tuple[int, int]:
    """The multiplicity m of a saturated member and the bitmap of its
    minimal generators.

    Every record printed is of a saturated member, and the shortcut holds
    only for them; the mask is not checked here.  A saturated semigroup is Arf,
    and an Arf semigroup has maximal embedding dimension (Rosales and
    Garcia-Sanchez, Numerical Semigroups, 2009, ch. 3): its minimal
    generators are the multiplicity m together with the nonzero elements
    of ``semigroup._apery_mask`` of m.
    """
    body = mask ^ 1
    m = (body & -body).bit_length() - 1
    return m, (_apery_mask(F, mask, m) & ~1) | 1 << m


# The formatters take a record and its ``spell``, which maps a bitmap to
# the labels of its set bits joined with the format's separator.  The small
# elements are the set bits of mask & _small_window(F), the gaps the clear
# bits of _gap_window(F), and the genus is F + 2 - popcount(mask), as mask
# holds 0 and F+1 besides the small elements.


def _text_line(F: int, mask: int, sat_msg: list[int], spell: _Spell) -> str:
    return (
        f"{spell(mask)}→ | msg=⟨{spell(_msg(F, mask)[1])}⟩"
        f" | g={F + 2 - mask.bit_count()} | rank={len(sat_msg)}\n"
    )


def _block_list(body: str) -> str:
    return f"[\n      {body}\n    ]" if body else "[]"


def _json_block(F: int, mask: int, sat_msg: list[int], spell: _Spell) -> str:
    # json.dumps(record, indent=2) as it sits in the top-level array
    m, msg = _msg(F, mask)
    small = _block_list(spell(mask & _small_window(F)))
    gaps = _block_list(spell(~mask & _gap_window(F)))
    system = _block_list(_BLOCK_SEP.join(map(str, sat_msg)))
    return (
        f'  {{\n    "frobenius": {F},\n    "small_elements": {small},\n'
        f'    "msg": {_block_list(spell(msg))},\n'
        f'    "genus": {F + 2 - mask.bit_count()},\n    "multiplicity": {m},\n'
        f'    "gaps": {gaps},\n    "sat_msg": {system},\n'
        f'    "embedding_dimension": {msg.bit_count()},\n'
        f'    "rank": {len(sat_msg)}\n  }}'
    )


def _json_line(F: int, mask: int, sat_msg: list[int], spell: _Spell) -> str:
    # json.dumps(record)
    m, msg = _msg(F, mask)
    return (
        f'{{"frobenius": {F}, "small_elements": [{spell(mask & _small_window(F))}], '
        f'"msg": [{spell(msg)}], '
        f'"genus": {F + 2 - mask.bit_count()}, "multiplicity": {m}, '
        f'"gaps": [{spell(~mask & _gap_window(F))}], '
        f'"sat_msg": [{", ".join(map(str, sat_msg))}], '
        f'"embedding_dimension": {msg.bit_count()}, "rank": {len(sat_msg)}}}\n'
    )


def _csv_row(F: int, mask: int, sat_msg: list[int], spell: _Spell) -> str:
    # what csv.writer writes: no field holds a comma, quote or line break
    m, msg = _msg(F, mask)
    return (
        f"{F},{F + 2 - mask.bit_count()},{m},{msg.bit_count()},{len(sat_msg)},"
        f"{spell(mask & _small_window(F))},{spell(msg)},"
        + ";".join(map(str, sat_msg)) + "\n"
    )


class _Row(dict):
    """One byte of the label range from ``base``: maps a byte value to the
    labels of its set bits, each followed by the separator, filled in the
    first time that value is met."""

    __slots__ = ("base", "sep")

    def __init__(self, base: int, sep: str):
        self.base = base
        self.sep = sep

    def __missing__(self, byte: int) -> str:
        labels = self[byte] = "".join(
            f"{self.base + j}{self.sep}" for j in range(8) if byte >> j & 1
        )
        return labels


def _table_speller(F: int, sep: str) -> _Spell:
    # spells any bitmap over 0..2F+1 a byte at a time: one row per byte
    # of that range, each byte of the mask up to its highest set bit a dict
    # lookup, all of it in C
    rows = [_Row(8 * k, sep) for k in range((2 * F + 9) // 8)]
    cut = -len(sep)
    lookup = dict.__getitem__

    def spell(mask: int) -> str:
        bits = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return "".join(map(lookup, rows, bits))[:cut]

    return spell


def _walk_records(F: int, layers: Iterable[list[_Node]]) -> Iterator[_Record]:
    # records straight from walk nodes: the n_i of a node's gcd-drop chain
    # are the members at which the running gcd drops, that is
    # semigroup._drops of its small elements, its minimal system
    for layer in layers:
        for mask, chain, _ in layer:
            yield F, mask, [n for n, _ in chain]


def _emit_records(records: Iterable[_Record], fmt: str, stream: bool = False) -> None:
    """Write the records of one Sat(F) in the given format.

    One F per call: every record must have the same Frobenius number F.
    The first record joins the labels of ``_set_bits``, so a one-record
    command at huge F builds nothing; from the second on, lists are spelled
    from one table of rows over the labels 0..2F+1, built from that
    record's F, which covers them all: small elements and gaps lie below
    F+1, and a minimal generator is the multiplicity m <= F+1 or a member
    of its Apery set, so it is at most F + m <= 2F+1.
    """
    out = sys.stdout
    array = fmt == "json" and not stream
    line, sep = {
        "text": (_text_line, ","),
        "csv": (_csv_row, ";"),
        "json": (_json_block, _BLOCK_SEP) if array else (_json_line, ", "),
    }[fmt]
    if fmt == "csv":
        out.write(",".join(SEMIGROUP_CSV_COLUMNS) + "\n")
    spell: _Spell = lambda mask: sep.join(map(str, _set_bits(mask)))
    lead = "[\n" if array else ""
    count = 0
    for F, mask, sat_msg in records:
        if count == 1:
            spell = _table_speller(F, sep)
            lead = ",\n" if array else ""
        out.write(lead + line(F, mask, sat_msg, spell))
        count += 1
    if array:
        out.write("\n]\n" if count else "[]\n")
    elif fmt == "text" and not stream:
        out.write(f"{count}\n")


def _emit_semigroups(semigroups: Iterable[NumericalSemigroup], fmt: str) -> None:
    """Write saturated members of one Sat(F), each minimal system read off
    its small-element bitmap with ``semigroup._drops``; see ``_emit_records``.
    """
    records = (
        (S.frobenius, S._mask, _drops(S.frobenius, S._mask & _small_window(S.frobenius)))
        for S in semigroups
    )
    _emit_records(records, fmt)


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
    F = args.frobenius
    _emit_records(_walk_records(F, _walk(F)), args.format, stream=args.stream)
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    F = args.frobenius
    _emit_records(_walk_records(F, [_genus_layer(F, args.genus)]), args.format)
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


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building takes about 40 times as long as
    # parsing, and parse_args leaves the parser as it found it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        # a closed pipe must raise here, inside the handler, not at exit
        sys.stdout.flush()
        return code
    except SemigroupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        # a bitmap over 0..F+1 cannot be built, e.g. for F = 10**18
        print("error: the input is too large to represent", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull so the
        # flush at exit cannot raise again, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands mirror the library: enumerate, genus, maximal, min-genus,
closure, min-gens, rank, feasible, verify.  Formats: text (one semigroup
per line, then a count footer), json (an array, written record by
record) and csv.  ``enumerate --stream`` drops the text footer and
writes json as one object per line.  ``enumerate`` writes the walk's
members a layer at a time, ``rank`` each block of its search as it is
found and ``maximal`` each member as it is made; only ``genus`` builds
its layer before the first write.  Output is UTF-8 whatever the locale:
text lines hold → ⟨ ⟩, so ``main`` switches a stdout in another
encoding to UTF-8 before anything is written.  Exit codes: 0 on success,
1 on a domain error (one-line diagnostic on stderr), 2 on a usage error;
141 when the reader closes stdout and 130 on Ctrl-C, both silent.  Set
SATSEMI_COLOR=1 to color verify status lines; data lines are never
decorated.

The commands that print members hand ``_emit_records`` their F once and
then each member as a record (mask, sat_msg): the membership bitmap and
the minimal system, taken where the code that built the member knows it.
Each family's records come from the module that owns it: enumerate's and
genus's from ``tree._walk_records``, which reads sat_msg off the walk's
nodes, whose gcd-drop chains are their minimal systems; rank's from
``rank_enum._rank_records``, off its search path, the generators n1..np
it placed; maximal's from ``extremal._maximal_records``, which knows it
is [x] for the member with step x.  ``closure`` asks ``minimal_system``.
The writer spells every other list straight off a bitmap, each label
followed by the format's separator: the first record a chunk of labels
at a time (``_chunk_speller``), every later one a byte at a time from a
table of rows (``_table_speller``), each mapping a byte value to the
labels of its set bits.  The genus and the embedding dimension are bit
counts.

A record of the walk is mostly spelled from its parent's strings
instead.  Its parent is the bitmap with the multiplicity m removed
(stage 4 of the ``tree`` docstring), and when that parent was written
in the genus layer just before, the writer still holds two strings for
it: ``small``, the labels of its nonzero small elements, and ``above``,
those of its gaps above its multiplicity pm.  The child, x = m, then has
small = x + the parent's small, above = x+1..pm-1 + the parent's
above, and gaps 1..x-1 + above; every run of consecutive labels is a
slice of one strip of the labels 0..F+1.  So a record costs a few
slices instead of one lookup per byte of its bitmap.  Only two genus
layers of strings are held, the previous and the current one, which is
what a child can need; at F=199 in json they raise the peak memory from
about 18 to 28 MB.  msg is no such prefix (a child keeps the least
generator of each residue class mod x), so it is spelled from the table.

Each process registers ``gc.freeze`` to run at exit, which spares the
interpreter's final collections a pass over everything import built:
about a ninth of a short command's time.  The collector itself is left
as it was while the process runs.
"""

from __future__ import annotations

import argparse
import atexit
import codecs
import gc
import os
import sys
from functools import cache
from itertools import accumulate, islice
from typing import Callable, Iterable

from .errors import SemigroupError
from .extremal import _maximal_records, min_genus
from .oracle import check_all, refuse_above_limit
from .rank_enum import _rank_records, feasible_rank
from .satsets import closure, minimal_system
from .semigroup import (
    NumericalSemigroup,
    _apery_mask,
    _gap_window,
    _set_bit_iter,
    _small_window,
)
from .tree import _genus_layer, _walk, _walk_records

# a record: the membership bitmap over 0..F+1 and the minimal system
_Record = tuple[int, list[int]]
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


# The writer spells each list already joined: every label followed by the
# format's separator, the last one cut where the list is printed.  The
# small elements are the set bits of mask & _small_window(F), the gaps the
# clear bits of _gap_window(F), and the genus is F + 2 - popcount(mask), as
# mask holds 0 and F+1 besides the small elements.


def _block_list(body: str) -> str:
    return f"[\n      {body}\n    ]" if body else "[]"


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


def _chunk_speller(sep: str) -> _Spell:
    # spells a bitmap with no table, for the first record: its labels are
    # joined a chunk at a time, so a one-record command at huge F never
    # holds every position as an int and every label as a string at once
    def spell(mask: int) -> str:
        ns = _set_bit_iter(mask)
        chunk = lambda: "".join([f"{n}{sep}" for n in islice(ns, 4096)])
        return "".join(iter(chunk, ""))

    return spell


def _table_speller(F: int, sep: str) -> _Spell:
    # spells any bitmap over 0..2F+1 a byte at a time: one row per byte
    # of that range, each byte of the mask up to its highest set bit a dict
    # lookup, all of it in C
    rows = [_Row(8 * k, sep) for k in range((2 * F + 9) // 8)]
    lookup = dict.__getitem__

    def spell(mask: int) -> str:
        bits = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return "".join(map(lookup, rows, bits))

    return spell


def _label_strip(F: int, sep: str) -> tuple[str, list[int]]:
    # the labels 0..F+1, each followed by the separator, as one string, and
    # where each starts: the labels a..b-1 are strip[at[a]:at[b]]
    labels = [f"{n}{sep}" for n in range(F + 2)]
    return "".join(labels), list(accumulate(map(len, labels), initial=0))


def _emit_records(F: int, records: Iterable[_Record], fmt: str, stream: bool = False) -> None:
    """Write the records (mask, sat_msg) of members of Sat(F) in the given
    format, one at a time.

    The first record is spelled by ``_chunk_speller``, so a one-record
    command at huge F builds no table, and holds a chunk of its labels at
    a time besides the lists it prints.  The windows of the small elements
    and the gaps are built at the first record, so an empty family builds
    no bitmap and prints at any F.  The second record builds a table of
    rows over the labels 0..2F+1 and a strip of the labels 0..F+1.  The
    table covers every list: small elements and gaps lie below F+1, and a
    minimal generator is the multiplicity m <= F+1 or a member of its
    Apery set, so it is at most F + m <= 2F+1.

    A record whose parent was written in the genus layer just before is
    spelled from the parent's strings; see the module docstring.  Every
    other record, and every msg, is spelled from the table.  The writer
    keeps the strings of the records it spelled from a parent, and of the
    root, for two genus layers: the previous one and the current one.
    """
    out = sys.stdout
    array = fmt == "json" and not stream
    sep = {"text": ",", "csv": ";", "json": _BLOCK_SEP if array else ", "}[fmt]
    cut = -len(sep)
    gaps_too = fmt == "json"  # text and csv print no gaps
    if fmt == "csv":
        out.write(",".join(SEMIGROUP_CSV_COLUMNS) + "\n")
    spell = _chunk_speller(sep)
    lead = "[\n"  # what precedes a block of the json array
    # mask -> (small, above, m) for the records of genus `layer` + 1 and
    # `layer`: small the labels of the nonzero small elements, above those
    # of the gaps above the multiplicity m
    prev: dict[int, tuple[str, str, int]] = {}
    cur: dict[int, tuple[str, str, int]] = {}
    layer = -2  # below any genus by more than one
    count = 0
    for mask, sat_msg in records:
        if count < 2:  # windows at the first record, table and strip at the second
            if count:
                spell = _table_speller(F, sep)
                strip, at = _label_strip(F, sep)
                lead = ",\n"
            else:
                small_window, gap_window = _small_window(F), _gap_window(F)
        count += 1
        genus = F + 2 - mask.bit_count()
        if genus != layer:
            if genus == layer - 1:
                prev, cur = cur, {}
            elif prev or cur:  # no parent of this layer is held
                prev, cur = {}, {}
            layer = genus
        m, msg = _msg(F, mask)
        parent = prev.get(mask ^ 1 << m) if prev else None
        if parent is not None:
            # a child x = m of a parent with multiplicity pm: x joins the
            # small elements, x+1..pm-1 the gaps above it, and the gaps
            # below x are 1..x-1
            psmall, pabove, pm = parent
            small = strip[at[m] : at[m + 1]] + psmall
            above = gaps = ""
            if gaps_too:
                above = strip[at[m + 1] : at[pm]] + pabove
                gaps = strip[at[1] : at[m]] + above
            cur[mask] = small, above, m
        else:
            small = spell(mask & small_window)
            gaps = spell(~mask & gap_window) if gaps_too else ""
            if not sat_msg:  # the root: no small element, no gap above F+1
                cur[mask] = "", "", m
        if fmt == "text":
            line = (
                f"0,{small}{F + 1}→ | msg=⟨{spell(msg)[:cut]}⟩"
                f" | g={genus} | rank={len(sat_msg)}\n"
            )
        elif fmt == "csv":
            # what csv.writer writes: no field holds a comma, quote or line break
            line = (
                f"{F},{genus},{m},{msg.bit_count()},{len(sat_msg)},"
                f"{small[:cut]},{spell(msg)[:cut]}," + ";".join(map(str, sat_msg)) + "\n"
            )
        elif array:
            # json.dumps(record, indent=2) as it sits in the top-level array,
            # with its lead in the same string: `lead + line` would copy it
            line = (
                f'{lead}  {{\n    "frobenius": {F},\n'
                f'    "small_elements": {_block_list(small[:cut])},\n'
                f'    "msg": {_block_list(spell(msg)[:cut])},\n'
                f'    "genus": {genus},\n    "multiplicity": {m},\n'
                f'    "gaps": {_block_list(gaps[:cut])},\n'
                f'    "sat_msg": {_block_list(_BLOCK_SEP.join(map(str, sat_msg)))},\n'
                f'    "embedding_dimension": {msg.bit_count()},\n'
                f'    "rank": {len(sat_msg)}\n  }}'
            )
        else:
            # json.dumps(record)
            line = (
                f'{{"frobenius": {F}, "small_elements": [{small[:cut]}], '
                f'"msg": [{spell(msg)[:cut]}], "genus": {genus}, "multiplicity": {m}, '
                f'"gaps": [{gaps[:cut]}], "sat_msg": [{", ".join(map(str, sat_msg))}], '
                f'"embedding_dimension": {msg.bit_count()}, "rank": {len(sat_msg)}}}\n'
            )
        out.write(line)
    if array:
        out.write("\n]\n" if count else "[]\n")
    elif fmt == "text" and not stream:
        out.write(f"{count}\n")


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
    _emit_records(F, _walk_records(_walk(F)), args.format, stream=args.stream)
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    F = args.frobenius
    _emit_records(F, _walk_records([_genus_layer(F, args.genus)]), args.format)
    return 0


def _cmd_maximal(args: argparse.Namespace) -> int:
    _emit_records(args.frobenius, _maximal_records(args.frobenius), args.format)
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
    S = closure(args.frobenius, args.set)
    _emit_records(S.frobenius, [(S._mask, list(minimal_system(S).elements))], args.format)
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
    _emit_records(args.frobenius, _rank_records(args.frobenius, args.rank), args.format)
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


@cache
def _freeze_at_exit() -> None:
    # registered once per process.  At exit the interpreter runs full
    # collections over every tracked object still alive, mostly the
    # modules, classes and functions that import built; gc.freeze moves
    # them out of the collector's reach first.  Streams are flushed either
    # way, and nothing here needs a finalizer at exit.  While the process
    # runs, the collector stays as it was, for callers of main in-process
    atexit.register(gc.freeze)


def _utf8_stdout() -> None:
    # text lines hold → ⟨ ⟩, which ascii or latin-1 cannot encode: the
    # output is UTF-8 whatever the locale.  A stream without reconfigure,
    # such as the io.StringIO of redirect_stdout, holds text and is left alone
    out = sys.stdout
    if hasattr(out, "reconfigure") and codecs.lookup(out.encoding).name != "utf-8":
        out.reconfigure(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    _utf8_stdout()
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

"""Record the pinned outputs the benchmark checks against.

Run from the root of a checkout:

    python3 bench/pin.py

For every candidate input it writes, to bench/pinned.json, the SHA-256
digest of the output, the number of semigroups in it, and the seconds one
run took here (``ref_s``, the least of REPEATS runs for walk and rank; used
only to sort inputs into cost bands and strata, never as a reference
figure):

  walk    per F: the family from ``enumerate_sat(F)``.
  rank    per F: every rank class ``enumerate_rank(F, p)``, p = 0..max_rank.
  emit    per F and format: stdout of ``satsemi enumerate --jobs 1``; the
          benchmark runs ``--jobs 2`` against these, which checks that
          output is byte-identical across ``--jobs``.
  verify  per format: stdout of ``satsemi verify --max-frobenius 20``.

For every F that is a candidate of both walk and rank, it asserts that the
union of the rank classes equals the tree family: two independent fast
paths must agree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

REPEATS = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def pin_library(root: Path) -> tuple[dict, dict]:
    from satsemi import enumerate_rank, enumerate_sat, feasible_rank

    def sweep(F):
        classes, p = [], 0
        while p == 0 or feasible_rank(F, p):
            classes.append((p, enumerate_rank(F, p)))
            p += 1
        return classes

    walk, rank = {}, {}
    both = set(wl.CANDIDATES["walk"]) & set(wl.CANDIDATES["rank"])
    # every round visits every input, so a slow spell of the machine
    # slows one run of many inputs rather than all runs of a few
    for round_ in range(REPEATS):
        for F in sorted(set(wl.CANDIDATES["walk"]) | set(wl.CANDIDATES["rank"])):
            if F in wl.CANDIDATES["walk"]:
                family, ref = _timed(enumerate_sat, F)
                if round_ == 0:
                    digest, count = wl.family_digest(family)
                    walk[str(F)] = {"sha256": digest, "members": count, "ref_s": ref}
                walk[str(F)]["ref_s"] = min(walk[str(F)]["ref_s"], ref)
                _log(f"walk F={F}: {len(family)} members, {ref:.2f}s")
            if F in wl.CANDIDATES["rank"]:
                classes, ref = _timed(sweep, F)
                if round_ == 0:
                    digest, count = wl.rank_digest(classes)
                    rank[str(F)] = {
                        "sha256": digest,
                        "members": count,
                        "max_rank": len(classes) - 1,
                        "ref_s": ref,
                    }
                    if F in both:
                        union = [S for _, members in classes for S in members]
                        if set(union) != set(family) or len(union) != len(family):
                            raise SystemExit(f"F={F}: rank classes differ from the tree family")
                rank[str(F)]["ref_s"] = min(rank[str(F)]["ref_s"], ref)
                _log(f"rank F={F}: {len(classes) - 1} ranks, {ref:.2f}s")
    for entry in (*walk.values(), *rank.values()):
        entry["ref_s"] = round(entry["ref_s"], 3)
    return walk, rank


def pin_cli(root: Path) -> tuple[dict, dict]:
    emit: dict = {}
    for F in wl.CANDIDATES["emit"]:
        emit[str(F)] = {}
        for fmt, extra in wl.EMIT_FORMATS.items():
            args = ["enumerate", "--frobenius", str(F), "--jobs", "1", *extra]
            r = wl.run_cli(root, args)
            if r.error:
                raise SystemExit(f"{args}: {r.error}")
            emit[str(F)][fmt] = {
                "sha256": r.sha256,
                "bytes": r.nbytes,
                "ref_s": round(r.wall_s, 3),
            }
            _log(f"emit F={F} {fmt}: {r.nbytes} bytes, {r.wall_s:.2f}s")
    verify = {}
    for fmt in wl.VERIFY_FORMATS:
        args = ["verify", "--max-frobenius", str(wl.VERIFY_MAX_F), "--format", fmt]
        r = wl.run_cli(root, args)
        if r.error:
            raise SystemExit(f"{args}: {r.error}")
        verify[fmt] = {"sha256": r.sha256, "bytes": r.nbytes, "ref_s": round(r.wall_s, 3)}
        _log(f"verify {fmt}: {r.nbytes} bytes, {r.wall_s:.2f}s")
    # members checked by the oracle: every member of every family up to the ceiling
    from satsemi import enumerate_sat

    checked = sum(len(enumerate_sat(F)) for F in range(1, wl.VERIFY_MAX_F + 1))
    for entry in verify.values():
        entry["members"] = checked
    return emit, verify


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "satsemi").is_dir():
        print("run from the root of a satsemi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    walk, rank = pin_library(root)
    emit, verify = pin_cli(root)
    for F, formats in emit.items():
        for entry in formats.values():
            entry["members"] = walk[F]["members"]
    pinned = {
        "commit": wl.git_commit(root),
        "walk": walk,
        "rank": rank,
        "emit": emit,
        "verify": verify,
    }
    wl.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    _log(f"wrote {wl.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

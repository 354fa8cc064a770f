"""satsemi benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload walk --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn, each ending with its
own result line.  ``--trace 0`` times whole passes with tracing off and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes in
this process and reports the per-layer metrics (see spans.py) plus
``trace.overhead_ratio``.  Every operation's output is checked against the
digest pinned by pin.py, traced or not.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (medians over the passes of one run):

  setup_s        median of fresh launches of ``satsemi min-genus --frobenius 7``,
                 one after every operation: interpreter start, ``import
                 satsemi``, building the parser.
  wall_s         wall seconds of one pass; library workloads time only the
                 calls, CLI workloads whole processes.
  cpu_s          user+sys seconds of one pass (CLI: the child's wait4 rusage,
                 pool workers included; library: this process).
  members_per_s  semigroups delivered per wall second.

Seconds are at the reference CPU speed of workloads.REFERENCE_S (see
workloads.py); the unscaled median pass wall time is printed too.
  peak_rss_mb    largest max-RSS of any process in the run (a CLI child's
                 figure starts from this process's own size, about 20 MB,
                 since the kernel carries max-RSS across exec).

The fail rate, printed with the metrics, is ``failed / attempted`` from
the result line: an operation fails on a nonzero exit, an exception, or a
digest that differs from the pinned one.  It is not a metric of the result
line because it reads 0 whenever the program is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("walk", "emit", "rank", "verify")
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "members_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed over a whole run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, op: wl.Op, outcome: wl.Outcome) -> bool:
        self.attempted += 1
        if outcome.error is None and outcome.sha256 == op.sha256:
            return True
        self.failed += 1
        why = outcome.error or f"digest {outcome.sha256[:12]} != pinned {op.sha256[:12]}"
        self.errors.append(f"{op.label}: {why}")
        return False


@dataclass
class PassStats:
    """Seconds at the reference speed, and raw wall seconds."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    maxrss_mb: float = 0.0
    members: int = 0


def run_pass(ops, runner, tally: Tally, speed: wl.Speed | None = None, after_op=None) -> PassStats:
    """Run every operation once; failed ones deliver no members.  Without
    ``speed`` the seconds are left raw."""
    stats = PassStats()
    for op in ops:
        outcome = runner(op)
        k = speed.scale() if speed is not None else 1.0
        stats.wall_s += outcome.wall_s * k
        stats.cpu_s += outcome.cpu_s * k
        stats.raw_wall_s += outcome.wall_s
        stats.maxrss_mb = max(stats.maxrss_mb, outcome.maxrss_mb)
        if tally.check(op, outcome):
            stats.members += op.members
        if after_op is not None:
            after_op()
    return stats


class SetupProbe:
    """Fresh launches of a trivial command, one after every operation, so
    that the set-up figure samples the whole run rather than one moment."""

    def __init__(self, root: Path, tally: Tally, speed: wl.Speed) -> None:
        self.root = root
        self.env = wl.cli_env(root)
        self.tally = tally
        self.speed = speed
        self.times: list[float] = []
        self.raw: list[float] = []
        wl.run_cli(root, wl.SETUP_ARGS, self.env)  # writes the bytecode caches
        speed.scale()

    def __call__(self) -> None:
        r = wl.run_cli(self.root, wl.SETUP_ARGS, self.env)
        self.times.append(r.wall_s * self.speed.scale())
        self.raw.append(r.wall_s)
        self.tally.attempted += 1
        if r.error:
            self.tally.failed += 1
            self.tally.errors.append(f"setup: {r.error}")


def import_program(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import satsemi
    import satsemi.cli

    return satsemi


def untraced(root: Path, workload: str, ops, seconds: float, tally: Tally):
    """End-to-end metrics at the reference speed, and the raw figures."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload != "emit":  # emit runs --jobs 2 and needs every CPU
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    speed = wl.Speed(cpus)
    setup = SetupProbe(root, tally, speed)
    if workload in ("walk", "rank"):
        runner = wl.LibraryRunner(import_program(root))
    else:
        runner = wl.ProcessRunner(root)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, runner, tally, speed, setup))
    metrics = {
        "setup_s": statistics.median(setup.times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "members_per_s": statistics.median(p.members / p.wall_s for p in passes),
        "peak_rss_mb": max(p.maxrss_mb for p in passes),
    }
    samples = {
        "cpus": cpus,
        "raw_setup_s": [round(t, 4) for t in setup.raw],
        "raw_pass_wall_s": [round(p.raw_wall_s, 4) for p in passes],
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "pass_cpu_s": [round(p.cpu_s, 4) for p in passes],
        "calibration_s": [round(t, 5) for t in speed.samples],
    }
    return metrics, samples


def traced(root: Path, workload: str, ops, seconds: float, tally: Tally, spans_out: Path):
    """Alternate untraced and traced passes; the wrappers are installed
    only for the traced ones, so untraced passes run the program as is."""
    satsemi = import_program(root)
    rec = sp.Recorder()
    if workload in ("walk", "rank"):
        runner = wl.LibraryRunner(satsemi)
    else:
        runner = wl.InProcessCli(satsemi.cli)
    plain, timed = [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        plain.append(run_pass(ops, runner, tally).wall_s)
        rec.install(expected=sp.needed_spans())
        runner.rec = rec
        try:
            wall = 0.0
            for i, op in enumerate(ops):
                rec.op = i
                wall += run_pass([op], runner, tally).wall_s
            timed.append(wall)
        finally:
            runner.rec = None
            rec.uninstall()
    metrics = sp.layer_metrics(rec, len(timed))
    metrics["trace.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    rec.spans.write(spans_out)
    return metrics, sorted(rec.absent), len(timed)


def context(root: Path) -> dict:
    return {
        "commit": wl.git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics by name and unit, and return
    the result object."""
    ops = wl.operations(workload, seed, wl.load_pinned())
    tally = Tally()
    ctx = {**context(root), "workload": workload, "seed": seed, "ops": [op.label for op in ops]}
    print("context " + json.dumps(ctx))
    if trace:
        out = root / ".bench_out" / f"spans-{workload}-{seed}.tsv.gz"
        metrics, absent, passes = traced(root, workload, ops, seconds, tally, out)
        units = {m: sp.layer_unit(m) for m in metrics}
        if absent:
            print("absent " + " ".join(absent))
    else:
        metrics, samples = untraced(root, workload, ops, seconds, tally)
        passes = len(samples["pass_wall_s"])
        print(f"{workload:6} {'raw wall_s (unscaled)':44} {statistics.median(samples['raw_pass_wall_s']):14.6g} s")
        print("samples " + json.dumps(samples))
        units = UNITS
    for err in tally.errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload:6} {name:44} {value:14.6g} {units[name]}")
    print(f"{workload:6} {'fail_rate':44} {tally.failed / tally.attempted:14.6g} ratio")
    print("context " + json.dumps({"passes": passes, "loadavg_end": list(os.getloadavg())}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "satsemi" / "__init__.py").is_file():
        print(f"{root} holds no satsemi sources (src/satsemi)", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        print(json.dumps(run_workload(root, workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

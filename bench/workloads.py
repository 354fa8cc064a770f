"""Inputs, operations and output checks for the satsemi benchmark.

Four workloads stress different layers of the program:

  walk    library ``enumerate_sat(F)``; the tree walk alone.
  emit    CLI ``enumerate --frobenius F --jobs 2`` in four formats; record
          building, serialization and the process fan-out.
  rank    library ``enumerate_rank(F, p)`` for every feasible p; witnesses
          and closures, never the tree.
  verify  CLI ``verify --max-frobenius 20`` in text and json; the subset
          oracle plus many tiny fast-path calls.

Every input F comes from a candidate range whose outputs are pinned in
``pinned.json`` (see ``pin.py``).  A seed draws one F from each cost
stratum of the workload's pool, so passes drawn by different seeds hold
different inputs but about the same amount of work; that keeps the
figures comparable across seeds.

Times are reported at a reference CPU speed.  On the shared 2-vCPU
virtual machine the baseline was measured on, a CPU ran the same work up
to 1.8x slower during spells that lasted from seconds to minutes.  So the single-process workloads run pinned to one CPU, a fixed
calibration workload that shares no code with satsemi runs on the same
CPU after every operation, and each operation's seconds are scaled by
REFERENCE_S over the mean of the calibration times just before and after
it.  emit runs ``--jobs 2`` and keeps every CPU; its calibration runs on
each of them in turn.  A change to satsemi moves the scaled figures as it
moves the raw ones, which are reported alongside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

# Candidate inputs, pinned by pin.py.
CANDIDATES = {
    "walk": range(81, 142),
    "emit": range(81, 122),
    "rank": range(101, 200),
}
# The pools a seed draws from, as (parity of F, low, high, strata): the
# candidates of that parity whose pinned size lies in [low, high], sorted
# by size and cut into that many strata of near-equal count.  A pass draws
# one F from each stratum.  Odd and even F are drawn apart since odd F give
# deep, wide trees and even F shallow ones.  The bands keep any single
# input from dominating a pass, so a seed changes which F run but hardly
# how much work a pass does.  Size is pinned seconds for walk and rank;
# for emit it is pinned json bytes, which set both its cost and the peak
# memory of its json process.
POOLS = {
    "walk": [(1, 0.45, 1.1, 4), (0, 0.45, 1.1, 4)],
    "emit": [(1, 5.0e6, 5.5e6, 1), (0, 1.6e6, 3.3e6, 3)],
    "rank": [(1, 0.4, 0.8, 4), (0, 0.4, 0.8, 4)],
}

# in stratum order: json, the format that holds every record in memory,
# gets the odd stratum, whose inputs differ least in size
EMIT_FORMATS = {
    "json": ["--format", "json"],
    "text": ["--format", "text"],
    "csv": ["--format", "csv"],
    "json-stream": ["--format", "json", "--stream"],
}
VERIFY_MAX_F = 20
VERIFY_FORMATS = ("text", "json")
SETUP_ARGS = ["min-genus", "--frobenius", "7"]

# The console-script entry point, run from the checkout's own sources.
_BOOT = "import sys; from satsemi.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Op:
    """One operation: what to run, and the digest its output must have."""

    workload: str
    frobenius: int | None
    fmt: str | None
    args: tuple[str, ...]
    sha256: str
    members: int
    max_rank: int = 0

    @property
    def label(self) -> str:
        parts = [self.workload]
        if self.frobenius is not None:
            parts.append(f"F={self.frobenius}")
        if self.fmt is not None:
            parts.append(self.fmt)
        return " ".join(parts)


# -- digests ----------------------------------------------------------------


def family_digest(semigroups) -> tuple[str, int]:
    """SHA-256 over one line of small elements per semigroup, in order."""
    h = hashlib.sha256()
    n = 0
    for S in semigroups:
        h.update(",".join(map(str, S.nonzero_small_elements())).encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n


def rank_digest(classes) -> tuple[str, int]:
    """SHA-256 over the rank classes in order of p, each tagged with p."""
    h = hashlib.sha256()
    n = 0
    for p, members in classes:
        digest, count = family_digest(members)
        h.update(f"{p}:{count}:{digest}\n".encode())
        n += count
    return h.hexdigest(), n


class HashSink:
    """Byte counter and SHA-256 over everything written to it."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.nbytes = 0

    def update(self, data: bytes) -> None:
        self.hash.update(data)
        self.nbytes += len(data)

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


# -- running the CLI as a process --------------------------------------------


def cli_env(root: Path) -> dict[str, str]:
    """The environment for a CLI child: the checkout's sources, UTF-8
    output, and nothing inherited that could change the output."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "SATSEMI_"))
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


@dataclass
class Outcome:
    """What one operation cost and produced; ``error`` is None on success."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    sha256: str
    error: str | None = None
    nbytes: int = 0


def run_cli(root: Path, args, env: dict[str, str] | None = None) -> Outcome:
    """Run one CLI command; hash its stdout as it streams in.

    CPU time and peak RSS come from the child's wait4 rusage, which also
    covers the pool workers the child has reaped.
    """
    sink = HashSink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _BOOT, *args],
        cwd=root,
        env=env or cli_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 20):
            sink.update(chunk)
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    if proc.returncode:
        error = f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}"
    return Outcome(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        sink.hexdigest(),
        error,
        sink.nbytes,
    )


def git_commit(root: Path) -> str | None:
    """The commit checked out at root, read from .git; None outside git."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# Seconds the calibration work takes at the reference speed: about its
# time on a quiet CPU of the machine the baseline was measured on.
REFERENCE_S = 0.025


def _reference_work() -> int:
    """Fixed pure-Python work (big-int shifts and masks, tuple hashing)."""
    acc = 0
    mask = (1 << 200) - 1
    for i in range(45000):
        window = (mask >> (i % 61)) & ((1 << 90) - 1)
        acc += (window >> (i % 89)) & 1
        acc ^= hash((i, acc % 7)) & 0xFF
    return acc


class Speed:
    """Calibration on the CPUs the operations run on."""

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.samples: list[float] = []
        self._sample()

    def _sample(self) -> None:
        home = os.sched_getaffinity(0)
        total = 0.0
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _reference_work()
            total += time.perf_counter() - t0
        os.sched_setaffinity(0, home)
        self.samples.append(total / len(self.cpus))

    def scale(self) -> float:
        """Factor to the reference speed for the work done since the last call."""
        self._sample()
        return REFERENCE_S * 2 / (self.samples[-2] + self.samples[-1])


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- pinned data and operation lists -----------------------------------------


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def cost(workload: str, pinned: dict, F: int) -> float:
    """Pinned size of one input: seconds for walk and rank, json bytes for emit."""
    entry = pinned[workload][str(F)]
    return entry["json"]["bytes"] if workload == "emit" else entry["ref_s"]


def strata(workload: str, pinned: dict) -> list[list[int]]:
    """The workload's pools cut into strata, in the order of POOLS."""
    out = []
    for parity, lo, hi, k in POOLS[workload]:
        pool = sorted(
            (cost(workload, pinned, F), F)
            for F in CANDIDATES[workload]
            if F % 2 == parity and lo <= cost(workload, pinned, F) <= hi
        )
        if len(pool) < k:
            raise ValueError(f"{workload}: {len(pool)} inputs in band {lo}..{hi}, need {k}")
        out += [[F for _, F in pool[i * len(pool) // k : (i + 1) * len(pool) // k]] for i in range(k)]
    return out


def operations(workload: str, seed: int, pinned: dict) -> list[Op]:
    """The operations of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        fmts = list(VERIFY_FORMATS)
        rng.shuffle(fmts)
        return [
            Op(
                "verify",
                None,
                fmt,
                ("verify", "--max-frobenius", str(VERIFY_MAX_F), "--format", fmt),
                pinned["verify"][fmt]["sha256"],
                pinned["verify"][fmt]["members"],
            )
            for fmt in fmts
        ]
    ops = []
    fmts = list(EMIT_FORMATS)
    for i, group in enumerate(strata(workload, pinned)):
        F = rng.choice(group)
        entry = pinned[workload][str(F)]
        if workload == "emit":
            # each format keeps its strata whatever the seed, so the mix of
            # formats and input sizes in a pass does not depend on the seed
            fmt = fmts[i % len(fmts)]
            args = ("enumerate", "--frobenius", str(F), "--jobs", "2", *EMIT_FORMATS[fmt])
            ops.append(Op("emit", F, fmt, args, entry[fmt]["sha256"], entry[fmt]["members"]))
        else:
            ops.append(
                Op(workload, F, None, (), entry["sha256"], entry["members"], entry.get("max_rank", 0))
            )
    rng.shuffle(ops)
    return ops


# -- executing operations ------------------------------------------------------


class LibraryRunner:
    """walk and rank: call the library in this process; time only the calls.

    When ``rec`` is set, spans are recorded during the calls only, not
    while the output is hashed.
    """

    def __init__(self, api) -> None:
        self.api = api
        self.rec = None

    def __call__(self, op: Op) -> Outcome:
        api = self.api
        t0, c0 = time.perf_counter(), self_cpu_s()
        try:
            with recording(self.rec):
                if op.workload == "walk":
                    result = api.enumerate_sat(op.frobenius)
                else:
                    result = [(p, api.enumerate_rank(op.frobenius, p)) for p in range(op.max_rank + 1)]
        except Exception as err:  # a failed operation is counted, not fatal
            return Outcome(time.perf_counter() - t0, self_cpu_s() - c0, 0.0, "", repr(err))
        wall, cpu = time.perf_counter() - t0, self_cpu_s() - c0
        digest = family_digest(result) if op.workload == "walk" else rank_digest(result)
        return Outcome(wall, cpu, self_maxrss_mb(), digest[0])


class ProcessRunner:
    """emit and verify: run the CLI as a process, as a user would."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = cli_env(root)

    def __call__(self, op: Op) -> Outcome:
        return run_cli(self.root, op.args, self.env)


class _SinkRaw(io.RawIOBase):
    def __init__(self, sink: HashSink) -> None:
        self.sink = sink

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sink.update(bytes(data))
        return len(data)


class InProcessCli:
    """emit and verify under tracing: ``satsemi.cli.main(argv)`` in this
    process, stdout replaced by a sink that counts and hashes the bytes."""

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.rec = None

    def __call__(self, op: Op) -> Outcome:
        sink = HashSink()
        out = io.TextIOWrapper(io.BufferedWriter(_SinkRaw(sink)), encoding="utf-8", newline="\n")
        t0, c0 = time.perf_counter(), self_cpu_s()
        error = None
        try:
            with recording(self.rec), contextlib.redirect_stdout(out):
                code = self.cli.main(list(op.args))
                out.flush()
            if code:
                error = f"exit {code}"
        except Exception as err:  # a failed operation is counted, not fatal
            error = repr(err)
        wall, cpu = time.perf_counter() - t0, self_cpu_s() - c0
        if self.rec is not None:
            self.rec.add("cli.stdout_bytes", sink.nbytes)
            if op.workload == "emit":
                self.rec.add("cli.records", op.members)
        return Outcome(wall, cpu, self_maxrss_mb(), sink.hexdigest(), error)


@contextlib.contextmanager
def recording(rec):
    """Record spans on ``rec`` (a spans.Recorder, or None) inside the block."""
    if rec is None:
        yield
        return
    rec.on = True
    try:
        yield
    finally:
        rec.on = False

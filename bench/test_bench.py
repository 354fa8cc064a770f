"""Tests of the benchmark's own logic (not of satsemi)."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def pinned():
    return wl.load_pinned()


@pytest.mark.parametrize("workload", ["walk", "emit", "rank", "verify"])
def test_same_seed_same_operations(pinned, workload):
    assert wl.operations(workload, 7, pinned) == wl.operations(workload, 7, pinned)


@pytest.mark.parametrize("workload", ["walk", "emit", "rank"])
def test_other_seed_draws_other_inputs(pinned, workload):
    def inputs(seed):
        return sorted(op.frobenius for op in wl.operations(workload, seed, pinned))

    assert inputs(1) != inputs(2)
    # one input per stratum, whatever the seed, with a fixed share of odd F
    odd = sum(k for parity, _, _, k in wl.POOLS[workload] if parity)
    assert len(inputs(1)) == len(inputs(2)) == sum(k for *_, k in wl.POOLS[workload])
    assert sum(F % 2 for F in inputs(1)) == sum(F % 2 for F in inputs(2)) == odd


def test_emit_formats_keep_their_strata(pinned):
    def layout(seed):
        strata = wl.strata("emit", pinned)
        ops = wl.operations("emit", seed, pinned)
        return sorted(
            (next(i for i, g in enumerate(strata) if op.frobenius in g), op.fmt) for op in ops
        )

    assert layout(1) == layout(2)


def _op(text: str) -> wl.Op:
    sink = wl.HashSink()
    sink.update(text.encode())
    return wl.Op("emit", 7, "text", ("enumerate",), sink.hexdigest(), 3)


def test_corrupted_stdout_counts_as_failed():
    op = _op("0,8→ | msg=⟨8⟩\n")
    good = wl.InProcessCli(types.SimpleNamespace(main=lambda argv: print("0,8→ | msg=⟨8⟩") or 0))
    bad = wl.InProcessCli(types.SimpleNamespace(main=lambda argv: print("0,8→ | msg=⟨9⟩") or 0))
    tally = run.Tally()
    assert run.run_pass([op], good, tally).members == 3
    assert run.run_pass([op], bad, tally).members == 0
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "digest" in tally.errors[0]


def test_nonzero_exit_counts_as_failed():
    op = _op("")
    tally = run.Tally()
    run.run_pass([op], wl.InProcessCli(types.SimpleNamespace(main=lambda argv: 1)), tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_self_time_on_hand_built_tree():
    tree = spans.Spans()
    a, b, c, d, e = (tree.name_id(n) for n in "abcde")
    # name, start, end, parent, op, outermost
    tree.append(a, 0.0, 10.0, -1, 0, True)
    tree.append(b, 1.0, 3.0, 0, 0, True)
    tree.append(c, 2.0, 5.0, 0, 0, True)  # overlaps b: the union counts once
    tree.append(d, 9.0, 12.0, 0, 0, True)  # clipped to the parent's end
    tree.append(e, 1.5, 2.5, 1, 0, True)
    tree.append(a, 3.0, 4.0, 2, 0, False)  # nested under an outer "a"
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 2.0, 3.0, 1.0, 1.0])
    table = spans.summarize(tree)
    assert table["a"] == pytest.approx({"s": 10.0, "self_s": 6.0, "calls": 2})
    assert table["c"] == pytest.approx({"s": 3.0, "self_s": 2.0, "calls": 1})
    assert spans.module_seconds(tree, "b") == pytest.approx(2.0)


def _fake_program(monkeypatch, with_child_msg: bool) -> str:
    """A stand-in package: tree.iter_layers always, tree.child_msg optionally."""
    pkg = f"fakesat_{int(with_child_msg)}"
    tree = types.ModuleType(f"{pkg}.tree")

    def iter_layers(frobenius):
        yield [1]
        yield [tree.child_msg((), 1), 3]

    def child_msg(msg, x):
        return x

    iter_layers.__module__ = child_msg.__module__ = tree.__name__
    tree.iter_layers = iter_layers
    tree.__all__ = ["iter_layers"]
    if with_child_msg:
        tree.child_msg = child_msg
        tree.__all__.append("child_msg")
    else:
        tree.child_msg = lambda msg, x: x  # private stand-in, not a public name
    monkeypatch.setitem(sys.modules, pkg, types.ModuleType(pkg))
    monkeypatch.setitem(sys.modules, tree.__name__, tree)
    return pkg


@pytest.mark.parametrize("with_child_msg", [True, False])
def test_absent_name_gives_absent_metric(monkeypatch, with_child_msg):
    pkg = _fake_program(monkeypatch, with_child_msg)
    rec = spans.Recorder()
    rec.install(package=pkg, expected=spans.needed_spans())
    tree = sys.modules[f"{pkg}.tree"]
    rec.on = True
    layers = list(tree.iter_layers(5))
    rec.on = False
    rec.uninstall()
    assert layers == [[1], [1, 3]]
    metrics = spans.layer_metrics(rec, passes=1)
    assert metrics["tree.nodes"] == 3
    assert metrics["tree.layers"] == 2
    assert metrics["tree.peak_width"] == 2
    assert ("tree.child_msg.calls" in metrics) is with_child_msg
    assert ("tree.child_msg.s" in metrics) is with_child_msg
    assert ("tree.child_msg" in rec.absent) is not with_child_msg
    if with_child_msg:
        assert metrics["tree.child_msg.calls"] == 1
    assert "semigroup.validate.s" not in metrics
    assert "extremal.s" not in metrics


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    reported = [m for m, _, _ in spans.LAYER_METRICS] + ["extremal.s", "trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m, spans.layer_unit(m)) for m in reported
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

"""Tests of the performance ledger's own arithmetic and of its output.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import Outcomes, tail_percentile  # noqa: E402
from spans import Span, Tracer, coverage, layer_table, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ScriptedClock:
    """A clock that returns the given readings in order."""

    def __init__(self, *readings: float) -> None:
        self._readings = list(readings)

    def __call__(self) -> float:
        return self._readings.pop(0)


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def test_nested_self_time_on_one_thread():
    # outer 0..10 holds a 2..5 child, which holds a 3..4 grandchild, and a
    # second child 6..9
    tracer = Tracer(clock=ScriptedClock(0, 2, 3, 4, 5, 6, 9, 10))
    outer = tracer.start("outer")
    child = tracer.start("child")
    grandchild = tracer.start("grandchild")
    tracer.end(grandchild)
    tracer.end(child)
    second = tracer.start("second")
    tracer.end(second)
    tracer.end(outer)

    assert child.parent == outer.id and grandchild.parent == child.id
    assert second.parent == outer.id
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(10 - 3 - 3)
    assert own[child.id] == pytest.approx(3 - 1)
    assert own[grandchild.id] == pytest.approx(1)
    assert own[second.id] == pytest.approx(3)
    # self times of one tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(outer.duration)


def test_cross_thread_children_count_their_union_once():
    # a parent 0..10 whose children ran on two threads, 1..6 and 4..8:
    # together they cover 1..8, so the parent's own time is 3
    spans = [
        Span(id=1, name="parent", parent=None, start=0.0, end=10.0),
        Span(id=2, name="left", parent=1, start=1.0, end=6.0, thread=2),
        Span(id=3, name="right", parent=1, start=4.0, end=8.0, thread=3),
        # a child that outlives its parent is clipped to the parent
        Span(id=4, name="late", parent=1, start=9.0, end=12.0, thread=4),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 7 - 1)
    assert own[2] == pytest.approx(5)
    assert own[3] == pytest.approx(4)


def test_spans_on_threads_take_their_own_stack_or_an_explicit_parent():
    tracer = Tracer()
    recorded: dict[str, Span] = {}

    def worker(name: str, parent: int) -> None:
        with tracer.span(name, parent=parent) as span:
            with tracer.span(name + ".inner") as inner:
                time.sleep(0.02)
            recorded[name], recorded[name + ".inner"] = span, inner

    with tracer.span("bench.root") as root:
        threads = [threading.Thread(target=worker, args=(f"t{i}", root.id)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)

    for i in range(2):
        assert recorded[f"t{i}"].parent == root.id
        assert recorded[f"t{i}.inner"].parent == recorded[f"t{i}"].id
    own = self_times(tracer.spans)
    covered = min(s.start for s in recorded.values()), max(s.end for s in recorded.values())
    # the two threads overlapped: the root's own time excludes their union,
    # not their sum
    assert own[root.id] == pytest.approx(root.duration - (covered[1] - covered[0]), abs=1e-3)
    assert own[root.id] >= 0


def test_layer_table_and_coverage():
    spans = [
        Span(id=1, name="bench.measure", parent=None, start=0.0, end=10.0),
        Span(id=2, name="core.ga", parent=1, start=0.5, end=9.5),
        Span(id=3, name="parallel.batch", parent=2, start=1.0, end=4.0, count=7),
        Span(id=4, name="parallel.batch", parent=2, start=5.0, end=6.0, count=3),
        # spans outside the benchmark's roots are in the table, not in coverage
        Span(id=5, name="runtime.substrate.setup", parent=None, start=20.0, end=21.0),
    ]
    table = layer_table(spans)
    assert table["parallel.batch"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert table["core.ga"]["self_s"] == pytest.approx(5.0)
    assert coverage(spans) == pytest.approx(0.9)


def test_coverage_counts_each_client_thread_once():
    # two client loops under the measured phase, each 90% inside scans
    spans = [
        Span(id=1, name="bench.measure", parent=None, start=0.0, end=10.0),
        Span(id=2, name="bench.client", parent=1, start=0.0, end=10.0, thread=2),
        Span(id=3, name="runtime.client.scan", parent=2, start=0.5, end=9.5, thread=2),
        Span(id=4, name="bench.client", parent=1, start=0.0, end=10.0, thread=3),
        Span(id=5, name="runtime.client.scan", parent=4, start=1.0, end=10.0, thread=3),
    ]
    assert coverage(spans) == pytest.approx(18 / 20)


def test_tracer_stops_recording_in_a_forked_child():
    tracer = Tracer()
    tracer._after_fork_in_child()
    assert not tracer.recording and tracer.spans == []


# ---------------------------------------------------------------------- #
# the tail percentile
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(100, 90), (250, 90), (99, 89), (50, 80), (25, 60), (20, 50), (15, 50), (1, 50)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    pct, value = tail_percentile(values)
    assert pct == expected
    if pct > 50:
        beyond = sum(1 for v in values if v > value)
        assert beyond >= 10
        # one percentile higher would leave fewer than ten beyond, unless
        # the cap at the 90th percentile stopped the search
        if pct < 90:
            higher = tail_percentile(values, want=pct + 1)[1]
            assert sum(1 for v in values if v > higher) < 10 or higher == value


def test_tail_percentile_interpolates_like_numpy():
    import numpy as np

    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=137))
    pct, value = tail_percentile(values)
    assert value == pytest.approx(float(np.percentile(values, pct)))


def test_tail_percentile_needs_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


# ---------------------------------------------------------------------- #
# failed_frac accounting
# ---------------------------------------------------------------------- #
def test_outcomes_count_each_failed_operation_once():
    outcomes = Outcomes()
    assert outcomes.record()
    assert outcomes.record("", "")
    assert not outcomes.record("mismatch", "retried")
    assert not outcomes.record("rejected")
    assert (outcomes.attempted, outcomes.failed) == (4, 2)
    assert outcomes.failed_frac == pytest.approx(0.5)
    assert outcomes.reasons == {"mismatch": 1, "retried": 1, "rejected": 1}

    other = Outcomes()
    other.record("mismatch")
    other.record()
    outcomes.merge(other)
    assert (outcomes.attempted, outcomes.failed) == (6, 3)
    assert outcomes.reasons["mismatch"] == 2
    assert Outcomes().failed_frac == 0.0


# ---------------------------------------------------------------------- #
# wrapping the program from outside
# ---------------------------------------------------------------------- #
def test_layer_trace_records_spans_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.scan as scan_package
    import repro.scan.planner as planner
    import repro.scan.runner as runner
    from layers import LayerTrace
    from repro.core.ga import AdaptiveMultiPopulationGA

    original_plan = planner.plan_scan
    original_run = AdaptiveMultiPopulationGA.run
    tracer = Tracer()
    with LayerTrace(tracer):
        # every module that bound plan_scan by name sees the wrapper
        assert runner.plan_scan is scan_package.plan_scan is planner.plan_scan
        assert planner.plan_scan is not original_plan
        planner.plan_scan(20, window_size=5, overlap=2, seed=1)
    assert planner.plan_scan is original_plan and runner.plan_scan is original_plan
    assert AdaptiveMultiPopulationGA.run is original_run
    assert [s.name for s in tracer.spans] == ["scan.plan"]


# ---------------------------------------------------------------------- #
# the command end to end
# ---------------------------------------------------------------------- #
def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_the_benchmark_names_runnable_workloads():
    assert {w["name"] for w in _benchmark()["workloads"]} <= set(WORKLOADS)


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "4"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def _session_processes(sid: int) -> list[str]:
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:  # fields after the command: state, ppid, pgrp, session
            left.append(stat.parent.name)
    return left


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_run():
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix", "--seed", "3",
         "--seconds", "2", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert process.wait(timeout=300) == 0
    assert _session_processes(process.pid) == []


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run("scan-serial", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

"""Tests of the benchmark itself: seeding, determinism, the printed
metric names, and the span ledger's self-time arithmetic.

Run with ``python -m pytest landlord_bench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as w
from layers import PER_LAYER_UNITS, install_cache, install_engine
from ledger import Span, SpanRecorder, layer_totals, self_times
from run import END_TO_END_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A short churn stream: long enough for the naive differential slice.
SMALL = dataclasses.replace(w.SHAPES["replay_churn"], n_unique=150)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_different_seed_gives_different_stream():
    _, first, _ = w.build_inputs(SMALL, 1)
    _, second, _ = w.build_inputs(SMALL, 2)
    assert first != second


def test_same_seed_gives_same_decisions_and_efficiency():
    runs = []
    for _ in range(2):
        repository, stream, _ = w.build_inputs(SMALL, 7)
        cache, outcome, problems = w.checked_replay(SMALL, repository, stream)
        assert problems == []
        runs.append((dict(cache.stats.__dict__), outcome))
    assert runs[0] == runs[1]
    complete = [p.stats for p in w.timed_replay(SMALL, repository, stream,
                                                seconds=0.5) if p.stats]
    assert complete
    assert all(stats == runs[0][0] for stats in complete)


def test_metric_tables_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    assert [x["name"] for x in doc["workloads"]] == list(w.SHAPES)


@pytest.mark.parametrize("workload,trace", [
    ("replay_churn", 0), ("replay_churn", 1), ("serve_loopback", 1),
])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "replay_hits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(sid, parent, start, end, name="x"):
    return Span(sid, parent, name, start, end, None, None)


def test_self_time_subtracts_covered_child_time_only():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 5.0),     # overlaps its sibling
        _span(4, 1, 9.0, 12.0),    # runs past its parent's end
        _span(5, 2, 1.5, 2.0),     # a grandchild is not the root's child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(3.0)


def test_self_time_at_most_busy_time_on_a_traced_replay():
    repository, stream, _ = w.build_inputs(SMALL, 5)
    recorder = SpanRecorder()

    def instrument(cache):
        install_cache(recorder, cache)
        install_engine(recorder, cache._engine)

    w.timed_replay(SMALL, repository, stream, seconds=0.3,
                   instrument=instrument)
    own = self_times(recorder.spans)
    assert recorder.spans
    for span in recorder.spans:
        assert 0.0 <= own[span.sid] <= span.end - span.start
    by_sid = {s.sid: s for s in recorder.spans}
    for span in recorder.spans:
        if span.parent:
            assert span.rid == by_sid[span.parent].rid
    for row in layer_totals(recorder.spans).values():
        assert row["self_s"] <= row["busy_s"]

"""The repository benchmark for LANDLORD.

Usage, from the root of a checkout::

    python3 landlord_bench/run.py --workload replay_hits --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``replay_hits`` and ``replay_churn`` (the in-process
``LandlordCache.request`` loop) and ``serve_loopback`` (the ``serve``
daemon driven over loopback by closed-loop clients).  With ``--trace 0``
the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it measures the same loop untraced and traced (alternating
passes of the stream in process; one daemon after the other for
``serve_loopback``) and reports the per-layer ledger.

Every run checks LANDLORD's outputs outside the timed phase and pins the
workload's regime.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when the outputs were correct.  Without the repository's
sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "landlord_bench"

WORKLOADS = ("replay_hits", "replay_churn", "serve_loopback")

#: End-to-end metrics with their units (``--trace 0``).
END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "write_amplification": "ratio",
    "cache_efficiency": "ratio",
    "container_efficiency": "ratio",
}


def _latency_metrics(latencies, wall_s, attempted):
    """Throughput and latency percentiles of one timed phase."""
    import numpy as np

    p50, p99 = np.percentile(latencies, [50, 99])
    return {
        "throughput_rps": len(latencies) / wall_s,
        "latency_p50_ms": float(p50) * 1e3,
        "latency_p99_ms": float(p99) * 1e3,
        "success_ratio": len(latencies) / attempted,
    }


def _pass_metrics(passes, scaled=True):
    """Median over complete passes of each pass's own metrics.

    ``scaled`` uses latencies scaled to the reference host speed (see
    ``workloads.HostProbe``).  Throughput is requests over the summed
    request time of the pass.  A phase too short to complete a pass
    falls back to its partial pass.
    """
    complete = [p for p in passes if p.stats is not None] or passes
    per_pass = []
    for p in complete:
        latencies = p.scaled_latencies() if scaled else p.latencies
        per_pass.append(_latency_metrics(latencies, sum(latencies),
                                         len(latencies)))
    return {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }


def _same_decisions(passes, reference):
    """Every complete timed pass must end in the checked pass's stats."""
    expected = dict(reference.stats.__dict__)
    return [
        f"timed pass {i} ended with different stats than the checked pass"
        for i, p in enumerate(passes)
        if p.stats is not None and p.stats != expected
    ]


def run_replay(name, seed, seconds, trace, workdir):
    import workloads as w
    from layers import install_cache, install_engine, per_layer_metrics, share_lines
    from ledger import SpanRecorder, write_spans

    shape = w.SHAPES[name]

    def setup():
        repository, stream, timings = w.build_inputs(shape, seed)
        w.new_cache(shape, repository)
        return repository, stream, timings

    probe = w.HostProbe()
    setups = []
    for _ in range(1 if trace else w.SETUP_REPEATS):
        (repository, stream, timings), setup_s = w.scaled_setup(probe, setup)
        setups.append(setup_s)

    if not trace:
        passes = w.timed_replay(shape, repository, stream, seconds)
        rss = w.peak_rss_mb()
        cache, outcome, problems = w.checked_replay(shape, repository, stream)
        problems += w.replay_pins(name, cache)
        problems += _same_decisions(passes, cache)
        metrics = _pass_metrics(passes)
        metrics.update(setup_s=statistics.median(setups), peak_rss_mb=rss,
                       **outcome)
        attempted = sum(len(p.latencies) for p in passes)
        raw = _pass_metrics(passes, scaled=False)
        report = [
            f"{attempted} timed requests in {len(passes)} passes of "
            f"{len(stream)}; medians over complete passes, scaled to the "
            f"reference host speed",
            f"unscaled: {raw['throughput_rps']:.1f} req/s, p50 "
            f"{raw['latency_p50_ms']:.4f} ms, p99 "
            f"{raw['latency_p99_ms']:.4f} ms",
        ]
        return metrics, attempted, 0, problems, report

    recorder = SpanRecorder()

    def instrument(cache):
        install_cache(recorder, cache)
        install_engine(recorder, cache._engine)

    passes = w.timed_replay(shape, repository, stream, seconds, instrument)
    write_spans(WORK / f"{name}.spans.jsonl", recorder.spans)
    cache, _, problems = w.checked_replay(shape, repository, stream)
    problems += w.replay_pins(name, cache)
    problems += _same_decisions(passes, cache)
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    traced_wall = sum(sum(p.latencies) for p in traced)
    metrics = per_layer_metrics(
        recorder.spans, timings, traced_wall,
        _pass_metrics(traced, scaled=False)["throughput_rps"],
        _pass_metrics(untraced, scaled=False)["throughput_rps"],
    )
    engine_s = (metrics["engine.find_hit.busy_s"]
                + metrics["engine.scan_candidates.busy_s"])
    report = share_lines(metrics, traced_wall) + [
        f"find_hit + scan_candidates: {engine_s / traced_wall:.1%} of "
        f"the traced loop; cache.request self: "
        f"{metrics['cache.request.self_s'] / traced_wall:.1%}",
    ]
    attempted = sum(len(p.latencies) for p in passes)
    return metrics, attempted, 0, problems, report


def run_serve(name, seed, seconds, trace, workdir):
    import workloads as w
    from layers import install_client, per_layer_metrics, share_lines
    from ledger import SpanRecorder, read_spans, write_spans
    from repro.service import LandlordClient

    shape = w.SHAPES[name]
    daemons = []
    try:
        if not trace:
            probe = w.HostProbe()
            setups = []
            for i in range(w.SETUP_REPEATS):
                if daemons:
                    daemons[-1].stop()

                def setup():
                    inputs = w.build_inputs(shape, seed)
                    daemons.append(w.Daemon(workdir / f"daemon-{i}"))
                    return inputs

                (repository, stream, _), setup_s = w.scaled_setup(probe,
                                                                  setup)
                setups.append(setup_s)
            run = w.serve_run(daemons[-1], shape, repository, stream, seconds)
            acked = [s.latency for s in run.submits if s.error is None]
            attempted = len(run.submits)
            metrics = _latency_metrics(acked, run.wall_s, attempted)
            metrics.update(setup_s=statistics.median(setups),
                           peak_rss_mb=run.peak_rss_mb, **run.efficiency)
            report = [f"{len(acked)} acked submits from {w.N_CLIENTS} "
                      f"closed-loop clients in {run.wall_s:.2f}s"]
            return (metrics, attempted, attempted - len(acked),
                    run.problems, report)

        repository, stream, timings = w.build_inputs(shape, seed)
        daemons.append(w.Daemon(workdir / "untraced"))
        untraced = w.serve_run(daemons[-1], shape, repository, stream,
                               seconds / 2)
        recorder = SpanRecorder(first_id=1 << 40)
        install_client(recorder, LandlordClient)
        spans_out = workdir / "daemon.spans.jsonl"
        daemons.append(w.Daemon(workdir / "traced", spans_out=spans_out))
        timings["daemon_ready_s"] = daemons[-1].ready_s
        traced = w.serve_run(daemons[-1], shape, repository, stream,
                             seconds / 2)
    finally:
        for daemon in daemons:
            daemon.kill()

    spans = read_spans(spans_out) + recorder.spans
    write_spans(WORK / f"{name}.spans.jsonl", spans)

    def acked_rps(run):
        return sum(1 for s in run.submits if s.error is None) / run.wall_s

    metrics = per_layer_metrics(spans, timings, traced.wall_s,
                                acked_rps(traced), acked_rps(untraced))
    client_s = metrics["client.submit.busy_s"]
    report = share_lines(metrics, client_s) + [
        "(shares of the clients' summed submit time)",
        f"client.transport_s: {metrics['client.transport_s'] / client_s:.1%}"
        f" of client submit time",
    ]
    submits = untraced.submits + traced.submits
    failed = sum(1 for s in submits if s.error is not None)
    return (metrics, len(submits), failed,
            untraced.problems + traced.problems, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one LANDLORD benchmark workload and print its "
        "metrics (the last line is JSON).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no LANDLORD sources at {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER_UNITS

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    runner = run_serve if args.workload == "serve_loopback" else run_replay
    try:
        metrics, attempted, failed, problems, report = runner(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for line in report:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

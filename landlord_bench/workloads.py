"""The benchmark's three workloads, their output checks and regime pins.

Every workload builds the site repository (the quick-scale SFT
repository ``repro-landlord serve --scale quick`` builds by default) and
a request stream drawn from the workload seed.  LANDLORD sees only the
generated specs, through its public entry points:
``LandlordCache.request`` in process, and the ``serve`` CLI driven by
``LandlordClient.submit`` over loopback.  See README.md for why each
shape was chosen.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import LandlordCache
from repro.core.events import EventKind
from repro.core.journal import recover_state
from repro.experiments.common import QUICK
from repro.htc.workload import DependencyWorkload, RandomWorkload, build_stream
from repro.packages.sft import build_experiment_repository
from repro.service import LandlordClient, ServiceError
from repro.util.rng import spawn
from repro.util.units import GB

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The site repository's seed: the ``serve`` CLI default, so the daemon
#: and the load generator agree on package ids and sizes.
SITE_SEED = 2020

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Requests replayed by the naive engine from a mid-stream snapshot.
DIFF_SLICE = 300
#: Closed-loop client threads, one connection each (the host has 2 CPUs).
N_CLIENTS = 2
#: Retryable (429) rejections a client absorbs per submit, as a pilot
#: wrapper would; the regime pin still requires none to happen.
RETRIES = 3
#: The serve workload's outcome metrics cover this many acked requests,
#: so they do not move when a faster daemon gets further through the
#: stream in the same time.
OUTCOME_REQUESTS = 1_000
#: Requests between two runs of the host-speed probe.
PROBE_EVERY = 100
#: The probe's median time on the 2-CPU Xeon (2.0 GHz) development host;
#: replay timings are scaled to the host speed at which the probe takes
#: this long.
REFERENCE_PROBE_S = 0.9e-3
#: How long a daemon may take to answer /healthz or to drain on SIGTERM.
DAEMON_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Shape:
    """A request stream and the cache it runs against."""

    scheme: str        # "random" or "deps" (the paper's two schemes)
    alpha: float
    capacity: int
    n_unique: int
    repeats: int


SHAPES: Dict[str, Shape] = {
    # Read-mostly: ~3/4 hits over thousands of live images, capacity far
    # above the working set, so no merges and no evictions.
    "replay_hits": Shape("random", 0.1, 50_000 * GB, 2_500, 4),
    # Write-mostly, Fig. 5's setting (capacity = 2x the repository):
    # ~70% merges, a quarter evict, ~10 live images.
    "replay_churn": Shape("deps", 0.8, QUICK.capacity, 1_500, 5),
    # The same deps stream against the daemon's own defaults (alpha 0.8,
    # the quick scale's capacity).
    "serve_loopback": Shape("deps", 0.8, QUICK.capacity, 1_500, 5),
}

# Regime pins: a size change that moves a workload out of its regime
# fails the run instead of silently measuring something else.
HITS_HIT_BAND = (0.70, 0.80)
HITS_MIN_LIVE = 2_000
CHURN_MIN_MERGE_SHARE = 0.5
CHURN_MIN_EVICT_SHARE = 0.2


# -- set-up --------------------------------------------------------------------


def build_inputs(shape: Shape, seed: int):
    """Build the site repository and the seeded stream.

    Returns ``(repository, stream, timings)`` with ``repository_s`` and
    ``stream_s`` in ``timings``.
    """
    t0 = perf_counter()
    repository = build_experiment_repository(
        "sft", seed=SITE_SEED, n_packages=QUICK.n_packages,
        target_total_size=QUICK.repo_total_size,
    )
    t1 = perf_counter()
    scheme_cls = DependencyWorkload if shape.scheme == "deps" else RandomWorkload
    stream = build_stream(
        scheme_cls(repository, QUICK.max_selection),
        spawn(seed, "landlord_bench", shape.scheme),
        n_unique=shape.n_unique, repeats=shape.repeats,
    )
    t2 = perf_counter()
    return repository, stream, {"repository_s": t1 - t0, "stream_s": t2 - t1}


def new_cache(shape: Shape, repository, engine: str = "vectorized"):
    """A fresh cache for ``shape``."""
    return LandlordCache(
        shape.capacity, shape.alpha, repository.size_of, engine=engine
    )


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- replay workloads --------------------------------------------------------


class HostProbe:
    """A fixed kernel that never touches LANDLORD, timed between requests.

    It does the kinds of work a request does: a subset test and a
    popcount over a bit matrix, frozenset intersections and small-array
    set operations.  On a shared host the CPU speed drifts by tens of
    percent within seconds, and the probe's time tracks that drift.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20200)
        self._matrix = rng.integers(0, 2**63, size=(2048, 32), dtype=np.uint64)
        self._query = self._matrix[7] & self._matrix[9]
        self._sets = [frozenset(rng.choice(2000, 60, replace=False).tolist())
                      for _ in range(32)]
        self._small = np.arange(200)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = perf_counter()
        masked = self._matrix & self._query
        np.flatnonzero((masked == self._query).all(axis=1))
        np.bitwise_count(masked).sum(axis=1)
        first = self._sets[0]
        {s: len(s & first) for s in self._sets}
        for _ in range(10):
            np.union1d(self._small, self._small[50:])
        return perf_counter() - start

    def speed(self, runs: int = 5) -> float:
        """Median probe time over ``runs`` runs."""
        return statistics.median(self() for _ in range(runs))


def scaled_setup(probe: HostProbe, build: Callable):
    """Run ``build()`` and time it, scaled to the reference host speed by
    probes taken just before and just after.  Returns ``(result,
    seconds)``."""
    before = probe.speed()
    start = perf_counter()
    result = build()
    elapsed = perf_counter() - start
    after = probe.speed()
    return result, elapsed * 2.0 * REFERENCE_PROBE_S / (before + after)


@dataclass
class Pass:
    """One timed pass of the request loop over the stream.

    ``probes`` holds the host probe's time before the first request,
    after every ``PROBE_EVERY`` requests and after the last one.
    """

    latencies: List[float]
    probes: List[float]
    stats: Optional[dict]  # final cache stats; None if the deadline cut it
    traced: bool

    def scaled_latencies(self) -> List[float]:
        """Latencies scaled to the reference host speed: each request's
        time times ``REFERENCE_PROBE_S`` over the mean of the probes
        around its segment."""
        scaled = []
        for segment in range(len(self.probes) - 1):
            factor = 2.0 * REFERENCE_PROBE_S / (
                self.probes[segment] + self.probes[segment + 1])
            chunk = self.latencies[segment * PROBE_EVERY:
                                   (segment + 1) * PROBE_EVERY]
            scaled.extend(latency * factor for latency in chunk)
        return scaled


def timed_replay(
    shape: Shape,
    repository,
    stream,
    seconds: float,
    instrument: Optional[Callable[[LandlordCache], None]] = None,
) -> List[Pass]:
    """Replay ``stream`` through fresh caches until ``seconds`` pass,
    timing each ``request()`` call and probing the host's speed every
    ``PROBE_EVERY`` requests.

    With ``instrument``, passes alternate between a plain cache and one
    ``instrument`` has probed, so both kinds see the same host speed; the
    deadline then cuts no pass before the first probed one.
    """
    passes: List[Pass] = []
    first_cut = 1 if instrument is not None else 0
    probe = HostProbe()
    deadline = perf_counter() + seconds
    while True:
        cache = new_cache(shape, repository)
        traced = instrument is not None and len(passes) % 2 == 1
        if traced:
            instrument(cache)
        request = cache.request
        latencies: List[float] = []
        probes = [probe()]
        for index, spec in enumerate(stream, 1):
            t0 = perf_counter()
            request(spec)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            if index % PROBE_EVERY == 0:
                probes.append(probe())
            if t1 >= deadline and len(passes) >= first_cut:
                if index % PROBE_EVERY:
                    probes.append(probe())
                passes.append(Pass(latencies, probes, None, traced))
                return passes
        if len(stream) % PROBE_EVERY:
            probes.append(probe())
        passes.append(Pass(latencies, probes, dict(cache.stats.__dict__),
                           traced))


def checked_replay(shape: Shape, repository, stream):
    """One untimed pass that checks every decision.

    Returns ``(cache, efficiency, problems)``.

    Every image covers its request, every merge distance is below alpha,
    the cache never holds more than its capacity unless the pinned image
    is all that is left, and a naive engine restored from a mid-stream
    snapshot replays the next ``DIFF_SLICE`` requests to an equal
    snapshot.
    """
    problems: List[str] = []
    cache = new_cache(shape, repository)
    mid = len(stream) // 2
    mid_snapshot = end_snapshot = None
    efficiency_sum = 0.0
    for index, spec in enumerate(stream):
        if index == mid:
            mid_snapshot = cache.snapshot()
        elif index == mid + DIFF_SLICE:
            end_snapshot = cache.snapshot()
        decision = cache.request(spec)
        efficiency_sum += cache.cache_efficiency
        if not decision.image.packages >= spec:
            problems.append(f"request {index}: image does not cover the spec")
        if decision.action is EventKind.MERGE and not decision.distance < shape.alpha:
            problems.append(
                f"request {index}: merge distance {decision.distance} "
                f">= alpha {shape.alpha}"
            )
        if cache.cached_bytes > shape.capacity and len(cache) > 1:
            problems.append(f"request {index}: cache over capacity")
        if len(problems) > 5:
            break
    outcome = efficiency(cache, efficiency_sum)
    if end_snapshot is None:
        problems.append("stream too short for the naive differential")
        return cache, outcome, problems
    naive = new_cache(shape, repository, engine="naive")
    naive.restore(mid_snapshot)
    for spec in stream[mid:mid + DIFF_SLICE]:
        naive.request(spec)
    if naive.snapshot() != end_snapshot:
        problems.append("naive engine diverged on the continuation slice")
    return cache, outcome, problems


def replay_pins(name: str, cache: LandlordCache) -> List[str]:
    """Regime pins for the replay workloads."""
    stats = cache.stats
    problems = []
    if name == "replay_hits":
        if stats.evictions_capacity:
            problems.append(f"{stats.evictions_capacity} evictions, want 0")
        lo, hi = HITS_HIT_BAND
        if not lo <= stats.hit_rate <= hi:
            problems.append(f"hit ratio {stats.hit_rate:.3f} outside {lo}-{hi}")
        if len(cache) < HITS_MIN_LIVE:
            problems.append(f"{len(cache)} live images, want >= {HITS_MIN_LIVE}")
    elif name == "replay_churn":
        if stats.merges <= CHURN_MIN_MERGE_SHARE * stats.requests:
            problems.append(f"{stats.merges} merges of {stats.requests} requests")
        if stats.evictions_capacity < CHURN_MIN_EVICT_SHARE * stats.requests:
            problems.append(
                f"{stats.evictions_capacity} evictions of "
                f"{stats.requests} requests"
            )
    return problems


def efficiency(cache: LandlordCache, efficiency_sum: float) -> Dict[str, float]:
    """The paper's outcome metrics for a cache's history.

    Write amplification and container efficiency are cumulative ratios.
    Cache efficiency is a state, so it is averaged over the stream:
    ``efficiency_sum`` adds ``cache.cache_efficiency`` after each request.
    """
    return {
        "write_amplification": cache.stats.write_amplification,
        "cache_efficiency": efficiency_sum / cache.stats.requests,
        "container_efficiency": cache.stats.container_efficiency,
    }


# -- serve workload ------------------------------------------------------------


class Daemon:
    """A ``repro-landlord serve --scale quick`` subprocess.

    With ``spans_out`` the daemon runs under ``traced_serve.py``, which
    writes its spans there on exit; the process topology is the same.
    """

    def __init__(self, workdir: Path, spans_out: Optional[Path] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.state = workdir / "state.json"
        port_file = workdir / "port"
        serve = ["serve", "--scale", "quick", "--state", str(self.state),
                 "--port-file", str(port_file)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(spans_out)] + serve
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = perf_counter()
        self._log = open(workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.url = self._wait_ready(port_file)
        except BaseException:
            self.kill()
            raise
        self.ready_s = perf_counter() - start

    def _wait_ready(self, port_file: Path) -> str:
        deadline = perf_counter() + DAEMON_TIMEOUT_S
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early:\n{self.log_tail()}")
            if port_file.exists():
                url = f"http://127.0.0.1:{int(port_file.read_text())}"
                with LandlordClient(url, timeout=5.0) as client:
                    try:
                        client.health()
                        return url
                    except ServiceError:
                        pass
            sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz in time")

    def log_tail(self) -> str:
        """The last lines the daemon printed."""
        if not self._log.closed:
            self._log.flush()
        return (self.workdir / "daemon.log").read_text(errors="replace")[-2000:]

    def stop(self) -> int:
        """SIGTERM (drain + final snapshot); returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            return self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone and reaped."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


@dataclass
class Submit:
    """One closed-loop submit as the client saw it."""

    latency: float
    request_index: Optional[int]
    packages: List[str]
    error: Optional[str]


def closed_loop(url: str, stream, seconds: float) -> Tuple[List[Submit], float]:
    """``N_CLIENTS`` threads, each submitting its next spec only after the
    previous one was acked, until ``seconds`` pass.  The stream is shared
    in order (and reused from the start if a run outlasts it)."""
    lock = threading.Lock()
    position = [0]
    results: List[Submit] = []
    start = perf_counter()
    deadline = start + seconds

    def next_spec() -> List[str]:
        with lock:
            spec = stream[position[0] % len(stream)]
            position[0] += 1
        return sorted(spec)

    def client_loop() -> None:
        with LandlordClient(url, timeout=DAEMON_TIMEOUT_S) as client:
            while perf_counter() < deadline:
                packages = next_spec()
                t0 = perf_counter()
                try:
                    reply = client.submit(packages, retries=RETRIES)
                except ServiceError as exc:
                    results.append(Submit(perf_counter() - t0, None,
                                          packages, str(exc)))
                    continue
                results.append(Submit(perf_counter() - t0,
                                      reply["request_index"], packages, None))

    threads = [threading.Thread(target=client_loop, name=f"bench-client-{i}")
               for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + DAEMON_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return results, perf_counter() - start


@dataclass
class ServeRun:
    """A closed-loop run against one daemon, checked after SIGTERM."""

    submits: List[Submit]
    wall_s: float
    peak_rss_mb: float
    efficiency: Dict[str, float]
    problems: List[str]


def serve_run(daemon: Daemon, shape: Shape, repository, stream,
              seconds: float) -> ServeRun:
    """Drive ``daemon``, stop it, and check every ack was durable.

    Every submit must be acked with 200 and the acked request indices
    must be exactly ``0..N-1``; the state the daemon left on disk must
    recover to the snapshot of a serial in-process replay of the acked
    specs in request-index order.  Regime pins: no 429/503 and windows of
    at most ``N_CLIENTS`` requests.
    """
    submits, wall_s = closed_loop(daemon.url, stream, seconds)
    with LandlordClient(daemon.url, timeout=DAEMON_TIMEOUT_S) as client:
        service = client.status()["service"]
    rss = peak_rss_mb(str(daemon.proc.pid))
    code = daemon.stop()
    problems: List[str] = []
    if code != 0:
        problems.append(f"daemon exited {code}:\n{daemon.log_tail()}")
    failed = [s for s in submits if s.error is not None]
    if failed:
        problems.append(f"{len(failed)} submits failed: {failed[0].error}")
    acked = sorted((s for s in submits if s.error is None),
                   key=lambda s: s.request_index)
    if [s.request_index for s in acked] != list(range(len(acked))):
        problems.append("acked request indices are not exactly 0..N-1")
    if service["rejected"]:
        problems.append(f"{service['rejected']} submits rejected (429/503)")
    if service["accepted"] != len(acked):
        problems.append(
            f"daemon accepted {service['accepted']}, clients saw "
            f"{len(acked)} acks"
        )
    if service["accepted"] > N_CLIENTS * service["batches"]:
        problems.append(
            f"{service['accepted']} requests in {service['batches']} "
            f"windows: more than {N_CLIENTS} per window"
        )
    recovered, _, _ = recover_state(daemon.state,
                                    package_size=repository.size_of)
    serial = new_cache(shape, repository)
    efficiency_sum = 0.0
    outcome = None
    for position, submit in enumerate(acked, 1):
        serial.request(frozenset(submit.packages))
        if outcome is None:
            efficiency_sum += serial.cache_efficiency
            if position == OUTCOME_REQUESTS:
                outcome = efficiency(serial, efficiency_sum)
    if outcome is None and acked:
        outcome = efficiency(serial, efficiency_sum)
    if recovered.snapshot() != serial.snapshot():
        problems.append("recovered state differs from the serial replay "
                        "of the acked specs")
    return ServeRun(submits, wall_s, rss, outcome, problems)

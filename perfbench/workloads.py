"""The three workloads: ``ingest``, ``query`` and ``live``.

Each is a closed loop in one process (plus, for ``ingest``, the two
shard workers ``analyze_streamed`` spawns): it issues one operation,
waits for it, and issues the next.  A run repeats whole *rounds* of the
same operations while the next round is expected to end within the time
budget, and always completes at least one.

With ``trace`` on, a run first does its rounds untraced, then repeats
exactly the same rounds under a :class:`~perfbench.tracer.Tracer`, so
the per-layer numbers come with the tracing overhead (traced minus
untraced time of the same work).  End-to-end numbers come only from
untraced runs.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import resource
import statistics
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks
from perfbench.inputs import inputs_process
from perfbench.tracer import Tracer

__all__ = ["WORKLOADS", "RunResult", "run_workload"]

#: Public functions and methods the traced run wraps, by layer.
#: ``(module:attribute, span name, kind)`` -- see Tracer.patch.
LAYER_TARGETS = (
    ("repro.logs.alps:parse_alps", "logs.alps.parse", "iter"),
    ("repro.logs.torque:parse_torque", "logs.torque.parse", "iter"),
    ("repro.logs.errorlogs:parse_stream", "logs.errorlogs.parse", "iter"),
    ("repro.logs.bundle:parse_nodemap_file", "logs.nodemap.parse", "sized"),
    ("repro.logs.columnar:convert_bundle", "logs.columnar.convert", "call"),
    ("repro.logs.columnar:load_bundle", "logs.columnar.load", "call"),
    ("repro.logs.follow:TailFollower.poll", "logs.follow.poll", "call"),
    ("repro.core.pipeline:LogDiver.analyze", "core.analyze", "call"),
    ("repro.core.ingest:classify_errors", "core.classify", "call"),
    ("repro.core.filtering:filter_errors", "core.filter", "call"),
    ("repro.core.ingest:assemble_runs", "core.assemble", "call"),
    ("repro.core.attribution:attribute_clusters", "core.attribute", "call"),
    ("repro.core.categorize:categorize_runs", "core.categorize", "call"),
    ("repro.core.ingest:NodeAnnotator.info", "core.node_info", "call"),
    ("repro.core.attribution:SpatialIndex.__init__", "core.spatial_index",
     "call"),
    ("repro.core.merge:OutcomeAccumulator.finalize", "core.merge.finalize",
     "call"),
    ("repro.core.merge:CauseAccumulator.finalize", "core.merge.finalize",
     "call"),
    ("repro.core.merge:WasteAccumulator.finalize", "core.merge.finalize",
     "call"),
    ("repro.core.merge:MtbfAccumulator.finalize", "core.merge.finalize",
     "call"),
    ("repro.core.merge:CurveAccumulator.finalize", "core.merge.finalize",
     "call"),
    ("repro.core.sharding:analyze_streamed", "core.sharding.streamed",
     "call"),
    ("repro.core.sharding:plan_shards", "core.sharding.plan", "call"),
    ("repro.campaign.engine:run_campaign", "campaign.run_campaign", "call"),
    ("repro.serve.daemon:ServeApp.handle", "serve.handle", "call"),
    ("repro.serve.queries:window_bundle", "serve.window_bundle", "call"),
    ("repro.serve.queries:fork_bundle", "serve.fork_bundle", "call"),
    ("repro.validation.oracle:check_summary", "validation.check_summary",
     "call"),
    ("repro.live.engine:LiveAnalyzer.ingest", "live.ingest", "call"),
    ("repro.live.engine:LiveAnalyzer.advance", "live.advance", "call"),
    ("repro.live.engine:LiveAnalyzer.finalize", "live.finalize", "call"),
)

#: Per-layer metrics a workload measures itself rather than from spans.
_EXTRA_UNITS = {
    "logs.columnar.sidecar_mb": "MB", "logs.follow.mb_read": "MB",
    "core.sharding.jobs1_s": "s", "core.sharding.speedup": "x",
    "campaign.units": "count", "serve.transport_ms": "ms",
    "serve.result_cache_hits": "count", "live.ticks": "count",
    "live.records": "count", "live.max_buffered": "count",
    "live.watermark_lag_s": "s", "sim.simulate_s": "s",
    "sim.write_bundle_s": "s", "sim.feed_step_s": "s",
}

_PARSERS = ("logs.alps.parse", "logs.torque.parse", "logs.errorlogs.parse",
            "logs.nodemap.parse")

#: ``query``: the name the daemon serves the bundle under.
BUNDLE_NAME = "bw"
#: ``query``: window widths are 2-20% of the collection window.
WINDOW_SHARE = (0.02, 0.20)
#: ``live``: one tick appends one event-hour of log lines.
TICK_S = 3600.0
LIVE_LATENESS_S = 60.0
#: ``ingest``: the streamed pass's shard and worker counts.
SHARDS, JOBS = 8, 2


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


def _now() -> float:
    return time.perf_counter()


def _maxrss_mb() -> float:
    """High-water RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimedPeakRss:
    """Peak RSS of this process over a ``with`` block, set-up excluded.

    ``ru_maxrss`` is the high-water mark since the process started.  If
    the block raises it, the new mark is the block's peak exactly.  If
    the block stays below the mark the set-up left, a thread samples the
    current RSS (``/proc/self/statm``) every :attr:`SAMPLE_S` instead, and
    the largest sample is the block's peak, short of spikes briefer than
    a sample.  The thread only sleeps and reads; it does no work.
    """

    SAMPLE_S = 0.01

    def __enter__(self) -> "TimedPeakRss":
        self._mark = _maxrss_mb()
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._stop = threading.Event()
        self.sampled_mb = self._current_mb()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-rss")
        self._thread.start()
        return self

    def _current_mb(self) -> float:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page_mb

    def _sample(self) -> None:
        while not self._stop.wait(self.SAMPLE_S):
            self.sampled_mb = max(self.sampled_mb, self._current_mb())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sampled_mb = max(self.sampled_mb, self._current_mb())
        os.close(self._fd)
        end = _maxrss_mb()
        self.mb = end if end > self._mark else self.sampled_mb


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _more_rounds(durations: list[float], seconds: float) -> bool:
    """Another round fits if it is expected to end within the budget."""
    return sum(durations) + statistics.fmean(durations) <= seconds


def _directory_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def _end_to_end(result: RunResult, *, setup_s: float, runs: int,
                busy_s: float, latencies_s: list[float],
                rss_mb: float) -> None:
    result.metrics.update({
        "setup_s": (setup_s, "s"),
        "runs_per_s": (runs / busy_s, "runs/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies_s), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies_s, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    })


def _layers(result: RunResult, tracer: Tracer, *, untraced_s: float,
            traced_s: float, extra: dict[str, float]) -> None:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    wall, own, calls, items = (tracer.wall_s, tracer.self_s, tracer.calls,
                               tracer.items)
    records = sum(items[name] for name in _PARSERS)
    parse_s = sum(own[name] for name in _PARSERS)
    handle = tracer.samples.get("serve.handle") or [0.0]
    metrics = {
        "logs.alps.parse_s": (own["logs.alps.parse"], "s"),
        "logs.torque.parse_s": (own["logs.torque.parse"], "s"),
        "logs.errorlogs.parse_s": (own["logs.errorlogs.parse"], "s"),
        "logs.nodemap.parse_s": (own["logs.nodemap.parse"], "s"),
        "logs.records": (records, "count"),
        "logs.records_per_s": (records / parse_s if parse_s else 0.0,
                               "records/s"),
        "logs.columnar.convert_s": (wall["logs.columnar.convert"], "s"),
        "logs.columnar.write_s": (own["logs.columnar.convert"], "s"),
        "logs.columnar.load_s": (wall["logs.columnar.load"], "s"),
        "logs.follow.poll_s": (own["logs.follow.poll"], "s"),
        "core.analyze_s": (wall["core.analyze"], "s"),
        "core.analyses": (calls["core.analyze"], "count"),
        "core.classify_s": (own["core.classify"], "s"),
        "core.filter_s": (own["core.filter"], "s"),
        "core.assemble_s": (own["core.assemble"], "s"),
        "core.attribute_s": (own["core.attribute"], "s"),
        "core.categorize_s": (own["core.categorize"], "s"),
        "core.node_info_s": (own["core.node_info"], "s"),
        "core.node_info_calls": (calls["core.node_info"], "count"),
        "core.spatial_index_s": (own["core.spatial_index"], "s"),
        "core.spatial_index_builds": (calls["core.spatial_index"], "count"),
        "core.merge.finalize_s": (own["core.merge.finalize"], "s"),
        "core.merge.finalize_calls": (calls["core.merge.finalize"], "count"),
        "core.sharding.streamed_s": (wall["core.sharding.streamed"], "s"),
        "core.sharding.plan_s": (own["core.sharding.plan"], "s"),
        "campaign.run_campaign_s": (wall["campaign.run_campaign"], "s"),
        "serve.handle_ms": (1000 * statistics.median(handle), "ms"),
        "serve.window_bundle_s": (own["serve.window_bundle"], "s"),
        "serve.fork_bundle_s": (own["serve.fork_bundle"], "s"),
        "validation.check_summary_s": (own["validation.check_summary"], "s"),
        "live.ingest_s": (own["live.ingest"], "s"),
        "live.advance_s": (own["live.advance"], "s"),
        "live.snapshot_s": (own["live.snapshot"], "s"),
        "live.finalize_s": (own["live.finalize"], "s"),
        "py.gc_s": (tracer.gc_s, "s"),
        "py.gc_gen2": (tracer.gc_gen2, "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100 * (traced_s - untraced_s) / untraced_s,
                               "%"),
    }
    for name, unit in _EXTRA_UNITS.items():
        metrics[name] = (extra.get(name, 0.0), unit)
    result.metrics.update(metrics)


def _registry_counter(name: str, **labels) -> float:
    from repro.obs.metrics import get_registry

    return get_registry().counter_value(name, **labels)


# -- ingest ------------------------------------------------------------------


def _ingest_round(directory: Path, result: RunResult, truth) -> float:
    """convert -> in-memory analyze -> streamed analyze; returns seconds."""
    from repro.core import LogDiver, analyze_streamed
    from repro.logs.columnar import convert_bundle

    start = _now()
    bundle = convert_bundle(directory)
    analysis = LogDiver().analyze(bundle)
    streamed = analyze_streamed(directory, shards=SHARDS, jobs=JOBS)
    elapsed = _now() - start
    result.attempted += 3
    result.problems += checks.confusion_problems(truth, analysis.diagnosed)
    if streamed.n_runs != len(truth):
        result.problems.append(f"streamed analysis diagnosed "
                               f"{streamed.n_runs} runs, the simulator ran "
                               f"{len(truth)}")
    if not checks.same_json(analysis.summary(), streamed.summary()):
        result.problems.append("in-memory and streamed summaries differ")
    return elapsed


def ingest(seed: int, seconds: float, workdir: Path,
           trace: bool) -> RunResult:
    result = RunResult()
    directory = workdir / "bundle"
    started = _now()
    with inputs_process(seed, str(directory), mode="bundle") as inputs:
        made = inputs.first
    setup_s = _now() - started
    truth = made["truth"]

    with TimedPeakRss() as rss:
        durations = [_ingest_round(directory, result, truth)]
        gc.collect()
        while _more_rounds(durations, seconds):
            durations.append(_ingest_round(directory, result, truth))
            gc.collect()
    if not trace:
        _end_to_end(result, setup_s=setup_s,
                    runs=len(truth) * len(durations),
                    busy_s=sum(durations), latencies_s=durations,
                    rss_mb=rss.mb)
        return result

    from repro.core import analyze_streamed

    start = _now()
    analyze_streamed(directory, shards=SHARDS, jobs=1)
    jobs1_s = _now() - start
    gc.collect()
    units_before = _registry_counter("campaign_units_total")
    with Tracer().install(LAYER_TARGETS) as tracer:
        traced = [_ingest_round(directory, result, truth)
                  for _ in durations]
    streamed_s = tracer.wall_s["core.sharding.streamed"] / len(durations)
    _layers(result, tracer, untraced_s=sum(durations), traced_s=sum(traced),
            extra={"logs.columnar.sidecar_mb":
                   _directory_mb(directory / ".columnar"),
                   "core.sharding.jobs1_s": jobs1_s,
                   "core.sharding.speedup": jobs1_s / streamed_s,
                   "campaign.units": (_registry_counter("campaign_units_total")
                                      - units_before),
                   "sim.simulate_s": made["simulate_s"],
                   "sim.write_bundle_s": made["write_bundle_s"]})
    return result


# -- query -------------------------------------------------------------------

#: The golden ratio's fractional part: window widths follow the additive
#: recurrence k * phi mod 1, so every prefix of the request stream spans
#: the width range evenly and the median request costs the same on every
#: seed and at every run length.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _clear_of_events(bound: float, events: list[float], step: float) -> float:
    """Move ``bound`` until no true run start or end lies within 1 s.

    Log timestamps have one-second resolution, so a window edge that
    close to an event could place the logged record on the other side
    of the edge than the true one; away from events both sides agree.
    """
    while True:
        i = bisect_left(events, bound - 1.0)
        if i == len(events) or events[i] > bound + 1.0:
            return bound
        bound += step


def plan_windows(truth, seed: int, count: int) -> list[tuple[float, float]]:
    """``count`` distinct seeded windows, 2-20% of the collection window."""
    rng = random.Random(seed)
    lo0, hi0 = truth.window
    span = hi0 - lo0
    events = sorted(truth.start + truth.end)
    offset = rng.random()
    windows = []
    for k in range(count):
        share = WINDOW_SHARE[0] + (WINDOW_SHARE[1] - WINDOW_SHARE[0]) * (
            (offset + k * _PHI) % 1.0)
        width = share * span
        lo = rng.uniform(lo0 + 2.0, hi0 - width - 2.0)
        windows.append((_clear_of_events(lo, events, 2.0),
                        _clear_of_events(lo + width, events, -2.0)))
    return windows


class _Daemon:
    """An in-process ServeDaemon holding the converted bundle warm."""

    def __init__(self, directory: Path):
        from repro.logs.bundle import read_bundle
        from repro.serve.daemon import ServeApp, ServeDaemon

        self.app = ServeApp({BUNDLE_NAME: directory})
        # Warm the handle the way a first request would, without sending
        # one: no request may be answered from the response cache.
        self.app.cache.get((BUNDLE_NAME, False),
                           lambda: read_bundle(directory, strict=True))
        self.daemon = ServeDaemon(self.app).start_background()
        self.conn = http.client.HTTPConnection(self.daemon.host,
                                               self.daemon.port, timeout=120)

    def post(self, endpoint: str, window) -> tuple[int, bytes, float]:
        body = json.dumps({"bundle": BUNDLE_NAME,
                           "window": list(window)}).encode("utf-8")
        start = _now()
        self.conn.request("POST", endpoint, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, payload, _now() - start

    def close(self) -> None:
        self.conn.close()
        self.daemon.shutdown()


def _query_rounds(daemon: _Daemon, windows, seconds: float,
                  rounds: int | None) -> list[tuple[str, tuple, int, bytes,
                                                    float]]:
    """Rounds of /analyze A, /analyze B, /validate A (2:1), distinct keys."""
    responses = []
    durations: list[float] = []
    for r in range(len(windows) // 2):
        if r == rounds or (rounds is None and durations
                           and not _more_rounds(durations, seconds)):
            break
        a, b = windows[2 * r], windows[2 * r + 1]
        spent = 0.0
        for endpoint, window in (("/analyze", a), ("/analyze", b),
                                 ("/validate", a)):
            status, payload, elapsed = daemon.post(endpoint, window)
            responses.append((endpoint, window, status, payload, elapsed))
            spent += elapsed
        durations.append(spent)
    return responses


def _check_responses(responses, truth, result: RunResult) -> int:
    """Ground-truth and oracle checks; returns runs diagnosed."""
    runs = 0
    analyzed: dict[tuple, dict] = {}
    for endpoint, window, status, payload, _ in responses:
        result.attempted += 1
        if status != 200:
            result.failed += 1
            continue
        document = json.loads(payload)
        if endpoint == "/analyze":
            analyzed[window] = document
            runs += int(document["result"]["summary"]["runs"])
            result.problems += checks.window_problems(truth, window, document)
        else:
            runs += int(document["summary"]["runs"])
            if window in analyzed:
                result.problems += checks.validate_problems(
                    window, document, analyzed[window])
    return runs


def query(seed: int, seconds: float, workdir: Path,
          trace: bool) -> RunResult:
    result = RunResult()
    directory = workdir / "bundle"
    started = _now()
    with inputs_process(seed, str(directory), mode="bundle",
                        convert=True) as inputs:
        made = inputs.first
    daemon = _Daemon(directory)
    setup_s = _now() - started
    truth = made["truth"]
    windows = plan_windows(truth, seed, 400)

    hits_before = _registry_counter("serve_result_cache_total", result="hit")
    try:
        with TimedPeakRss() as rss:
            responses = _query_rounds(daemon, windows, seconds, None)
    finally:
        daemon.close()
    latencies = [r[4] for r in responses]
    runs = _check_responses(responses, truth, result)
    hits = (_registry_counter("serve_result_cache_total", result="hit")
            - hits_before)
    if hits:
        result.problems.append(f"{hits:g} requests hit the response cache")
    if not trace:
        _end_to_end(result, setup_s=setup_s, runs=runs,
                    busy_s=sum(latencies), latencies_s=latencies,
                    rss_mb=rss.mb)
        return result

    del daemon
    gc.collect()
    rounds = len(responses) // 3
    with Tracer(samples=("serve.handle",)).install(LAYER_TARGETS) as tracer:
        hits_before = _registry_counter("serve_result_cache_total",
                                        result="hit")
        daemon = _Daemon(directory)
        try:
            traced = _query_rounds(daemon, windows, seconds, rounds)
        finally:
            daemon.close()
        hits = (_registry_counter("serve_result_cache_total", result="hit")
                - hits_before)
    _check_responses(traced, truth, result)
    handle = tracer.samples["serve.handle"]
    transport = [r[4] - h for r, h in zip(traced, handle)]
    _layers(result, tracer, untraced_s=sum(latencies),
            traced_s=sum(r[4] for r in traced),
            extra={"logs.columnar.sidecar_mb":
                   _directory_mb(directory / ".columnar"),
                   "serve.transport_ms": 1000 * statistics.median(transport),
                   "serve.result_cache_hits": hits,
                   "sim.simulate_s": made["simulate_s"],
                   "sim.write_bundle_s": made["write_bundle_s"]})
    return result


# -- live --------------------------------------------------------------------


class _LiveRound:
    """One replay of the whole feed through a fresh follower and engine."""

    def __init__(self, inputs, directory: Path):
        from repro.live.engine import LiveAnalyzer
        from repro.logs.follow import TailFollower

        self.inputs = inputs
        opened = inputs.request("open", str(directory))
        self.feed_setup_s = opened["setup_s"]
        self.first_arrival = opened["first_arrival"]
        self.engine = LiveAnalyzer(directory, lateness_s=LIVE_LATENESS_S)
        self.follower = TailFollower(directory)

    def run(self, result: RunResult, tracer: Tracer | None = None):
        """Tick until the feed drains, then finalize.

        Returns (tick latencies, finalize seconds, finalized document,
        watermark lags, max buffered records); the last two only traced.
        """
        from repro.obs.metrics import get_registry

        engine, follower = self.engine, self.follower
        latencies, lags = [], []
        max_buffered = 0
        event_s = self.first_arrival
        done = False
        while not done:
            event_s += TICK_S
            _, done = self.inputs.request("step", event_s)
            start = _now()
            engine.ingest(follower.poll())
            engine.advance()
            if tracer is None:
                engine.products().summary()
            else:
                with tracer.span("live.snapshot"):
                    engine.products().summary()
            latencies.append(_now() - start)
            if tracer is not None and engine.released_s > -math.inf:
                lags.append(event_s - engine.released_s)
                buffered = get_registry().gauge_value("live_buffered_records")
                max_buffered = max(max_buffered, int(buffered or 0))
        start = _now()
        document = engine.finalize()
        finalize_s = _now() - start
        result.attempted += len(latencies) + 1
        return latencies, finalize_s, document, lags, max_buffered


def _check_live(document: dict, directory: Path, truth,
                result: RunResult) -> None:
    """Finalized live result == one-shot analyze of the drained bundle."""
    from repro.core import LogDiver
    from repro.logs.bundle import read_bundle
    from repro.serve.queries import analyze_document

    bundle = read_bundle(directory, columnar=False)
    reference = analyze_document(directory, bundle=bundle)
    if not checks.same_json(document["result"], reference["result"]):
        result.problems.append("finalized live result differs from "
                               "analyze_document over the drained bundle")
    result.problems += checks.confusion_problems(
        truth, LogDiver().analyze(bundle).diagnosed)
    late = document["watermark"]["late_records_total"]
    if late:
        result.problems.append(f"{late} in-order records arrived beyond "
                               f"the watermark")


def live(seed: int, seconds: float, workdir: Path,
         trace: bool) -> RunResult:
    result = RunResult()
    started = _now()
    with inputs_process(seed, "", mode="feed") as inputs:
        made = inputs.first
        truth = made["truth"]
        replay = _LiveRound(inputs, workdir / "live-0")
        setup_s = _now() - started
        feed_setup_s = replay.feed_setup_s

        with TimedPeakRss() as rss:
            rounds = [replay.run(result)]
            durations = [sum(rounds[0][0]) + rounds[0][1]]
            while _more_rounds(durations, seconds):
                replay = _LiveRound(inputs, workdir / f"live-{len(rounds)}")
                rounds.append(replay.run(result))
                durations.append(sum(rounds[-1][0]) + rounds[-1][1])
        if trace:
            del replay
            gc.collect()
            with Tracer().install(LAYER_TARGETS) as tracer:
                traced_replay = _LiveRound(inputs, workdir / "live-traced")
                traced = traced_replay.run(result, tracer)
            bytes_read = traced_replay.follower.bytes_read
            records = traced_replay.engine.records_in
        fed = inputs.request("close")

    latencies = [t for r in rounds for t in r[0]]
    _check_live(rounds[0][2], workdir / "live-0", truth, result)
    for other in rounds[1:] + ([traced] if trace else []):
        if not checks.same_json(other[2]["result"], rounds[0][2]["result"]):
            result.problems.append("live replays of one feed disagree")
    if not trace:
        _end_to_end(result, setup_s=setup_s,
                    runs=len(truth) * len(rounds), busy_s=sum(durations),
                    latencies_s=latencies, rss_mb=rss.mb)
        return result

    tick_latencies, finalize_s, _, lags, max_buffered = traced
    _layers(result, tracer, untraced_s=durations[0],
            traced_s=sum(tick_latencies) + finalize_s,
            extra={"logs.follow.mb_read": bytes_read / 1e6,
                   "live.ticks": len(tick_latencies),
                   "live.records": records,
                   "live.max_buffered": max_buffered,
                   "live.watermark_lag_s": statistics.median(lags),
                   "sim.simulate_s": made["simulate_s"],
                   "sim.write_bundle_s": feed_setup_s,
                   "sim.feed_step_s": fed["feed_step_s"]})
    return result


WORKLOADS = {"ingest": ingest, "query": query, "live": live}


def run_workload(name: str, seed: int, seconds: float, workdir: Path,
                 trace: bool) -> RunResult:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, seconds, workdir, trace)

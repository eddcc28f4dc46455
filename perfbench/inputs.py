"""Seeded inputs, made in a process of their own.

The simulator is the load generator: it builds the 60-day bundle the
workloads analyze, the ground truth they are checked against, and (for
``live``) the feed that appends the bundle tick by tick.  It runs in a
spawned child so that the measured process holds only the system under
test, and its peak RSS is not the simulator's.

The child speaks a small request/reply protocol over a pipe:

* on start it simulates, then (``mode="bundle"``) writes the text bundle,
  optionally converts it, replies once and exits; or
* (``mode="feed"``) replies with the truth and serves ``open`` (a fresh
  :class:`~repro.sim.feed.BundleFeed` on a directory), ``step`` (append
  every line up to an event time) and ``close`` (which reports the time
  the latest feed spent appending).
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager

__all__ = ["SCENARIO", "Truth", "inputs_process"]

#: The workload's scenario: the full Blue Waters machine over 60 days,
#: workload thinned to about 11k application runs.
SCENARIO = {"days": 60.0, "workload_thinning": 0.02}


class Truth:
    """The simulator's per-run ground truth, as plain columns."""

    def __init__(self, result):
        runs = result.runs
        self.apid = [r.apid for r in runs]
        self.start = [r.start for r in runs]
        self.end = [r.end for r in runs]
        self.outcome = [r.outcome.value for r in runs]
        self.cause = [r.cause_category.value if r.cause_category is not None
                      else None for r in runs]
        self.window = (result.window.start, result.window.end)

    def __len__(self) -> int:
        return len(self.apid)


def _simulate(seed: int):
    from repro.sim.scenario import paper_scenario

    start = time.perf_counter()
    result = paper_scenario(seed=seed, **SCENARIO).run()
    return result, time.perf_counter() - start


def _serve(conn, seed: int, directory: str, mode: str, convert: bool) -> None:
    """Child entry point (module-level so spawn can import it)."""
    try:
        result, simulate_s = _simulate(seed)
        reply = {"truth": Truth(result), "simulate_s": simulate_s}
        if mode == "bundle":
            from repro.logs.bundle import write_bundle

            start = time.perf_counter()
            write_bundle(result, directory, seed=seed)
            reply["write_bundle_s"] = time.perf_counter() - start
            if convert:
                from repro.logs.columnar import convert_bundle

                start = time.perf_counter()
                convert_bundle(directory)
                reply["convert_s"] = time.perf_counter() - start
            conn.send(reply)
            return
        conn.send(reply)
        _feed_loop(conn, result, seed)
    finally:
        conn.close()


def _feed_loop(conn, result, seed: int) -> None:
    from repro.sim.feed import BundleFeed

    feed = None
    step_s = 0.0
    while True:
        try:
            command, argument = conn.recv()
        except EOFError:  # the parent went away without closing
            return
        if command == "open":
            start = time.perf_counter()
            step_s = 0.0
            feed = BundleFeed(result, argument, seed=seed)
            feed.write_static()
            conn.send({"setup_s": time.perf_counter() - start,
                       "first_arrival": feed.first_arrival()})
        elif command == "step":
            start = time.perf_counter()
            delivered = feed.step(argument)
            step_s += time.perf_counter() - start
            conn.send((delivered, feed.done()))
        elif command == "close":
            conn.send({"feed_step_s": step_s})
            return
        else:
            raise ValueError(f"unknown feed command {command!r}")


class _Inputs:
    """The parent's handle on the input process."""

    def __init__(self, conn, first: dict):
        self._conn = conn
        self.first = first
        self.truth: Truth = first["truth"]

    def request(self, command: str, argument=None):
        self._conn.send((command, argument))
        return self._conn.recv()


@contextmanager
def inputs_process(seed: int, directory: str, *, mode: str,
                   convert: bool = False):
    """Start the input child, wait for its first reply, always reap it."""
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=_serve,
                              args=(child, seed, directory, mode, convert),
                              name="perfbench-inputs")
    process.start()
    child.close()
    try:
        first = parent.recv()
        yield _Inputs(parent, first)
    finally:
        parent.close()
        process.join(timeout=60)
        if process.is_alive():
            process.terminate()
            process.join(timeout=10)

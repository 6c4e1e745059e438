"""Benchmark server: engine (one worker) plus gateway, in a fresh interpreter.

Usage::

    python3 perfbench/server.py SPEC_JSON [--spans PATH]

``SPEC_JSON`` names the workload, its training data file and the server
geometry.  The server fits the model, starts the engine and gateway, then
prints one JSON line (ports and the pids the benchmark reads CPU time
from) and answers one JSON command per stdin line:

* ``mark`` -- counters at a window boundary;
* ``writer_start`` / ``writer_stop`` -- run back-to-back recovery
  episodes on a thread, publishing each repaired generation to the
  engine; stop returns every episode's summary;
* ``stop`` -- drain and stop; with ``--spans``, write the span log.

With ``--spans`` the layer wrappers of :mod:`tracing` are installed
before anything is built, so set-up calls are traced too.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing


def worker_events(engine, lo: int, hi: int) -> dict:
    """Sums over the engine's worker batch events ``[lo, hi)``."""
    events = engine.trace.events[lo:hi]
    lags = [e.adoption_lag_s for e in events if e.adopted]
    return {
        "batches": len(events),
        "requests": sum(e.requests for e in events),
        "queries": sum(e.queries for e in events),
        "busy_s": sum(e.duration_s for e in events),
        "idle_s": sum(e.dispatch_wait_s for e in events),
        "adoptions": len(lags),
        "adoption_lag_ms_p50": 1e3 * float(np.median(lags)) if lags else 0.0,
        "degraded": sum(1 for e in events if e.degraded),
        "expired": sum(e.expired for e in events),
    }


class Writer:
    """The recovery writer: seeded episodes until told to stop."""

    def __init__(self, runner, publisher, base_seed: int) -> None:
        self._runner = runner
        self._publisher = publisher
        self._base = base_seed
        self._stop = threading.Event()
        self.episodes: list[dict] = []
        self.error: str | None = None
        self._thread = threading.Thread(target=self._run, name="writer")

    def start(self) -> int:
        """Start the writer; returns its thread id (for /proc CPU)."""
        self._thread.start()
        return self._thread.native_id

    def _run(self) -> None:
        from workloads import episode_seed

        try:
            while not self._stop.is_set():
                seed = episode_seed(self._base, len(self.episodes))
                start = time.monotonic_ns()
                summary = self._runner.run(seed, self._publisher)
                summary.update(start=start, end=time.monotonic_ns())
                self.episodes.append(summary)
        except Exception as exc:  # reported to the benchmark, which fails
            self.error = repr(exc)
            raise

    def stop(self) -> list[dict]:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        return self.episodes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    # SIGTERM unwinds through the finally blocks, so shared memory is
    # unlinked even when the benchmark has to stop us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    log = None
    if args.spans:
        log = tracing.SpanLog()
        tracing.install_server(log)

    from multiprocessing import active_children

    from repro.serve import GatewayServer, ServingEngine
    from workloads import EpisodeRunner, fit_tcp_classifier, make_experiment

    spec = json.loads(Path(args.spec).read_text())
    with np.load(spec["data"]) as data:
        data = dict(data)
    runner = None
    if spec["workload"] == "recover_under_load":
        runner = EpisodeRunner(make_experiment(data, spec["dim"]))
        classifier = runner.experiment.classifier
    else:
        classifier = fit_tcp_classifier(data, spec["dim"])

    engine = ServingEngine(
        classifier, num_workers=1, ring_slots=spec["ring_slots"],
        max_queries_per_request=spec["max_queries_per_request"],
    )
    gateway = probe = writer = None
    try:
        gateway = GatewayServer(
            engine, connection_window=spec.get("connection_window"),
            http_port=0 if spec.get("http") else None,
        ).start()
        if log is not None:
            probe = tracing.LoopProbe(log, gateway.loop)
        if runner is not None:
            writer = Writer(runner, engine.publisher_for(engine.tenants[0]),
                            spec["episode_base"])
        print(json.dumps({
            "port": gateway.port, "http_port": gateway.http_port,
            "worker_pids": [p.pid for p in active_children()],
        }), flush=True)
        for line in sys.stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "mark":
                reply = {"t": time.monotonic_ns(),
                         "events": len(engine.trace.events),
                         "shed": gateway.admission.shed_total}
            elif cmd == "writer_start":
                reply = {"tid": writer.start()}
            elif cmd == "writer_stop":
                reply = {"episodes": writer.stop(), "error": writer.error}
            elif cmd == "events":
                reply = worker_events(engine, request["lo"], request["hi"])
            elif cmd == "stop":
                break
            else:
                reply = {"error": f"unknown command {cmd!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        if writer is not None:
            writer.stop()
        if probe is not None:
            probe.stop()
        if gateway is not None:
            gateway.stop()
        engine.stop()
        if log is not None:
            log.undo()
            log.save(Path(args.spans))
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the public calls of each layer.

A span is one call into a layer: ``(id, name, start_ns, end_ns, parent_id,
size)``.  ``size`` is the amount of work the call carried (rows, requests,
frames) so per-unit costs are measured where the work happens; a span of
``engine.resolve`` carries the engine request id instead.  Times come from
``time.monotonic_ns`` (CLOCK_MONOTONIC), which the server and the load
generator share, so their spans can be joined.

Spans live in one flat ``array('q')`` while the run lasts (one C-level
``extend`` per span, so concurrent threads never interleave a row) and are
written out with :meth:`SpanLog.save` when it ends.  The wrappers are
installed from outside by :meth:`SpanLog.wrap`; nothing inside the program
is changed, and :meth:`SpanLog.undo` puts every original back.
"""

from __future__ import annotations

import array
import contextvars
import functools
import itertools
import json
import time
from pathlib import Path

import numpy as np

FIELDS = ("id", "name", "start", "end", "parent", "size")


class SpanLog:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._rows = array.array("q")
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(
        self, name: str, start: int, end: int, parent: int = 0, size: int = 0
    ) -> None:
        """Append one span measured by the caller."""
        self._rows.extend(
            (next(self._ids), self.name_id(name), start, end, parent, size)
        )

    def wrap(self, owner, attr: str, name: str, size=None, on_return=None,
             parent: bool = False):
        """Replace ``owner.attr`` by a timed call of the original.

        ``size(args, kwargs, result)`` gives the span's work count;
        ``on_return(span_id, start_ns, args, result)`` runs after the
        span is recorded (used to hang done-callbacks on futures).
        ``parent=True`` makes the span the parent of spans recorded
        during the call; it costs a context-variable set and reset, so
        only calls whose children are read use it.
        """
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        ids, rows, current = self._ids, self._rows, self._current
        clock = time.monotonic_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = next(ids)
            caller = current.get()
            token = current.set(span) if parent else None
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                if token is not None:
                    current.reset(token)
            n = 1 if size is None else size(args, kwargs, result)
            rows.extend((span, name_id, start, end, caller, n))
            if on_return is not None:
                on_return(span, start, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))
        return traced

    def wrap_class(self, owner, attr: str, method: str, name: str, size=None):
        """Swap ``owner.attr`` (a class) for a subclass whose ``method``
        is timed — for classes the program instantiates by name."""
        base = getattr(owner, attr)
        sub = type(base.__name__, (base,), {})
        self.wrap(sub, method, name, size=size)
        setattr(owner, attr, sub)
        self._undo.append((owner, attr, base))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def table(self) -> np.ndarray:
        return np.frombuffer(self._rows, dtype=np.int64).reshape(
            -1, len(FIELDS)
        ).copy()

    def save(self, path: Path) -> None:
        np.save(path, self.table())
        Path(str(path) + ".names.json").write_text(json.dumps(self.names))


class Spans:
    """Read side: a saved (or live) span table, selectable by name."""

    def __init__(self, table: np.ndarray, names: list[str]) -> None:
        self.table = table
        self.names = names
        self._by_name = {n: i for i, n in enumerate(names)}

    @classmethod
    def load(cls, path: Path) -> "Spans":
        names = json.loads(Path(str(path) + ".names.json").read_text())
        return cls(np.load(path), names)

    @classmethod
    def of(cls, log: SpanLog) -> "Spans":
        return cls(log.table(), list(log.names))

    def select(
        self, *names: str, window: tuple[int, int] | None = None,
        parent: str | None = None,
    ) -> np.ndarray:
        """Rows whose name is one of ``names`` (starting inside
        ``window`` and, with ``parent``, called from a span of that
        name)."""
        ids = [self._by_name[n] for n in names if n in self._by_name]
        rows = self.table[np.isin(self.table[:, 1], ids)]
        if window is not None:
            lo, hi = window
            rows = rows[(rows[:, 2] >= lo) & (rows[:, 2] < hi)]
        if parent is not None:
            pid = self._by_name.get(parent)
            parents = self.table[self.table[:, 1] == pid][:, 0]
            rows = rows[np.isin(rows[:, 4], parents)]
        return rows


def durations_ns(rows: np.ndarray) -> np.ndarray:
    return rows[:, 3] - rows[:, 2]


def total_us(rows: np.ndarray) -> float:
    return float(durations_ns(rows).sum()) / 1e3


def _rows_of(queries) -> int:
    return 1 if getattr(queries, "ndim", 2) == 1 else len(queries)


def install_server(log: SpanLog) -> None:
    """Wrap the server-side layer calls named in the benchmark's layer map."""
    import repro.core.pipeline as pipeline
    import repro.core.recovery as recovery
    import repro.serve.gateway as gateway
    from repro.core.encoder import Encoder
    from repro.core.model import HDCClassifier, HDCModel
    from repro.serve.engine import ServeFuture, ServingEngine
    from repro.serve.shm import GenerationPublisher

    log.name_id("engine.resolve")  # registered before any thread uses it

    def resolve_on(span: int, start: int, future) -> None:
        if not isinstance(future, ServeFuture):
            return
        rid = future.request_id
        future.add_done_callback(lambda _result: log.record(
            "engine.resolve", start, time.monotonic_ns(), span, rid
        ))

    # An engine.submit span's size is 1 when the call dispatched its
    # frame (flush=True), 0 when it left the request for a later flush.
    log.wrap(ServingEngine, "submit", "engine.submit",
             size=lambda a, k, r: int(k.get("flush", True)),
             on_return=lambda s, t, a, r: resolve_on(s, t, r))

    def many_done(span, start, args, futures):
        for future in futures:
            resolve_on(span, start, future)

    log.wrap(ServingEngine, "submit_many", "engine.submit_many",
             size=lambda a, k, r: len(r), on_return=many_done)
    log.wrap(ServingEngine, "flush", "engine.flush")

    admission = gateway.AdmissionController
    log.wrap(admission, "admit", "gateway.admit")
    log.wrap(admission, "admit_many", "gateway.admit_many",
             size=lambda a, k, r: len(r))
    log.wrap(admission, "release", "gateway.release",
             size=lambda a, k, r: k.get("count", 1))

    # The gateway calls the protocol codecs through its own module
    # namespace, so that is where they are wrapped.
    log.wrap_class(gateway, "FrameDecoder", "feed", "protocol.feed",
                   size=lambda a, k, r: len(r))
    for codec in ("decode_array", "decode_submit_batch"):
        log.wrap(gateway, codec, f"protocol.{codec}")
    for codec in ("encode_frame", "encode_predictions",
                  "encode_response_batch", "encode_credit",
                  "encode_status", "encode_reject"):
        log.wrap(gateway, codec, f"protocol.{codec}")

    log.wrap(HDCClassifier, "fit", "model.fit",
             size=lambda a, k, r: len(a[1]), parent=True)
    for method in ("encode_batch", "encode_packed"):
        log.wrap(Encoder, method, f"encoder.{method}",
                 size=lambda a, k, r: _rows_of(a[1]))
    log.wrap(HDCModel, "similarities", "model.similarities",
             size=lambda a, k, r: _rows_of(a[1]))
    log.wrap(recovery, "detect_faulty_chunks_batch", "chunks.detect",
             size=lambda a, k, r: len(r))
    log.wrap(recovery, "probabilistic_substitution", "recovery.substitute")
    log.wrap(recovery, "recover_block", "recovery.recover_block",
             size=lambda a, k, r: len(r), parent=True)
    log.wrap(GenerationPublisher, "publish", "shm.publish",
             size=lambda a, k, r: int(a[1].packed().nbytes))
    log.wrap(pipeline, "attack", "faults.attack")


def install_client(log: SpanLog) -> None:
    """Wrap the codec calls the gateway clients make (load generator)."""
    import repro.serve.client as client

    for codec in ("encode_frame", "encode_array", "encode_submit_batch"):
        log.wrap(client, codec, f"client.{codec}")
    log.wrap_class(client, "FrameDecoder", "feed", "client.feed",
                   size=lambda a, k, r: len(r))
    for codec in ("decode_predictions", "decode_response_batch",
                  "decode_credit"):
        log.wrap(client, codec, f"client.{codec}")


class LoopProbe:
    """Measures event-loop lag: a callback due every ``interval`` seconds
    on ``loop`` records how late it actually ran (span start = due,
    end = ran)."""

    def __init__(self, log: SpanLog, loop, interval: float = 0.005) -> None:
        self._log = log
        self._loop = loop
        self._interval = interval
        self._handle = None
        log.name_id("gateway.loop_lag")
        loop.call_soon_threadsafe(self._tick, loop.time())

    def _tick(self, due: float) -> None:
        now = self._loop.time()
        self._log.record("gateway.loop_lag", int(due * 1e9), int(now * 1e9))
        self._handle = self._loop.call_at(
            now + self._interval, self._tick, now + self._interval
        )

    def stop(self) -> None:
        def cancel() -> None:
            if self._handle is not None:
                self._handle.cancel()
        try:
            self._loop.call_soon_threadsafe(cancel)
        except RuntimeError:
            pass  # loop already closed

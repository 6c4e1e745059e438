"""Metric names, units, and the per-layer numbers of a traced run.

Each per-layer metric belongs to one repository module and is measured
from outside it: from spans around its public calls (:mod:`tracing`),
from the engine's worker batch events, or by timing the worker's encode
and kernel calls in this process on the workload's exact shapes.  Per-
request figures divide by requests completed in the traced window;
recovery figures divide by recovery-stream queries in that window.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import Spans, durations_ns, total_us

# (name, unit, better, bound): bound is the share of the parent's median
# by which a later change may worsen the metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("server_cpu_us_per_req", "us", "lower", 0.2),
)

PER_LAYER = (
    ("client.encode_us_per_req", "us", "lower"),
    ("client.decode_us_per_req", "us", "lower"),
    ("protocol.decode_us_per_req", "us", "lower"),
    ("protocol.encode_us_per_req", "us", "lower"),
    ("gateway.admit_us_per_req", "us", "lower"),
    ("gateway.loop_lag_ms_p50", "ms", "lower"),
    ("gateway.loop_lag_ms_p90", "ms", "lower"),
    ("gateway.shed", "count", "lower"),
    ("http.requests", "count", "higher"),
    ("http.non_200", "count", "lower"),
    ("http.self_ms_p50", "ms", "lower"),
    ("engine.submit_us_per_req", "us", "lower"),
    ("engine.flushes", "count", "lower"),
    ("engine.reqs_per_flush", "count", "higher"),
    ("engine.resolve_ms_p50", "ms", "lower"),
    ("engine.resolve_ms_p90", "ms", "lower"),
    ("worker.batches", "count", "lower"),
    ("worker.reqs_per_batch", "count", "higher"),
    ("worker.busy_ratio", "ratio", "lower"),
    ("worker.busy_us_per_query", "us", "lower"),
    ("worker.idle_s", "s", "lower"),
    ("worker.cpu_us_per_req", "us", "lower"),
    ("worker.adoptions", "count", "higher"),
    ("worker.adoption_lag_ms_p50", "ms", "lower"),
    ("worker.degraded_batches", "count", "lower"),
    ("worker.expired", "count", "lower"),
    ("encoder.batch_us_per_row", "us", "lower"),
    ("encoder.single_us_per_row", "us", "lower"),
    ("encoder.setup_s", "s", "lower"),
    ("kernels.us_per_query", "us", "lower"),
    ("kernels.bytes_per_query", "B", "lower"),
    ("model.fit_s", "s", "lower"),
    ("model.gate_us_per_query", "us", "lower"),
    ("chunks.detect_us_per_query", "us", "lower"),
    ("recovery.busy_s", "s", "lower"),
    ("recovery.substitute_us_per_chunk", "us", "lower"),
    ("recovery.rows_per_query", "count", "lower"),
    ("recovery.trust_rate", "ratio", "higher"),
    ("recovery.chunks_flagged", "count", "lower"),
    ("recovery.bits_substituted", "count", "lower"),
    ("recovery.model_writes", "count", "lower"),
    ("shm.publishes", "count", "lower"),
    ("shm.publish_ms_p50", "ms", "lower"),
    ("shm.publish_bytes", "B", "lower"),
    ("faults.attack_ms", "ms", "lower"),
    ("overhead.setup_s", "%", "lower"),
    ("overhead.throughput_rps", "%", "lower"),
    ("overhead.latency_p90_ms", "%", "lower"),
    ("overhead.server_cpu_us_per_req", "%", "lower"),
    ("waterfall.server_cpu_us_per_req", "us", "lower"),
    ("waterfall.unattributed_us_per_req", "us", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}

CLIENT_ENCODE = ("client.encode_frame", "client.encode_array",
                 "client.encode_submit_batch")
CLIENT_DECODE = ("client.feed", "client.decode_predictions",
                 "client.decode_response_batch", "client.decode_credit")
PROTOCOL_DECODE = ("protocol.feed", "protocol.decode_array",
                   "protocol.decode_submit_batch")
PROTOCOL_ENCODE = ("protocol.encode_frame", "protocol.encode_predictions",
                   "protocol.encode_response_batch", "protocol.encode_credit",
                   "protocol.encode_status", "protocol.encode_reject")
ADMISSION = ("gateway.admit", "gateway.admit_many", "gateway.release")
ENGINE_SUBMIT = ("engine.submit", "engine.submit_many", "engine.flush")
ENCODER = ("encoder.encode_batch", "encoder.encode_packed")
# Server-side layers whose span time is CPU the serve path spends per
# request; with the worker's CPU they make up the waterfall.
WATERFALL = ("worker.cpu_us_per_req", "protocol.decode_us_per_req",
             "protocol.encode_us_per_req", "gateway.admit_us_per_req",
             "engine.submit_us_per_req")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail(values_ms: np.ndarray, q: float) -> tuple[float, int]:
    """The ``q``-th percentile and how many samples lie beyond it."""
    if not len(values_ms):
        return 0.0, 0
    value = float(np.percentile(values_ms, q))
    return value, int(np.count_nonzero(values_ms > value))


def time_per_call(fn, min_seconds: float = 0.2, min_calls: int = 5) -> float:
    """Median seconds per call of ``fn`` over at least ``min_seconds``."""
    times = []
    deadline = time.perf_counter() + min_seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return float(np.median(times)) / 1e9


def overhead_pct(name: str, traced: float, untraced: float) -> float:
    """How much worse the traced run read, in % of the untraced value."""
    if not untraced:
        return 0.0
    change = (traced - untraced) / untraced * 100.0
    return change if BETTER[name] == "lower" else -change


def _http_self_ms(reads: np.ndarray, resolves: np.ndarray) -> float:
    """Median of (HTTP round trip - engine resolve time), pairing each
    engine request with the read whose round trip contains its submit."""
    if not len(reads) or not len(resolves):
        return 0.0
    reads = reads[np.argsort(reads[:, 0])]
    selfs = []
    for start, end in resolves[:, 2:4]:
        i = int(np.searchsorted(reads[:, 0], start, side="right")) - 1
        while i >= 0 and reads[i, 1] < end:
            i -= 1
        if i >= 0:
            selfs.append((reads[i, 1] - reads[i, 0]) - (end - start))
    return float(np.median(selfs)) / 1e6 if selfs else 0.0


def per_layer(
    *, window: tuple[int, int], requests: int, server: Spans, client: Spans,
    worker: dict, shed: int, reads: np.ndarray, non_200: int,
    episodes: list[dict], shapes: dict, traced_cpu_us: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced window (see :data:`PER_LAYER`).

    ``reads`` are the HTTP round trips ``(sent_ns, done_ns)`` of the
    window; ``episodes`` the recovery episodes of the traced run;
    ``shapes`` the encoder/kernel measurements of :func:`measure_shapes`;
    ``traced_cpu_us`` the traced run's server CPU per request.
    """
    lo, hi = window
    window_s = (hi - lo) / 1e9
    per_req = max(1, requests)

    def us_per_req(side: Spans, names) -> float:
        return total_us(side.select(*names, window=window)) / per_req

    m: dict[str, float] = {
        "client.encode_us_per_req": us_per_req(client, CLIENT_ENCODE),
        "client.decode_us_per_req": us_per_req(client, CLIENT_DECODE),
        "protocol.decode_us_per_req": us_per_req(server, PROTOCOL_DECODE),
        "protocol.encode_us_per_req": us_per_req(server, PROTOCOL_ENCODE),
        "gateway.admit_us_per_req": us_per_req(server, ADMISSION),
        "engine.submit_us_per_req": us_per_req(server, ENGINE_SUBMIT),
        "gateway.shed": shed,
        "http.requests": len(reads) + non_200,
        "http.non_200": non_200,
    }
    lag_ms = durations_ns(server.select("gateway.loop_lag", window=window))
    m["gateway.loop_lag_ms_p50"] = percentile(lag_ms / 1e6, 50)
    m["gateway.loop_lag_ms_p90"] = percentile(lag_ms / 1e6, 90)

    resolves = server.select("engine.resolve", window=window)
    m["http.self_ms_p50"] = _http_self_ms(reads, resolves)
    m["engine.resolve_ms_p50"] = percentile(durations_ns(resolves) / 1e6, 50)
    m["engine.resolve_ms_p90"] = percentile(durations_ns(resolves) / 1e6, 90)
    submits = server.select("engine.submit", window=window)
    many = server.select("engine.submit_many", window=window)
    # engine.submit spans carry 1 when the call dispatched (flush=True).
    flushes = (len(server.select("engine.flush", window=window))
               + len(many) + int(submits[:, 5].sum()))
    m["engine.flushes"] = flushes
    m["engine.reqs_per_flush"] = (
        (len(submits) + int(many[:, 5].sum())) / max(1, flushes)
    )

    batches = max(1, worker["batches"])
    m.update({
        "worker.batches": worker["batches"],
        "worker.reqs_per_batch": worker["requests"] / batches,
        "worker.busy_ratio": worker["busy_s"] / window_s,
        "worker.busy_us_per_query":
            1e6 * worker["busy_s"] / max(1, worker["queries"]),
        "worker.idle_s": worker["idle_s"],
        "worker.cpu_us_per_req": worker["cpu_s"] * 1e6 / per_req,
        "worker.adoptions": worker["adoptions"],
        "worker.adoption_lag_ms_p50": worker["adoption_lag_ms_p50"],
        "worker.degraded_batches": worker["degraded"],
        "worker.expired": worker["expired"],
    })

    m["encoder.batch_us_per_row"] = shapes.get("encode_batch_us_per_row", 0.0)
    m["encoder.single_us_per_row"] = shapes.get(
        "encode_single_us_per_row", 0.0)
    m["kernels.us_per_query"] = shapes["kernel_us_per_query"]
    m["kernels.bytes_per_query"] = shapes["kernel_bytes_per_query"]
    # Set-up: everything the server did before the window opened.
    setup = (0, lo)
    encodes = server.select(*ENCODER, window=setup)
    m["encoder.setup_s"] = total_us(encodes) / 1e6
    fits = server.select("model.fit", window=setup)
    fit_encodes = server.select(*ENCODER, window=setup, parent="model.fit")
    m["model.fit_s"] = (total_us(fits) - total_us(fit_encodes)) / 1e6

    blocks = server.select("recovery.recover_block", window=window)
    stream = max(1, int(blocks[:, 5].sum()))
    gate = server.select("model.similarities", window=window,
                         parent="recovery.recover_block")
    m["model.gate_us_per_query"] = total_us(gate) / stream
    m["recovery.rows_per_query"] = (
        float(gate[:, 5].sum()) / stream if len(blocks) else 0.0
    )
    m["chunks.detect_us_per_query"] = (
        total_us(server.select("chunks.detect", window=window)) / stream
    )
    m["recovery.busy_s"] = total_us(blocks) / 1e6
    subs = server.select("recovery.substitute", window=window)
    m["recovery.substitute_us_per_chunk"] = total_us(subs) / max(1, len(subs))
    first = episodes[0] if episodes else {}
    for key in ("trust_rate", "chunks_flagged", "bits_substituted",
                "model_writes"):
        m[f"recovery.{key}"] = first.get(key, 0)
    publishes = server.select("shm.publish", window=window)
    m["shm.publishes"] = len(publishes)
    m["shm.publish_ms_p50"] = percentile(durations_ns(publishes) / 1e6, 50)
    m["shm.publish_bytes"] = percentile(publishes[:, 5], 50)
    attacks = server.select("faults.attack", window=window)
    m["faults.attack_ms"] = percentile(durations_ns(attacks) / 1e6, 50)

    m["waterfall.server_cpu_us_per_req"] = traced_cpu_us
    m["waterfall.unattributed_us_per_req"] = traced_cpu_us - sum(
        m[name] for name in WATERFALL
    )
    return m


def measure_shapes(workload, rows_per_batch: int) -> dict[str, float]:
    """Time the worker's encode and kernel calls on the workload's shapes.

    The worker encodes each feature request with
    ``encode_words_from_codebook`` and scores each coalesced batch with
    ``PackedModel.distances``; both run here, on the same model, codebook
    and row counts, with nothing else contending.  Bytes per query are
    computed from the shapes: the query row, every class row the kernel
    scans, and the int64 distances it writes.
    """
    # Imported here: run.py imports this module before it has put the
    # repository sources on the path.
    from repro.core.encoder import (encode_words_from_codebook,
                                    quantize_features)

    classifier = workload.classifier
    encoder = classifier.encoder
    codebook = encoder.packed_codebook().words
    out = {}
    for key, rows in workload.encoded_shapes().items():
        features = workload.feature_rows(rows)
        idx = quantize_features(features, encoder.levels, encoder.low,
                                encoder.high)
        seconds = time_per_call(
            lambda: encode_words_from_codebook(codebook, idx)
        )
        out[f"{key}_us_per_row"] = seconds * 1e6 / rows
    packed = classifier.model.packed()
    rows = max(1, rows_per_batch)
    queries = encoder.encode_packed(workload.feature_rows(rows)).words
    seconds = time_per_call(lambda: packed.distances(queries))
    out["kernel_us_per_query"] = seconds * 1e6 / rows
    out["kernel_bytes_per_query"] = float(
        queries.shape[1] * 8 + packed.words.nbytes + packed.num_classes * 8
    )
    return out

"""Serving-worker process loop for the concurrent serving engine.

Each worker attaches (read-only, zero-copy) to the engine's shared
segments — every tenant's control block and, for feature-payload
tenants, exported bound codebook, plus the request payload ring — then
loops:

1. **Dequeue + coalesce.**  Block on the request queue for one frame of
   requests, then drain whatever else is immediately available (up to
   ``coalesce_requests``) so queued-up work is answered with *one*
   distance computation per tenant instead of one per request.  This is
   where the engine's throughput comes from: the packed XOR+popcount
   kernel is ~an order of magnitude cheaper per query at batch size
   than at request size.
2. **Adopt.**  For every tenant referenced by the batch, read that
   tenant's control block (seqlock) and, if its recovery writer has
   published a newer generation, remap to this worker's shard of it
   (``worker_id % num_shards``; shard 0 under the one-shard plan of an
   unsharded engine) before serving.
   Generations are immutable, so within a batch every query sees one
   consistent model per tenant — and because each tenant has its own
   control block and generation stream, a recovery pass hot-swapping
   tenant A never perturbs what this worker serves for tenant B.  An
   attach that races a retirement re-reads the control block and lands
   on the newer generation it now names.  Adoption is *lazy*: a tenant
   absent from the batch costs nothing.
3. **Degrade rather than block.**  If a referenced tenant's writer is
   registered but its heartbeat is older than the stall threshold,
   serve anyway on the current snapshot and flag the batch ``degraded``
   — availability over freshness, with the worst staleness reported in
   the batch event.
4. **Serve.**  Drop requests whose deadline already passed, group the
   rest by tenant, gather each group's payloads from the ring (packed
   query words directly, or features quantised + encoded against that
   tenant's codebook), run one coalesced distance computation per
   tenant, and turn each table into its plan's reply rows
   (:meth:`~repro.serve.shard.ShardPlan.reply`).  One message goes back
   per batch: per frame, the requests served (in row order) and those
   expired, one array holding every reply row in frame order, and one
   :class:`~repro.obs.trace.ServeBatchEvent`-shaped record.

When the engine runs with telemetry (the default), each worker is also
the single writer of its shared-memory *telemetry slab*
(:mod:`repro.obs.telemetry`): one seqlock-stamped stats update per
coalesced batch (counters + log2-bucketed latency bins the engine-side
aggregator scrapes), plus flight-recorder events (batch start/end,
generation adoption, deadline miss, stale serve) in a bounded in-slab
ring.  The slab is engine-owned, so the ring survives this process
being SIGKILLed — that is what makes crashes diagnosable post-mortem.

Each worker owns a private request queue (the engine round-robins
frames and re-routes a dead worker's unserved frames to survivors): a
worker killed mid-``get`` can therefore never wedge its siblings on a
shared queue lock.  The loop exits on the ``None`` sentinel — which is
also how a graceful retirement (``ServingEngine.remove_worker``, e.g.
an autoscaler scale-down) lands; a sentinel seen while draining still
gets the in-hand batch served first — shutdown never drops accepted
work.
"""

from __future__ import annotations

import os
import queue
import time
import traceback

import numpy as np

from repro.core.encoder import encode_words_from_codebook, quantize_features
from repro.obs.telemetry import (
    EV_ADOPT,
    EV_BATCH_END,
    EV_BATCH_START,
    EV_DEADLINE_MISS,
    EV_STALE_SERVE,
    TelemetryWriter,
    slab_words,
)
from repro.serve.shm import ControlBlock, ShmArray, attach_generation

__all__ = ["PAYLOAD_FEATURES", "PAYLOAD_PACKED", "worker_main"]

# Per-request payload kinds, as stored in request tuples.
PAYLOAD_PACKED = 0  # ring slot holds (n_queries, words) uint64 query words
PAYLOAD_FEATURES = 1  # ring slot holds (n_queries, num_features) float64


def _gather_queries(ring, live, tenant, codebook, word_lo, word_hi):
    """Assemble one tenant's query words ``(total_q, scan_words)``.

    ``live`` rows are ``(req_id, slot, n_queries, kind)``; ``tenant`` is
    the :class:`~repro.serve.engine.TenantSlot` whose geometry (word
    width, codebook shape, quantiser range) the payloads follow, and
    ``[word_lo, word_hi)`` the column range this worker scans (the full
    range under a class plan).  The common case — every
    live request packed with the same query count — gathers with one
    fancy index over the ring instead of a Python-level slice per
    request; mixed batches fall back to the per-request path.
    """
    words = tenant.words
    n0 = live[0][2]
    if all(kind == PAYLOAD_PACKED and n == n0 for _, _, n, kind in live):
        slots = np.fromiter(
            (slot for _, slot, _, _ in live), dtype=np.intp, count=len(live)
        )
        block = ring.array[slots, : n0 * words].reshape(-1, words)
        return block[:, word_lo:word_hi]
    rows = []
    for _, slot, n_queries, kind in live:
        if kind == PAYLOAD_PACKED:
            rows.append(
                ring.array[slot, : n_queries * words]
                .reshape(n_queries, words)[:, word_lo:word_hi]
            )
        else:
            feats = (
                ring.array[slot, : n_queries * tenant.num_features]
                .view(np.float64)
                .reshape(n_queries, tenant.num_features)
            )
            idx = quantize_features(
                feats, tenant.levels, tenant.low, tenant.high
            )
            rows.append(
                encode_words_from_codebook(
                    codebook.array[:, :, word_lo:word_hi], idx
                )
            )
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _drain(request_q, first, coalesce: int):
    """Coalesce immediately-available frames behind ``first``.

    Frames are ``(frame_seq, entries)``; draining stops once the batch
    holds ``coalesce`` requests.  Returns ``(frames, saw_sentinel)``.
    The queue is this worker's own, so a drained ``None`` sentinel is
    ours: it stops the drain and the loop exits once the in-hand batch
    has been served.
    """
    frames = [first]
    count = len(first[1])
    saw_sentinel = False
    while count < coalesce:
        try:
            frame = request_q.get_nowait()
        except queue.Empty:
            break
        if frame is None:
            saw_sentinel = True
            break
        frames.append(frame)
        count += len(frame[1])
    return frames, saw_sentinel


class _TenantState:
    """One tenant's attached shared state inside a worker."""

    __slots__ = ("codebook", "control", "generation", "packed", "segment",
                 "shard", "slot", "word_hi", "word_lo")

    def __init__(self, slot, control, codebook, shard) -> None:
        self.slot = slot  # the TenantSlot geometry
        self.control = control
        self.codebook = codebook
        self.shard = shard
        self.segment = None
        self.packed = None
        self.generation = 0
        # The query-word columns this worker scans: its word range
        # under a word plan, every word under a class plan.
        plan = slot.shard_plan
        self.word_lo, self.word_hi = (
            plan.bounds[shard] if plan.kind == "word" else (0, slot.words)
        )

    def adopt(self):
        """Remap to this worker's shard of the newest generation if it moved.

        Returns ``(snapshot, adopted, adoption_lag_s)``.  Spins briefly
        until generation 1 exists (the engine publishes every tenant
        before forking workers, so this only waits out a construction
        race).
        """
        snapshot = self.control.read()
        while snapshot.generation == 0:
            time.sleep(0.001)
            snapshot = self.control.read()
        if snapshot.generation == self.generation:
            return snapshot, False, 0.0
        while True:
            try:
                new_segment, new_packed = attach_generation(
                    self.slot.prefix, snapshot, self.slot.shard_plan,
                    self.shard,
                )
                break
            except FileNotFoundError:
                # Raced a retirement; the control block now names a
                # newer generation — adopt that one instead.
                snapshot = self.control.read()
        self.packed = new_packed
        if self.segment is not None:
            self.segment.close()
        self.segment = new_segment
        self.generation = snapshot.generation
        lag_s = max(
            0.0, (time.monotonic_ns() - snapshot.publish_ns) / 1e9
        )
        return snapshot, True, lag_s

    def close(self) -> None:
        self.packed = None  # drop views into the mappings first
        if self.segment is not None:
            self.segment.close()
        if self.codebook is not None:
            self.codebook.close()
        self.control.close()


def worker_main(worker_id: int, cfg, request_q, result_q) -> None:
    """Entry point of one serving-worker process.

    ``cfg`` is the engine's :class:`~repro.serve.engine.ServeConfig`;
    the queues carry request frames in and result batches out.  Runs
    until the stop sentinel arrives; any unexpected exception is
    reported as an ``("error", worker_id, traceback)`` message so the
    engine can surface it instead of hanging on lost results.
    """
    shard = cfg.shard_of(worker_id)
    tenants: list[_TenantState] = []
    for slot in cfg.tenants:
        control = ControlBlock.attach(slot.control_name)
        codebook = None
        if slot.codebook_name is not None:
            codebook = ShmArray.attach(
                slot.codebook_name,
                (slot.num_features, slot.levels, slot.words),
                np.uint64,
            )
        tenants.append(_TenantState(slot, control, codebook, shard))
    ring = ShmArray.attach(
        cfg.ring_name, (cfg.ring_slots, cfg.slot_bytes // 8), np.uint64
    )
    telemetry_segment = None
    telemetry = None
    if cfg.telemetry_prefix is not None:
        # The engine owns the slab (it survives this process's death —
        # that is the flight recorder's whole point); the worker attaches
        # writable and is the slab's single writer.
        telemetry_segment = ShmArray.attach(
            f"{cfg.telemetry_prefix}-w{worker_id}",
            (slab_words(cfg.flight_slots),),
            np.uint64,
            readonly=False,
        )
        telemetry = TelemetryWriter(
            telemetry_segment.array, worker_id,
            pid=os.getpid(), started_ns=time.monotonic_ns(),
        )
        telemetry.set_shard(shard)
    batch_index = 0
    try:
        while True:
            wait0 = time.perf_counter()
            frame = request_q.get()
            wait_s = time.perf_counter() - wait0
            if frame is None:
                break
            frames, saw_sentinel = _drain(
                request_q, frame, cfg.coalesce_requests
            )
            t0 = time.perf_counter()
            now = time.monotonic_ns()
            requests = [entry for _, entries in frames for entry in entries]
            # Lowest trace id in the batch: the correlation join key.
            batch_trace_id = min(r[5] for r in requests)
            if telemetry is not None:
                telemetry.record_event(
                    EV_BATCH_START, now,
                    batch_index, len(requests), max(0, batch_trace_id),
                )

            # Adopt the newest published generation of every tenant the
            # batch references, before serving any of it.
            referenced = sorted({r[6] for r in requests})
            adopted = False
            adoption_lag_s = 0.0
            staleness_s = 0.0
            degraded = False
            for idx in referenced:
                state = tenants[idx]
                snapshot, t_adopted, t_lag = state.adopt()
                if t_adopted:
                    adopted = True
                    adoption_lag_s = max(adoption_lag_s, t_lag)
                    if telemetry is not None:
                        telemetry.record_event(
                            EV_ADOPT, time.monotonic_ns(),
                            state.generation, state.packed.version,
                            int(t_lag * 1e9),
                        )
                if snapshot.writer_active:
                    t_stale = max(0.0, (now - snapshot.heartbeat_ns) / 1e9)
                    staleness_s = max(staleness_s, t_stale)
                    if now - snapshot.heartbeat_ns > cfg.stall_ns:
                        degraded = True
                        if telemetry is not None:
                            telemetry.record_event(
                                EV_STALE_SERVE, now,
                                state.generation, int(t_stale * 1e9),
                            )

            # Partition each frame on deadlines, then serve the live
            # requests with one coalesced distance computation per tenant.
            by_tenant = {idx: [] for idx in referenced}
            frame_replies = []  # (frame_seq, served [(req_id, n)], expired)
            live_tenants = []  # (tenant_idx, n_queries) in frame order
            misses = []  # (req_id, trace_id)
            for frame_seq, entries in frames:
                served = []
                expired = []
                for (req_id, slot, n_queries, deadline_ns, kind, trace_id,
                     tenant_idx) in entries:
                    if deadline_ns and now > deadline_ns:
                        expired.append(req_id)
                        misses.append((req_id, trace_id))
                    else:
                        served.append((req_id, n_queries))
                        live_tenants.append((tenant_idx, n_queries))
                        by_tenant[tenant_idx].append(
                            (req_id, slot, n_queries, kind)
                        )
                frame_replies.append((frame_seq, served, expired))
            total_queries = 0
            bytes_scanned = 0
            parts = []
            for idx in referenced:
                group = by_tenant[idx]
                if not group:
                    continue
                state = tenants[idx]
                group_queries = sum(n for _, _, n, _ in group)
                total_queries += group_queries
                query_words = _gather_queries(
                    ring, group, state.slot, state.codebook,
                    state.word_lo, state.word_hi,
                )
                # Model bytes streamed: every query scans the tenant's
                # attached word matrix once — what sharding shrinks.
                bytes_scanned += group_queries * int(
                    state.packed.words.nbytes
                )
                parts.append(state.slot.shard_plan.reply(
                    state.packed.distances(query_words), shard
                ))
            if len(parts) > 1:
                # Rows were computed tenant by tenant; a stable sort of
                # the frame-order rows by tenant says where each goes.
                tenant_of, sizes = np.array(live_tenants).T
                grouped = np.concatenate(parts)
                rows = np.empty_like(grouped)
                rows[np.argsort(
                    np.repeat(tenant_of, sizes), kind="stable"
                )] = grouped
            else:
                rows = parts[0] if parts else np.empty((0, 2), np.int64)
            if telemetry is not None:
                for req_id, trace_id in misses:
                    telemetry.record_event(
                        EV_DEADLINE_MISS, now, req_id, max(0, trace_id)
                    )

            duration_s = time.perf_counter() - t0
            # Generation/version reported for the lowest-index tenant
            # the batch touched (the only tenant of a sharded engine,
            # whose collector compares generations across shards).
            lead = tenants[referenced[0]]
            event = {
                "worker_id": worker_id,
                "batch_index": batch_index,
                "requests": len(requests),
                "queries": total_queries,
                "expired": len(misses),
                "generation": lead.generation,
                "model_version": (
                    lead.packed.version if lead.packed is not None else 0
                ),
                "adopted": adopted,
                "adoption_lag_s": adoption_lag_s,
                "staleness_s": staleness_s,
                "degraded": degraded,
                "duration_s": duration_s,
                "trace_id": batch_trace_id,
                "shard": shard,
                "dispatch_wait_s": wait_s,
                "bytes_scanned": bytes_scanned,
                "tenants": max(1, len(parts)),
            }
            if telemetry is not None:
                end_ns = time.monotonic_ns()
                telemetry.record_event(
                    EV_BATCH_END, end_ns,
                    batch_index, total_queries, int(duration_s * 1e9),
                )
                telemetry.record_batch(
                    requests=len(requests),
                    queries=total_queries,
                    expired=len(misses),
                    duration_ns=int(duration_s * 1e9),
                    adopted=adopted,
                    degraded=degraded,
                    now_ns=end_ns,
                    wait_ns=int(wait_s * 1e9),
                )
            result_q.put(("batch", worker_id, frame_replies, rows, event))
            batch_index += 1
            if saw_sentinel:
                break  # in-hand work served; now shut down
    except Exception:  # pragma: no cover - defensive reporting path
        result_q.put(("error", worker_id, traceback.format_exc()))
    finally:
        telemetry = None
        for state in tenants:
            state.close()
        if telemetry_segment is not None:
            telemetry_segment.close()
        ring.close()
        result_q.close()

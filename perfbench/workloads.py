"""The benchmark's workloads: inputs, server geometry, load and references.

Every input is made here, from the workload seed, and handed to the
server as data: the model's training set (a file) and request payloads
(over the wire).  The same functions build the in-process reference the
replies are checked against, so server and reference can differ only if
the program does.

* ``tcp_single`` -- one ``PACKED`` frame of 8 encoded rows per request on
  one uncredited :class:`AsyncGatewayClient` connection, closed loop with
  128 requests in flight.  Stresses the per-request path (protocol decode,
  admission, engine submit, queue hop, collector, reply); nothing is
  encoded on the server.
* ``tcp_batch_features`` -- ``SUBMIT_BATCH`` frames of 32 requests x 8 raw
  feature rows on one credited connection, 4 frames in flight (the
  128-credit window); the gateway merges each frame into one 256-row
  engine request.  Per-request bookkeeping is amortised and the worker's
  time goes to feature encoding.
* ``recover_under_load`` -- the ucihar profile (12 classes, 561 features).
  The server's recovery writer runs back-to-back clustered-damage
  attack-and-recover episodes, publishing each repaired generation,
  while single-row HTTP reads arrive open-loop at 50/s over 2 keep-alive
  connections.  The only workload that exercises recovery, generation
  publish/adopt, HTTP ingress and single-row encoding.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import time
from dataclasses import dataclass

import numpy as np

from repro.core.encoder import Encoder
from repro.core.model import HDCClassifier, HDCModel
from repro.core.pipeline import RecoveryExperiment
from repro.datasets import load
from repro.datasets.synthetic import Dataset, make_prototype_classification
from repro.serve.client import (AsyncGatewayClient, GatewayError,
                                GatewayRejected)

HOST = "127.0.0.1"
LEVELS = 32
TCP_FEATURES = 32
TCP_CLASSES = 26
ROWS_PER_REQUEST = 8
SINGLE_IN_FLIGHT = 128
BATCH_REQUESTS = 32
BATCH_FRAMES_IN_FLIGHT = 4
READ_RATE = 50.0
READ_CONNECTIONS = 2
# Episode parameters: 3% of the model's bits flipped in 512-bit spans,
# default RecoveryConfig, one pass over the unlabeled stream.
ERROR_RATE = 0.03
CLUSTER_BITS = 512
PASSES = 1
SETTLE_READS = 32
# Every run replays the same episode schedule (episode i has seed
# EPISODE_BASE + 16 i): writer throughput depends strongly on where the
# damage lands, and with seed-dependent episodes its run-to-run quartile
# spread was 17% over 10 seeds on a 2-vCPU VM, against 4-5% for the reads.
EPISODE_BASE = 2022


@dataclass(frozen=True)
class Sizes:
    dim: int
    train_per_class: int
    pool_rows: int
    ucihar_train: int
    ucihar_test: int
    read_rows: int
    warmup_s: float
    setups: int


FULL = Sizes(dim=10_000, train_per_class=40, pool_rows=4096,
             ucihar_train=2000, ucihar_test=500, read_rows=256,
             warmup_s=2.0, setups=3)
# Runs every workload in seconds; used by the self-test.
SMOKE = Sizes(dim=2_000, train_per_class=8, pool_rows=512,
              ucihar_train=300, ucihar_test=100, read_rows=32,
              warmup_s=0.3, setups=1)


def model_digest(model: HDCModel) -> str:
    return hashlib.sha256(model.packed().words.tobytes()).hexdigest()[:16]


def fit_tcp_classifier(data, dim: int) -> HDCClassifier:
    encoder = Encoder(num_features=TCP_FEATURES, dim=dim, levels=LEVELS,
                      seed=0)
    return HDCClassifier(encoder, num_classes=TCP_CLASSES).fit(
        data["train_x"], data["train_y"]
    )


def make_experiment(data, dim: int) -> RecoveryExperiment:
    dataset = Dataset("ucihar", data["train_x"], data["train_y"],
                      data["test_x"], data["test_y"])
    return RecoveryExperiment(dataset=dataset, dim=dim)


def episode_seed(base: int, index: int) -> int:
    # attack_and_recover draws from seed, seed + 1 and seed + 2.
    return base + 16 * index


class EpisodeRunner:
    """Seeded clustered-damage attack-and-recover episodes.

    Each episode attacks a copy of the clean model and recovers it from the
    stream.  ``attack_and_recover`` repairs the copy that
    ``repro.faults.api.attack`` returned and does not return it, so the
    runner wraps the pipeline's ``attack`` to keep hold of it.
    """

    def __init__(self, experiment: RecoveryExperiment) -> None:
        import repro.core.pipeline as pipeline

        self.experiment = experiment
        self.final_model: HDCModel | None = None
        attack = pipeline.attack

        def keep(*args, **kwargs):
            attacked, mask = attack(*args, **kwargs)
            self.final_model = attacked
            return attacked, mask

        pipeline.attack = keep

    def run(self, seed: int, publisher=None) -> dict:
        outcome = self.experiment.attack_and_recover(
            ERROR_RATE, mode="clustered", seed=seed, passes=PASSES,
            publisher=publisher, cluster_bits=CLUSTER_BITS,
        )
        trace = outcome.trace
        return {
            "seed": seed,
            "queries": trace.queries_seen,
            "accuracy_trace": list(outcome.accuracy_trace),
            "digest": model_digest(self.final_model),
            "trust_rate": trace.queries_trusted / max(1, trace.queries_seen),
            "chunks_flagged": trace.chunks_flagged,
            "bits_substituted": trace.bits_substituted,
            "model_writes": sum(
                e.model_version_after - e.model_version_before for e in trace
            ),
        }


class Tally:
    """Requests of one timed pass: counts, checks and timestamps.

    A request that is refused or fails counts against ``attempted``; a
    reply that differs from the reference also counts as ``mismatched``,
    which fails the run.  ``corrupt`` alters the first reply before it is
    checked, to show that the check trips.
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        # (sent_or_due_ns, done_ns, ok) per request.
        self.samples: list[tuple[int, int, int]] = []
        self._corrupt = corrupt

    def fail(self, sent: int) -> None:
        self._count(sent, time.monotonic_ns(), False)

    def check(self, sent: int, done: int, got: np.ndarray,
              want: np.ndarray) -> None:
        """A reply that must equal the reference predictions ``want``."""
        if self._corrupt:
            got = np.array(got, copy=True)
            got[0] += 1
            self._corrupt = False
        self._count(sent, done, np.array_equal(got, want), mismatch=True)

    def check_class(self, sent: int, done: int, got, classes: int) -> None:
        """A read served while recovery runs: any class index is right."""
        if self._corrupt:
            got = [got[0] + classes] if got else got
            self._corrupt = False
        right = (isinstance(got, list) and len(got) == 1
                 and 0 <= got[0] < classes)
        self._count(sent, done, right, mismatch=True)

    def _count(self, sent: int, done: int, ok: bool,
               mismatch: bool = False) -> None:
        self.attempted += 1
        self.samples.append((sent, done, int(ok)))
        if not ok:
            self.failed += 1
            self.mismatched += int(mismatch)


@dataclass
class Window:
    """The measured window: its start and end (monotonic ns), the server's
    CPU snapshot at each, and the server-side counters at each."""

    start: int
    end: int
    cpu: tuple[dict, dict]
    marks: tuple[dict, dict]


async def timed_window(server, warmup_s: float, seconds: float) -> Window:
    """Warm up, then measure ``seconds``."""
    await asyncio.sleep(warmup_s)
    start = time.monotonic_ns()
    cpu0 = server.cpu()
    mark0 = await asyncio.to_thread(server.call, cmd="mark")
    await asyncio.sleep(max(0, start + int(seconds * 1e9)
                            - time.monotonic_ns()) / 1e9)
    cpu1 = server.cpu()
    end = time.monotonic_ns()
    mark1 = await asyncio.to_thread(server.call, cmd="mark")
    return Window(start, end, (cpu0, cpu1), (mark0, mark1))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.sizes = sizes
        self.data_seed = int(np.random.default_rng(seed).integers(1 << 31))

    def server_spec(self) -> dict:
        raise NotImplementedError

    def encoded_shapes(self) -> dict[str, int]:
        """Rows per feature request the worker encodes, by metric key."""
        return {}

    def feature_rows(self, count: int) -> np.ndarray:
        rows = self.pool_x
        return np.resize(rows, (count, rows.shape[1]))

    def server_data(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def probe(self, server) -> bool:
        """One request on a fresh server; True when the reply is right."""
        raise NotImplementedError

    async def load(self, server, seconds: float, tally: Tally) -> dict:
        raise NotImplementedError

    def verify(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """Checks made after the load: (requests checked, failed, problems)."""
        return 0, 0, []


class _TcpWorkload(Workload):
    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        data = make_prototype_classification(
            name="tcp", num_features=TCP_FEATURES, num_classes=TCP_CLASSES,
            num_train=TCP_CLASSES * sizes.train_per_class,
            num_test=sizes.pool_rows, seed=self.data_seed,
        )
        self.train = {"train_x": data.train_x, "train_y": data.train_y}
        self.pool_x = data.test_x
        self.classifier = fit_tcp_classifier(self.train, sizes.dim)
        self.encoded = self.classifier.encoder.encode_packed(self.pool_x)
        self.expected = self.classifier.model.predict(self.encoded)

    def server_data(self) -> dict[str, np.ndarray]:
        return self.train

    def _requests(self, payload: np.ndarray) -> list[np.ndarray]:
        return [payload[i:i + ROWS_PER_REQUEST]
                for i in range(0, len(payload), ROWS_PER_REQUEST)]


class TcpSingle(_TcpWorkload):
    name = "tcp_single"
    why = ("one 8-row PACKED frame per request, 128 in flight on one "
           "connection: the per-request serve path, nothing encoded")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.payloads = self._requests(self.encoded.words)
        self.want = self._requests(self.expected)

    def server_spec(self) -> dict:
        return {"ring_slots": 256, "max_queries_per_request": ROWS_PER_REQUEST}

    def probe(self, server) -> bool:
        from repro.serve.client import GatewayClient

        with GatewayClient(HOST, server.port) as client:
            return np.array_equal(client.predict(self.payloads[0]),
                                  self.want[0])

    async def load(self, server, seconds, tally):
        client = await AsyncGatewayClient.connect(HOST, server.port)
        running = [True]

        async def closed_loop(first: int) -> None:
            j = first
            while running[0]:
                i = j % len(self.payloads)
                j += SINGLE_IN_FLIGHT
                sent = time.monotonic_ns()
                try:
                    got = await client.predict(self.payloads[i])
                except (GatewayRejected, GatewayError):
                    tally.fail(sent)
                    continue
                tally.check(sent, time.monotonic_ns(), got, self.want[i])

        tasks = [asyncio.create_task(closed_loop(k))
                 for k in range(SINGLE_IN_FLIGHT)]
        try:
            window = await timed_window(server, self.sizes.warmup_s, seconds)
        finally:
            running[0] = False
            await asyncio.gather(*tasks)
            await client.close()
        return {"window": window}


class TcpBatchFeatures(_TcpWorkload):
    name = "tcp_batch_features"
    why = ("SUBMIT_BATCH frames of 32 requests x 8 feature rows, 4 frames "
           "in flight on one credited connection: encoding-bound worker")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        rows = BATCH_REQUESTS * ROWS_PER_REQUEST
        self.frames = [self._requests(self.pool_x[i:i + rows])
                       for i in range(0, len(self.pool_x), rows)]
        self.want = [self._requests(self.expected[i:i + rows])
                     for i in range(0, len(self.expected), rows)]

    def encoded_shapes(self) -> dict[str, int]:
        return {"encode_batch": BATCH_REQUESTS * ROWS_PER_REQUEST}

    def server_spec(self) -> dict:
        window = BATCH_REQUESTS * BATCH_FRAMES_IN_FLIGHT
        return {"ring_slots": window, "connection_window": window,
                "max_queries_per_request": BATCH_REQUESTS * ROWS_PER_REQUEST}

    def probe(self, server) -> bool:
        from repro.serve.client import GatewayClient

        with GatewayClient(HOST, server.port) as client:
            got = client.predict(self.frames[0][0], features=True)
            return np.array_equal(got, self.want[0][0])

    async def load(self, server, seconds, tally):
        client = await AsyncGatewayClient.connect(HOST, server.port,
                                                  credited=True)
        if client.window < BATCH_REQUESTS * BATCH_FRAMES_IN_FLIGHT:
            raise RuntimeError(f"credit window {client.window} < "
                               f"{BATCH_REQUESTS * BATCH_FRAMES_IN_FLIGHT}")
        running = [True]

        async def closed_loop(first: int) -> None:
            j = first
            while running[0]:
                f = j % len(self.frames)
                j += BATCH_FRAMES_IN_FLIGHT
                sent = time.monotonic_ns()
                replies = await client.submit_batch(
                    self.frames[f], features=True, return_exceptions=True
                )
                done = time.monotonic_ns()
                for got, want in zip(replies, self.want[f]):
                    if isinstance(got, (GatewayRejected, GatewayError)):
                        tally.fail(sent)
                    else:
                        tally.check(sent, done, got, want)

        tasks = [asyncio.create_task(closed_loop(k))
                 for k in range(BATCH_FRAMES_IN_FLIGHT)]
        try:
            window = await timed_window(server, self.sizes.warmup_s, seconds)
        finally:
            running[0] = False
            await asyncio.gather(*tasks)
            await client.close()
        return {"window": window}


def _http_request(row: np.ndarray) -> bytes:
    body = json.dumps({"features": [row.tolist()]}).encode()
    head = (f"POST /v1/predict HTTP/1.1\r\nHost: {HOST}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    return head + body


async def _http_reply(reader) -> tuple[int, dict]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


class RecoverUnderLoad(Workload):
    name = "recover_under_load"
    why = ("recovery writer running a fixed schedule of damage episodes, "
           "publishing repaired generations beside 50/s open-loop HTTP "
           "reads; throughput_rps is its stream queries/s")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        # The ucihar stand-in is one fixed task and the episode schedule
        # is fixed (EPISODE_BASE); the seed picks which rows the reads send.
        data = load("ucihar", sizes.ucihar_train, sizes.ucihar_test)
        self.data = {"train_x": data.train_x, "train_y": data.train_y,
                     "test_x": data.test_x, "test_y": data.test_y}
        rows = np.random.default_rng(self.data_seed).choice(
            data.num_test, sizes.read_rows, replace=False)
        self.pool_x = data.test_x[rows]
        self.requests = [_http_request(row) for row in self.pool_x]
        self.num_classes = data.num_classes
        self.experiment = make_experiment(self.data, sizes.dim)
        self.classifier = self.experiment.classifier
        self.encoded = self.experiment.encoder.encode_packed(self.pool_x)
        self.clean = self.experiment.model.predict(self.encoded)

    def encoded_shapes(self) -> dict[str, int]:
        return {"encode_single": 1}

    def server_spec(self) -> dict:
        return {"ring_slots": 16, "max_queries_per_request": 1,
                "http": True, "episode_base": EPISODE_BASE}

    def server_data(self) -> dict[str, np.ndarray]:
        return self.data

    def probe(self, server) -> bool:
        async def first_read() -> tuple[int, dict]:
            reader, writer = await asyncio.open_connection(
                HOST, server.http_port)
            try:
                writer.write(self.requests[0])
                await writer.drain()
                return await _http_reply(reader)
            finally:
                writer.close()

        status, body = asyncio.run(first_read())
        return status == 200 and body["predictions"] == [int(self.clean[0])]

    async def load(self, server, seconds, tally):
        conns = [await asyncio.open_connection(HOST, server.http_port)
                 for _ in range(READ_CONNECTIONS)]
        for _, writer in conns:
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        period = 1e9 / READ_RATE
        await asyncio.to_thread(server.call, cmd="writer_start")
        first_due = time.monotonic_ns()
        stop_at = [None]
        lateness = [0]
        sends: list[tuple[int, int, int, int]] = []  # due, sent, done, status

        async def read(reader, writer, i: int) -> tuple[int, dict]:
            writer.write(self.requests[i % len(self.requests)])
            await writer.drain()
            return await _http_reply(reader)

        async def open_loop(c: int) -> None:
            reader, writer = conns[c]
            i = c
            while True:
                due = first_due + int(i * period)
                if stop_at[0] is not None and due >= stop_at[0]:
                    return
                delay = due - time.monotonic_ns()
                if delay > 0:
                    await asyncio.sleep(delay / 1e9)
                sent = time.monotonic_ns()
                lateness[0] = max(lateness[0], sent - due)
                status, body = await read(reader, writer, i)
                done = time.monotonic_ns()
                sends.append((due, sent, done, status))
                if status == 200:
                    tally.check_class(due, done, body.get("predictions"),
                                      self.num_classes)
                else:
                    tally.fail(due)
                i += READ_CONNECTIONS

        tasks = [asyncio.create_task(open_loop(c))
                 for c in range(READ_CONNECTIONS)]
        try:
            window = await timed_window(server, self.sizes.warmup_s, seconds)
            stop_at[0] = window.end
            await asyncio.gather(*tasks)
            episodes = await asyncio.to_thread(server.call, cmd="writer_stop")
            # The writer has settled: these reads must match the replay.
            reader, writer = conns[0]
            settled = []
            for i in range(SETTLE_READS):
                status, body = await read(reader, writer, i)
                settled.append(body.get("predictions", [None])[0]
                               if status == 200 else None)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for _, writer in conns:
                writer.close()
        return {"window": window, "episodes": episodes["episodes"],
                "settled": settled, "lateness_ns": lateness[0],
                "sends": sends}

    def verify(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """Replay every episode the server ran, sequentially in process.

        Each episode's summary (accuracy trace, final model digest,
        recovery counts) must equal the replay's, and the reads made after
        the writer settled must equal the predictions of the generation it
        published last.
        """
        runner = EpisodeRunner(self.experiment)
        replayed: dict[int, tuple[dict, HDCModel]] = {}
        problems: list[str] = []
        checked = failed = 0
        for out in passes:
            # Every episode publishes after its first block (and after
            # each block that repaired something), so readers end on the
            # last episode's final model.
            served = self.experiment.model
            for episode in out["episodes"]:
                seed = episode["seed"]
                if seed not in replayed:
                    replayed[seed] = (runner.run(seed), runner.final_model)
                summary, served = replayed[seed]
                got = {k: episode[k] for k in summary}
                if got != summary:
                    problems.append(f"episode seed {seed}: server {got} != "
                                    f"replay {summary}")
            want = served.predict(self.encoded)
            bad = [i for i, got in enumerate(out["settled"])
                   if got != int(want[i])]
            checked += len(out["settled"])
            failed += len(bad)
            if bad:
                problems.append(f"settled reads {bad} differ from the last "
                                "published generation")
        return checked, failed, problems


WORKLOADS = {w.name: w for w in (TcpSingle, TcpBatchFeatures,
                                 RecoverUnderLoad)}

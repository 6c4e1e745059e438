"""Repository benchmark: three serving workloads against a fresh server.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see :mod:`workloads`): ``tcp_single``, ``tcp_batch_features``,
``recover_under_load``.  Every input is made from ``--seed``.  Each server
is engine plus gateway with one worker, started in its own interpreter
(``server.py``); load comes from this process, one asyncio loop and at
most two connections.  Every reply is checked against an in-process
reference; recovery episodes are checked against a sequential replay.

``--trace 0`` measures set-up (the median of several fresh starts) and
one untraced window, and prints the end-to-end metrics.  ``--trace 1``
runs the same untraced pass, then a traced server and load generator
(spans around each layer's public calls), and prints the per-layer
metrics, the tracing overhead of every end-to-end metric and the
per-request server CPU waterfall.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the run writes goes under ``.bench_build/`` in the checkout,
including the native-kernel cache (``TMPDIR``).  The process exits 2
without a result when the repository sources are missing, and 1 when a
check failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import (END_TO_END, PER_LAYER, UNITS, WATERFALL, measure_shapes,
                    overhead_pct, per_layer, tail)
from tracing import SpanLog, Spans, install_client

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int, tid: int | None = None) -> float:
    """CPU seconds of one thread, or of every live thread of a process,
    from /proc schedstat (nanosecond resolution)."""
    tids = [tid] if tid else os.listdir(f"/proc/{pid}/task")
    total = 0
    for t in tids:
        try:
            stat = Path(f"/proc/{pid}/task/{t}/schedstat").read_text()
        except FileNotFoundError:
            continue  # the thread ended between listing and reading
        total += int(stat.split()[0])
    return total / 1e9


class Server:
    """One ``server.py`` process and its JSON-lines control channel."""

    def __init__(self, run_dir: Path, spec: Path, tag: str,
                 spans: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "server.py"), str(spec)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.log_path = run_dir / f"server-{tag}.log"
        self._log = open(self.log_path, "w")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launched = time.monotonic_ns()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, env=env, start_new_session=True,
        )
        try:
            hello = self._reply()
        except BaseException:
            self.close()
            raise
        self.port = hello["port"]
        self.http_port = hello["http_port"]
        self.worker_pids = hello["worker_pids"]
        self.writer_tid = 0

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited; see {self.log_path}")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if reply.get("error"):
            raise RuntimeError(f"server: {reply['error']}")
        if cmd["cmd"] == "writer_start":
            self.writer_tid = reply["tid"]
        return reply

    def cpu(self) -> dict[str, float]:
        """CPU seconds of the server process, its workers and the writer
        thread, plus the host's steal and total CPU time (/proc/stat), so
        each record says how contended the host was."""
        pid = self.proc.pid
        host = [int(x) for x in
                Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        return {
            "server": _cpu_s(pid),
            "workers": sum(_cpu_s(w) for w in self.worker_pids),
            "writer": _cpu_s(pid, self.writer_tid) if self.writer_tid else 0.0,
            "host_steal": host[7] / CLOCK_TICKS,
            "host_total": sum(host) / CLOCK_TICKS,
        }

    def close(self) -> None:
        """Stop the server and wait until it and its workers have ended."""
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                    self.proc.stdin.close()
                    self.proc.wait(timeout=60)
                except (BrokenPipeError, subprocess.TimeoutExpired):
                    self._kill_group(signal.SIGTERM, 10)
                    self._kill_group(signal.SIGKILL, 10)
            deadline = time.monotonic() + 10
            while (any(Path(f"/proc/{w}").exists()
                       for w in getattr(self, "worker_pids", ()))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        finally:
            self.proc.stdout.close()
            self._log.close()

    def _kill_group(self, sig: int, timeout: float) -> None:
        if self.proc.poll() is not None:
            return
        try:
            os.killpg(self.proc.pid, sig)
            self.proc.wait(timeout=timeout)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass


def start_server(workload, run_dir, spec, tag, spans=None):
    """Launch a server and time it to its first correct reply."""
    server = Server(run_dir, spec, tag, spans)
    try:
        correct = workload.probe(server)
    except BaseException:
        server.close()
        raise
    return server, (time.monotonic_ns() - server.launched) / 1e9, correct


def timed_pass(workload, server, seconds, tally, client_log=None) -> dict:
    if client_log is not None:
        install_client(client_log)
    try:
        out = asyncio.run(workload.load(server, seconds, tally))
    finally:
        if client_log is not None:
            client_log.undo()
    window = out["window"]
    out["worker"] = server.call(cmd="events",
                                lo=window.marks[0]["events"],
                                hi=window.marks[1]["events"])
    out["shed"] = window.marks[1]["shed"] - window.marks[0]["shed"]
    return out


def _serve_cpu(before: dict, after: dict) -> float:
    """Serving CPU seconds between two snapshots: the server process and
    its workers, less the recovery writer thread (recovery work is
    reported through recover throughput instead)."""
    return ((after["server"] - before["server"])
            - (after["writer"] - before["writer"])
            + (after["workers"] - before["workers"]))


def end_to_end(out, tally, setup_s) -> tuple[dict, dict]:
    """The gated metrics of one pass, plus the ungated detail.

    Each is taken over the whole window: requests completed in it per
    second, the 90th percentile round trip of the requests started in it,
    and the serving CPU spent in it per completed request.  Not medians
    of one-second buckets: on tcp_single the server's CPU per request
    grows with the requests it has served, so its rate falls several-fold
    within a window along an erratic course; over five runs of the same
    code the bucket median spread 26% where the whole-window rate spread
    8%.  The gated latency is p90, not the median: recover_under_load's
    read latencies fall in two modes about 3 ms apart, and its median sat
    between them and moved 20% between runs of the same code where p90
    moved 5%.
    """
    w = out["window"]
    samples = np.array(tally.samples, dtype=np.int64).reshape(-1, 3)
    ok = samples[samples[:, 2] == 1]
    window_s = (w.end - w.start) / 1e9
    latency_ms = (ok[:, 1] - ok[:, 0]) / 1e6
    latency_ms = latency_ms[(ok[:, 0] >= w.start) & (ok[:, 0] < w.end)]
    completed = int(np.count_nonzero((ok[:, 1] >= w.start)
                                     & (ok[:, 1] < w.end)))
    if "episodes" in out:
        counted = [e for e in out["episodes"] if w.start <= e["end"] < w.end]
        if not counted:
            raise RuntimeError("no recovery episode ended inside the window")
        busy = sum(e["end"] - e["start"] for e in counted) / 1e9
        throughput = sum(e["queries"] for e in counted) / busy
    else:
        throughput = completed / window_s
    first, last = w.cpu
    p90, beyond90 = tail(latency_ms, 90)
    p99, beyond99 = tail(latency_ms, 99)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": throughput,
        "latency_p90_ms": p90,
        "server_cpu_us_per_req":
            _serve_cpu(first, last) * 1e6 / max(1, completed),
    }
    detail = {
        "completed": completed,
        "latency_samples": len(latency_ms),
        "latency_p50_ms":
            float(np.median(latency_ms)) if len(latency_ms) else 0.0,
        "beyond_p90": beyond90,
        "latency_p99_ms": p99, "beyond_p99": beyond99,
        "steal": ((last["host_steal"] - first["host_steal"])
                  / max(1e-9, last["host_total"] - first["host_total"])),
    }
    if "episodes" in out:
        detail["episodes_in_window"] = len(counted)
        detail["recover_qps"] = throughput
        detail["generator_max_late_ms"] = out["lateness_ns"] / 1e6
    return metrics, detail


def host_record(seed: int, backend: str) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "kernel_backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "host": platform.node(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test")
    parser.add_argument("--corrupt-reply", action="store_true",
                        help="alter the first reply before it is checked "
                             "(self-test of the correctness gate)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repository sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # the native kernel cache lives here

    # Only importable once the sources are on the path.
    from repro.core import kernels
    from workloads import FULL, SMOKE, WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    # Compile (or find) the host's native kernel before any server starts:
    # users pay that once per host, not once per start.
    record = host_record(args.seed, kernels.active_backend().name)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(record))

    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload](args.seed, sizes)
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    np.savez(run_dir / "data.npz", **workload.server_data())
    spec = run_dir / "spec.json"
    spec.write_text(json.dumps({
        "workload": args.workload, "data": str(run_dir / "data.npz"),
        "dim": sizes.dim, **workload.server_spec(),
    }))

    problems: list[str] = []
    setups: list[float] = []
    server = None
    try:
        for k in range(sizes.setups):
            server, seconds, correct = start_server(workload, run_dir, spec,
                                                    f"setup{k}")
            setups.append(seconds)
            if not correct:
                problems.append(f"setup {k}: first reply is wrong")
            if k < sizes.setups - 1:
                server.close()
        tally = Tally(corrupt=args.corrupt_reply)
        passes = [timed_pass(workload, server, args.seconds, tally)]
        server.close()
        server = None
        setup_s = statistics.median(setups)
        e2e, detail = end_to_end(passes[0], tally, setup_s)
        attempted, failed = tally.attempted, tally.failed

        if args.trace:
            spans_path = run_dir / "spans.npy"
            server, traced_setup, correct = start_server(
                workload, run_dir, spec, "traced", spans_path)
            if not correct:
                problems.append("traced setup: first reply is wrong")
            traced_tally = Tally()
            client_log = SpanLog()
            passes.append(timed_pass(workload, server, args.seconds,
                                     traced_tally, client_log))
            server.close()
            server = None
            traced_e2e, traced_detail = end_to_end(
                passes[1], traced_tally, traced_setup)
            attempted += traced_tally.attempted
            failed += traced_tally.failed
    finally:
        if server is not None:
            server.close()

    checked, check_failed, check_problems = workload.verify(passes)
    attempted += checked
    failed += check_failed
    problems += check_problems
    mismatched = tally.mismatched + (traced_tally.mismatched
                                     if args.trace else 0)
    if mismatched:
        problems.append(f"{mismatched} replies differ from the reference")

    print(f"setup_s runs: {' '.join(_fmt(s) for s in setups)}")
    for name, *_ in END_TO_END:
        print(f"{name} {_fmt(e2e[name])} {UNITS[name]}")
    print(f"latency_p50_ms {_fmt(detail['latency_p50_ms'])} ms (ungated)")
    print(f"latency p90 {_fmt(e2e['latency_p90_ms'])} ms "
          f"({detail['beyond_p90']} beyond), p99 "
          f"{_fmt(detail['latency_p99_ms'])} ms ({detail['beyond_p99']} "
          f"beyond), of {detail['latency_samples']} samples")
    if "recover_qps" in detail:
        print(f"recover_qps {_fmt(detail['recover_qps'])} 1/s over "
              f"{detail['episodes_in_window']} episodes; read generator "
              f"max late {_fmt(detail['generator_max_late_ms'])} ms")
    print(f"requests attempted={attempted} ok={attempted - failed} "
          f"failed={failed}; cpu steal in window {100 * detail['steal']:.1f}%")

    if args.trace:
        server_spans = Spans.load(spans_path)
        client_spans = Spans.of(client_log)
        traced = passes[1]
        window = traced["window"]
        worker = dict(traced["worker"])
        worker["cpu_s"] = window.cpu[-1]["workers"] - window.cpu[0]["workers"]
        sends = [(sent, done, status)
                 for _, sent, done, status in traced.get("sends", ())
                 if window.start <= done < window.end]
        reads = np.array([(sent, done) for sent, done, status in sends
                          if status == 200], dtype=np.int64).reshape(-1, 2)
        rows = max(1, round(worker["queries"] / max(1, worker["batches"])))
        metrics = per_layer(
            window=(window.start, window.end),
            requests=traced_detail["completed"],
            server=server_spans, client=client_spans, worker=worker,
            shed=traced["shed"], reads=reads,
            non_200=sum(1 for *_, status in sends if status != 200),
            episodes=traced.get("episodes", []),
            shapes=measure_shapes(workload, rows),
            traced_cpu_us=traced_e2e["server_cpu_us_per_req"],
        )
        for name, *_ in END_TO_END:
            metrics[f"overhead.{name}"] = overhead_pct(
                name, traced_e2e[name], e2e[name])
        print("traced " + " ".join(f"{name}={_fmt(traced_e2e[name])}"
                                   for name, *_ in END_TO_END))
        print("cpu waterfall (us/req): " + " + ".join(
            f"{name}={_fmt(metrics[name])}"
            for name in WATERFALL + ("waterfall.unattributed_us_per_req",))
              + " = traced window's server_cpu_us_per_req "
              + _fmt(metrics["waterfall.server_cpu_us_per_req"]))
        for name, unit, _ in PER_LAYER:
            print(f"{name} {_fmt(metrics[name])} {unit}")
        names = [name for name, *_ in PER_LAYER]
    else:
        metrics = e2e
        names = [name for name, *_ in END_TO_END]

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"run files kept in {run_dir}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": UNITS[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

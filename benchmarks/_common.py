"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` regenerates one paper table or figure through the
corresponding :mod:`repro.experiments` module, times it with
pytest-benchmark (single round — these are experiments, not microbenches)
and writes the rendered table next to the timing data under
``benchmarks/results/`` so the numbers that back EXPERIMENTS.md are
inspectable after every run.

The scale is selected with the ``REPRO_BENCH_SCALE`` environment variable
(``smoke`` / ``default`` / ``full``); the committed EXPERIMENTS.md values
come from ``default``.

The script benchmarks that write a root ``BENCH_*.json`` record start it
with :func:`host` and emit it with :func:`write_record`; their
sequential reference runs publish into a :class:`Recorder`.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.core import kernels

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Scale preset for the benchmark run."""
    return os.environ.get("REPRO_BENCH_SCALE", "default")


def run_and_record(benchmark, name: str, run_fn, render_fn):
    """Time one experiment run and persist its rendered output."""
    result = benchmark.pedantic(run_fn, rounds=1, iterations=1)
    text = render_fn(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
    return result


def host() -> dict:
    """The header of every ``BENCH_*.json`` record: the host it ran on."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend().name,
    }


def write_record(results: dict, output: Path | None) -> None:
    """Print a record as JSON, and write it to ``output`` when given."""
    text = json.dumps(results, indent=2)
    print(text)
    if output is not None:
        output.write_text(text + "\n")
        print(f"\nwrote {output}", file=sys.stderr)


class Recorder:
    """In-process model publisher for sequential reference runs: keeps
    the last published packed model words."""

    def __init__(self):
        self.words = None
        self.generation = 0

    def publish(self, model):
        self.words = model.packed().words.copy()
        self.generation += 1
        return self.generation

    def touch(self):
        pass

    def end_writing(self):
        pass

    def predict(self, query_words: np.ndarray) -> np.ndarray:
        """Labels under the last published model (nearest class)."""
        distances = np.bitwise_count(
            self.words[None, :, :] ^ query_words[:, None, :]
        ).sum(axis=2)
        return np.argmin(distances, axis=1).astype(np.int64)

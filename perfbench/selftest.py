"""Self-test of the benchmark at smoke size (about a minute).

Usage::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --smoke`` untraced
and traced, and asserts that each run passes its correctness checks and
prints every end-to-end (untraced) or per-layer (traced) metric of
``BENCHMARK.json``, with its unit, both as a text line and in the final
JSON object.  It then alters one reply (``--corrupt-reply``) and asserts
that the correctness gate fails the run.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *flags: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {flags}: no output\n{proc.stderr}")
    return proc.returncode, lines, json.loads(lines[-1])


def check_metrics(label: str, lines: list[str], result: dict,
                  expected: dict[str, str]) -> None:
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"{label}: metrics {sorted(metrics)} != "
                             f"{sorted(expected)}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {metrics[name]}")
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines):
            raise AssertionError(f"{label}: no '{name} <value> {unit}' line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer"))
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            code, lines, result = run(workload, "--trace", trace)
            if code or not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: exit {code}, "
                                     f"{lines[-3:]}")
            check_metrics(label, lines, result, expected[trace])
            print(f"ok  {label}: {len(expected[trace])} metrics")
        code, lines, result = run(workload, "--trace", "0", "--corrupt-reply")
        if code != 1 or result["correct"] or not result["failed"]:
            raise AssertionError(f"{workload}: a corrupted reply passed "
                                 f"the gate: {result}")
        print(f"ok  {workload} --corrupt-reply: gate tripped")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

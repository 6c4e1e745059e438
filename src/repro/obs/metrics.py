"""Zero-dependency metrics substrate for the recovery stack.

The serving and recovery hot paths are instrumented with *named*
counters, gauges, histograms and monotonic-clock timers.  By default the
installed registry is a :class:`NullMetrics` whose recording methods are
empty — un-instrumented callers pay a dict-free no-op method call per
*batch* operation, which is unmeasurable next to the batch itself
(``benchmarks/bench_obs.py`` pins the overhead).  Enabling collection is
one call::

    from repro.obs import enable_metrics

    registry = enable_metrics()
    ...serve traffic...
    print(registry.render())

Design rules:

* instrumentation sits at *batch* granularity (one predict call, one
  recovery block), never per query or per bit;
* recording never touches any random-number generator, so metrics on
  vs off is bit-identical for every seeded run (tested in
  ``tests/obs/test_metrics.py``);
* the registry is plain Python data — ``snapshot()`` returns JSON-able
  dicts, ``render()`` formats them through :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "current",
    "disable_metrics",
    "enable_metrics",
    "set_metrics",
    "use_metrics",
]

# Raw samples kept per histogram for percentile estimates; aggregates
# (count/sum/min/max) keep updating after the cap so totals stay exact.
_MAX_SAMPLES = 4096

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mix (splitmix64) of an integer counter."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Histogram:
    """Streaming value distribution: exact aggregates + reservoir samples.

    Percentiles come from a bounded reservoir that stays a uniform-ish
    sample of the *whole* stream (Algorithm R), not just its first
    ``_MAX_SAMPLES`` values — long-run percentiles reflect steady state,
    not warm-up.  The reservoir index is derived from the running sample
    count through a fixed integer mix, so recording still never touches
    any random-number generator (the bit-identity guarantee).
    """

    __slots__ = ("count", "total", "min", "max", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < _MAX_SAMPLES:
            self.samples.append(value)
        else:
            # Algorithm R with a counter-seeded deterministic stream:
            # keep the n-th sample with probability cap/n.
            slot = _splitmix64(self.count) % self.count
            if slot < _MAX_SAMPLES:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (from the retained samples)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> dict:
        # Empty histograms report min/max as None (JSON null) — never
        # +/-inf, which strict JSON readers reject.
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Named counters, gauges, histograms and timers.

    Names are free-form dotted strings (``"recovery.queries"``); the
    instrumented modules document theirs in the README/DESIGN
    "Observability" reference table.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block on the monotonic clock into histogram
        ``name`` (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading -------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> dict:
        """JSON-able view of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.summary() for name, h in self.histograms.items()
            },
        }

    def render(self) -> str:
        """All metrics as fixed-width text tables."""
        # Deferred: repro.analysis pulls in repro.core, which imports this
        # module for its instrumentation hooks.
        from repro.analysis.tables import render_table

        sections = []
        if self.counters:
            sections.append(render_table(
                ["counter", "value"],
                [[k, f"{v:g}"] for k, v in sorted(self.counters.items())],
                title="Counters",
            ))
        if self.gauges:
            sections.append(render_table(
                ["gauge", "value"],
                [[k, f"{v:g}"] for k, v in sorted(self.gauges.items())],
                title="Gauges",
            ))
        if self.histograms:
            sections.append(render_table(
                ["histogram", "count", "mean", "p50", "p95", "max"],
                [
                    [k, s["count"], f"{s['mean']:.3g}", f"{s['p50']:.3g}",
                     f"{s['p95']:.3g}",
                     "" if s["max"] is None else f"{s['max']:.3g}"]
                    for k, s in sorted(
                        (k, h.summary()) for k, h in self.histograms.items()
                    )
                ],
                title="Histograms",
            ))
        return "\n\n".join(sections) if sections else "(no metrics recorded)"

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_NULL_CONTEXT = nullcontext()


class NullMetrics(MetricsRegistry):
    """The default registry: every recording method is a no-op.

    Un-instrumented deployments keep this installed; the hot paths then
    pay one attribute lookup and one empty call per batch operation.
    """

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:  # noqa: ARG002
        pass

    def gauge(self, name: str, value: float) -> None:  # noqa: ARG002
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: ARG002
        pass

    def timer(self, name: str):  # noqa: ARG002 - shared reusable no-op
        return _NULL_CONTEXT


_NULL = NullMetrics()
_current: MetricsRegistry = _NULL


def current() -> MetricsRegistry:
    """The registry instrumented code records into right now."""
    return _current


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _current
    previous = _current
    _current = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh recording registry."""
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


def disable_metrics() -> None:
    """Reinstall the shared no-op registry."""
    set_metrics(_NULL)


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped installation: restores the previous registry on exit."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)

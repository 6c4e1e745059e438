"""The adaptive adversary: attack, watch the recovery publish, re-aim.

RobustHD's recovery loop publishes every repaired model generation to
the serving tier (:class:`~repro.core.recovery.ModelPublisher`).  That
stream is observable — any co-tenant reader of the generation store, or
anyone timing version adoption, can diff consecutive generations and
learn exactly which (class, chunk) cells the defender just repaired.
This module weaponises that leak and measures whether it matters:

* :class:`PublishProbe` is a :class:`ModelPublisher` that records what
  an attacker in that position sees: one packed-word XOR delta per
  publish.  It can wrap a real publisher (the gateway scenario) or stand
  alone (the offline scenarios); recovery results are bit-identical
  either way because probing only *reads* the version-stamped packed
  cache.

* :class:`AdaptiveAdversary` turns the deltas into a decayed per-cell
  *heat* map (fresh repairs glow brightest) and aims each strike's fault
  budget at the hottest cells — the bits the defender just spent effort
  restoring.  With nothing observed it degrades to a uniform random
  strike, which doubles as the blind-attacker control.

* :func:`run_adaptive_scenario` interleaves strikes with the standard
  :meth:`~repro.core.pipeline.RecoveryExperiment.attack_and_recover`
  pass structure and scores accuracy after every pass, producing the
  three comparable trajectories the campaign reports: ``static`` (the
  paper's setting — one attack, then recovery), ``adaptive`` (strikes
  re-aimed between passes), and ``adaptive-no-recovery`` (same strike
  cadence and budget, recovery off — so the recovery-on/off comparison
  holds the attacker fixed).

Everything is seeded; same (experiment, scenario, seed) → bit-identical
trajectories run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import HDCModel
from repro.core.packed import PackedHypervectors, packed_backend_enabled, unpack
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import (
    ModelPublisher,
    RecoveryConfig,
    RobustHDRecovery,
)
from repro.faults.api import FaultMask, attack
from repro.faults.bitflip import num_bits_to_flip
from repro.obs.trace import CampaignEvent, CampaignTrace, RecoveryTrace

__all__ = [
    "AdaptiveAdversary",
    "AdaptiveOutcome",
    "PublishProbe",
    "SCENARIOS",
    "StrikeReport",
    "run_adaptive_scenario",
]

SCENARIOS = ("static", "adaptive", "adaptive-no-recovery")


class PublishProbe:
    """A :class:`ModelPublisher` recording what an observer would see.

    Each :meth:`publish` snapshots the packed model words and stores the
    XOR delta against the previous snapshot — exactly the information an
    attacker diffing consecutive published generations obtains.  Calls
    are forwarded to ``inner`` (when given), so the probe can sit
    between a recovery writer and a live serving publisher without
    changing what either sees.

    :meth:`prime` seeds the baseline snapshot (typically the attacked
    model before recovery starts) so the first publish's delta is
    meaningful.
    """

    def __init__(self, inner: ModelPublisher | None = None) -> None:
        self.inner = inner
        self.publishes = 0
        self.touches = 0
        self.deltas: list[np.ndarray] = []
        self._dim: int | None = None
        self._last_words: np.ndarray | None = None

    def prime(self, model: HDCModel) -> None:
        """Set the baseline snapshot without recording a publish."""
        packed = model.packed()
        self._last_words = packed.words.copy()
        self._dim = packed.dim

    def publish(self, model: HDCModel) -> int:
        packed = model.packed()
        words = packed.words.copy()
        if self._last_words is not None:
            self.deltas.append(np.bitwise_xor(self._last_words, words))
        self._last_words = words
        self._dim = packed.dim
        self.publishes += 1
        if self.inner is not None:
            generation = self.inner.publish(model)
            if generation is not None:
                return generation
        return self.publishes

    def touch(self) -> None:
        self.touches += 1
        if self.inner is not None:
            self.inner.touch()

    def end_writing(self) -> None:
        end_writing = getattr(self.inner, "end_writing", None)
        if end_writing is not None:
            end_writing()

    @property
    def dim(self) -> int | None:
        return self._dim


@dataclass(frozen=True)
class StrikeReport:
    """One adaptive strike: the injected mask plus targeting accounting.

    ``targeted_bits`` counts injected bits aimed by observation heat;
    the remainder (``mask.num_faults - targeted_bits``) fell back to
    uniform sampling because nothing (or not enough) was observed.
    ``hot_cells`` is how many (class, chunk) cells carried heat when the
    strike was aimed.
    """

    mask: FaultMask
    targeted_bits: int
    hot_cells: int

    @property
    def injected_bits(self) -> int:
        return int(self.mask.num_faults)


class AdaptiveAdversary:
    """Aims fault budgets at the cells recovery was just seen repairing.

    Parameters
    ----------
    rate:
        Fraction of the model's bits injected per strike (same scale as
        the injector API's ``rate``).
    num_chunks:
        Targeting granularity ``m`` — use the defender's recovery
        geometry: repairs happen per (class, chunk) cell, so that is the
        natural resolution of the leak.
    decay:
        Multiplier applied to accumulated heat per :meth:`observe` call;
        1.0 never forgets, 0.0 only ever aims at the latest observation
        window.
    seed:
        Seed for every sampling decision (cell allocation and
        within-cell offsets).
    """

    def __init__(
        self,
        *,
        rate: float = 0.02,
        num_chunks: int = 20,
        decay: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {decay}")
        self.rate = rate
        self.num_chunks = num_chunks
        self.decay = decay
        self.rng = np.random.default_rng(seed)
        self.heat: np.ndarray | None = None  # (k, m) float
        self._consumed = 0

    def observe(self, probe: PublishProbe) -> int:
        """Fold the probe's unconsumed publish deltas into the heat map.

        Returns how many new deltas were consumed.  Each delta's changed
        bits are counted per (class, chunk) cell; existing heat decays
        by ``decay`` first, so the freshest repairs dominate the aim.
        """
        new = probe.deltas[self._consumed:]
        self._consumed = len(probe.deltas)
        if probe.dim is not None and probe.dim % self.num_chunks != 0:
            raise ValueError(
                f"observed dim {probe.dim} is not divisible by "
                f"num_chunks {self.num_chunks}"
            )
        if self.heat is not None:
            self.heat *= self.decay
        for delta in new:
            k = delta.shape[0]
            changed = unpack(
                PackedHypervectors(words=delta, dim=probe.dim, single=False)
            )
            counts = changed.reshape(k, self.num_chunks, -1).sum(
                axis=2, dtype=np.int64
            )
            if self.heat is None:
                self.heat = np.zeros((k, self.num_chunks), dtype=np.float64)
            self.heat += counts
        return len(new)

    def strike(self, model: HDCModel) -> StrikeReport:
        """Inject one strike into ``model`` in place (via the mask's
        :meth:`~repro.faults.api.FaultMask.apply`, so the packed serving
        cache is invalidated like any other fault).

        The budget (``round(rate * total_bits)``) is allocated across
        (class, chunk) cells proportionally to heat — a seeded
        multinomial draw, capped at each cell's capacity with the spill
        re-sampled uniformly — and uniformly when no heat exists.
        """
        if model.bits != 1:
            raise ValueError("the adaptive adversary targets 1-bit models")
        if model.dim % self.num_chunks != 0:
            raise ValueError(
                f"model dim {model.dim} is not divisible by num_chunks "
                f"{self.num_chunks}"
            )
        total = model.total_bits
        budget = num_bits_to_flip(total, self.rate)
        dim = model.dim
        chunk_size = dim // self.num_chunks
        heat = self.heat
        if (
            heat is not None
            and heat.shape != (model.num_classes, self.num_chunks)
        ):
            raise ValueError(
                f"heat geometry {heat.shape} does not match model "
                f"({model.num_classes}, {self.num_chunks})"
            )
        targeted: np.ndarray
        if budget == 0 or heat is None or heat.sum() <= 0.0:
            bits = self.rng.choice(total, size=budget, replace=False)
            report = StrikeReport(
                mask=_strike_mask(model, bits, self.rate),
                targeted_bits=0,
                hot_cells=0,
            )
            report.mask.apply(model)
            return report
        weights = (heat / heat.sum()).ravel()
        alloc = self.rng.multinomial(budget, weights)
        spill = int(np.maximum(alloc - chunk_size, 0).sum())
        alloc = np.minimum(alloc, chunk_size)
        parts: list[np.ndarray] = []
        for cell, count in enumerate(alloc):
            if count == 0:
                continue
            cls, chunk = divmod(cell, self.num_chunks)
            offsets = self.rng.choice(
                chunk_size, size=int(count), replace=False
            )
            parts.append(cls * dim + chunk * chunk_size + offsets)
        chosen = (
            np.sort(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        if spill:
            pool = np.setdiff1d(
                np.arange(total, dtype=np.int64), chosen, assume_unique=False
            )
            extra = self.rng.choice(pool, size=spill, replace=False)
            chosen = np.concatenate([chosen, extra])
        report = StrikeReport(
            mask=_strike_mask(model, chosen, self.rate),
            targeted_bits=int(chosen.shape[0]) - spill,
            hot_cells=int(np.count_nonzero(heat)),
        )
        report.mask.apply(model)
        return report


def _strike_mask(model: HDCModel, bits: np.ndarray, rate: float) -> FaultMask:
    return FaultMask(
        bit_indices=np.asarray(bits, dtype=np.int64),
        shape=model.class_hv.shape,
        bits=model.bits,
        mode="adaptive",
        rate=rate,
    )


@dataclass(frozen=True)
class AdaptiveOutcome:
    """One scenario trajectory: pass-by-pass accuracy plus accounting.

    ``accuracy_trace`` is sampled after every pass (Figure-3 style);
    ``final_accuracy`` is its last entry.  ``initial_bits`` counts the
    up-front attack, ``struck_bits`` the between-pass strikes (of which
    ``targeted_bits`` were aimed by observation), and ``publishes`` how
    many repaired generations the defender announced — the size of the
    leak the adversary fed on.
    """

    scenario: str
    seed: int
    clean_accuracy: float
    attacked_accuracy: float
    final_accuracy: float
    accuracy_trace: tuple[float, ...]
    initial_bits: int
    struck_bits: int
    targeted_bits: int
    strikes: int
    publishes: int
    trace: CampaignTrace
    recovery_trace: RecoveryTrace | None = None
    fault_mask: FaultMask | None = None


def run_adaptive_scenario(
    experiment: RecoveryExperiment,
    *,
    scenario: str,
    error_rate: float,
    config: RecoveryConfig | None = None,
    adversary: AdaptiveAdversary | None = None,
    passes: int = 3,
    seed: int = 0,
    publisher: ModelPublisher | None = None,
    trace: CampaignTrace | None = None,
) -> AdaptiveOutcome:
    """Run one adaptive-adversary scenario against ``experiment``.

    Mirrors :meth:`~repro.core.pipeline.RecoveryExperiment.attack_and_recover`
    stream-for-stream (same seeded initial attack at ``seed``, recovery
    seeded ``seed + 1``, pass shuffles from ``seed + 2``) and adds the
    adversary (seeded ``seed + 3`` by default) striking between passes:

    * ``static`` — no strikes: the paper's one-attack setting.
    * ``adaptive`` — the adversary observes each pass's publish deltas
      and strikes the hottest cells before the next pass.
    * ``adaptive-no-recovery`` — identical strike cadence and budget,
      but recovery is disabled, so nothing publishes, nothing repairs,
      and every strike degrades to its uniform fallback.  Comparing
      against ``adaptive`` holds the attacker fixed and toggles only
      the defence.

    A ``publisher`` (e.g. the serving tier's generation publisher) is
    wrapped by the observation probe, not replaced: live serving sees
    every publish the offline run would have made.
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}"
        )
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    recovery_enabled = scenario != "adaptive-no-recovery"
    striking = scenario != "static"
    config = config or RecoveryConfig()
    if adversary is None:
        adversary = AdaptiveAdversary(
            num_chunks=config.num_chunks, seed=seed + 3
        )
    rng = np.random.default_rng(seed)
    attacked, mask = attack(experiment.model, error_rate, "random", rng)
    attacked_accuracy = experiment.score(attacked)
    probe = PublishProbe(inner=publisher)
    probe.prime(attacked)
    recovery = (
        RobustHDRecovery(attacked, config, seed=seed + 1, publisher=probe)
        if recovery_enabled
        else None
    )
    trace = trace if trace is not None else CampaignTrace()
    order_rng = np.random.default_rng(seed + 2)
    accuracy_trace: list[float] = []
    struck = targeted = strikes = 0
    try:
        for pass_index in range(passes):
            order = order_rng.permutation(experiment.stream_queries.shape[0])
            stream = (
                experiment._stream_packed[order]
                if packed_backend_enabled()
                else experiment.stream_queries[order]
            )
            trusted_before = (
                recovery.trace.queries_trusted if recovery is not None else 0
            )
            repaired_before = (
                recovery.trace.bits_substituted if recovery is not None else 0
            )
            if recovery is not None:
                recovery.process(stream)
            else:
                # Serve the stream without repairing: the model still
                # does the same inference work, it just never writes.
                attacked.predict(stream)
            accuracy = experiment.score(attacked)
            accuracy_trace.append(accuracy)
            trace.record(CampaignEvent(
                index=trace.next_index(),
                kind="adaptive-pass",
                scenario=scenario,
                seed=seed,
                queries=int(len(order)),
                successes=(
                    (recovery.trace.queries_trusted - trusted_before)
                    if recovery is not None else 0
                ),
                bits_flipped=(
                    (recovery.trace.bits_substituted - repaired_before)
                    if recovery is not None else 0
                ),
                accuracy=accuracy,
            ))
            if striking and pass_index < passes - 1:
                adversary.observe(probe)
                report = adversary.strike(attacked)
                strikes += 1
                struck += report.injected_bits
                targeted += report.targeted_bits
                trace.record(CampaignEvent(
                    index=trace.next_index(),
                    kind="strike",
                    scenario=scenario,
                    seed=seed,
                    queries=0,
                    successes=report.targeted_bits,
                    bits_flipped=report.injected_bits,
                    accuracy=None,
                ))
    finally:
        probe.end_writing()
    return AdaptiveOutcome(
        scenario=scenario,
        seed=seed,
        clean_accuracy=experiment.clean_accuracy,
        attacked_accuracy=attacked_accuracy,
        final_accuracy=accuracy_trace[-1],
        accuracy_trace=tuple(accuracy_trace),
        initial_bits=int(mask.num_faults),
        struck_bits=struck,
        targeted_bits=targeted,
        strikes=strikes,
        publishes=probe.publishes,
        trace=trace,
        recovery_trace=recovery.trace if recovery is not None else None,
        fault_mask=mask,
    )

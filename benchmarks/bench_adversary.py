"""Adversarial campaign benchmark: differential testing + adaptive attacks.

Answers the tentpole question with numbers: *does self-recovery help or
hurt when the attacker adapts?*  Three scenarios share one seeded
initial attack and one attacker budget:

* **static** — the paper's setting: one random bit-flip attack, then
  recovery passes (``attack_and_recover`` stream-for-stream);
* **adaptive** — an :class:`~repro.adversary.AdaptiveAdversary` watches
  the recovery loop's generation publishes (the publish-stream leak),
  builds a per-(class, chunk) heat map, and re-aims a fresh fault
  budget at the freshest repaired cells between passes;
* **adaptive-no-recovery** — identical strike cadence and budget, but
  recovery disabled: nothing publishes, so every strike degrades to its
  uniform fallback.  ``adaptive - adaptive-no-recovery`` isolates the
  defence (and its leak) with the attacker held fixed.

On top of the scenario triad the campaign runs the HDXplore-style
differential oracle (seed-variant ensemble disagreements) and both
perturbation searches (packed bit-flip hill-climbing and feature-space
nudging), then joins everything into an
:class:`~repro.obs.scorecard.AdversaryScorecard` plus a JSONL
:class:`~repro.obs.trace.CampaignTrace`.

A final leg replays the adaptive scenario against a **live gateway**:
recovery publishes into a :class:`~repro.serve.ServingEngine` serving
TCP traffic the whole time, the adversary observes the same publishes
the serving tier adopts, and the served predictions after the dust
settles must be bit-identical to the offline model.

Every leg is seeded; the campaign is run twice and the two traces must
be byte-identical (``"reproducible": true`` in the JSON) before the
numbers are written.

Usage::

    PYTHONPATH=src python benchmarks/bench_adversary.py          # writes BENCH_adversary.json
    PYTHONPATH=src python benchmarks/bench_adversary.py --smoke  # CI smoke, prints JSON only

``--smoke`` shrinks every workload and, unless ``--output`` is given
explicitly, does not overwrite the committed ``BENCH_adversary.json``.
``--trace-output PATH`` writes the campaign's JSONL trace (CI publishes
it as a workflow artifact).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

import numpy as np

from _common import Recorder, host, write_record

from repro.adversary import AdaptiveAdversary, CampaignConfig, run_campaign
from repro.adversary.adaptive import run_adaptive_scenario
from repro.core.pipeline import RecoveryExperiment
from repro.core.recovery import RecoveryConfig
from repro.datasets.synthetic import make_prototype_classification
from repro.serve import GatewayClient, GatewayServer, ServingEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_adversary.json"


def campaign_config(smoke: bool) -> CampaignConfig:
    if smoke:
        return CampaignConfig(
            ensemble_size=3, dim=2_000, epochs=1, levels=8,
            probes=32, search_inputs=4,
            bitflip_budget=32, bitflip_candidates=64,
            feature_budget=8, feature_candidates=32,
            error_rate=0.05, strike_rate=0.02, passes=2,
            recovery=RecoveryConfig(num_chunks=20, block_size=100),
            seed=0,
        )
    return CampaignConfig(
        ensemble_size=3, dim=10_000, epochs=2, levels=32,
        probes=64, search_inputs=8,
        bitflip_budget=768, bitflip_candidates=256,
        feature_budget=32, feature_candidates=64,
        error_rate=0.15, strike_rate=0.05, passes=3,
        recovery=RecoveryConfig(num_chunks=20),
        seed=0,
    )


def campaign_dataset(smoke: bool):
    if smoke:
        return make_prototype_classification(
            "adversary-smoke", num_features=16, num_classes=4,
            num_train=160, num_test=120, seed=0,
        )
    # Boundary-heavy and noisy on purpose: the differential oracle and
    # the perturbation searches need inputs near decision boundaries to
    # have anything to find.
    return make_prototype_classification(
        "adversary", num_features=32, num_classes=16,
        num_train=960, num_test=400,
        prototype_spread=0.55, within_noise=0.05,
        boundary_fraction=0.5, boundary_depth=(0.3, 0.6),
        seed=0,
    )


def bench_campaign(smoke: bool) -> tuple[dict, object]:
    """Run the campaign twice; return (record, trace of the first run)."""
    dataset = campaign_dataset(smoke)
    config = campaign_config(smoke)
    start = time.perf_counter()
    result = run_campaign(dataset, config)
    campaign_s = time.perf_counter() - start
    again = run_campaign(dataset, config)
    reproducible = bool(
        again.trace.to_jsonl() == result.trace.to_jsonl()
        and _card_fields(again.scorecard) == _card_fields(result.scorecard)
    )
    card = result.scorecard
    record = {
        "config": {
            "ensemble_size": config.ensemble_size,
            "dim": config.dim,
            "probes": config.probes,
            "search_inputs": config.search_inputs,
            "error_rate": config.error_rate,
            "strike_rate": config.strike_rate,
            "passes": config.passes,
            "num_chunks": config.recovery.num_chunks,
            "seed": config.seed,
        },
        "campaign_s": campaign_s,
        "reproducible": reproducible,
        "differential": {
            "probes": card.probes,
            "disagreements": result.disagreement.disagreements,
            "disagreement_rate": card.disagreement_rate,
        },
        "perturbation": {
            "bitflip_success_rate": card.bitflip_success_rate,
            "bitflip_mean_flips": _json_float(card.bitflip_mean_flips),
            "feature_success_rate": card.feature_success_rate,
            "feature_mean_nudges": _json_float(card.feature_mean_nudges),
        },
        "scenarios": {
            name: {
                "attacked_accuracy": outcome.attacked_accuracy,
                "final_accuracy": outcome.final_accuracy,
                "accuracy_trace": list(outcome.accuracy_trace),
                "initial_bits": outcome.initial_bits,
                "struck_bits": outcome.struck_bits,
                "targeted_bits": outcome.targeted_bits,
                "publishes": outcome.publishes,
            }
            for name, outcome in result.outcomes.items()
        },
        "headline": {
            "clean_accuracy": card.clean_accuracy,
            "static_recovered_accuracy": card.static_recovered_accuracy,
            "adaptive_recovered_accuracy": card.adaptive_recovered_accuracy,
            "adaptive_unrecovered_accuracy":
                card.adaptive_unrecovered_accuracy,
            "adaptive_delta": card.adaptive_delta,
            "recovery_benefit_under_adaptive":
                card.recovery_benefit_under_adaptive,
            "recovery_helps_under_adaptive":
                bool(card.recovery_helps_under_adaptive),
        },
    }
    return record, result.trace


def _json_float(value: float) -> float | None:
    """NaN is not JSON; means-over-zero-successes become null."""
    return None if np.isnan(value) else float(value)


def _card_fields(card) -> dict:
    """Scorecard fields with NaN mapped to None (NaN != NaN would make
    two bit-identical runs compare unequal)."""
    import dataclasses

    return {
        field.name: (
            _json_float(value)
            if isinstance(value := getattr(card, field.name), float)
            else value
        )
        for field in dataclasses.fields(card)
    }


def bench_gateway_live_adversary(smoke: bool) -> dict:
    """Adaptive adversary vs recovery publishing into a live gateway.

    The scenario's publish stream is forwarded into a serving engine
    behind a TCP gateway that is answering predict requests the whole
    time; the adversary observes the very same publishes the workers
    adopt.  Afterwards the gateway's served predictions must be
    bit-identical to the offline struck-and-recovered model.
    """
    num_classes = 4 if smoke else 8
    dataset = make_prototype_classification(
        "adversary-gw", num_features=16, num_classes=num_classes,
        num_train=num_classes * 40, num_test=160, seed=0,
    )
    dim = 2_000 if smoke else 5_000
    experiment = RecoveryExperiment(
        dataset=dataset, dim=dim, epochs=1, levels=8, seed=7,
    )
    config = RecoveryConfig(num_chunks=20)
    passes = 2 if smoke else 3
    engine = ServingEngine(experiment.classifier, num_workers=2)
    server = GatewayServer(engine).start()
    eval_words = experiment._eval_packed.words
    served_rounds = 0
    stop = threading.Event()

    def gateway_predict(client):
        return np.concatenate([
            client.predict(eval_words[start : start + 64])
            for start in range(0, eval_words.shape[0], 64)
        ])

    def traffic():
        nonlocal served_rounds
        with GatewayClient("127.0.0.1", server.port) as client:
            while not stop.is_set():
                gateway_predict(client)
                served_rounds += 1

    thread = threading.Thread(target=traffic, daemon=True)
    start = time.perf_counter()
    thread.start()
    try:
        outcome = run_adaptive_scenario(
            experiment, scenario="adaptive", error_rate=0.05,
            config=config,
            adversary=AdaptiveAdversary(
                rate=0.02, num_chunks=config.num_chunks, seed=11 + 3,
            ),
            passes=passes, seed=11,
            publisher=engine.publisher_for(engine.tenants[0]),
        )
    finally:
        stop.set()
        thread.join()
    live_s = time.perf_counter() - start
    with GatewayClient("127.0.0.1", server.port) as client:
        served = gateway_predict(client)
    adoptions = engine.trace.adoptions
    generations = engine.publisher_for(engine.tenants[0]).generation
    server.stop()
    engine.stop()

    # Offline reference: replay the identical scenario with a recorder
    # in place of the engine; the recorder's last published generation
    # is exactly the model the workers ended up adopting.
    recorder = Recorder()
    offline = run_adaptive_scenario(
        experiment, scenario="adaptive", error_rate=0.05, config=config,
        adversary=AdaptiveAdversary(
            rate=0.02, num_chunks=config.num_chunks, seed=11 + 3,
        ),
        passes=passes, seed=11, publisher=recorder,
    )
    assert outcome.accuracy_trace == offline.accuracy_trace, (
        "live-gateway adaptive scenario diverged from the offline run"
    )
    predictions_identical = bool(
        (served == recorder.predict(eval_words)).all()
    )
    assert predictions_identical, (
        "gateway-served predictions diverged from the offline "
        "struck-and-recovered model"
    )
    return {
        "dim": dim,
        "passes": passes,
        "error_rate": 0.05,
        "strike_rate": 0.02,
        "final_accuracy": outcome.final_accuracy,
        "attacked_accuracy": outcome.attacked_accuracy,
        "struck_bits": outcome.struck_bits,
        "targeted_bits": outcome.targeted_bits,
        "publishes": outcome.publishes,
        "generations_published": generations,
        "adoptions": adoptions,
        "traffic_rounds_during_campaign": served_rounds,
        "live_campaign_s": live_s,
        "served_predictions_bit_identical": predictions_identical,
    }


def run(smoke: bool) -> tuple[dict, object]:
    campaign, trace = bench_campaign(smoke)
    results = {
        "schema": 1,
        "generated_by": "benchmarks/bench_adversary.py"
        + (" --smoke" if smoke else ""),
        **host(),
        "campaign": campaign,
        "gateway_live_adversary": bench_gateway_live_adversary(smoke),
    }
    return results, trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (CI smoke); prints JSON only "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the JSON "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--trace-output", type=Path, default=None,
                        help="also write the campaign trace as JSONL "
                             "(one CampaignEvent per line)")
    args = parser.parse_args(argv)
    results, trace = run(smoke=args.smoke)
    write_record(results,
                 args.output or (None if args.smoke else DEFAULT_OUTPUT))
    if args.trace_output is not None:
        trace.write_jsonl(args.trace_output)
        print(f"wrote {args.trace_output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

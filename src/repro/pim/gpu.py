"""GPU reference cost model for the Figure 2 normalisation baseline.

The paper normalises PIM efficiency to a DNN running on an NVIDIA GTX
1080 through TensorFlow.  With no GPU in this reproduction, the baseline
is an analytic roofline-style model built from the public spec sheet:

* peak arithmetic throughput and board power from the 1080 datasheet;
* an *effective utilisation* factor, because small dense classifiers
  reach a few percent of peak on a big GPU (kernel launch overhead,
  low arithmetic intensity);
* a memory-bandwidth ceiling — every inference streams the weight
  matrix, so throughput is also bounded by ``bandwidth / model_bytes``.

The utilisation constants are calibration inputs, documented here and in
EXPERIMENTS.md; Figure 2's claims are *ratios* (PIM vs GPU, HDC vs DNN),
and the reproduced quantity is the shape of those ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUConfig", "GPUModel", "GTX_1080"]


@dataclass(frozen=True)
class GPUConfig:
    """Spec-sheet constants plus effective-utilisation calibration."""

    name: str = "GTX 1080"
    peak_ops_per_s: float = 8.9e12
    board_power_w: float = 180.0
    memory_bandwidth_bps: float = 320e9
    compute_utilization: float = 0.10
    bandwidth_utilization: float = 0.6
    # Fixed per-batch overhead (kernel launches, host sync).
    launch_overhead_s: float = 20e-6
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.peak_ops_per_s <= 0 or self.board_power_w <= 0:
            raise ValueError("peak_ops_per_s and board_power_w must be > 0")
        if not 0 < self.compute_utilization <= 1:
            raise ValueError("compute_utilization must be in (0, 1]")
        if not 0 < self.bandwidth_utilization <= 1:
            raise ValueError("bandwidth_utilization must be in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


GTX_1080 = GPUConfig()


class GPUModel:
    """Roofline latency/energy estimates for dense inference workloads."""

    def __init__(self, config: GPUConfig = GTX_1080) -> None:
        self.config = config

    def inference_latency_s(self, ops: float, model_bytes: float) -> float:
        """Per-inference latency at the configured batch size.

        The batch pays max(compute time, weight-streaming time) plus the
        launch overhead, then amortises over its inferences.
        """
        if ops <= 0 or model_bytes <= 0:
            raise ValueError("ops and model_bytes must be > 0")
        cfg = self.config
        compute_s = (
            ops * cfg.batch_size / (cfg.peak_ops_per_s * cfg.compute_utilization)
        )
        # Weights are streamed once per batch (they stay in cache across
        # the batch); activations are negligible for these model sizes.
        memory_s = model_bytes / (
            cfg.memory_bandwidth_bps * cfg.bandwidth_utilization
        )
        return (max(compute_s, memory_s) + cfg.launch_overhead_s) / cfg.batch_size

    def inference_energy_j(self, ops: float, model_bytes: float) -> float:
        """Per-inference energy: board power times the occupied latency."""
        return self.inference_latency_s(ops, model_bytes) * self.config.board_power_w

    def dnn_ops(self, layer_widths: list[int]) -> float:
        """Multiply-accumulate op count (2 ops per MAC) of a dense net."""
        if len(layer_widths) < 2:
            raise ValueError("need at least input and output layer widths")
        return float(
            sum(2 * a * b for a, b in zip(layer_widths[:-1], layer_widths[1:]))
        )

    def hdc_ops(self, num_features: int, dim: int, num_classes: int) -> float:
        """Op count of HDC encode + classify executed as dense GPU kernels.

        Encoding is a ``num_features x dim`` binary accumulate; inference
        is a ``num_classes x dim`` XOR-popcount, both executed as 1
        op/element passes on a GPU.
        """
        if min(num_features, dim, num_classes) < 1:
            raise ValueError("workload sizes must be >= 1")
        return float(num_features * dim + 2 * num_classes * dim)

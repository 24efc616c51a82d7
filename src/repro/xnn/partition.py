"""Multi-chip partitioning of encoder segments and the chiplet payload.

The scale-out axis runs one encoder layer as a *pipeline over chips*: the
three simulation groups (``qkv``, ``attention+dense``, ``ffn``) are split
contiguously across ``num_chips`` devices, and the boundary activations
cross an :class:`~repro.hardware.link.InterChipLink` between consecutive
chips.  This module holds everything both backends and the batched analytic
evaluator share, so that the certified contracts hold *by construction*:

* ``num_chips=1`` points never enter this module -- the runners delegate to
  the single-chip ``dse_encoder`` path verbatim, which is what makes their
  payloads byte-identical.
* For ``num_chips>1``, the partition is chosen from backend-independent
  segment FLOP counts (:func:`encoder_segment_flops`), the link terms are
  identical pure-float arithmetic on both backends, and the only
  backend-dependent inputs are the per-segment latencies -- each of which is
  already a certified lower bound analytic-vs-engine.  Sums and maxima of
  lower bounds are lower bounds, so the chiplet analytic latency inherits
  the contract.  Off-chip traffic is untouched by partitioning (every chip
  keeps its segments' DDR/LPDDR transfers), so byte-identity also carries
  over unchanged.
* :func:`chiplet_payload` is the single payload constructor used by the
  engine scalar runner, the analytic scalar runner, *and* the batched
  evaluator, so the batched path is expression-identical to the scalar one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.roofline import pipeline_roofline
from ..hardware.cost import design_area_luts, design_power_w
from ..hardware.link import InterChipLink
from ..workloads.bert import BERT_LARGE, BertConfig, bert_large_encoder
from .datapath import XNNConfig
from .fus.scratchpad import MEMC_COMPUTE_THROUGHPUT

__all__ = [
    "ENCODER_SEGMENT_NAMES",
    "ChipletMetrics",
    "chiplet_metrics",
    "chiplet_payload",
    "design_cost",
    "encoder_boundary_bytes",
    "encoder_segment_flops",
    "partition_segments",
]

_ELEMENT_BYTES = 4  # fp32 activations, matching the rest of the stack

#: the encoder's simulation groups, in execution order (the unit of
#: partitioning: chips own contiguous runs of these).
ENCODER_SEGMENT_NAMES = ("qkv", "attention+dense", "ffn")


def encoder_boundary_bytes(
    batch: int, seq_len: int, config: BertConfig = BERT_LARGE
) -> Tuple[int, ...]:
    """Activation bytes crossing each segment boundary, in execution order.

    Backend-independent by construction: the tensors that cross a boundary
    are fixed by the workload shape, not by tiling or simulation.  Boundary
    0 (``qkv`` -> ``attention+dense``) carries the Q, K and V projections;
    boundary 1 (``attention+dense`` -> ``ffn``) carries one hidden-state
    tensor.
    """
    if batch <= 0 or seq_len <= 0:
        raise ValueError("batch and seq_len must be positive")
    activation = batch * seq_len * config.hidden * _ELEMENT_BYTES
    return (3 * activation, activation)


def encoder_segment_flops(
    batch: int, seq_len: int, config: BertConfig = BERT_LARGE
) -> Tuple[float, ...]:
    """FLOPs of each simulation group, grouped exactly like the executors.

    Used to *choose* the partition, so it must be identical for both
    backends -- it therefore derives from the workload's layer inventory
    alone, never from a simulation result.
    """
    spec = bert_large_encoder(batch=batch, seq_len=seq_len, config=config)
    layer = {lyr.name: lyr for lyr in spec.layers}
    qkv = sum(layer[name].flops for name in ("query", "key", "value"))
    attention = (
        layer["attention_mm1"].flops
        + layer["attention_mm2"].flops
        + layer["dense"].flops
    )
    ffn = layer["ffn_mm1"].flops + layer["ffn_mm2"].flops
    return (qkv, attention, ffn)


def partition_segments(
    segment_flops: Sequence[float], num_chips: int
) -> Tuple[int, ...]:
    """Contiguous partition of segments over chips, balancing FLOPs.

    Returns the cut positions: a strictly increasing tuple of indices in
    ``1..len(segment_flops)-1``, where cut ``c`` means "chip boundary before
    segment ``c``".  ``num_chips=1`` returns ``()``.  The partition minimises
    the maximum per-chip FLOP load; ties resolve to the lexicographically
    smallest cut tuple, so the choice is deterministic and shared by every
    evaluation path.
    """
    count = len(segment_flops)
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if num_chips > count:
        raise ValueError(
            f"cannot split {count} segments across {num_chips} chips; "
            "every chip needs at least one segment"
        )
    best_cuts: Tuple[int, ...] = ()
    best_load = float("inf")
    for cuts in itertools.combinations(range(1, count), num_chips - 1):
        edges = (0,) + cuts + (count,)
        load = max(
            sum(segment_flops[start:end]) for start, end in zip(edges, edges[1:])
        )
        if load < best_load:
            best_load = load
            best_cuts = cuts
    return best_cuts


@dataclass(frozen=True)
class ChipletMetrics:
    """The latency-side numbers of one partitioned multi-chip evaluation."""

    #: end-to-end latency of one task: all segments serial + link transfers.
    latency_s: float
    #: total bytes crossing inter-chip links per task.
    link_bytes: int
    #: total link transfer time per task (latency + serialization + wire).
    link_s: float
    #: steady-state initiation interval: busiest pipeline stage (chip or link).
    max_stage_s: float
    #: per-stage busy times (``chip0``, ``link0``, ``chip1``, ...).
    stage_bounds_s: Dict[str, float]


def chiplet_metrics(
    segment_latency_s: Sequence[float],
    cuts: Sequence[int],
    boundary_bytes: Sequence[int],
    link: InterChipLink,
) -> ChipletMetrics:
    """Combine per-segment latencies and link costs into chiplet metrics.

    Pure float arithmetic over the inputs -- no simulation, no NumPy -- so
    every evaluation path that feeds it equal inputs gets bit-equal outputs.
    The end-to-end latency folds segments left to right from ``0.0`` (the
    same fold as ``EncoderResult.latency_s``) and adds each cut's full
    transfer time; the steady-state bound treats each chip *and each link*
    as one contended pipeline resource.
    """
    count = len(segment_latency_s)
    link_bytes = 0
    link_s = 0.0
    link_busy: List[float] = []
    for cut in cuts:
        nbytes = boundary_bytes[cut - 1]
        link_bytes += nbytes
        link_s += link.transfer_time(nbytes)
        link_busy.append(link.occupancy_time(nbytes))
    latency_s = 0.0
    for segment_latency in segment_latency_s:
        latency_s += segment_latency
    latency_s += link_s
    edges = (0,) + tuple(cuts) + (count,)
    chip_busy: List[float] = []
    for start, end in zip(edges, edges[1:]):
        busy = 0.0
        for segment_latency in segment_latency_s[start:end]:
            busy += segment_latency
        chip_busy.append(busy)
    roofline = pipeline_roofline(chip_busy, link_busy)
    return ChipletMetrics(
        latency_s=latency_s,
        link_bytes=link_bytes,
        link_s=link_s,
        max_stage_s=roofline.latency_s,
        stage_bounds_s=dict(roofline.busy_s),
    )


@functools.lru_cache(maxsize=1024, typed=True)
def design_cost(
    config: XNNConfig,
    per_chip_peak_flops: float,
    num_chips: int = 1,
    link: Optional[InterChipLink] = None,
) -> Tuple[float, float]:
    """``(power_w, area_luts)`` of one design point.

    The single adapter from an :class:`XNNConfig` to the scalar cost models
    in :mod:`repro.hardware.cost`, shared by the scalar runner payloads and
    the batched evaluator so the cost keys cannot drift between paths.
    Memoised per ``(config, peak, num_chips, link)``.  The config holds only
    the hardware axes, so the 8,064-point ``chiplet-encoder`` grid prices
    104 distinct keys (98% of a cold pass's calls hit) and the 120,960-point
    fidelity-expanded grid 656; ``maxsize`` holds either whole.
    """
    scratchpad_mb = (
        config.num_mem_a * config.mem_a_bytes
        + config.num_mem_b * config.mem_b_bytes
        + config.num_mem_c * config.mem_c_bytes
    ) / float(1 << 20)
    offchip_gbs = (
        (
            config.spec.ddr_read_bw
            + config.spec.ddr_write_bw
            + config.spec.lpddr_read_bw
        )
        * config.bandwidth_scale
        / 1e9
    )
    power_w = design_power_w(
        num_mme=config.num_mme,
        num_mem_c=config.num_mem_c,
        peak_tflops=per_chip_peak_flops / 1e12,
        memc_tflops=config.num_mem_c * (MEMC_COMPUTE_THROUGHPUT / 1e12),
        scratchpad_mb=scratchpad_mb,
        offchip_gbs=offchip_gbs,
        num_chips=num_chips,
        link=link,
    )
    area_luts = design_area_luts(config.num_mme, config.num_mem_c, num_chips=num_chips)
    return power_w, area_luts


@functools.lru_cache(maxsize=1024, typed=True)
def _workload_split(
    batch: int, seq_len: int, encoder: BertConfig, num_chips: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(cuts, boundary_bytes)`` of one workload shape over ``num_chips``.

    Everything :func:`chiplet_payload` derives from the shape alone,
    memoised: a grid holds a handful of shapes, and each rebuild walks the
    encoder's whole layer inventory for the segment FLOPs.
    """
    segment_flops = encoder_segment_flops(batch=batch, seq_len=seq_len, config=encoder)
    cuts = partition_segments(segment_flops, num_chips)
    boundaries = encoder_boundary_bytes(batch=batch, seq_len=seq_len, config=encoder)
    return cuts, boundaries


def chiplet_payload(
    *,
    segment_latency_s: Sequence[float],
    flops: float,
    ddr_bytes: int,
    lpddr_bytes: int,
    batch: int,
    seq_len: int,
    encoder: BertConfig,
    config: XNNConfig,
    per_chip_peak_flops: float,
    num_chips: int,
    link: InterChipLink,
) -> Dict[str, Any]:
    """The ``dse_chiplet`` payload for a ``num_chips>1`` design point.

    Single payload constructor for all three evaluation paths (engine
    scalar, analytic scalar, batched analytic): they differ only in where
    ``segment_latency_s`` / ``flops`` / traffic come from.  The payload is a
    superset of the ``dse_encoder`` payload -- same thirteen keys computed
    the same way (with the chiplet end-to-end latency substituted), plus the
    multi-chip diagnostics.
    """
    if len(segment_latency_s) != len(ENCODER_SEGMENT_NAMES):
        raise ValueError(
            f"{len(segment_latency_s)} segment latencies for "
            f"{len(ENCODER_SEGMENT_NAMES)} encoder segments"
        )
    cuts, boundaries = _workload_split(batch, seq_len, encoder, num_chips)
    metrics = chiplet_metrics(segment_latency_s, cuts, boundaries, link)
    latency_s = metrics.latency_s
    peak_flops = num_chips * per_chip_peak_flops
    achieved = (flops / latency_s / 1e12) if latency_s else 0.0
    utilization = (flops / latency_s / peak_flops) if latency_s else 0.0
    pipeline_tasks = (batch / metrics.max_stage_s) if metrics.max_stage_s else 0.0
    power_w, area_luts = design_cost(
        config, per_chip_peak_flops, num_chips=num_chips, link=link
    )
    return {
        "latency_s": latency_s,
        "latency_ms": latency_s * 1e3,
        "flops": flops,
        "ddr_bytes": ddr_bytes,
        "lpddr_bytes": lpddr_bytes,
        "offchip_bytes": ddr_bytes + lpddr_bytes,
        "achieved_tflops": achieved,
        "utilization": utilization,
        "num_mme": config.num_mme,
        "pipeline_tasks_per_s": pipeline_tasks,
        "power_w": power_w,
        "area_luts": area_luts,
        "energy_j": power_w * latency_s,
        "num_chips": num_chips,
        "cuts": list(cuts),
        "link_bytes": metrics.link_bytes,
        "link_s": metrics.link_s,
        "max_stage_s": metrics.max_stage_s,
        "stage_bounds_s": dict(metrics.stage_bounds_s),
    }

"""Exact engine pins for every ``Parallel`` path of the RSN-XNN FUs.

The ping-pong scratchpads and the mesh routers run their one-request
``Parallel`` branches as engine strands, and keep generator branches for
repeated sends and multi-destination routes.  Every value below was captured
from the engine *before* strands existed, with the segment memo off, and is
compared with ``==``: strands may reorder events that share a timestamp but
must not move one.

Together the design points cover each path:

* MemA/MemB load + single send (strands) -- every point;
* MeshB scatter with one destination per source (``Forward`` strands) --
  ``num_mme=3``; all sources with two destinations (generator chains) --
  ``num_mme=6``; both mixed -- ``num_mme=4``;
* MeshA broadcast to several MMEs (``Write`` strands) -- the GEMMs; to one
  MME (a plain ``Write``) -- ``pipeline_attention=False``;
* MeshA/MeshB routes of pipelined attention -- ``pipeline_attention=True``;
* transposed MemB sends -- every attention segment;
* MemB sends with ``repeat > 1`` (generator branch), which codegen never
  emits -- the direct ping-pong scenario at the end.
"""

from __future__ import annotations

import pytest

from repro.core import Delay, Read, Simulator, StreamChannel, TileMessage, UOp, Write
from repro.runner.library import _dse_design, _encoder_config
from repro.xnn import XNNExecutor
from repro.xnn.fus import MemBFU

_BASE = {
    "batch": 1,
    "seq_len": 128,
    "mem_b_bytes": 1024 * 1024,
    "bandwidth_scale": 1.0,
    "tile_m": 384,
    "tile_k": 128,
    "super_n": 1024,
}

#: (design point over _BASE, latency_s, ddr_bytes, lpddr_bytes, uops)
ENCODER_PINS = [
    ({"num_mme": 6, "pipeline_attention": True},
     0.0032046816839419573, 14_155_776, 50_331_648, 1886),
    ({"num_mme": 6, "pipeline_attention": False},
     0.0033919981349870825, 16_252_928, 50_331_648, 1990),
    ({"num_mme": 3, "pipeline_attention": True},
     0.002952962758630594, 14_155_776, 50_331_648, 1245),
    ({"num_mme": 3, "pipeline_attention": False},
     0.003125247405276998, 16_252_928, 50_331_648, 1309),
    ({"num_mme": 4, "pipeline_attention": True, "bandwidth_scale": 0.5},
     0.0055685207622661066, 14_155_776, 50_331_648, 1440),
    ({"num_mme": 4, "pipeline_attention": False, "bandwidth_scale": 2.0,
      "tile_k": 64, "super_n": 512},
     0.00307097118414815, 22_544_384, 50_331_648, 4586),
    ({"num_mme": 6, "pipeline_attention": True, "seq_len": 256, "tile_m": 768,
      "bandwidth_scale": 2.0},
     0.0021388134475811616, 28_311_552, 50_331_648, 1886),
    ({"num_mme": 3, "pipeline_attention": False, "seq_len": 384, "tile_k": 64,
      "super_n": 512, "mem_b_bytes": 256 * 1024, "bandwidth_scale": 0.5},
     0.009351566572451828, 80_216_064, 50_331_648, 3754),
]

#: per FU type: [bytes_in, bytes_out, kernels_executed] summed over the
#: encoder's three datapaths, plus channel (messages, bytes) totals.
FU_PINS = [
    ({"num_mme": 6, "pipeline_attention": True}, {
        "DDR": [8912896, 5242880, 226], "LPDDR": [50331648, 0, 576],
        "MeshA": [7864320, 39321600, 21], "MeshB": [51380224, 51380224, 21],
        "MemA": [6815744, 6815744, 137], "MemB": [51380224, 51380224, 667],
        "MemC": [6291456, 6291456, 86], "MME": [90701824, 6291456, 86],
    }, (2840, 220725248)),
    ({"num_mme": 4, "pipeline_attention": False}, {
        "DDR": [9961472, 6291456, 236], "LPDDR": [50331648, 0, 384],
        "MeshA": [7864320, 26738688, 41], "MeshB": [51380224, 51380224, 41],
        "MemA": [7864320, 7864320, 169], "MemB": [51380224, 51380224, 475],
        "MemC": [6291456, 6291456, 68], "MME": [78118912, 6291456, 68],
    }, (2064, 210239488)),
    ({"num_mme": 3, "pipeline_attention": True}, {
        "DDR": [8912896, 5242880, 193], "LPDDR": [50331648, 0, 288],
        "MeshA": [7864320, 20447232, 41], "MeshB": [51380224, 51380224, 41],
        "MemA": [6815744, 6815744, 137], "MemB": [51380224, 51380224, 379],
        "MemC": [6291456, 6291456, 59], "MME": [71827456, 6291456, 59],
    }, (1628, 201850880)),
]


class _RecordingExecutor(XNNExecutor):
    """An executor that keeps every datapath it builds, for FU statistics."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built = []

    def _fresh_datapath(self):
        xnn = super()._fresh_datapath()
        self.built.append(xnn)
        return xnn


def _run(point):
    params = dict(_BASE, **point)
    config, options = _dse_design(
        params["num_mme"],
        params["mem_b_bytes"],
        params["bandwidth_scale"],
        params["pipeline_attention"],
        params["tile_m"],
        params["tile_k"],
        params["super_n"],
    )
    executor = _RecordingExecutor(config=config, options=options, segment_memo=None)
    result = executor.run_encoder(
        batch=params["batch"],
        seq_len=params["seq_len"],
        config=_encoder_config("bert_large"),
    )
    return result, executor.built


@pytest.mark.parametrize(
    "point,latency_s,ddr_bytes,lpddr_bytes,uops",
    ENCODER_PINS,
    ids=[str(index) for index in range(len(ENCODER_PINS))],
)
def test_encoder_results_are_exact(point, latency_s, ddr_bytes, lpddr_bytes, uops):
    result, _ = _run(point)
    assert result.latency_s == latency_s
    assert result.ddr_bytes == ddr_bytes
    assert result.lpddr_bytes == lpddr_bytes
    assert sum(segment.uops for segment in result.segments) == uops


@pytest.mark.parametrize(
    "point,per_type,channel_totals",
    FU_PINS,
    ids=[f"num_mme={point['num_mme']}" for point, _, _ in FU_PINS],
)
def test_fu_and_channel_statistics_are_exact(point, per_type, channel_totals):
    """Strands keep every FU's byte and kernel counts, routers included."""
    _, built = _run(point)
    actual = {}
    messages = nbytes = 0
    for xnn in built:
        for fu in xnn.datapath.fus.values():
            totals = actual.setdefault(fu.fu_type, [0, 0, 0])
            totals[0] += fu.stats.bytes_in
            totals[1] += fu.stats.bytes_out
            totals[2] += fu.stats.kernels_executed
        for channel in xnn.datapath.channels.values():
            messages += channel.stats.messages
            nbytes += channel.stats.bytes
    assert actual == per_type
    assert (messages, nbytes) == channel_totals


def test_memb_ping_pong_paths_are_exact():
    """Load-only, strand, repeated and transposed sends on one MemB."""
    memb = MemBFU("MemB0", capacity_bytes=1 << 20)
    feed = StreamChannel("feed", capacity=2, bandwidth=1e9, latency=1e-6)
    out = StreamChannel("out", capacity=1, bandwidth=2e9, latency=5e-7)
    memb.port("from_lpddr").bind(feed)
    memb.port("to_mesh").bind(out)

    def uop(**fields):
        return UOp(opcode="MemB", fields=fields)

    memb.load_program(
        [
            uop(load=True),
            uop(load=True, send=True, repeat=2),
            uop(load=True, send=True, transpose=True, repeat=3),
            uop(load=True, send=True, transpose=True),
            uop(load=True, send=True),
            uop(send=True, repeat=2),
        ]
    )

    def producer():
        for index in range(5):
            yield Delay(2e-6)
            tile = TileMessage.placeholder((32, 16 * (index + 1)), tag=f"t{index}")
            yield Write(feed, tile)

    received = []

    def consumer():
        for _ in range(9):
            message = yield Read(out)
            received.append((message.tag, message.shape))
            yield Delay(3e-6)

    sim = Simulator()
    sim.add_process("MemB0", memb.run())
    sim.add_process("producer", producer())
    sim.add_process("consumer", consumer())
    assert sim.run().end_time == 5.996000000000001e-05
    assert received == [
        ("t0", (32, 16)), ("t0", (32, 16)),
        ("t1^T", (32, 32)), ("t1^T", (32, 32)), ("t1^T", (32, 32)),
        ("t2^T", (48, 32)), ("t3", (32, 64)), ("t4", (32, 80)), ("t4", (32, 80)),
    ]
    assert (memb.stats.bytes_in, memb.stats.bytes_out) == (30720, 51200)
    assert (feed.stats.messages, feed.stats.bytes) == (5, 30720)
    assert (out.stats.messages, out.stats.bytes) == (9, 51200)

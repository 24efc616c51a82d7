"""On-chip scratchpad FUs: MemA (LHS), MemB (RHS), MemC (outputs + non-MMs).

Table 2 control planes:

* ``MemA``: matrix size, tile size, srcFU, load data yes/no, send to MME yes/no.
* ``MemB``: matrix size, tile size, load data yes/no, send to MME yes/no,
  transpose input yes/no, load bias yes/no.
* ``MemC``: matrix sizes/tile sizes in both directions, receive from MME
  yes/no, send to MME yes/no, softmax yes/no, gelu yes/no,
  mean/variance/normalization yes/no.

All three are double buffered ("they are double buffered to allow the
overlapping of computation and data movement", Section 4.1): a kernel launch
can *load* into one buffer and *send* the other buffer in parallel, which is
the ping-pong idiom of Fig. 7b and Fig. 11.

One deliberate functional simplification, documented in DESIGN.md: the small
per-layer parameter vectors (bias, LayerNorm gamma/beta) are fetched directly
from host memory inside MemC instead of being streamed through LPDDR/MemB.
Their traffic (a few KB per layer) is negligible next to the feature maps, and
Table 9's latency structure does not depend on it.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ...core import (
    ConfigurationError,
    FunctionalUnit,
    Parallel,
    TileMessage,
    UOp,
    Write,
)
from .offchip import HostMemory

__all__ = [
    "MemAFU",
    "MemBFU",
    "MemCFU",
    "MEMC_COMPUTE_THROUGHPUT",
    "NONMM_FLOPS_PER_ELEMENT",
]

#: sustained FLOP/s of one MemC's non-MM operator pipeline.  Shared with the
#: analytic fast-model backend so both backends charge fused operators at the
#: same rate.
MEMC_COMPUTE_THROUGHPUT = 0.072e12


class _PingPongScratchpad(FunctionalUnit):
    """Shared double-buffered load/send behaviour of MemA and MemB."""

    def __init__(self, name: str, fu_type: str, capacity_bytes: int):
        super().__init__(name, fu_type=fu_type)
        self.capacity_bytes = capacity_bytes
        #: the two buffers; ``None`` until first filled.
        self._ping: Optional[TileMessage] = None
        self._pong: Optional[TileMessage] = None
        #: when True the next load lands in the ping buffer.
        self._recv_to_ping = True

    # -- buffer handling -------------------------------------------------------

    def _store_slot(self, slot: str, tile: TileMessage) -> None:
        if tile.nbytes > self.capacity_bytes:
            raise ConfigurationError(
                f"{self.name}: tile of {tile.nbytes} B exceeds scratchpad capacity "
                f"{self.capacity_bytes} B"
            )
        if slot == "ping":
            self._ping = tile
        else:
            self._pong = tile

    def _read_slot(self, slot: str) -> Optional[TileMessage]:
        return self._ping if slot == "ping" else self._pong

    # -- kernel branches -------------------------------------------------------

    def _load_branch(self, source_port_name: str, slot: str) -> Generator:
        tile = yield self.read_request(source_port_name)
        self._store_slot(slot, tile)
        self.stats.bytes_in += tile.nbytes

    def _send_tile(self, slot: str, transform=None) -> TileMessage:
        tile = self._read_slot(slot)
        if tile is None:
            raise ConfigurationError(
                f"{self.name}: send requested but the send buffer is empty; the uOP "
                "sequence must load a tile before sending it"
            )
        if transform is not None:
            tile = transform(tile)
        return tile

    def _send_branch(
        self, dest_port_name: str, slot: str, repeat: int, transform=None
    ) -> Generator:
        tile = self._send_tile(slot, transform)
        for _ in range(repeat):
            yield Write(self.port(dest_port_name), tile)
            self.stats.bytes_out += tile.nbytes

    def _run_load_send(
        self,
        load: bool,
        send: bool,
        source_port: str,
        dest_port: str,
        repeat: int,
        transform=None,
    ) -> Generator:
        """One ping-pong kernel launch (the Fig. 7b idiom).

        The buffers are selected with the *current* flag -- receive into one,
        send from the other -- and the flag flips only when a load happens, so
        the tile loaded by this kernel becomes the send buffer of the next.

        A load with a single send runs as two engine strands, one ``Read``
        and one ``Write``; the loaded tile is stored after the join (the two
        slots differ, so the send never sees it early).
        """
        if not load and not send:
            return
        recv_slot = "ping" if self._recv_to_ping else "pong"
        send_slot = "pong" if self._recv_to_ping else "ping"
        if load:
            self._recv_to_ping = not self._recv_to_ping
        if not send:
            yield from self._load_branch(source_port, recv_slot)
        elif not load:
            yield from self._send_branch(dest_port, send_slot, repeat, transform)
        elif repeat == 1:
            tile = self._send_tile(send_slot, transform)
            loaded, _ = yield Parallel(
                (self.read_request(source_port), Write(self.port(dest_port), tile))
            )
            self._store_slot(recv_slot, loaded)
            self.stats.bytes_in += loaded.nbytes
            self.stats.bytes_out += tile.nbytes
        else:
            yield Parallel(
                [
                    self._load_branch(source_port, recv_slot),
                    self._send_branch(dest_port, send_slot, repeat, transform),
                ]
            )


class MemAFU(_PingPongScratchpad):
    """LHS scratchpad: buffers activation tiles from DDR and feeds MeshA.

    uOP fields: ``load`` (bool), ``send`` (bool), ``repeat`` (how many times
    the buffered tile is re-sent, for LHS reuse across MME column groups).
    """

    def __init__(self, name: str, capacity_bytes: int = 512 * 1024):
        super().__init__(name, fu_type="MemA", capacity_bytes=capacity_bytes)
        self.add_input("from_ddr")
        self.add_output("to_mesh")

    def kernel(self, uop: UOp) -> Generator:
        yield from self._run_load_send(
            load=bool(uop.get("load", False)),
            send=bool(uop.get("send", False)),
            source_port="from_ddr",
            dest_port="to_mesh",
            repeat=int(uop.get("repeat", 1)),
        )


def _transpose_tile(tile: TileMessage) -> TileMessage:
    """Transpose a tile, preserving only the shape metadata in timing-only mode."""
    if tile.data is not None:
        return tile.map(np.transpose, tag=f"{tile.tag}^T")
    rows, cols = tile.shape
    return TileMessage.placeholder(
        (cols, rows), dtype=tile.dtype, tag=f"{tile.tag}^T", coords=tile.coords
    )


class MemBFU(_PingPongScratchpad):
    """RHS scratchpad: buffers weight tiles from LPDDR (or feature maps from
    DDR) and feeds MeshB; optionally transposes the tile on the way out.

    uOP fields: ``load`` (bool), ``source`` ("lpddr" or "ddr"), ``send``
    (bool), ``transpose`` (bool), ``repeat``.
    """

    def __init__(self, name: str, capacity_bytes: int = 512 * 1024):
        super().__init__(name, fu_type="MemB", capacity_bytes=capacity_bytes)
        self.add_input("from_lpddr")
        self.add_input("from_ddr")
        self.add_output("to_mesh")

    def kernel(self, uop: UOp) -> Generator:
        source = uop.get("source", "lpddr")
        if source not in ("lpddr", "ddr"):
            raise ConfigurationError(f"{self.name}: unknown source {source!r}")
        transform = _transpose_tile if uop.get("transpose", False) else None
        yield from self._run_load_send(
            load=bool(uop.get("load", False)),
            send=bool(uop.get("send", False)),
            source_port=f"from_{source}",
            dest_port="to_mesh",
            repeat=int(uop.get("repeat", 1)),
            transform=transform,
        )


#: approximate FLOPs per element of each non-MM operator, used for timing
#: (by the MemC kernel here and by the analytic backend's MemC tally).
NONMM_FLOPS_PER_ELEMENT = {
    "bias": 1.0,
    "scale": 1.0,
    "layer_add": 1.0,
    "scale_shift": 2.0,
    "softmax": 5.0,
    "gelu": 8.0,
    "mean_var_norm": 8.0,
    "transpose": 0.0,
}


class MemCFU(FunctionalUnit):
    """Output scratchpad: receives MME results, applies fused non-MM operators,
    and forwards the tile off-chip or back into the network for layer chaining.

    uOP fields
    ----------
    ``recv``:
        Read one tile from the attached MME.
    ``ops``:
        Tuple of non-MM operator names applied in order (subset of
        ``bias, layer_add, scale_shift, softmax, gelu, mean_var_norm,
        transpose``).
    ``residual``:
        When true, read a residual tile from the ``from_ddr`` port and add it
        (the "add previous layer" control of Table 2).
    ``bias_tensor`` / ``col0``:
        Host-memory name and column offset of the bias vector for ``bias``.
    ``send_to``:
        ``"ddr"``, ``"mesh_a"``, ``"mesh_b"``, or ``None`` to keep the tile
        buffered for a later uOP.
    """

    def __init__(
        self,
        name: str,
        memory: HostMemory,
        capacity_bytes: int = 1024 * 1024,
        compute_throughput: float = MEMC_COMPUTE_THROUGHPUT,
    ):
        super().__init__(name, fu_type="MemC", compute_throughput=compute_throughput)
        self.memory = memory
        self.capacity_bytes = capacity_bytes
        self.add_input("from_mme")
        self.add_input("from_ddr")
        self.add_output("to_ddr")
        self.add_output("to_mesh_a")
        self.add_output("to_mesh_b")
        #: tile held across kernel launches (state holder).
        self._buffer: Optional[TileMessage] = None

    # ------------------------------------------------------------- operators

    def _apply_ops(self, tile: TileMessage, uop: UOp) -> Generator:
        ops = tuple(uop.get("ops", ()))
        flops = (
            sum(NONMM_FLOPS_PER_ELEMENT.get(op, 1.0) for op in ops)
            * tile.element_count
        )
        if uop.get("residual", False):
            residual = yield self.read_request("from_ddr")
            flops += tile.element_count
            if tile.data is not None and residual.data is not None:
                tile = TileMessage.from_array(
                    tile.data + residual.data,
                    dtype=tile.dtype,
                    tag=tile.tag,
                    coords=tile.coords,
                )
        if flops:
            yield self.charge_compute(flops)
        if tile.data is None:
            self._buffer = tile
            return
        data = tile.data
        for op in ops:
            if op == "bias":
                bias_name = uop.get("bias_tensor")
                if bias_name is not None and self.memory.carry_data:
                    col0 = int(uop.get("col0", 0))
                    bias_vector = self.memory.array(bias_name).reshape(-1)
                    data = data + bias_vector[col0 : col0 + data.shape[1]]
            elif op == "scale":
                data = data * float(uop.get("scale_factor", 1.0))
            elif op == "softmax":
                shifted = data - np.max(data, axis=-1, keepdims=True)
                exp = np.exp(shifted)
                data = exp / np.sum(exp, axis=-1, keepdims=True)
            elif op == "gelu":
                data = (
                    0.5
                    * data
                    * (
                        1.0
                        + np.tanh(np.sqrt(2.0 / np.pi) * (data + 0.044715 * data**3))
                    )
                )
            elif op == "transpose":
                data = data.T
            elif op in ("layer_add", "scale_shift", "mean_var_norm"):
                # LayerNorm spans the full hidden dimension, which is wider than
                # one MemC tile; the executor applies it on the assembled
                # off-chip tensor.  Timing was charged above.
                continue
            else:
                raise ConfigurationError(f"{self.name}: unknown non-MM op {op!r}")
        self._buffer = TileMessage.from_array(
            data, dtype=tile.dtype, tag=tile.tag, coords=tile.coords
        )

    # ----------------------------------------------------------------- kernel

    def kernel(self, uop: UOp) -> Generator:
        if uop.get("recv", False):
            tile = yield self.read_request("from_mme")
            self.stats.bytes_in += tile.nbytes
            if tile.nbytes > self.capacity_bytes:
                raise ConfigurationError(
                    f"{self.name}: tile of {tile.nbytes} B exceeds capacity "
                    f"{self.capacity_bytes} B"
                )
            yield from self._apply_ops(tile, uop)
        send_to = uop.get("send_to")
        if send_to:
            if self._buffer is None:
                raise ConfigurationError(
                    f"{self.name}: send requested but no tile is buffered"
                )
            port = {"ddr": "to_ddr", "mesh_a": "to_mesh_a", "mesh_b": "to_mesh_b"}.get(
                send_to
            )
            if port is None:
                raise ConfigurationError(
                    f"{self.name}: unknown send_to target {send_to!r}"
                )
            yield Write(self.port(port), self._buffer)
            self.stats.bytes_out += self._buffer.nbytes

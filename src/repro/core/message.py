"""Messages that travel on RSN stream channels.

Streams in the RSN abstraction carry "a continuous sequence of data from one
source FU to another destination FU" (Section 3.1).  The simulator does not
model individual words; instead a message represents one logically contiguous
burst (typically a tile of a matrix) together with its size in bytes, so the
timing model can charge ``bytes / bandwidth`` for the transfer while the
functional model can carry the actual NumPy payload for end-to-end numerical
validation.

Two modes are supported:

* ``carry_data=True`` -- :class:`TileMessage` holds a real ``numpy.ndarray``;
  the simulated datapath produces bit-identical results to the NumPy reference
  models in :mod:`repro.workloads.reference`.
* ``carry_data=False`` -- the payload is ``None`` and only the shape/dtype
  metadata is kept, which makes long timing-only runs (full BERT-Large
  encoders) cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["StreamMessage", "TileMessage", "ControlToken", "dtype_size"]


_DTYPE_SIZES = {
    "fp32": 4,
    "float32": 4,
    "fp16": 2,
    "float16": 2,
    "int8": 1,
    "int16": 2,
    "int32": 4,
}


def dtype_size(dtype: str) -> int:
    """Return the size in bytes of one element of ``dtype``.

    Accepts both the short names used throughout the paper (``fp32``, ``int8``)
    and NumPy dtype names.
    """
    key = str(dtype).lower()
    if key not in _DTYPE_SIZES:
        raise ValueError(f"unknown dtype {dtype!r}; known: {sorted(_DTYPE_SIZES)}")
    return _DTYPE_SIZES[key]


@dataclass
class StreamMessage:
    """Base class for anything sent over a stream channel.

    Attributes
    ----------
    nbytes:
        Size of the message on the wire, used for bandwidth accounting.
    tag:
        Free-form label used by tests and traces to follow a message through
        the network (e.g. ``"lhs[2,3]"``).
    """

    nbytes: int = 0
    tag: str = ""


@dataclass
class ControlToken(StreamMessage):
    """A zero-data synchronisation token.

    Used where one FU must wait for another without transferring a tile, for
    example to signal that a ping-pong buffer has flipped.
    """

    kind: str = "token"


@dataclass
class TileMessage(StreamMessage):
    """A tile of a matrix streamed between two FUs.

    Parameters
    ----------
    shape:
        Logical shape of the tile (rows, cols).
    dtype:
        Element type, e.g. ``"fp32"``.
    data:
        Optional NumPy payload.  ``None`` in timing-only runs.
    coords:
        Optional (block-row, block-col, k-step) coordinates of the tile within
        its parent matrix, used for debugging and result assembly.
    """

    shape: Tuple[int, ...] = (0, 0)
    dtype: str = "fp32"
    data: Optional[np.ndarray] = None
    coords: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.data is not None:
            self.data = np.asarray(self.data)
            self.shape = tuple(self.data.shape)
        if not self.nbytes:
            self.nbytes = self.element_count * dtype_size(self.dtype)

    @property
    def element_count(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count

    @property
    def carries_data(self) -> bool:
        return self.data is not None

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        dtype: str = "fp32",
        tag: str = "",
        coords: Tuple[int, ...] = (),
    ) -> "TileMessage":
        """Build a data-carrying tile message from a NumPy array."""
        return cls(data=np.asarray(data), dtype=dtype, tag=tag, coords=coords)

    @classmethod
    def placeholder(
        cls,
        shape: Tuple[int, ...],
        dtype: str = "fp32",
        tag: str = "",
        coords: Tuple[int, ...] = (),
    ) -> "TileMessage":
        """Build a metadata-only tile message (timing-only mode)."""
        shape = tuple(int(s) for s in shape)
        count = 1
        for dim in shape:
            count *= dim
        return cls(
            nbytes=count * dtype_size(dtype),
            shape=shape,
            dtype=dtype,
            tag=tag,
            coords=coords,
        )

    def map(self, fn: Any, tag: str | None = None) -> "TileMessage":
        """Apply ``fn`` to the payload (if any) and return a new message.

        The shape of the result is taken from the transformed payload when data
        is carried, otherwise the original shape is preserved.  This keeps
        functional and timing-only runs structurally identical.
        """
        new_tag = self.tag if tag is None else tag
        if self.data is not None:
            return TileMessage.from_array(
                fn(self.data), dtype=self.dtype, tag=new_tag, coords=self.coords
            )
        return TileMessage.placeholder(
            self.shape, dtype=self.dtype, tag=new_tag, coords=self.coords
        )

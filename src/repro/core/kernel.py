"""Kernel request primitives and helpers.

A *kernel* in RSN is "an atomic step in transforming the FU's internal state"
(Section 3.1).  In this library a kernel is a Python generator that yields the
request objects defined here; the simulation engine interprets them.  The
request set intentionally mirrors the operations that appear in the paper's
kernel pseudo-code (Fig. 6 and Fig. 7b): stream reads, stream writes, and the
time spent transforming data, plus structured concurrency for the
"load and send in parallel" idiom of double-buffered FUs and the router hop
(:class:`Forward`) of the mesh FUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Sequence

__all__ = [
    "Delay",
    "Read",
    "Write",
    "Parallel",
    "Forward",
    "Fork",
    "Wait",
    "drain",
    "send_all",
]


@dataclass(frozen=True, slots=True)
class Delay:
    """Suspend the yielding process for ``seconds`` of simulated time."""

    seconds: float


@dataclass(frozen=True, slots=True)
class Read:
    """Receive the next message from the channel behind ``port``.

    The received message is the value of the ``yield`` expression::

        message = yield Read(self.port("lhs_in"))

    Requests are immutable, so a kernel that reads the same port in a loop
    may create the request once and yield the same object every iteration
    (see :meth:`~repro.core.functional_unit.FunctionalUnit.read_request`).
    """

    port: Any


@dataclass(frozen=True, slots=True)
class Write:
    """Send ``message`` on the channel behind ``port``.

    Blocks while the channel is full, then occupies the producer for the
    channel's transfer time.
    """

    port: Any
    message: Any


@dataclass(frozen=True, slots=True)
class Forward:
    """Read one message from ``source`` and write it on ``dest``: a router hop.

    Valid only as a :class:`Parallel` branch.  The engine runs it as a
    strand, like a bare :class:`Read` or :class:`Write` branch, and the
    branch result is the forwarded message.
    """

    source: Any
    dest: Any


@dataclass(frozen=True, slots=True)
class Parallel:
    """Run several branches concurrently; resume when all finish.

    A branch is a sub-generator or a single request: a bare :class:`Read`,
    :class:`Write` or :class:`Forward`.  The engine runs a sub-generator as a
    child process and a single request as a *strand* -- the request alone,
    with no generator or process behind it.  Both take exactly the simulated
    time the request would take in a one-request generator.

    The value of the ``yield`` expression is the list of branch results in the
    order the branches were given: a sub-generator gives its return value, a
    ``Read`` or ``Forward`` the message it read, a ``Write`` ``None``.
    Request branches are immutable, so a kernel may yield the same
    ``Parallel`` of requests on every iteration.
    """

    branches: Sequence[Any]


@dataclass(frozen=True, slots=True)
class Fork:
    """Spawn a sub-generator as an independent process and continue."""

    branch: Generator[Any, Any, Any]
    name: str = ""


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until a previously forked process (its handle) finishes."""

    handle: Any


def drain(port: Any, count: int) -> Generator[Any, Any, list]:
    """Read ``count`` messages from ``port`` and return them as a list.

    A convenience for kernels that consume a fixed-length stream, e.g. the
    ``for (i=0; i<N; i++) data = stream.read()`` loops in Fig. 6.
    """
    messages = []
    for _ in range(count):
        message = yield Read(port)
        messages.append(message)
    return messages


def send_all(port: Any, messages: Iterable[Any]) -> Generator[Any, Any, int]:
    """Write every message in ``messages`` to ``port``; return the count."""
    count = 0
    for message in messages:
        yield Write(port, message)
        count += 1
    return count

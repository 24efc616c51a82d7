"""Engine strands: ``Parallel`` branches that are one bare request.

A bare ``Read``, ``Write`` or ``Forward`` branch runs as an engine strand
instead of a child process.  The contract pinned here: a strand returns its
result in branch order, takes exactly the simulated time of the equivalent
one-request generator branch, moves the same messages and bytes on every
channel, and still reports deadlocks, closed channels and trace events.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DeadlockError,
    Delay,
    Forward,
    Parallel,
    Read,
    Simulator,
    StreamChannel,
    StreamClosedError,
    TileMessage,
    Trace,
    Write,
)


def tile(tag, cols=4):
    return TileMessage.placeholder((1, cols), tag=tag)


# ---------------------------------------------------------------- generators
# One-request generator branches, the pre-strand way to say the same thing.


def _request(request):
    return (yield request)


def _forward(source, dest):
    message = yield Read(source)
    yield Write(dest, message)
    return message


def as_generator(branch):
    if isinstance(branch, Forward):
        return _forward(branch.source, branch.dest)
    if isinstance(branch, (Read, Write)):
        return _request(branch)
    return branch


class TestBranchResults:
    def test_bare_branches_return_results_in_branch_order(self):
        sim = Simulator()
        out = StreamChannel("out", capacity=2, bandwidth=10.0)
        src = StreamChannel("src", capacity=2)
        hop_in = StreamChannel("hop_in", capacity=2)
        hop_out = StreamChannel("hop_out", capacity=2, latency=0.5)
        seen = {}

        def feeder():
            yield Delay(1.0)
            yield Write(hop_in, tile("hop"))
            yield Write(src, tile("src"))

        def parent():
            seen["results"] = yield Parallel(
                [Write(out, tile("out")), Read(src), Forward(hop_in, hop_out)]
            )

        def sink():
            seen["out"] = (yield Read(out)).tag
            seen["hop_out"] = (yield Read(hop_out)).tag

        sim.add_process("parent", parent())
        sim.add_process("feeder", feeder())
        sim.add_process("sink", sink())
        stats = sim.run()
        results = seen["results"]
        assert results[0] is None
        assert [message.tag for message in results[1:]] == ["src", "hop"]
        assert seen["out"] == "out" and seen["hop_out"] == "hop"
        # The 16 B write takes 1.6 s; the hop lands at 1.0 + 0.5 s.
        assert stats.end_time == pytest.approx(1.6)

    def test_bare_branches_mixed_with_generators(self):
        sim = Simulator()
        src = StreamChannel("src", capacity=2)
        out = StreamChannel("out", capacity=2)
        seen = []

        def slow(value):
            yield Delay(2.0)
            return value

        def feeder():
            yield Delay(1.0)
            yield Write(src, tile("a"))

        def parent():
            results = yield Parallel(
                [slow("first"), Read(src), slow(None), Write(out, tile("b"))]
            )
            seen.append(results)

        def sink():
            yield Read(out)

        sim.add_process("parent", parent())
        sim.add_process("feeder", feeder())
        sim.add_process("sink", sink())
        stats = sim.run()
        (results,) = seen
        assert results[0] == "first"
        assert results[1].tag == "a"
        assert results[2:] == [None, None]
        assert stats.end_time == pytest.approx(2.0)
        # Strands are not processes; generator branches still are.
        assert stats.processes == 3 + 2
        assert "parent/p0" in stats.process_times
        assert "parent/p1" not in stats.process_times

    def test_a_request_parallel_can_be_yielded_again(self):
        sim = Simulator()
        a = StreamChannel("a", capacity=1)
        b = StreamChannel("b", capacity=1)
        got = []

        def source():
            for index in range(3):
                yield Write(a, tile(f"m{index}"))

        def router():
            hop = Parallel((Forward(a, b),))
            for _ in range(3):
                (message,) = yield hop
                got.append(message.tag)

        def sink():
            for _ in range(3):
                yield Read(b)
                yield Delay(1.0)

        sim.add_process("source", source())
        sim.add_process("router", router())
        sim.add_process("sink", sink())
        assert sim.run().end_time == pytest.approx(3.0)
        assert got == ["m0", "m1", "m2"]


class TestStrandFailures:
    def test_strand_blocked_forever_reports_its_parent(self):
        sim = Simulator()
        never = StreamChannel("never", capacity=1)
        full = StreamChannel("full", capacity=1)

        def parent():
            yield Write(full, tile("fill"))
            yield Parallel([Read(never), Write(full, tile("stuck"))])

        sim.add_process("parent", parent())
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        blocked = dict(excinfo.value.blocked)
        assert blocked == {"parent": "2 parallel branch(es)"}

    def test_forward_blocked_on_its_write_deadlocks(self):
        sim = Simulator()
        src = StreamChannel("src", capacity=1)
        dest = StreamChannel("dest", capacity=1)

        def parent():
            yield Write(src, tile("a"))
            yield Write(dest, tile("fill"))
            yield Parallel([Forward(src, dest)])

        sim.add_process("parent", parent())
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        assert dict(excinfo.value.blocked) == {"parent": "1 parallel branch(es)"}

    def test_write_strand_on_closed_channel_raises(self):
        sim = Simulator()
        closed = StreamChannel("closed", capacity=1)
        closed.close()

        def parent():
            yield Parallel([Write(closed, tile("x"))])

        sim.add_process("parent", parent())
        with pytest.raises(StreamClosedError, match="parent/p0.*'closed'"):
            sim.run()

    def test_forward_strand_into_closed_channel_raises(self):
        sim = Simulator()
        src = StreamChannel("src", capacity=1)
        dest = StreamChannel("dest", capacity=1)

        def feeder():
            yield Delay(1.0)
            dest.close()
            yield Write(src, tile("x"))

        def pause():
            yield Delay(0.5)

        def parent():
            yield Parallel([pause(), Forward(src, dest)])

        sim.add_process("parent", parent())
        sim.add_process("feeder", feeder())
        with pytest.raises(StreamClosedError, match="parent/p1.*'dest'"):
            sim.run()

    def test_bare_forward_outside_parallel_is_rejected(self):
        sim = Simulator()
        a = StreamChannel("a")
        b = StreamChannel("b")

        def proc():
            yield Forward(a, b)

        sim.add_process("proc", proc())
        with pytest.raises(TypeError, match="unsupported request"):
            sim.run()


class TestStrandTracing:
    def test_trace_records_strand_reads_and_writes(self):
        trace = Trace()
        sim = Simulator(trace=trace)
        src = StreamChannel("src", capacity=1)
        out = StreamChannel("out", capacity=1, bandwidth=4.0)

        def feeder():
            yield Write(src, tile("early"))
            yield Delay(10.0)
            yield Write(src, tile("late"))

        def parent():
            yield Delay(0.5)
            yield Parallel([Read(src), Write(out, tile("o"))])
            yield Parallel([Read(src)])

        def sink():
            yield Read(out)

        sim.add_process("feeder", feeder())
        sim.add_process("parent", parent())
        sim.add_process("sink", sink())
        sim.run()
        kinds = [(event.kind, event.process) for event in trace]
        assert ("read", "parent/p0") in kinds
        assert ("write", "parent/p1") in kinds
        assert ("block-read", "parent/p0") in kinds
        assert ("unblock-read", "parent/p0") in kinds
        write = trace.first("write", "parent/p1")
        assert write.detail == "out (16 B)"


# -------------------------------------------------------------- differential


@st.composite
def pipelines(draw):
    """A random point-to-point pipeline: fan-out, router hops, ping-pong, fan-in.

    ``source -> splitter`` fans each message out to ``lanes`` channels,
    ``router`` forwards every lane (next to a generator branch), ``pingpong``
    reads all lanes while sending its previous tile, and ``drain`` consumes.
    Every channel gets a random capacity, bandwidth and latency; every stage
    a random delay per round.
    """
    lanes = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 5))
    channel_names = (
        ["src", "out"]
        + [f"fan{j}" for j in range(lanes)]
        + [f"hop{j}" for j in range(lanes)]
    )
    link = st.tuples(
        st.integers(1, 3),
        st.sampled_from([None, 8.0, 64.0]),
        st.sampled_from([0.0, 0.25, 1.0]),
    )
    delay = st.lists(
        st.sampled_from([0.0, 0.5, 1.5]), min_size=rounds, max_size=rounds
    )
    return {
        "lanes": lanes,
        "rounds": rounds,
        "channels": {name: draw(link) for name in channel_names},
        "delays": {
            name: draw(delay)
            for name in ("source", "splitter", "router", "pingpong", "drain")
        },
        "sizes": draw(st.lists(st.integers(0, 64), min_size=rounds, max_size=rounds)),
    }


def run_pipeline(spec, bare, fast_zero_delay=True):
    """Simulate ``spec``; request branches are bare strands or generators."""
    lanes, rounds, delays = spec["lanes"], spec["rounds"], spec["delays"]
    channels = {
        name: StreamChannel(name, capacity=capacity, bandwidth=bw, latency=latency)
        for name, (capacity, bw, latency) in spec["channels"].items()
    }
    fan = [channels[f"fan{j}"] for j in range(lanes)]
    hop = [channels[f"hop{j}"] for j in range(lanes)]
    received = {name: [] for name in channels}

    def parallel(branches):
        if not bare:
            branches = [as_generator(branch) for branch in branches]
        return Parallel(branches)

    def note(channel, message):
        received[channel.name].append(message.tag)

    def source():
        for index in range(rounds):
            yield Delay(delays["source"][index])
            message = TileMessage.placeholder((1, spec["sizes"][index]), tag=f"m{index}")
            yield Write(channels["src"], message)

    def splitter():
        for index in range(rounds):
            message = yield Read(channels["src"])
            note(channels["src"], message)
            yield parallel([Write(channel, message) for channel in fan])
            yield Delay(delays["splitter"][index])

    def pause(seconds):
        yield Delay(seconds)
        return seconds

    def router():
        for index in range(rounds):
            results = yield parallel(
                [Forward(f, h) for f, h in zip(fan, hop)]
                + [pause(delays["router"][index])]
            )
            for channel, message in zip(fan, results):
                note(channel, message)
            assert results[-1] == delays["router"][index]

    def pingpong():
        previous = None
        for index in range(rounds):
            branches = [Read(channel) for channel in hop]
            if previous is not None:
                branches.append(Write(channels["out"], previous))
            results = yield parallel(branches)
            for channel, message in zip(hop, results):
                note(channel, message)
            if previous is not None:
                assert results[-1] is None
            previous = TileMessage.placeholder(
                (lanes, spec["sizes"][index] + 1), tag=f"p{index}"
            )
            yield Delay(delays["pingpong"][index])
        yield Write(channels["out"], previous)

    def drain():
        for index in range(rounds):
            note(channels["out"], (yield Read(channels["out"])))
            yield Delay(delays["drain"][index])

    sim = Simulator(fast_zero_delay=fast_zero_delay)
    for name, proc in (
        ("source", source),
        ("splitter", splitter),
        ("router", router),
        ("pingpong", pingpong),
        ("drain", drain),
    ):
        sim.add_process(name, proc())
    stats = sim.run()
    counts = {
        name: (channel.stats.messages, channel.stats.bytes)
        for name, channel in channels.items()
    }
    return stats, received, counts


@given(spec=pipelines())
def test_strands_match_one_request_generators(spec):
    """The strand differential: identical timing, messages and byte counts."""
    gen_stats, gen_received, gen_counts = run_pipeline(spec, bare=False)
    for fast_zero_delay in (True, False):
        stats, received, counts = run_pipeline(spec, True, fast_zero_delay)
        assert stats.end_time == gen_stats.end_time
        assert received == gen_received
        assert counts == gen_counts
        # Strands replace child-process starts and resumes.
        assert stats.events < gen_stats.events
        assert stats.processes < gen_stats.processes

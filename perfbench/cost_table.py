"""Regenerate ``encoder_events.json``: for each point of the ``encoder``
space, the engine events its cycle-level run simulates from an empty
segment memo (0 for a point the engine refuses before simulating).

    python3 perfbench/cost_table.py        # about five minutes

``verify-engine`` orders the feasible points by these counts before it
draws one point from each of its strata, so that every seed certifies an
equally costly mix.  The counts come from the simulation, not the host
clock, so the table is the same on every host.  A stale table only makes
the strata less even: rerun this after the space or the engine changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402

TABLE = HERE / "encoder_events.json"


def main() -> int:
    recorder = tracer.Recorder()
    tracer.instrument(recorder)
    from repro.core.exceptions import ConfigurationError
    from repro.explore.spaces import get_space
    from repro.runner import sweep
    from repro.runner.cache import process_segment_memo
    from repro.runner.executors import SerialExecutor

    space = get_space("encoder")
    executor = SerialExecutor()
    events = {}
    for index, assignment in enumerate(space.iter_points()):
        point_id = space.point_id(assignment)
        process_segment_memo().clear()
        recorder.begin_pass(point_id)
        try:
            sweep.run_sweep(
                [space.materialize(assignment).scenario],
                backend="engine",
                executor=executor,
            )
        except ConfigurationError:
            pass  # refused: counts the events simulated before the refusal
        finally:
            recorder.end_pass()
        events[point_id] = recorder.counters.pop(point_id)["core.engine.events"]
        recorder.spans.clear()
        if index % 100 == 0:
            print(f"{index} points", flush=True)
    TABLE.write_text(json.dumps(events, sort_keys=True, separators=(",", ":")))
    print(f"wrote {len(events)} points to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

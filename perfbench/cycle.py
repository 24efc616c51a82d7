"""One measurement cycle in a fresh interpreter: set-up, a cold pass, then
warm reruns in the same processes.  Started by ``run.py``; not a
user-facing command.

    python3 perfbench/cycle.py --workload NAME --seed N --out FILE
        --workdir DIR [--trace] [--spans]

Writes one JSON object to ``--out``: the ``perf_counter`` reading at which
the workload was ready (``run.py`` subtracts its own reading taken just
before starting this process -- both read the system-wide monotonic
clock), one record per pass, the peak resident memory of this process and
its workers, the speed samples this process and its workers took
(``speed.py``), and with ``--trace`` the per-layer metrics of the cold
pass plus the first warm pass (and with ``--spans`` the spans
themselves).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args()

    sampler = speed.Sampler().start()
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        tracer.instrument(recorder)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.perf_counter()
    record = {"ready": ready, "code_version": workload.code_version, "passes": []}
    try:
        # Traced cycles need one warm pass for the per-layer metrics.
        warm = 1 if args.trace else workload.WARM
        run_passes(workload, recorder, warm, record)
        record["peak_rss_mb"] = workload.peak_rss_mb()
    finally:
        workload.close()
    record["speed_s"] = sampler.stop() + workload.speed_samples()
    if recorder is not None:
        walls = {p["id"]: p["wall_s"] for p in record["passes"][:2]}
        record["layers"] = tracer.layer_metrics(recorder, walls, workload.workers)
        record["top_level_s"] = {
            pass_id: tracer.top_level_seconds(recorder, pass_id) for pass_id in walls
        }
        if args.spans:
            record["spans"] = [s for s in recorder.spans if s[4] in walls]
    args.out.write_text(json.dumps(record))
    return 0


def run_passes(workload, recorder, warm: int, record: dict) -> None:
    """The cold pass, then ``warm`` reruns; each judged outside its timing."""
    for index in range(1 + warm):
        pass_id = "cold" if index == 0 else f"warm{index}"
        gc.collect()
        if recorder is not None:
            recorder.begin_pass(pass_id)
        try:
            result = workload.run_pass()
        finally:
            if recorder is not None:
                recorder.end_pass()
        workload.judge(result)
        result.setdefault("failed", len(result["failures"]))
        result["id"] = pass_id
        record["passes"].append(result)


if __name__ == "__main__":
    sys.exit(main())

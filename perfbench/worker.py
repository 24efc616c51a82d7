"""A work-queue worker that takes speed samples (``speed.py``) as it runs.

    python3 perfbench/worker.py SAMPLES_FILE [repro.runner worker options]

Runs ``python -m repro.runner worker`` with the given options in this
process and, when it exits or is terminated, writes its speed samples to
``SAMPLES_FILE`` as a JSON list.  Started by ``workloads.py``; not a
user-facing command.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
from pathlib import Path

import speed


def main() -> None:
    out = Path(sys.argv[1])
    sys.argv = ["repro.runner", "worker"] + sys.argv[2:]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sampler = speed.Sampler().start()
    try:
        runpy.run_module("repro.runner", run_name="__main__", alter_sys=True)
    finally:
        out.write_text(json.dumps(sampler.stop()))


if __name__ == "__main__":
    main()

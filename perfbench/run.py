"""The repository's benchmark: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
        [--trace 0|1]

Run from the root of a source checkout.  Each workload is measured in
*cycles*: a fresh interpreter (``cycle.py``) sets the workload up, runs one
cold pass, then warm reruns in the same processes.  Cycles repeat until
``--seconds`` are spent, at least three (the last may run half a cycle
over).  An end-to-end metric is the median of a run's samples, in
reference seconds: host seconds scaled by the speed samples taken
alongside the work (``speed.py``), so that a host which slows down for a
stretch does not move the metrics.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of the traced ones (cold pass plus first warm pass,
median over cycles) and ``trace.overhead_s`` (traced minus untraced cold
wall time).  It also writes the first traced cycle's spans as Chrome
trace-event JSON to ``.perfbench_out/``, where a full report of every run
goes too.

Every run checks the exact outputs (simulated latencies, traffic bytes,
frontier ids, serving percentiles) for identity across passes, cycles and
earlier runs with the same seed, and the engine-versus-analytic contract.
Metrics are printed by name with their units; the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE / "layers.json").read_text())
#: identity of the benchmark's own sources: pinned exact outputs are only
#: compared within one program version *and* one benchmark version.
BENCH_SOURCES = sorted(HERE.glob("*.py")) + sorted(HERE.glob("*.json"))
BENCH_BYTES = b"".join(path.read_bytes() for path in BENCH_SOURCES)
BENCH_VERSION = hashlib.sha256(BENCH_BYTES).hexdigest()

#: metric -> unit, in print order, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
#: measured cycles per run, however long they take: fewer samples would
#: leave a run's median to one cycle's luck, and a traced run needs untraced
#: and traced cycles.
MIN_CYCLES = 3
#: fewest speed samples a scale rests on (half a second of sampling).
MIN_SAMPLES = 20
#: cap on a speed sample, as a multiple of its window's median.
SPIKE = 3.0
#: set-up time follows the speed samples as their 0.75th power, not in
#: proportion: it is mostly imports, much of them C-level loading that the
#: host's slow states slow less than the pure-Python loop.  Fitted on the
#: host below, from forty runs across its speed states (README.md, *Noise*).
SETUP_TRACKING = 0.75


def run_limit_s(seconds: float) -> float:
    """Whole-run ceiling for a run of ``seconds``: a cycle still running
    then has hung and is killed.  Normal runs end within half a cycle of
    ``seconds``."""
    return 2 * seconds + 60.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def tail(samples: Sequence[float]) -> Tuple[str, float]:
    """``(label, value)``: the highest of p99/p95/p90/p75 with at least
    ten samples beyond it.  With fewer than 40 samples no such percentile
    exists and the slowest sample stands in (label ``max``)."""
    for percentile in (99, 95, 90, 75):
        if len(samples) * (100 - percentile) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return f"p{percentile}", cuts[percentile - 1]
    return "max", max(samples)


def iqr_share(samples: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2


# -------------------------------------------------------------- cycles


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group (a cycle and the
    work-queue workers it started) and wait until no member is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the cycle and its workers have all exited
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_cycle(
    workload: str,
    seed: int,
    workdir: Path,
    deadline: float,
    trace: bool = False,
    spans: bool = False,
) -> Dict[str, Any]:
    """One ``cycle.py`` interpreter; returns its record plus ``setup_s``
    and the cycle's ``duration_s``."""
    out = workdir / "cycle.json"
    cycle_dir = workdir / "cycle"
    shutil.rmtree(cycle_dir, ignore_errors=True)
    cycle_dir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "cycle.py"), "--workload", workload]
    command += ["--seed", str(seed), "--out", str(out), "--workdir", str(cycle_dir)]
    command += ["--trace"] * trace + ["--spans"] * spans
    start = time.perf_counter()
    # Its own process group, so a cycle that overruns or fails is stopped
    # together with any work-queue workers it started.
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} cycle overran the run limit") from None
    finally:
        stop_group(proc)
        shutil.rmtree(cycle_dir, ignore_errors=True)
    if proc.returncode != 0:
        output = log.decode(errors="replace")[-4000:]
        raise BenchmarkError(f"{workload} cycle exited {proc.returncode}:\n{output}")
    record = json.loads(out.read_text())
    out.unlink()
    record["setup_s"] = record["ready"] - start
    record["duration_s"] = time.perf_counter() - start
    record["traced"] = trace
    return record


def measure(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> List[Dict[str, Any]]:
    """At least three cycles, and more until ``seconds`` are spent: another
    cycle starts while it should end less than half a cycle late.  With
    ``trace``, cycles alternate untraced and traced, so there is at least
    one of each."""
    start = time.perf_counter()
    deadline = start + run_limit_s(seconds)
    cycles: List[Dict[str, Any]] = []
    while True:
        traced = trace and len(cycles) % 2 == 1
        spans = traced and len(cycles) == 1
        cycles.append(run_cycle(workload, seed, workdir, deadline, traced, spans))
        late = time.perf_counter() - start + cycles[-1]["duration_s"] / 2
        if len(cycles) >= MIN_CYCLES and late > seconds:
            return cycles


# ----------------------------------------------------------- reporting


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def check_exact(
    workload: str, seed: int, cycles: List[Dict[str, Any]], problems: List[str]
) -> Optional[str]:
    """Every pass of every cycle must give the same exact outputs, and so
    must an earlier run with this seed and the same program and benchmark
    versions.  Returns them, canonically encoded."""
    passes = [p for c in cycles for p in c["passes"] if p["exact"] is not None]
    texts = sorted({canonical(p["exact"]) for p in passes})
    if len(texts) > 1:
        problems.append(f"exact outputs differ between passes: {len(texts)} variants")
    versions = sorted({c["code_version"] for c in cycles})
    if len(versions) > 1:
        problems.append(f"program version changed during the run: {versions}")
    if not texts:
        return None
    name = f"{workload}-seed{seed}-{versions[0][:12]}-{BENCH_VERSION[:12]}.json"
    pinned = OUT / "exact" / name
    if not pinned.exists():
        pinned.parent.mkdir(parents=True, exist_ok=True)
        pinned.write_text(texts[0])
    elif pinned.read_text() != texts[0]:
        problems.append(f"exact outputs differ from an earlier run: {pinned}")
    return texts[0]


def scale(samples: List[List[float]], start: float, end: float) -> float:
    """Host seconds -> reference seconds for work done from ``start`` to
    ``end``: ``REFERENCE_S`` over the mean of the speed samples taken
    meanwhile, or of the ``MIN_SAMPLES`` nearest the middle when fewer
    were.  The mean, because work lasts the sum of its slow and fast
    moments, and so does a sum of evenly spread samples.  Each sample is
    first capped at ``SPIKE`` times the window's median: the host's slow
    states stay within that, while a sample the scheduler preempted can
    be ten times as slow and would swing a short window's mean alone."""
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [seconds for _, seconds in nearest[:MIN_SAMPLES]]
    cap = SPIKE * statistics.median(inside)
    return speed.REFERENCE_S / statistics.mean(min(x, cap) for x in inside)


def pass_scales(cycle: Dict[str, Any]) -> List[float]:
    """:func:`scale` of each of the cycle's passes."""
    samples = cycle["speed_s"]
    return [
        scale(samples, done["start"], done["start"] + done["wall_s"])
        for done in cycle["passes"]
    ]


def scaled_calls(cycle: Dict[str, Any], done: Dict[str, Any], factor: float):
    """The pass's call times in reference seconds: each scaled by the
    samples taken during that call where the pass records when its calls
    started (``calls_at``), else by the pass's own ``factor`` (work-queue
    chunk jobs, timed by the worker that ran them)."""
    starts = done.get("calls_at")
    if starts is None:
        return [seconds * factor for seconds in done["calls_s"]]
    samples = cycle["speed_s"]
    return [
        seconds * scale(samples, at, at + seconds)
        for at, seconds in zip(starts, done["calls_s"])
    ]


def end_to_end(cycles: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The end-to-end metrics of the untraced cycles: each is the median of
    its samples, one per cycle (one per warm pass for ``warm_wall_s``),
    every time in reference seconds (:func:`scale`).

    Host seconds alone do not repeat on a shared host: the same code ran
    up to 2.6x slower from one run to the next, for stretches longer than
    a run (README.md, *Noise*).  No statistic within a run removes that,
    but the speed samples slow down with it.  Notes give sample counts,
    quartile spreads and the median in host seconds; every sample is kept
    in the run's report."""
    plain = [c for c in cycles if not c["traced"]]
    # Each time as a (host seconds, reference seconds) pair.
    host: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in ("setup_s", "wall_s", "warm_wall_s")
    }
    host["call_p50_s"], host["call_tail_s"] = [], []
    items, labels = [], []
    for cycle in plain:
        ready, seconds = cycle["ready"], cycle["setup_s"]
        factor = scale(cycle["speed_s"], ready - seconds, ready) ** SETUP_TRACKING
        host["setup_s"].append((seconds, seconds * factor))
        factors = pass_scales(cycle)
        for index, (done, factor) in enumerate(zip(cycle["passes"], factors)):
            name = "warm_wall_s" if index else "wall_s"
            host[name].append((done["wall_s"], done["wall_s"] * factor))
        # Call percentiles are taken within each cold pass, whose call
        # count the workload fixes, then their median over cycles: the
        # percentile a workload reports never depends on how many cycles a
        # run fitted.
        cold = cycle["passes"][0]
        calls = scaled_calls(cycle, cold, factors[0])
        host["call_p50_s"].append(
            (statistics.median(cold["calls_s"]), statistics.median(calls))
        )
        label, value = tail(calls)
        host["call_tail_s"].append((tail(cold["calls_s"])[1], value))
        labels.append(label)
        items.append(cold["items"])
    samples = {
        name: [reference for _, reference in data] for name, data in host.items()
    }
    samples["peak_rss_mb"] = [c["peak_rss_mb"] for c in plain]
    values = {name: statistics.median(data) for name, data in samples.items()}
    values["items_per_s"] = statistics.median(items) / values["wall_s"]
    notes = {
        name: f"median of {len(data)}, iqr/median {iqr_share(data):.3f}"
        for name, data in samples.items()
    }
    for name, data in host.items():
        seconds = statistics.median(seconds for seconds, _ in data)
        notes[name] += f", host {seconds:.4g} s"
    calls = len(plain[0]["passes"][0]["calls_s"])
    for name in ("call_p50_s", "call_tail_s"):
        notes[name] += f"; passes of {calls} calls"
    notes["call_tail_s"] += f", {labels[0]}"
    everything = [sample for c in plain for sample in c["speed_s"]]
    factor = scale(everything, -math.inf, math.inf)
    return {"values": values, "notes": notes, "samples": samples, "scale": factor}


def per_layer(cycles: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over traced cycles of each per-layer metric (host seconds),
    plus the tracing overhead on the cold pass in reference seconds."""
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    metrics = {
        name: statistics.median(c["layers"][name] for c in traced)
        for name in traced[0]["layers"]
    }

    def cold_wall(group: List[Dict[str, Any]]) -> float:
        walls = [c["passes"][0]["wall_s"] * pass_scales(c)[0] for c in group]
        return statistics.median(walls)

    traced_wall, plain_wall = cold_wall(traced), cold_wall(plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def write_chrome_trace(path: Path, cycles: List[Dict[str, Any]], origin: float):
    events: List[Dict[str, Any]] = []
    for pid, cycle in enumerate(cycles, start=1):
        if "spans" in cycle:
            label = {"name": f"traced cycle {pid}"}
            meta = {"name": "process_name", "ph": "M", "pid": pid, "args": label}
            events.append(meta)
            events.extend(tracer.chrome_events(cycle["spans"], origin, pid))
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(trace, separators=(",", ":")))


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, host: Dict[str, Any]
) -> Dict[str, Any]:
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    origin = time.perf_counter()
    try:
        cycles = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = [p for c in cycles for p in c["passes"]]
    problems = [f"{p['id']}: {text}" for p in passes for text in p["problems"]]
    exact = check_exact(workload, seed, cycles, problems)
    failures = {f["id"]: f["reason"] for p in passes for f in p["failures"]}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = end_to_end(cycles)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host,
        "end_to_end": summary,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "exact": json.loads(exact) if exact else None,
        "cycles": [{k: v for k, v in c.items() if k != "spans"} for c in cycles],
    }
    if trace:
        report["per_layer"] = metrics = per_layer(cycles)
        trace_path = OUT / f"trace-{workload}.json"
        write_chrome_trace(trace_path, cycles, origin)
        report["chrome_trace"] = str(trace_path.relative_to(ROOT))
        printed = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        notes = {}
    else:
        values = summary["values"]
        printed = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        notes = dict(summary["notes"])
        notes["items_per_s"] = f"{WORKLOADS[workload].ITEM}_per_s"
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))

    cycle_count = len(cycles)
    factor = summary["scale"]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  cycles {cycle_count}")
    print(f"  reference seconds per host second {factor:.4f}")
    for name, (value, unit) in printed.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    digest = hashlib.sha256((exact or "").encode()).hexdigest()[:16]
    print(f"  exact outputs sha256 {digest}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for point, reason in sorted(failures.items()):
        print(f"    failed {point}: {reason.splitlines()[0][:160]}")
    for text in problems:
        print(f"  PROBLEM {text.splitlines()[0][:200]}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in printed.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    choices = sorted(WORKLOADS) + ["all"]
    parser.add_argument("--workload", required=True, choices=choices)
    parser.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sources = ROOT / "src" / "repro"
    if not sources.is_dir():
        print(f"perfbench: no program sources at {sources}", file=sys.stderr)
        return 2
    # Terminated, a run still stops the cycle and the workers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    host = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": speed.probe(),
    }
    print(" ".join(f"{key} {value}" for key, value in host.items()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            trace = bool(args.trace)
            results[name] = run_workload(name, args.seed, args.seconds, trace, host)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

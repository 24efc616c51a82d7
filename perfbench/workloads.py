"""The benchmark's four workloads, each a closed loop with a single caller.

A workload object is built once per interpreter; its construction is the
set-up the ``setup_s`` metric times.  Every :meth:`Workload.run_pass` call
is one pass: the first one in a fresh interpreter is the *cold* pass, later
ones are *warm* reruns in the same processes.  A pass records its host wall
time, the host time of each call it made into the program, and how many
items it processed.  :meth:`Workload.judge` then adds, outside the timing,
how many operations it attempted and which failed, and its *exact outputs*:
simulated latencies, traffic bytes, frontier ids and serving percentiles,
which must be identical between passes, between runs with the same seed,
and between traced and untraced runs.

The workload seed only shapes the inputs the benchmark generates (the
engine sample, the serving traces); the grid explorations cover their whole
space and so do not depend on it.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: relative slack on the lower-bound comparison, as in the explorer's own
#: verify-top contract: float-noise headroom only.
CONTRACT_RTOL = 1e-9

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TRAFFIC_KEYS = ("ddr_bytes", "lpddr_bytes")


def stratified_sample(
    items: Sequence[Any], count: int, rng: random.Random, key=None
) -> List[Any]:
    """One seeded pick from each of ``count`` equal-size strata of ``items``
    ordered by ``key`` (a stable sort, so ties keep enumeration order)."""
    total = len(items)
    if total < count:
        raise ValueError(f"cannot sample {count} of {total} items")
    ordered = sorted(items, key=key)
    picks = []
    for stratum in range(count):
        low = stratum * total // count
        high = (stratum + 1) * total // count
        picks.append(ordered[rng.randrange(low, high)])
    return picks


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


class Workload:
    """Base class: subclasses implement :meth:`_pass` and :meth:`judge`."""

    name = "abstract"
    #: worker processes doing the jobs (``dispatch_overhead_s`` divides the
    #: summed job time by this).
    workers = 1
    #: warm reruns per untraced cycle (traced cycles run one).
    WARM = 1
    #: what one item of ``items_per_s`` is.
    ITEM = "points"

    def __init__(self, seed: int, workdir: Path):
        # Every program module a pass calls is imported here, as part of
        # set-up: the kind registry, the sweep, explore and serve layers.
        from repro.explore import explore, spaces, strategies  # noqa: F401
        from repro.runner import library, sweep  # noqa: F401
        from repro.runner.cache import code_version
        from repro.serve import driver  # noqa: F401

        self.seed = seed
        self.workdir = workdir
        self.code_version = code_version()

    def run_pass(self) -> Dict[str, Any]:
        start = time.perf_counter()
        result = self._pass()
        result["wall_s"] = time.perf_counter() - start
        result["start"] = start
        return result

    def _pass(self) -> Dict[str, Any]:
        raise NotImplementedError

    def judge(self, result: Dict[str, Any]) -> None:
        """Replace the raw outputs in ``result`` by ``attempted``,
        ``failures`` (id and reason), ``problems`` (wrong outputs) and
        ``exact`` (the outputs compared for identity)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def speed_samples(self) -> List[List[float]]:
        """Speed samples of the workload's worker processes, once closed."""
        return []

    def close(self) -> None:
        pass


# ------------------------------------------------------------ verify-engine


class VerifyEngine(Workload):
    """Cycle-level certification of a seeded sample of encoder points, one
    point per ``run_sweep`` call, each checked against the analytic model."""

    name = "verify-engine"
    POINTS = 40
    WARM = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.explore.spaces import get_space
        from repro.runner.executors import SerialExecutor

        space = get_space("encoder")
        assignments = list(space.iter_points())
        ids = [space.point_id(assignment) for assignment in assignments]
        # Strata ordered by each point's engine events (cost_table.py), so
        # that every seed certifies an equally costly mix.  A point the
        # table lacks (the space changed since) sorts as a median point.
        events = json.loads((HERE / "encoder_events.json").read_text())
        middle = statistics.median(events.values())

        def cost(index: int) -> float:
            return events.get(ids[index], middle)

        rng = random.Random(seed)
        picks = stratified_sample(range(len(ids)), self.POINTS, rng, key=cost)
        self.points = [
            (ids[i], space.materialize(assignments[i]).scenario) for i in picks
        ]
        self.executor = SerialExecutor()
        self._reference: Optional[List[Dict[str, Any]]] = None

    def _pass(self) -> Dict[str, Any]:
        from repro.runner import sweep

        outputs, calls, starts = [], [], []
        for point_id, scenario in self.points:
            start = time.perf_counter()
            starts.append(start)
            try:
                (outcome,) = sweep.run_sweep(
                    [scenario], backend="engine", executor=self.executor
                )
            except Exception as error:  # a refused point must not end the pass
                output = {"error": f"{type(error).__name__}: {error}"}
            else:
                output = {"latency_s": outcome.result["latency_s"]}
                output.update((k, outcome.result[k]) for k in TRAFFIC_KEYS)
            calls.append(time.perf_counter() - start)
            outputs.append({"point": point_id, **output})
        return {
            "calls_s": calls,
            "calls_at": starts,
            "items": len(outputs),
            "engine": outputs,
        }

    def reference(self) -> List[Dict[str, Any]]:
        """The analytic backend's result for every sampled point, computed
        once, outside any timed pass."""
        if self._reference is None:
            from repro.runner import sweep

            scenarios = [scenario for _, scenario in self.points]
            outcomes = sweep.run_sweep(
                scenarios, backend="analytic", executor=self.executor
            )
            self._reference = []
            for (point_id, _), outcome in zip(self.points, outcomes):
                reference = {"point": point_id}
                for key in ("latency_s",) + TRAFFIC_KEYS:
                    reference[key] = outcome.result[key]
                self._reference.append(reference)
        return self._reference

    def judge(self, result: Dict[str, Any]) -> None:
        failures, violations = [], []
        for engine, analytic in zip(result["engine"], self.reference()):
            if "error" in engine:
                failures.append({"id": engine["point"], "reason": engine["error"]})
                continue
            bound = engine["latency_s"] * (1 + CONTRACT_RTOL)
            bound_ok = analytic["latency_s"] <= bound
            traffic_ok = all(analytic[key] == engine[key] for key in TRAFFIC_KEYS)
            if not (bound_ok and traffic_ok):
                reason = f"contract violated: analytic {analytic}, engine {engine}"
                failures.append({"id": engine["point"], "reason": reason})
                violations.append(reason)
        result["attempted"] = len(result["engine"])
        result["failures"] = failures
        result["problems"] = violations
        result["exact"] = {
            "engine": result.pop("engine"),
            "analytic": self.reference(),
        }


# ------------------------------------------------------------------ DSE


class DseGrid(Workload):
    """The whole 8,064-point ``chiplet-encoder`` grid on the batched
    analytic proxy, serial, no cache."""

    name = "dse-grid"
    BUDGET = 8064
    VERIFY_TOP = 0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.runner.executors import SerialExecutor

        self.executor = SerialExecutor()
        self.cache = None
        self.chunk_size = None

    def _pass(self) -> Dict[str, Any]:
        from repro.explore import explore, spaces, strategies

        start = time.perf_counter()
        try:
            report = explore.run_exploration(
                spaces.get_space("chiplet-encoder"),
                strategies.GridSearch(),
                budget=self.BUDGET,
                verify_top=self.VERIFY_TOP,
                seed=0,
                proxy="batched",
                executor=self.executor,
                cache=self.cache,
                chunk_size=self.chunk_size,
            )
        except RuntimeError as error:  # a work-queue job failed
            calls = [time.perf_counter() - start]
            return {"calls_s": calls, "items": 0, "error": str(error)}
        calls = [time.perf_counter() - start]
        return {"calls_s": calls, "items": report.evaluations, "report": report}

    def judge(self, result: Dict[str, Any]) -> None:
        result["attempted"] = self.BUDGET + self.VERIFY_TOP
        if "error" in result:
            reason = f"exploration failed: {result.pop('error')}"
            result["failures"] = [{"id": "exploration", "reason": reason}]
            result["failed"] = result["attempted"]
            result["problems"] = [reason]
            result["exact"] = None
            return
        report = result.pop("report")
        failures, problems = [], []
        if report.evaluations != report.feasible_points:
            problems.append(
                f"{report.evaluations} evaluations of "
                f"{report.feasible_points} feasible points"
            )
        if not report.frontier:
            problems.append("empty frontier")
        for point in report.verified:
            if not point.contract_ok:
                reason = (
                    f"contract violated: proxy {point.proxy_latency_s}, "
                    f"engine {point.engine_latency_s}, traffic match "
                    f"{point.traffic_match}"
                )
                failures.append({"id": point.point_id, "reason": reason})
                problems.append(reason)
        result["failures"] = failures
        result["problems"] = problems
        result["exact"] = {
            "feasible_points": report.feasible_points,
            "frontier": [[p.point_id, p.objectives] for p in report.frontier],
            "verified": [
                [p.point_id, p.engine_latency_s, p.engine_objectives]
                for p in report.verified
            ],
        }


class DseWorkqueue(DseGrid):
    """The same grid with verify-top 4, sharded into auto-sized chunk jobs
    through a filesystem work queue with its own workers, cached.  Its
    calls are the chunk jobs, each timed by the worker that ran it."""

    name = "dse-workqueue"
    VERIFY_TOP = 4
    #: longest wait for fresh workers' first heartbeats.
    WORKER_START_TIMEOUT_S = 60.0
    #: a worker idle this long has lost its cycle and exits by itself.
    WORKER_IDLE_EXIT_S = 60.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.runner.cache import ResultCache
        from repro.runner.executors import WorkQueueExecutor, open_spool

        class ChunkTimedWorkQueue(WorkQueueExecutor):
            """Keeps the elapsed seconds each chunk job's worker reports."""

            chunk_s: List[float]

            def submit_chunks(self, chunks, run_chunk_fn):
                results = super().submit_chunks(chunks, run_chunk_fn)
                self.chunk_s.extend(elapsed for _, elapsed in results)
                return results

        # Workers plus this submitter stay within the host's cores.
        self.workers = max(1, (os.cpu_count() or 2) - 1)
        spool_dir = workdir / "spool"
        self.spool = open_spool(spool_dir).ensure()
        paths = [str(SRC)] + [os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        self.samples_paths = [workdir / f"speed-{i}.json" for i in range(self.workers)]
        self.procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    str(HERE / "worker.py"),
                    str(self.samples_paths[index]),
                    "--spool",
                    str(spool_dir),
                    "--poll",
                    "0.05",
                    "--idle-exit",
                    str(self.WORKER_IDLE_EXIT_S),
                    "--worker-id",
                    f"bench-{index}",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            for index in range(self.workers)
        ]
        self.executor = None
        deadline = time.monotonic() + self.WORKER_START_TIMEOUT_S
        while len(self.spool.live_workers(within_s=30.0)) < self.workers:
            exited = any(proc.poll() is not None for proc in self.procs)
            if exited or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("work-queue workers did not start")
            time.sleep(0.01)
        self.executor = ChunkTimedWorkQueue(spool_dir, local_workers=0, poll_s=0.05)
        self.cache = ResultCache(workdir / "cache")
        self.chunk_size = "auto"

    def _pass(self) -> Dict[str, Any]:
        self.executor.chunk_s = []
        result = super()._pass()
        # A pass served from the cache, or failed, runs no chunk job.
        result["calls_s"] = self.executor.chunk_s or result["calls_s"]
        return result

    def peak_rss_mb(self) -> float:
        workers = [peak_rss_mb(proc.pid) for proc in self.procs]
        return max([peak_rss_mb()] + workers)

    def speed_samples(self) -> List[List[float]]:
        samples: List[List[float]] = []
        for path in self.samples_paths:
            samples.extend(json.loads(path.read_text()))
        return samples

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        if self.executor is not None:
            self.executor.close()


# ---------------------------------------------------------------- serving


class ServeBursty(Workload):
    """Bursty open-loop traffic through dynamic batching at four offered
    loads, from under-load to over-load; one ``run_load_sweep`` call per
    load, serial, no cache.  Arrivals run in simulated time."""

    name = "serve-bursty"
    ITEM = "requests"
    #: req/s; the encoder-mix server saturates near 1,250 req/s.
    LOADS = (300.0, 900.0, 1200.0, 1600.0)
    REQUESTS = 50_000
    LATENCY_KEYS = ("p50_s", "p99_s", "p999_s", "max_s")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from repro.runner.executors import SerialExecutor

        self.executor = SerialExecutor()
        self.params = {
            "workload": "encoder-mix",
            "arrival": "bursty",
            "policy": "dynamic",
            "requests": self.REQUESTS,
            "batch_max": 8,
            "window_s": 0.02,
            "queue_depth": 1024,
            "seed": seed,
        }

    def _pass(self) -> Dict[str, Any]:
        from repro.serve import driver

        calls, starts, loads = [], [], []
        for load in self.LOADS:
            start = time.perf_counter()
            starts.append(start)
            (outcome,) = driver.run_load_sweep(
                self.params, [load], executor=self.executor
            )
            calls.append(time.perf_counter() - start)
            loads.append(outcome.result)
        items = sum(report["requests"] for report in loads)
        return {"calls_s": calls, "calls_at": starts, "items": items, "loads": loads}

    def judge(self, result: Dict[str, Any]) -> None:
        problems, exact = [], []
        for load, report in zip(self.LOADS, result.pop("loads")):
            settled = report["completed"] + report["dropped"] + report["timed_out"]
            if not settled == report["requests"] == self.REQUESTS:
                problems.append(f"load {load:g}: {settled} of {report['requests']}")
            latency = {key: report["latency"][key] for key in self.LATENCY_KEYS}
            if list(latency.values()) != sorted(latency.values()):
                problems.append(f"load {load:g}: percentiles not monotone {latency}")
            exact.append(
                {
                    "load": load,
                    "completed": report["completed"],
                    "dropped": report["dropped"],
                    "timed_out": report["timed_out"],
                    "latency": latency,
                }
            )
        result["attempted"] = result["items"]
        result["failures"] = []
        result["problems"] = problems
        result["exact"] = exact


WORKLOADS = {
    cls.name: cls for cls in (VerifyEngine, DseGrid, DseWorkqueue, ServeBursty)
}

"""Self-tests of the benchmark's own contract.

    python3 perfbench/selftest.py [-v]

Run from the root of a source checkout; takes about a minute.  Checks that
the same seed gives the same sample and the same exact outputs, that a
different seed gives a different sample, that traced and untraced cycles
give identical exact outputs, that each traced pass's top-level spans plus
its unattributed time equal its wall time, that the metric names agree
with ``BENCHMARK.json``, that reference seconds cancel a host slowdown
but not a program slowdown, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, VerifyEngine  # noqa: E402

SCRATCH = run.OUT / "selftest"


def cycle(workload: str, seed: int, trace: bool = False) -> dict:
    deadline = time.perf_counter() + run.run_limit_s(60.0)
    workdir = SCRATCH / workload
    return run.run_cycle(workload, seed, workdir, deadline, trace=trace, spans=trace)


def exact(record: dict) -> str:
    """The exact outputs every pass of a cycle gave (they must agree)."""
    texts = {run.canonical(p["exact"]) for p in record["passes"]}
    if len(texts) != 1:
        raise AssertionError(f"passes of one cycle disagree: {len(texts)} variants")
    return texts.pop()


def sample_ids(seed: int) -> list:
    return [point for point, _ in VerifyEngine(seed, SCRATCH).points]


class SeedContract(unittest.TestCase):
    def test_same_seed_same_sample(self):
        self.assertEqual(sample_ids(1), sample_ids(1))

    def test_different_seed_different_sample(self):
        self.assertNotEqual(sample_ids(1), sample_ids(2))

    def test_same_seed_same_exact_outputs(self):
        for workload in ("serve-bursty", "verify-engine"):
            with self.subTest(workload=workload):
                first = exact(cycle(workload, 3))
                self.assertEqual(first, exact(cycle(workload, 3)))

    def test_different_seed_different_traffic(self):
        first = exact(cycle("serve-bursty", 1))
        self.assertNotEqual(first, exact(cycle("serve-bursty", 2)))


class TraceContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = cycle("dse-workqueue", 1)
        cls.traced = cycle("dse-workqueue", 1, trace=True)

    def test_traced_and_untraced_outputs_identical(self):
        self.assertEqual(exact(self.plain), exact(self.traced))

    def test_top_level_spans_plus_unattributed_equal_wall(self):
        walls = {p["id"]: p["wall_s"] for p in self.traced["passes"]}
        top = {pass_id: 0.0 for pass_id in walls}
        for name, start, end, parent, pass_id in self.traced["spans"]:
            self.assertLessEqual(start, end, name)
            if parent < 0:
                top[pass_id] += end - start
        for pass_id, seconds in top.items():
            recorded = self.traced["top_level_s"][pass_id]
            self.assertAlmostEqual(seconds, recorded, places=9)
            self.assertLessEqual(seconds, walls[pass_id])
        unattributed = self.traced["layers"]["trace.unattributed_s"]
        self.assertGreaterEqual(unattributed, 0.0)
        total = sum(top.values()) + unattributed
        self.assertAlmostEqual(total, sum(walls.values()), places=9)

    def test_child_spans_nest_inside_parents(self):
        spans = self.traced["spans"]
        for name, start, end, parent, pass_id in spans:
            if parent >= 0:
                self.assertLessEqual(spans[parent][1], start, name)
                self.assertLessEqual(end, spans[parent][2], name)
                self.assertEqual(spans[parent][4], pass_id)

    def test_chrome_trace_events(self):
        events = tracer.chrome_events(self.traced["spans"], 0.0, pid=1)
        self.assertEqual(len(events), len(self.traced["spans"]))
        keys = {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        for event in events:
            self.assertEqual(set(event), keys)
            self.assertEqual(set(event["args"]), {"span", "parent", "pass"})


class MetricNames(unittest.TestCase):
    def test_names_agree_with_benchmark_json(self):
        self.assertEqual(sorted(run.SPEC["end_to_end"]), sorted(run.END_TO_END))
        documented = [m for layer in run.SPEC["layers"] for m in layer["metrics"]]
        self.assertEqual(sorted(run.PER_LAYER), sorted(documented))
        computed = set(tracer.TIME_METRICS) | set(tracer.COUNT_METRICS)
        computed |= {
            "core.engine.events_per_s",
            "runner.cache.memo_hit_ratio",
            "runner.executors.dispatch_overhead_s",
            "trace.unattributed_s",
            "trace.overhead_s",
        }
        self.assertEqual(computed, set(run.PER_LAYER))
        workloads = sorted(w["name"] for w in run.DECLARED["workloads"])
        self.assertEqual(workloads, sorted(WORKLOADS))

    def test_tail_percentile(self):
        self.assertEqual(run.tail(range(40))[0], "p75")
        self.assertEqual(run.tail(range(100))[0], "p90")
        self.assertEqual(run.tail([3, 9, 4, 1]), ("max", 9))


class ReferenceSeconds(unittest.TestCase):
    @staticmethod
    def cycles(pass_s: float, sample_s: float, setup_s: float = 0.0) -> list:
        passes = [
            {"start": 10.0, "wall_s": pass_s, "calls_s": [pass_s / 2] * 2},
            {"start": 20.0, "wall_s": pass_s / 4, "calls_s": [pass_s / 4]},
        ]
        for record in passes:
            record["items"] = 10
        setup_s = setup_s or pass_s / 10
        cycle = {"ready": 9.0, "setup_s": setup_s, "peak_rss_mb": 50.0}
        samples = [[0.1 * i, sample_s] for i in range(300)]
        cycle.update(traced=False, passes=passes, speed_s=samples)
        return [cycle] * 3

    def test_scale_follows_the_samples_taken_meanwhile(self):
        fast, slow = speed.REFERENCE_S, 2 * speed.REFERENCE_S
        samples = [[0.1 * i, fast if i < 100 else slow] for i in range(300)]
        self.assertAlmostEqual(run.scale(samples, 2.0, 8.0), 1.0)
        self.assertAlmostEqual(run.scale(samples, 12.0, 18.0), 0.5)
        # A window too short for MIN_SAMPLES takes the nearest samples.
        self.assertAlmostEqual(run.scale(samples, 15.0, 15.01), 0.5)

    def test_preempted_sample_is_capped(self):
        samples = [[0.1 * i, speed.REFERENCE_S] for i in range(20)]
        samples[7][1] = 50 * speed.REFERENCE_S
        # Capped at three times the window's median: (19 + 3) / 20.
        self.assertAlmostEqual(run.scale(samples, 0.0, 2.0), 20 / 22)

    def test_calls_scale_by_their_own_samples(self):
        fast, slow = speed.REFERENCE_S, 2 * speed.REFERENCE_S
        samples = [[0.1 * i, fast if i < 100 else slow] for i in range(300)]
        cycle = {"speed_s": samples}
        done = {"calls_s": [4.0, 4.0], "calls_at": [1.0, 15.0]}
        self.assertEqual(run.scaled_calls(cycle, done, 0.75), [4.0, 2.0])
        del done["calls_at"]  # chunk jobs: the pass's own scale
        self.assertEqual(run.scaled_calls(cycle, done, 0.75), [3.0, 3.0])

    def test_host_slowdown_cancels(self):
        quiet = run.end_to_end(self.cycles(1.0, speed.REFERENCE_S))["values"]
        # Set-up follows the samples only as their SETUP_TRACKING power.
        setup_s = 0.1 * 1.5**run.SETUP_TRACKING
        slow = run.end_to_end(self.cycles(1.5, 1.5 * speed.REFERENCE_S, setup_s))
        slow = slow["values"]
        for name, value in quiet.items():
            self.assertAlmostEqual(slow[name], value, places=9, msg=name)
        self.assertAlmostEqual(quiet["wall_s"], 1.0, places=9)

    def test_program_slowdown_shows(self):
        quiet = run.end_to_end(self.cycles(1.0, speed.REFERENCE_S))["values"]
        slower = run.end_to_end(self.cycles(1.5, speed.REFERENCE_S))["values"]
        for name in ("setup_s", "wall_s", "warm_wall_s", "call_p50_s"):
            self.assertAlmostEqual(slower[name], 1.5 * quiet[name], places=9)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, bare / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        command = [sys.executable, "perfbench/run.py", "--workload", "dse-grid"]
        command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(
            command, cwd=bare, capture_output=True, text=True, timeout=60
        )
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

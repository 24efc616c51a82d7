"""Certified contracts of the ``dse_chiplet`` kind.

Three contracts, all hard:

* ``num_chips=1`` payloads are **byte-identical** to ``dse_encoder`` on both
  backends (the chiplet kind is a strict superset axis, not a fork);
* multi-chip analytic latency remains a **lower bound** on the engine's,
  with DDR/LPDDR traffic matching byte for byte and all link terms
  (partition, boundary bytes, transfer times) backend-identical;
* the batched chiplet evaluator equals the scalar analytic runner
  **exactly**, payload for payload, over whole spaces and mixed chip counts.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.explore import get_space
from repro.runner import REGISTRY
from repro.runner.library import _encoder_config, estimate_dse_chiplet
from repro.xnn.analytic import EncoderBatchEvaluator

#: float-noise slack on the lower-bound direction (same as the sibling
#: backend-contract suite).
FP_SLACK = 1e-9

BASE = {"batch": 1, "seq_len": 64, "num_mme": 6}

MULTI_CHIP_POINTS = [
    dict(BASE, num_chips=2, link_gbs=64.0),
    dict(BASE, num_chips=2, link_gbs=16.0, link_hop_us=2.0),
    dict(BASE, num_chips=3, link_gbs=16.0),
    dict(BASE, num_chips=3, link_gbs=256.0, link_serialization_us=0.5),
]


def _runner(kind, backend):
    fn = REGISTRY.runner(kind, backend)
    assert fn is not None
    return fn


def _batched():
    fn = REGISTRY.batch_runner("dse_chiplet", "analytic")
    assert fn is not None, "dse_chiplet must register an analytic batch runner"
    return fn


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestSingleChipIdentity:
    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_payload_byte_identical_to_dse_encoder(self, backend):
        chiplet = _runner("dse_chiplet", backend)(**BASE, num_chips=1)
        encoder = _runner("dse_encoder", backend)(**BASE)
        assert _canon(chiplet) == _canon(encoder)

    def test_chiplet_axes_are_inert_on_one_chip(self):
        # Link parameters must not leak into a single-chip evaluation.
        run = _runner("dse_chiplet", "analytic")
        default = run(**BASE, num_chips=1)
        tuned = run(**BASE, num_chips=1, link_gbs=1.0, link_hop_us=100.0,
                    link_serialization_us=100.0)
        assert _canon(default) == _canon(tuned)


class TestMultiChipContract:
    @pytest.mark.parametrize("params", MULTI_CHIP_POINTS,
                             ids=lambda p: f"chips{p['num_chips']}-"
                                           f"{p['link_gbs']:g}gbs")
    def test_lower_bound_and_exact_traffic(self, params):
        engine = _runner("dse_chiplet", "engine")(**params)
        analytic = _runner("dse_chiplet", "analytic")(**params)
        assert analytic["latency_s"] <= engine["latency_s"] * (1 + FP_SLACK)
        assert analytic["ddr_bytes"] == engine["ddr_bytes"]
        assert analytic["lpddr_bytes"] == engine["lpddr_bytes"]
        assert analytic["offchip_bytes"] == engine["offchip_bytes"]
        # The partition and link accounting are backend-independent by
        # construction -- equality must be exact, not approximate.
        assert analytic["cuts"] == engine["cuts"]
        assert analytic["link_bytes"] == engine["link_bytes"]
        assert analytic["link_s"] == engine["link_s"]
        assert analytic["num_chips"] == engine["num_chips"]

    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_multi_chip_latency_decomposes(self, backend):
        """End-to-end latency == single-chip latency + link transfer time:
        partitioning reorders no work, it only adds boundary crossings."""
        run = _runner("dse_chiplet", backend)
        single = run(**BASE, num_chips=1)
        multi = run(**BASE, num_chips=2, link_gbs=64.0)
        assert multi["latency_s"] == pytest.approx(
            single["latency_s"] + multi["link_s"], rel=1e-12)
        assert multi["link_s"] > 0.0
        assert multi["offchip_bytes"] == single["offchip_bytes"]

    def test_pipeline_beats_serial_when_link_is_fast(self):
        run = _runner("dse_chiplet", "analytic")
        multi = run(**BASE, num_chips=2, link_gbs=256.0)
        # The steady-state initiation interval must beat per-task latency
        # (otherwise scaling out buys nothing on any objective).
        assert multi["max_stage_s"] < multi["latency_s"]
        assert multi["pipeline_tasks_per_s"] > 1.0 / multi["latency_s"]

    def test_multi_chip_area_scales(self):
        run = _runner("dse_chiplet", "analytic")
        single = run(**BASE, num_chips=1)
        multi = run(**BASE, num_chips=3, link_gbs=64.0)
        assert multi["area_luts"] == 3 * single["area_luts"]
        assert multi["power_w"] > single["power_w"]


class TestBatchedChiplet:
    @pytest.mark.parametrize("space_name,fidelity", [
        ("chiplet-smoke", 1.0),
        ("chiplet-smoke", 0.5),
    ])
    def test_batched_equals_scalar_exactly(self, space_name, fidelity):
        space = get_space(space_name)
        params_list = [space.point_params(assignment, fidelity)
                       for assignment in space.points()]
        scalar_fn = _runner("dse_chiplet", "analytic")
        expected = [scalar_fn(**params) for params in params_list]
        actual = _batched()(params_list)
        assert actual == expected  # exact: every float bit-for-bit
        # Warm memo (same process-wide evaluator) must not drift either.
        assert _batched()(params_list) == expected

    def test_batched_mixes_chip_counts_and_defaults(self):
        mixed = [
            {"seq_len": 64},  # all chiplet axes defaulted -> single chip
            dict(BASE),
            dict(BASE, num_chips=2, link_gbs=64.0),
            dict(BASE, num_chips=3, link_gbs=16.0, link_hop_us=0.5),
        ]
        scalar_fn = _runner("dse_chiplet", "analytic")
        expected = [scalar_fn(**params) for params in mixed]
        assert _batched()(mixed) == expected

    def test_batched_empty_generation(self):
        assert _batched()([]) == []

    def test_batched_rejects_infeasible_designs_like_scalar(self):
        from repro.runner.library import _encoder_config

        bad = {"num_mme": 40, "num_chips": 2}
        with pytest.raises(ValueError):
            _runner("dse_chiplet", "analytic")(**bad)
        evaluator = EncoderBatchEvaluator()  # fresh: nothing memoized
        with pytest.raises(ValueError):
            evaluator.evaluate_chiplet_batch([bad], _encoder_config)

    def test_exploration_frontiers_identical_across_proxies(self):
        from repro.explore import (SuccessiveHalving, objectives_for,
                                   run_exploration)

        space = get_space("chiplet-smoke")
        objectives = objectives_for(space)
        obj_pairs = tuple((o.key, o.sense) for o in objectives)

        def explore(proxy):
            return run_exploration(space, SuccessiveHalving(objectives=obj_pairs),
                                   budget=12, verify_top=0, seed=5,
                                   objectives=objectives, proxy=proxy)

        sweep = explore("sweep")
        batched = explore("batched")
        assert batched.proxy == "batched"
        assert [point.to_dict() for point in sweep.frontier] == \
            [point.to_dict() for point in batched.frontier]


class TestBatchedDedup:
    """The batched path evaluates each distinct single-chip design once and
    lets every chip count and link of that design index its row; each point
    must still equal the scalar runner exactly and own its payload."""

    @staticmethod
    def _generation(seed: int = 11):
        smoke = get_space("chiplet-smoke")
        grid = get_space("chiplet-encoder")
        grid_points = grid.points()
        params = [smoke.point_params(a) for a in smoke.points()]
        params += [grid.point_params(a) for a in grid_points[::97]]
        # Two whole 18-point blocks: one design over every chip count/link.
        params += [grid.point_params(a) for a in grid_points[90:126]]
        rng = random.Random(seed)
        params += [dict(p) for p in rng.sample(params, 24)]  # repeats
        rng.shuffle(params)
        return params

    def test_shuffled_repeated_generation_equals_scalar(self):
        params = self._generation()
        expected = [estimate_dse_chiplet(**p) for p in params]
        fresh = EncoderBatchEvaluator()
        assert fresh.evaluate_chiplet_batch(params, _encoder_config) == expected
        # Warm memo, compared as JSON so int/float/bool types count too.
        warm = fresh.evaluate_chiplet_batch(params, _encoder_config)
        assert _canon(warm) == _canon(expected)
        assert _batched()(params) == expected  # the process-wide evaluator

    @staticmethod
    def _row_counting_evaluator(monkeypatch):
        """A fresh evaluator that records how many designs each ``_rows``
        call receives."""
        evaluator = EncoderBatchEvaluator()
        sizes = []
        original = evaluator._rows

        def rows(param_sets, encoder_config):
            sizes.append(len(param_sets))
            return original(param_sets, encoder_config)

        monkeypatch.setattr(evaluator, "_rows", rows)
        return evaluator, sizes

    def test_one_row_per_single_chip_design(self, monkeypatch):
        evaluator, sizes = self._row_counting_evaluator(monkeypatch)
        space = get_space("chiplet-encoder")
        blocks = [space.point_params(a) for a in space.points()[:36]]
        evaluator.evaluate_chiplet_batch(blocks + blocks[::-1], _encoder_config)
        assert sizes == [2]

    def test_type_distinct_values_are_distinct_rows(self, monkeypatch):
        # 1 == 1.0 == True, but the design key is type-exact; every payload
        # is the scalar runner's, JSON types included.
        mixed = [
            dict(BASE),
            dict(BASE, batch=True),
            dict(BASE, bandwidth_scale=1),
            dict(BASE, mem_b_bytes=float(1 << 20)),
            dict(BASE, num_chips=2),
            dict(BASE, batch=True, num_chips=2),
        ]
        expected = [estimate_dse_chiplet(**p) for p in mixed]
        evaluator, sizes = self._row_counting_evaluator(monkeypatch)
        actual = evaluator.evaluate_chiplet_batch(mixed, _encoder_config)
        assert sizes == [4]
        assert _canon(actual) == _canon(expected)

    def test_payloads_are_independent(self):
        # The first 18 points are one design over every chip count and link,
        # so they all share one row; each point must still own its payload.
        design = get_space("chiplet-encoder")
        params = [design.point_params(a) for a in design.points()[:18]]
        expected = [estimate_dse_chiplet(**p) for p in params]
        payloads = _batched()(params + params)
        multi = next(i for i, p in enumerate(params) if p["num_chips"] > 1)
        single = next(i for i, p in enumerate(params) if p["num_chips"] == 1)
        payloads[multi]["cuts"].append(99)
        payloads[multi]["stage_bounds_s"]["chip0"] = -1.0
        payloads[single]["latency_s"] = -1.0
        mutated = (multi, single)
        assert [pl for i, pl in enumerate(payloads) if i not in mutated] == \
            [e for i, e in enumerate(expected + expected) if i not in mutated]
        assert _batched()(params) == expected

    def test_infeasible_design_in_a_shared_generation_raises(self):
        good = dict(BASE, num_chips=2)
        bad = dict(BASE, num_mme=40, num_chips=2)
        with pytest.raises(ValueError):
            estimate_dse_chiplet(**bad)
        for generation in ([good, bad, dict(good, num_chips=3)],
                           [bad, dict(bad, num_chips=3), good]):
            with pytest.raises(ValueError):
                EncoderBatchEvaluator().evaluate_chiplet_batch(
                    generation, _encoder_config)

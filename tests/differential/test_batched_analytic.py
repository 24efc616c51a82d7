"""Differential contract: batched analytic evaluation == scalar per point.

The batched ``dse_encoder`` evaluator shares tallies across points and
vectorizes the roofline arithmetic; this suite pins the hard contract that
none of that changes a single bit of any payload -- every float and int must
equal the scalar analytic runner's output exactly, over the full smoke space
and a broad slice of the full encoder space, at reduced fidelity, with
partially specified parameters, and on repeat calls (warm memo).
"""

from __future__ import annotations

import pytest

from repro.explore import get_space
from repro.runner import REGISTRY
from repro.runner.executors import SerialExecutor
from repro.xnn.analytic import EncoderBatchEvaluator


def _scalar():
    return REGISTRY.runner("dse_encoder", "analytic")


def _batched():
    fn = REGISTRY.batch_runner("dse_encoder", "analytic")
    assert fn is not None, "dse_encoder must register an analytic batch runner"
    return fn


def _space_params(space_name, fidelity=1.0, stride=1):
    space = get_space(space_name)
    return [space.point_params(assignment, fidelity)
            for assignment in space.points()[::stride]]


@pytest.mark.parametrize("space_name,fidelity,stride", [
    ("encoder-smoke", 1.0, 1),     # the whole smoke space
    ("encoder-smoke", 0.5, 1),     # reduced fidelity (halving's early rungs)
    ("encoder", 1.0, 11),          # broad slice of the full space
])
def test_batched_equals_scalar_exactly(space_name, fidelity, stride):
    params_list = _space_params(space_name, fidelity, stride)
    scalar_fn = _scalar()
    expected = [scalar_fn(**params) for params in params_list]
    actual = _batched()(params_list)
    assert actual == expected  # exact: every float bit-for-bit

    # Warm memo (same process-wide evaluator) must not drift either.
    assert _batched()(params_list) == expected


def test_batched_applies_scalar_defaults():
    # encoder-smoke points omit tile_k / super_n / mem_b_bytes / num_mme;
    # an even sparser mapping must resolve to the scalar signature defaults.
    sparse = [{"seq_len": 64}, {"seq_len": 128, "pipeline_attention": False}]
    expected = [_scalar()(**params) for params in sparse]
    assert _batched()(sparse) == expected


def test_batched_empty_generation():
    assert _batched()([]) == []


def test_batched_rejects_infeasible_designs_like_scalar():
    bad = {"num_mme": 40}  # no MME grouping fits the AIE array
    with pytest.raises(ValueError):
        _scalar()(**bad)
    evaluator = EncoderBatchEvaluator()  # fresh: nothing memoized
    with pytest.raises(ValueError):
        from repro.runner.library import _encoder_config
        evaluator.evaluate_batch([bad], _encoder_config)
    # Failures are never memoized: a second attempt fails identically.
    with pytest.raises(ValueError):
        from repro.runner.library import _encoder_config
        evaluator.evaluate_batch([bad], _encoder_config)


def _outcome(fn):
    try:
        return fn()
    except TypeError as error:
        return TypeError, str(error)


@pytest.mark.parametrize("counts,point", [
    # float first, then the equal int: the rejected float must not poison
    # the memo the int point then reads.
    ((3.0, 3), {"batch": 4, "seq_len": 384, "tile_m": 384, "tile_k": 64,
                "super_n": 512, "pipeline_attention": False}),
    # int first, then the equal float: the memoized int must not let the
    # float through.
    ((4, 4.0), {"batch": 4, "seq_len": 384, "tile_m": 384, "tile_k": 64,
                "super_n": 512, "pipeline_attention": True}),
])
def test_float_mme_count_rejected_in_either_order_like_scalar(counts, point):
    """Both orders on the process-wide evaluator match the scalar runner."""
    from repro.runner.library import _encoder_config
    from repro.xnn.analytic import encoder_batch_evaluator

    evaluator = encoder_batch_evaluator()
    for num_mme in counts:
        params = dict(point, num_mme=num_mme)
        expected = _outcome(lambda: _scalar()(**params))
        actual = _outcome(
            lambda: evaluator.evaluate_batch([params], _encoder_config)[0]
        )
        assert actual == expected
        assert isinstance(expected, tuple) == isinstance(num_mme, float)


def _catalogue_params(kind):
    return [dict(s.params) for s in REGISTRY.select() if s.kind == kind]


@pytest.mark.parametrize("kind,extra", [
    ("xnn_encoder", [{"batch": 2, "seq_len": 256, "model": "vit_base",
                      "options": {"pipeline_attention": False},
                      "bandwidth_scale": 0.5}]),
    ("xnn_gemm", [{"m": 512, "k": 768, "n": 1024, "bandwidth_scale": 2.0,
                   "options": {"tile_m": 256}}]),
])
def test_catalogue_kind_batched_equals_scalar_exactly(kind, extra):
    """The encoder-shaped catalogue kinds' batch runners == scalar, bit for bit
    -- over every catalogue point of the kind plus off-catalogue variants."""
    params_list = _catalogue_params(kind) + extra
    assert params_list, f"catalogue has no {kind} scenarios"
    scalar_fn = REGISTRY.runner(kind, "analytic")
    batched_fn = REGISTRY.batch_runner(kind, "analytic")
    assert batched_fn is not None, f"{kind} must register an analytic batch runner"
    expected = [scalar_fn(**params) for params in params_list]
    assert batched_fn(params_list) == expected
    # Warm memo (same process-wide evaluator) must not drift either.
    assert batched_fn(params_list) == expected


@pytest.mark.parametrize("kind", ["xnn_encoder", "xnn_gemm"])
def test_catalogue_kind_batched_rejects_unknown_params_like_scalar(kind):
    good = _catalogue_params(kind)[0]
    with pytest.raises(TypeError):
        REGISTRY.runner(kind, "analytic")(**{**good, "bogus_knob": 1})
    with pytest.raises(TypeError):
        REGISTRY.batch_runner(kind, "analytic")([{**good, "bogus_knob": 1}])


def test_serial_sweep_routes_batch_kinds_and_matches_scalar():
    """A serial analytic sweep over batch-capable kinds returns exactly the
    per-scenario scalar results (the run_sweep batching is invisible)."""
    from repro.runner.sweep import run_sweep

    names = [s.name for s in REGISTRY.select()
             if s.kind in ("xnn_encoder", "xnn_gemm")]
    outcomes = run_sweep(names, backend="analytic")
    by_name = {o.scenario: o for o in outcomes}
    for name in names:
        scenario = REGISTRY.get(name)
        scalar = REGISTRY.runner(scenario.kind, "analytic")(**scenario.params)
        assert by_name[name].result == scalar
        assert not by_name[name].cached


def test_exploration_frontiers_identical_across_proxies():
    """The whole point of payload equality: sweep-proxy and batched-proxy
    explorations produce the same frontier for the same seed."""
    from repro.explore import SuccessiveHalving, run_exploration

    def explore(proxy):
        return run_exploration(get_space("encoder-smoke"), SuccessiveHalving(),
                               budget=12, verify_top=0, seed=5, proxy=proxy)

    sweep = explore("sweep")
    batched = explore("batched")
    assert batched.proxy == "batched"
    assert [point.to_dict() for point in sweep.frontier] == \
        [point.to_dict() for point in batched.frontier]


class _RecordingExecutor(SerialExecutor):
    """A serial executor that logs which submission path each job took."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def submit(self, scenarios, run_fn):
        self.calls.append(("submit", len(scenarios)))
        return super().submit(scenarios, run_fn)

    def submit_chunks(self, chunks, run_chunk_fn):
        self.calls.append(("submit_chunks", len(chunks)))
        return super().submit_chunks(chunks, run_chunk_fn)


@pytest.mark.parametrize("space_name", ["encoder-smoke", "chiplet-smoke"])
def test_sweep_proxy_honours_chunk_size_off(space_name):
    """``proxy="sweep", chunk_size="off"`` ships one scalar job per point
    (no chunk jobs) and still lands on the batched proxy's frontier."""
    from repro.explore import GridSearch, run_exploration

    space = get_space(space_name)

    def explore(proxy, chunk_size):
        executor = _RecordingExecutor()
        report = run_exploration(space, GridSearch(), budget=64, verify_top=0,
                                 seed=3, proxy=proxy, executor=executor,
                                 chunk_size=chunk_size)
        return report, executor.calls

    scalar, scalar_calls = explore("sweep", "off")
    assert scalar_calls == [("submit", space.feasible_count())]
    _, default_calls = explore("sweep", None)
    assert [name for name, _ in default_calls] == ["submit_chunks"]
    batched, _ = explore("batched", None)
    assert scalar.evaluations == batched.evaluations == space.feasible_count()
    assert [point.to_dict() for point in scalar.frontier] == \
        [point.to_dict() for point in batched.frontier]

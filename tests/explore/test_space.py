"""Tests for design-space declaration, enumeration, and materialisation."""

from __future__ import annotations

import itertools

import pytest

from repro.explore import Axis, Constraint, DesignSpace, get_space, space_names
from repro.explore.space import scale_seq_len


def _toy_space(**kwargs) -> DesignSpace:
    defaults = dict(
        name="toy",
        kind="dse_encoder",
        base_params={"model": "bert_large", "batch": 1},
        axes=(
            Axis("seq_len", (64, 128)),
            Axis("tile_m", (256, 768)),
        ),
    )
    defaults.update(kwargs)
    return DesignSpace(**defaults)


class TestAxis:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Axis("x", (1, 2, 1))

    def test_non_jsonable_values_rejected(self):
        with pytest.raises(TypeError):
            Axis("x", (object(),))


class TestDesignSpaceDeclaration:
    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="no axes"):
            DesignSpace(name="empty", axes=(), kind="dse_encoder")

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis names"):
            DesignSpace(name="dup", kind="dse_encoder",
                        axes=(Axis("x", (1,)), Axis("x", (2,))))

    def test_axis_shadowing_base_params_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            _toy_space(base_params={"seq_len": 64})


class TestEnumeration:
    def test_cardinality_and_points(self):
        space = _toy_space()
        assert space.cardinality == 4
        points = space.points()
        assert len(points) == 4
        # Deterministic axis-major order.
        assert points[0] == {"seq_len": 64, "tile_m": 256}
        assert points[-1] == {"seq_len": 128, "tile_m": 768}
        assert points == space.points()

    def test_constraints_prune_enumeration(self):
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", lambda a: a["tile_m"] >= 768),
        ))
        points = space.points()
        assert len(points) == 2
        assert all(p["tile_m"] == 768 for p in points)


def _reference_walk(space):
    """Every raw point in axis-major order with its predicate-by-predicate
    feasibility: the plain walk the feasibility mask must reproduce."""
    names = [axis.name for axis in space.axes]
    for combo in itertools.product(*(axis.values for axis in space.axes)):
        assignment = dict(zip(names, combo))
        yield assignment, all(c.satisfied(assignment) for c in space.constraints)


class _CountingPredicate:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, assignment):
        self.calls += 1
        return self.fn(assignment)


class TestFeasibilityMask:
    @pytest.mark.parametrize("name,raw", [
        ("encoder", 1728),
        ("encoder-smoke", 16),
        ("chiplet-encoder", 9216),
        ("chiplet-smoke", 12),
    ])
    def test_mask_equals_predicate_walk(self, name, raw):
        space = get_space(name)
        walk = list(_reference_walk(space))
        assert len(walk) == space.cardinality == raw
        feasible = [assignment for assignment, ok in walk if ok]
        assert list(space.iter_points()) == feasible  # order included
        assert space.points() == feasible
        assert space.feasible_count() == len(feasible)
        assert [space.feasible(a) for a, _ in walk] == [ok for _, ok in walk]

    def test_every_shipped_space_is_covered(self):
        assert set(space_names()) == {
            "encoder", "encoder-smoke", "chiplet-encoder", "chiplet-smoke"}

    def test_undeclared_axis_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown axis name"):
            _toy_space(constraints=(
                Constraint("typo", lambda a: True, axes=("tile_n",)),
            ))

    def test_declared_axes_run_once_per_combination(self):
        predicate = _CountingPredicate(lambda a: a["tile_m"] >= 768)
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", predicate, axes=("tile_m",)),
        ))
        assert space.points() == [{"seq_len": 64, "tile_m": 768},
                                  {"seq_len": 128, "tile_m": 768}]
        assert predicate.calls == 2  # tile_m has two values
        assert not space.feasible({"seq_len": 128, "tile_m": 256})
        assert predicate.calls == 2  # on-grid: a mask lookup

    def test_off_grid_value_falls_back_to_predicates(self):
        predicate = _CountingPredicate(lambda a: a["tile_m"] >= 768)
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", predicate, axes=("tile_m",)),
        ))
        assert space.feasible_count() == 2
        calls = predicate.calls
        assert space.feasible({"seq_len": 64, "tile_m": 1024})  # not on axis
        assert not space.feasible({"seq_len": 64, "tile_m": 512})
        # 768.0 == 768 but is not the axis value: type-exact, so off-grid.
        assert space.feasible({"seq_len": 64, "tile_m": 768.0})
        assert predicate.calls == calls + 3
        params = space.point_params({"seq_len": 64, "tile_m": 1024})
        assert params["tile_m"] == 1024
        with pytest.raises(ValueError, match="big_tiles_only"):
            space.point_params({"seq_len": 64, "tile_m": 512})

    def test_empty_axes_constraint_reads_every_axis(self):
        predicate = _CountingPredicate(
            lambda a: a["seq_len"] * a["tile_m"] <= 128 * 256)
        space = _toy_space(constraints=(Constraint("budget", predicate),))
        assert space.points() == [{"seq_len": 64, "tile_m": 256},
                                  {"seq_len": 128, "tile_m": 256}]
        assert space.feasible_count() == 2
        assert predicate.calls == space.cardinality
        assert not space.feasible({"seq_len": 64, "tile_m": 768})


class TestMaterialise:
    def test_scenario_params_merge_base_and_assignment(self):
        space = _toy_space()
        point = space.materialize({"seq_len": 64, "tile_m": 256})
        assert point.scenario.kind == "dse_encoder"
        assert point.scenario.params == {"model": "bert_large", "batch": 1,
                                         "seq_len": 64, "tile_m": 256}
        assert point.scenario.tags == ("dse", "toy")
        assert point.fidelity == 1.0

    def test_point_id_is_stable_and_distinct(self):
        space = _toy_space()
        a = {"seq_len": 64, "tile_m": 256}
        b = {"seq_len": 64, "tile_m": 768}
        assert space.point_id(a) == space.point_id(a)
        assert space.point_id(a) != space.point_id(b)
        assert space.materialize(a).scenario.name == \
            f"dse/toy/{space.point_id(a)}"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            _toy_space().materialize({"seq_len": 64, "bogus": 1})

    def test_infeasible_assignment_rejected_by_name(self):
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", lambda a: a["tile_m"] >= 768),
        ))
        with pytest.raises(ValueError, match="big_tiles_only"):
            space.materialize({"seq_len": 64, "tile_m": 256})

    def test_fidelity_scales_params_and_renames_scenario(self):
        space = _toy_space()
        point = space.materialize({"seq_len": 128, "tile_m": 256},
                                  fidelity=0.5)
        assert point.scenario.params["seq_len"] == 64
        assert point.scenario.name.endswith("@f0.5")
        # identity is fidelity-independent: same design, cheaper evaluation.
        assert point.point_id == space.point_id({"seq_len": 128,
                                                 "tile_m": 256})

    def test_fidelity_out_of_range_rejected(self):
        space = _toy_space()
        for fidelity in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="fidelity"):
                space.materialize({"seq_len": 64, "tile_m": 256},
                                  fidelity=fidelity)


class TestScaleSeqLen:
    def test_scales_to_multiple_of_16(self):
        assert scale_seq_len({"seq_len": 384}, 0.5)["seq_len"] == 192

    def test_floor_is_32(self):
        assert scale_seq_len({"seq_len": 64}, 0.01)["seq_len"] == 32

    def test_never_exceeds_original(self):
        assert scale_seq_len({"seq_len": 32}, 0.9)["seq_len"] == 32

    def test_no_seq_len_is_a_no_op(self):
        assert scale_seq_len({"m": 1024}, 0.5) == {"m": 1024}


class TestCatalogue:
    def test_space_names(self):
        assert "encoder" in space_names()
        assert "encoder-smoke" in space_names()

    def test_unknown_space_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="encoder-smoke"):
            get_space("nope")

    def test_encoder_space_constraints_prune(self):
        space = get_space("encoder")
        assert len(space.points()) < space.cardinality

    def test_encoder_smoke_space_is_16_points(self):
        space = get_space("encoder-smoke")
        assert len(space.points()) == 16

    def test_catalogue_factories_return_fresh_instances(self):
        assert get_space("encoder") is not get_space("encoder")

    def test_describe_mentions_axes_and_constraints(self):
        text = get_space("encoder").describe()
        assert "axis num_mme" in text
        assert "constraint rhs_tile_fits_memb" in text

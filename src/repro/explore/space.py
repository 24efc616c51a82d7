"""Declarative design spaces: parameter axes, constraints, and fidelities.

A :class:`DesignSpace` is the searchable counterpart of a scenario kind: a
set of named :class:`Axis` objects (each a finite list of JSON-able values),
a set of named feasibility :class:`Constraint` predicates, and the scenario
*kind* every point evaluates through.  Points are plain assignments (axis
name -> value), so the whole space machinery composes with the existing
sweep executor and on-disk cache for free: each point materialises into an
ad-hoc :class:`~repro.runner.scenarios.Scenario` whose canonical identity
(and therefore cache key) is exactly its parameter mapping.

Spaces also define a *fidelity* hook: a deterministic transformation that
shrinks a point's workload for cheap early-rung evaluations (successive
halving runs most candidates only at reduced fidelity).  Fidelity is part of
the materialised parameters, so low- and full-fidelity evaluations of the
same design cache under different keys and can never be confused.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..runner.scenarios import Scenario, canonical_json

__all__ = ["Axis", "Constraint", "DesignPoint", "DesignSpace", "scale_seq_len"]


@dataclass(frozen=True)
class Axis:
    """One searchable parameter: a name and its finite, ordered value list."""

    name: str
    values: Tuple[Any, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        seen = set()
        for value in self.values:
            key = canonical_json(value)  # also rejects non-JSON-able values
            if key in seen:
                raise ValueError(f"axis {self.name!r} has duplicate value {value!r}")
            seen.add(key)


@dataclass(frozen=True)
class Constraint:
    """A named feasibility predicate over an axis assignment.

    ``axes`` names the axes the predicate reads.  The space's feasibility
    mask runs the predicate once per distinct combination of those axes
    (passing only them) and broadcasts the answer over every other axis;
    the empty tuple means "reads every axis" and runs it once per point.
    """

    name: str
    predicate: Callable[[Mapping[str, Any]], bool]
    description: str = ""
    axes: Tuple[str, ...] = ()

    def satisfied(self, assignment: Mapping[str, Any]) -> bool:
        return bool(self.predicate(assignment))


@dataclass(frozen=True)
class DesignPoint:
    """One feasible assignment, with its stable identity and scenario."""

    space: str
    point_id: str
    assignment: Mapping[str, Any]
    scenario: Scenario
    fidelity: float = 1.0


def scale_seq_len(params: Dict[str, Any], fraction: float) -> Dict[str, Any]:
    """Default fidelity hook: shrink ``seq_len``, floor 32, multiple of 16.

    Tiling and attention-mapping decisions depend on the sequence length
    only through its magnitude, so a shortened sequence preserves the
    *relative* quality of design points while costing a fraction of the
    evaluation -- which is all successive halving needs from early rungs.
    """
    seq_len = params.get("seq_len")
    if seq_len is not None:
        scaled = max(32, int(round(seq_len * fraction / 16.0)) * 16)
        params["seq_len"] = min(seq_len, scaled)
    return params


def _positions(values: Sequence[Any]) -> Dict[Tuple[type, Any], int]:
    """Each hashable axis value's position, keyed type-exactly so ``1``,
    ``1.0`` and ``True`` stay distinct; unhashable values have no entry
    and so always count as off-grid."""
    positions = {}
    for position, value in enumerate(values):
        try:
            positions[(type(value), value)] = position
        except TypeError:
            continue
    return positions


#: signature of a fidelity hook: ``(params, fraction) -> params``.
FidelityHook = Callable[[Dict[str, Any], float], Dict[str, Any]]


class DesignSpace:
    """A named, constrained cartesian product of axes over one scenario kind.

    Parameters
    ----------
    name:
        Space name; becomes part of every point's scenario name and tags.
    axes:
        The searchable parameters.  Axis names must be unique and must be
        keyword parameters of the scenario kind's runner functions.
    kind:
        Scenario kind every point evaluates through (must be registered for
        the ``analytic`` backend to search, and for the ``engine`` backend
        to verify).
    base_params:
        Fixed parameters merged under every assignment (the non-searched
        arguments of the kind).
    constraints:
        Feasibility predicates, each declaring the axes it reads;
        infeasible assignments are silently skipped during enumeration
        (that is their job), but materialising one explicitly raises.
    fidelity_hook:
        ``(params, fraction) -> params`` transformation for reduced-fidelity
        evaluation; defaults to :func:`scale_seq_len`.
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[Axis],
        kind: str,
        base_params: Optional[Mapping[str, Any]] = None,
        constraints: Sequence[Constraint] = (),
        fidelity_hook: FidelityHook = scale_seq_len,
        description: str = "",
    ):
        if not axes:
            raise ValueError(f"design space {name!r} has no axes")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"design space {name!r} has duplicate axis names")
        overlap = set(names) & set(base_params or {})
        if overlap:
            raise ValueError(
                f"axes {sorted(overlap)} shadow base_params in design space {name!r}"
            )
        for constraint in constraints:
            undeclared = sorted(set(constraint.axes) - set(names))
            if undeclared:
                raise ValueError(
                    f"constraint {constraint.name!r} declares unknown axis "
                    f"name(s) {undeclared} in design space {name!r}; "
                    f"axes: {sorted(names)}"
                )
        self.name = name
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self.kind = kind
        self.base_params: Dict[str, Any] = dict(base_params or {})
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.fidelity_hook = fidelity_hook
        self.description = description
        self._axis_names = frozenset(names)
        #: per axis: its name, type-exact value key -> position, and size.
        self._grid: Tuple[Tuple[str, Dict[Tuple[type, Any], int], int], ...] = tuple(
            (axis.name, _positions(axis.values), len(axis.values))
            for axis in self.axes
        )
        self._mask: Optional[np.ndarray] = None
        self._points: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------ enumeration

    @property
    def cardinality(self) -> int:
        """Size of the unconstrained cartesian product."""
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def _feasibility_mask(self) -> np.ndarray:
        """One boolean per raw point, flat in axis-major order (memoised).

        Each constraint runs once per distinct combination of its declared
        axes and is broadcast over the rest, so a constraint over three
        small axes costs a handful of predicate calls however large the
        space.  At one byte per raw point, a 10^6-point space still streams.
        """
        if self._mask is None:
            mask = np.ones([len(axis.values) for axis in self.axes], dtype=bool)
            for constraint in self.constraints:
                mask &= self._constraint_mask(constraint)
            self._mask = mask.reshape(-1)
        return self._mask

    def _constraint_mask(self, constraint: Constraint) -> np.ndarray:
        """``constraint`` over its declared axes, shaped to broadcast."""
        read = set(constraint.axes) or self._axis_names
        axes = [axis for axis in self.axes if axis.name in read]
        names = [axis.name for axis in axes]
        combos = itertools.product(*(axis.values for axis in axes))
        flat = np.fromiter(
            (constraint.satisfied(dict(zip(names, combo))) for combo in combos),
            dtype=bool,
            count=math.prod(len(axis.values) for axis in axes),
        )
        return flat.reshape(
            [len(axis.values) if axis.name in read else 1 for axis in self.axes]
        )

    def _flat_index(self, assignment: Mapping[str, Any]) -> Optional[int]:
        """The assignment's position in the raw product, or ``None`` when
        it is not exactly one on-grid value per axis."""
        if len(assignment) != len(self.axes):
            return None
        index = 0
        try:
            for name, positions, size in self._grid:
                value = assignment[name]
                position = positions.get((type(value), value))
                if position is None:
                    return None
                index = index * size + position
        except (KeyError, TypeError):  # a missing name or unhashable value
            return None
        return index

    def feasible(self, assignment: Mapping[str, Any]) -> bool:
        """Whether ``assignment`` satisfies every constraint.

        On-grid assignments are a lookup in the feasibility mask; anything
        else (a value not on its axis, a missing or extra name) runs the
        predicates on the assignment as given.
        """
        index = self._flat_index(assignment)
        if index is None:
            return all(c.satisfied(assignment) for c in self.constraints)
        return bool(self._feasibility_mask()[index])

    def iter_points(self) -> Iterator[Dict[str, Any]]:
        """Yield every feasible assignment in deterministic axis-major order
        -- the streaming counterpart of :meth:`points`.

        Walks the cartesian product against the feasibility mask, so a
        10^6-point space costs the mask plus one assignment dict at a time.
        Strategies that can consume a stream (grid search) use this;
        strategies whose seeded sampling needs the full indexed list
        (random, halving) call :meth:`points`.
        """
        names = [axis.name for axis in self.axes]
        combos = itertools.product(*(axis.values for axis in self.axes))
        for combo in itertools.compress(combos, self._feasibility_mask()):
            yield dict(zip(names, combo))

    def feasible_count(self) -> int:
        """How many feasible assignments the space has: the mask's sum."""
        return int(np.count_nonzero(self._feasibility_mask()))

    def chunk_alignment(self, cap: int = 4096) -> int:
        """The largest trailing-axis block size not exceeding ``cap``: the
        product of the cardinalities of as many *innermost* (fastest-
        iterating) axes as fit.

        Used as the ``align`` hint of
        :func:`repro.runner.sweep.auto_chunk_size`: cutting chunks on a
        multiple of this block means points inside one chunk share every
        leading-axis value as much as enumeration order allows, so batch
        evaluators see maximal repeated structure (e.g. the chiplet link
        axes iterate innermost over a fixed core design).  Constraints may
        thin individual blocks, so this is a heuristic alignment, never a
        correctness requirement.
        """
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        block = 1
        for axis in reversed(self.axes):
            grown = block * len(axis.values)
            if grown > cap:
                break
            block = grown
        return block

    def points(self) -> List[Dict[str, Any]]:
        """Every feasible assignment, in deterministic axis-major order.

        The list is memoised (axes and constraints are immutable after
        construction); callers get a fresh list each time but share the
        assignment dicts, which nothing in the explorer mutates.  Prefer
        :meth:`iter_points`/:meth:`feasible_count` where a stream or a
        count suffices -- this list is what makes 10^6-point spaces
        expensive to hold.
        """
        if self._points is None:
            self._points = list(self.iter_points())
        return list(self._points)

    # --------------------------------------------------------- materialising

    def point_id(self, assignment: Mapping[str, Any]) -> str:
        """Stable short identity of one assignment (fidelity-independent)."""
        identity = canonical_json(
            {"space": self.name, "kind": self.kind, "assignment": dict(assignment)}
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:10]

    def point_params(
        self, assignment: Mapping[str, Any], fidelity: float = 1.0
    ) -> Dict[str, Any]:
        """Resolve one assignment into the runner parameter mapping.

        ``base_params`` overlaid with the assignment, passed through the
        fidelity hook when ``fidelity < 1`` -- exactly the parameters a
        materialised scenario would carry, without building the scenario.
        This is the entry point of the batched proxy path: bulk evaluators
        feed these mappings straight to a registered batch runner.
        Infeasible assignments and unknown axis names raise ``ValueError``.
        """
        unknown = sorted(set(assignment) - self._axis_names)
        if unknown:
            raise ValueError(
                f"unknown axis name(s) {unknown} for design space "
                f"{self.name!r}; axes: {sorted(self._axis_names)}"
            )
        if not 0.0 < fidelity <= 1.0:
            raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
        if not self.feasible(assignment):
            failed = [c.name for c in self.constraints if not c.satisfied(assignment)]
            raise ValueError(
                f"assignment violates constraint(s) {failed} of design "
                f"space {self.name!r}"
            )
        params = dict(self.base_params)
        params.update(assignment)
        if fidelity < 1.0:
            params = self.fidelity_hook(params, fidelity)
        return params

    def materialize(
        self, assignment: Mapping[str, Any], fidelity: float = 1.0
    ) -> DesignPoint:
        """Turn one assignment into a cacheable :class:`DesignPoint`.

        The scenario's parameters are :meth:`point_params`; the scenario name
        embeds the fidelity-independent :meth:`point_id` (suffixed with the
        fidelity when reduced) so cache entries can never be confused.
        """
        params = self.point_params(assignment, fidelity)
        name = f"dse/{self.name}/{self.point_id(assignment)}"
        if fidelity < 1.0:
            name = f"{name}@f{fidelity:g}"
        scenario = Scenario(
            name=name,
            kind=self.kind,
            params=params,
            tags=("dse", self.name),
            description=f"DSE point of space {self.name!r}",
        )
        return DesignPoint(
            space=self.name,
            point_id=self.point_id(assignment),
            assignment=dict(assignment),
            scenario=scenario,
            fidelity=fidelity,
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary (used by ``explore --list``)."""
        lines = [
            f"{self.name}: {self.description or self.kind} "
            f"({self.cardinality} raw points, kind {self.kind!r})"
        ]
        for axis in self.axes:
            values = ", ".join(str(v) for v in axis.values)
            lines.append(f"  axis {axis.name}: {values}")
        for constraint in self.constraints:
            detail = constraint.description or "predicate"
            lines.append(f"  constraint {constraint.name}: {detail}")
        return "\n".join(lines)

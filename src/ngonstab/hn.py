"""Harder-Narasimhan slicing of direct sums and the charge polygon.

Every summand the sheaf model produces has its charge in the upper half
lattice H', so a direct sum is filtered by simply grouping summands of
equal phase and listing the groups in strictly descending order.  The
polygon device records the same data geometrically: plotting cumulative
charges with x = total rank and y = Euler characteristic, the phase-
sorted path from the origin to the total charge is the upper convex
hull of every partial sum, with torsion contributing a leading vertical
edge.  A subset-sum brute force rebuilds that hull independently for
small inputs.
"""

from __future__ import annotations

from .charges import (
    ChargeVec,
    PhasePoint,
    _int_tuple,
    in_h_prime,
    phase_cmp,
    phase_sort_key,
    primitive,
    value_class,
)
from .sheaves import (
    UNSTABLE,
    SheafObject,
    Summand,
    _parts,
    is_semistable,
    object_charge,
)

__all__ = [
    "HNSlice",
    "HNResult",
    "HNPolygon",
    "hn_of_object",
    "hn_polygon",
    "brute_force_polygon",
]


@value_class
class HNSlice:
    """One semistable layer: total charge and summand indices."""

    total_charge: ChargeVec
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("slice needs at least one member")
        if self.total_charge == (0, 0):
            raise ValueError("zero vector has no direction")

    @property
    def phase(self) -> PhasePoint:
        return PhasePoint(0, self.total_charge)

    def to_json(self) -> dict:
        return {
            "phase": self.phase.to_json(),
            "charge": list(self.total_charge),
            "members": list(self.members),
        }


@value_class
class HNResult:
    slices: tuple[HNSlice, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slices", tuple(self.slices))
        for prev, nxt in zip(self.slices, self.slices[1:]):
            if phase_cmp(prev.total_charge, nxt.total_charge) != 1:
                raise ValueError("slice phases must strictly decrease")

    @property
    def total_charge(self) -> ChargeVec:
        re = sum(s.total_charge[0] for s in self.slices)
        im = sum(s.total_charge[1] for s in self.slices)
        return (re, im)

    def to_json(self) -> dict:
        return {"slices": [s.to_json() for s in self.slices]}


def _phase_groups(
    charges: list[ChargeVec],
) -> list[tuple[ChargeVec, tuple[int, ...]]]:
    """(summed charge, indices) per primitive direction, descending."""
    groups: dict[ChargeVec, list[int]] = {}
    for idx, c in enumerate(charges):
        groups.setdefault(primitive(c), []).append(idx)
    out = []
    for d in sorted(groups, key=phase_sort_key, reverse=True):
        members = tuple(groups[d])
        re = sum(charges[i][0] for i in members)
        im = sum(charges[i][1] for i in members)
        out.append(((re, im), members))
    return out


def hn_of_object(s: Summand | SheafObject) -> HNResult:
    """Group the summands of a direct sum into descending-phase slices;
    a lone summand is filtered as a one-summand object.

    Rejects any summand the stability test calls Unstable: the model
    does not split indecomposables, so the caller must refine such a
    summand into semistable pieces first.
    """
    parts = _parts(s)
    for idx, part in enumerate(parts):
        if is_semistable(part) == UNSTABLE:
            raise ValueError(
                f"summand {idx} is unstable; refine it before filtering"
            )
    charges = [object_charge(part) for part in parts]
    result = HNResult(tuple(HNSlice(*group) for group in _phase_groups(charges)))
    assert result.total_charge == object_charge(s)
    return result


def _pair(c: object, what: str) -> ChargeVec:
    """c as a pair of integers; anything else is a ValueError."""
    c = _int_tuple(c, what)
    if len(c) != 2:
        raise ValueError(f"{what} {c} must have two entries")
    return c


def _charge(c: object) -> ChargeVec:
    """c as a pair of integers in H'; anything else is a ValueError."""
    c = _pair(c, "charge")
    if not in_h_prime(c):
        raise ValueError(f"charge {c} is not in H'")
    return c


@value_class
class HNPolygon:
    """Vertices of the upper hull of partial charge sums, origin first."""

    vertices: tuple[ChargeVec, ...]

    def __post_init__(self) -> None:
        vertices = tuple(_pair(v, "vertex") for v in self.vertices)
        if not vertices or vertices[0] != (0, 0):
            raise ValueError("polygon must start at the origin")
        object.__setattr__(self, "vertices", vertices)
        edges = [
            (b[0] - a[0], b[1] - a[1])
            for a, b in zip(self.vertices, self.vertices[1:])
        ]
        for e in edges:
            if not in_h_prime(e):
                raise ValueError("polygon edges must point into H'")
        for e1, e2 in zip(edges, edges[1:]):
            if phase_cmp(e1, e2) != 1:
                raise ValueError("edge phases must strictly decrease")

    @property
    def total(self) -> ChargeVec:
        return self.vertices[-1]

    def to_json(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}


def hn_polygon(charges: list[ChargeVec]) -> HNPolygon:
    """Upper hull of cumulative charge sums, one edge per distinct phase.

    The input order is irrelevant: charges are resorted by descending
    phase (the canonical filtration order) and equal phases merge into
    one edge, so the hull of a hull's edge charges is itself.
    """
    cleaned = [_charge(c) for c in charges]
    vertices = [(0, 0)]
    for (re, im), _ in _phase_groups(cleaned):
        vertices.append((vertices[-1][0] + re, vertices[-1][1] + im))
    return HNPolygon(tuple(vertices))


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


MAX_SUBSET_CHARGES = 16


def brute_force_polygon(charges: list[ChargeVec]) -> HNPolygon:
    """Hull by enumerating all subset sums; exponential, for small lists.

    Works in hull coordinates (x, y) = (im, -re): every subset sum is a
    point, the best y is kept per x, and a monotone scan builds the
    strictly convex upper chain.  A leading vertical edge appears when
    the x = 0 column (torsion-only subsets) rises above the origin.
    """
    cleaned = [_charge(c) for c in charges]
    if len(cleaned) > MAX_SUBSET_CHARGES:
        raise ValueError(f"subset enumeration limited to {MAX_SUBSET_CHARGES} charges")
    sums = {(0, 0)}
    for re, im in cleaned:
        sums |= {(x + im, y - re) for x, y in sums}
    best: dict[int, int] = {}
    for x, y in sums:
        if x not in best or y > best[x]:
            best[x] = y
    points = sorted(best.items())
    chain: list[tuple[int, int]] = []
    for pt in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], pt) >= 0:
            chain.pop()
        chain.append(pt)
    if chain[0] != (0, 0):
        assert chain[0][0] == 0 and chain[0][1] > 0
        chain.insert(0, (0, 0))
    return HNPolygon(tuple((-y, x) for x, y in chain))

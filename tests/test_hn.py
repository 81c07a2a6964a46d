from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ngonstab.charges import PhasePoint, in_h_prime, phase_of_charge
from ngonstab.hn import (
    HNPolygon,
    HNResult,
    HNSlice,
    brute_force_polygon,
    hn_of_object,
    hn_polygon,
)
from ngonstab.schemas import MAX_ORACLE_SUMMANDS
from ngonstab.sheaves import (
    BandSheaf,
    ChainSheaf,
    Label,
    NodePoint,
    SheafObject,
    TorsionSheaf,
    object_charge,
    random_object,
)

A = Label.generator("a")

def test_two_slice_filtration():
    obj = SheafObject(
        (ChainSheaf(4, 2, 0, (1, 0)), TorsionSheaf(4, NodePoint(1), 1))
    )
    result = hn_of_object(obj)
    assert [s.phase for s in result.slices] == [
        PhasePoint(0, (-1, 0)),
        PhasePoint(0, (-1, 1)),
    ]
    assert [s.total_charge for s in result.slices] == [(-1, 0), (-2, 2)]
    # members index into the canonically sorted object
    assert [s.members for s in result.slices] == [(0,), (1,)]
    assert result.total_charge == object_charge(obj)


def test_equal_phases_merge():
    obj = SheafObject(
        (TorsionSheaf(2, NodePoint(0), 1), TorsionSheaf(2, NodePoint(1), 3))
    )
    result = hn_of_object(obj)
    assert len(result.slices) == 1
    assert result.slices[0].members == (0, 1)
    assert result.slices[0].total_charge == (-4, 0)


def test_unstable_summand_is_rejected():
    obj = SheafObject((ChainSheaf(3, 2, 0, (2, -2)),))
    with pytest.raises(ValueError, match="refine"):
        hn_of_object(obj)


def test_a_lone_summand_is_a_one_summand_object():
    c = ChainSheaf(4, 2, 0, (1, 0))
    assert hn_of_object(c) == hn_of_object(SheafObject((c,)))
    for bad in ("x", None, (c,), NodePoint(0)):
        with pytest.raises(TypeError, match="^not a sheaf model: "):
            hn_of_object(bad)


def _reference_groups(charges):
    """(summed charge, indices) per PhasePoint, by its sort key."""
    groups = {}
    for idx, c in enumerate(charges):
        groups.setdefault(phase_of_charge(c), []).append(idx)
    out = []
    for p in sorted(groups, key=lambda p: p.sort_key(), reverse=True):
        members = groups[p]
        re = sum(charges[i][0] for i in members)
        im = sum(charges[i][1] for i in members)
        out.append(((re, im), tuple(members)))
    return out


# a few rays, each drawn at several positive multiples, and torsion (-k, 0)
_ray_charges = st.builds(
    lambda re, im, j: (j * re, j * im),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(1, 4),
)
_charge_lists = st.lists(
    st.one_of(_ray_charges, st.integers(1, 4).map(lambda k: (-k, 0))), max_size=12
)


@st.composite
def _ray_objects(draw):
    # a one-line chain of degree x - 1 and a band of constant degree x on
    # r sheets share the ray (-x, 1); both are Stable, as is a torsion point
    n = draw(st.integers(1, 4))
    summand = st.one_of(
        st.builds(lambda x: ChainSheaf(n, 1, 0, (x - 1,)), st.integers(-2, 2)),
        st.builds(
            lambda x, r: BandSheaf(n, r, (x,) * (n * r), A), st.integers(-2, 2),
            st.integers(1, 2),
        ),
        st.builds(lambda k: TorsionSheaf(n, NodePoint(0), k), st.integers(1, 3)),
    )
    return SheafObject(tuple(draw(st.lists(summand, min_size=1, max_size=8))))


@given(_charge_lists, _ray_objects())
@settings(max_examples=150)
def test_grouping_matches_the_phase_point_reference(charges, obj):
    vertices = [(0, 0)]
    for (re, im), _ in _reference_groups(charges):
        vertices.append((vertices[-1][0] + re, vertices[-1][1] + im))
    assert hn_polygon(charges).vertices == tuple(vertices)
    parts = [object_charge(x) for x in obj.summands]
    want = tuple(HNSlice(*group) for group in _reference_groups(parts))
    assert hn_of_object(obj).slices == want


def test_hn_result_validates_order():
    up = HNSlice((0, 1), (0,))
    down = HNSlice((-1, 0), (1,))
    HNResult((down, up))
    with pytest.raises(ValueError):
        HNResult((up, down))
    with pytest.raises(ValueError):
        HNResult((down, down))
    with pytest.raises(ValueError):
        HNSlice((0, 1), ())


def test_result_json_shape():
    obj = SheafObject((TorsionSheaf(1, NodePoint(0), 1),))
    payload = hn_of_object(obj).to_json()
    assert payload == {
        "slices": [
            {
                "phase": {"two_shift": 0, "dir": [-1, 0]},
                "charge": [-1, 0],
                "members": [0],
            }
        ]
    }


# ---------------------------------------------------------------------------
# polygons


def test_polygon_pins():
    poly = hn_polygon([(-1, 0), (0, 1)])
    assert poly.vertices == ((0, 0), (-1, 0), (-1, 1))
    assert poly.total == (-1, 1)
    assert poly.to_json() == {"vertices": [[0, 0], [-1, 0], [-1, 1]]}
    assert hn_polygon([]).vertices == ((0, 0),)
    # same-phase charges merge into one edge
    assert hn_polygon([(0, 1), (0, 2)]).vertices == ((0, 0), (0, 3))


def test_polygon_rejects_lower_half_charges():
    with pytest.raises(ValueError):
        hn_polygon([(1, 0)])
    with pytest.raises(ValueError):
        brute_force_polygon([(0, -1)])


def test_polygons_refuse_non_integer_charges():
    for bad in ([1, 1.5], (True, 1), (0, 1, 0), 3):
        with pytest.raises(ValueError):
            hn_polygon([bad])
        with pytest.raises(ValueError):
            brute_force_polygon([bad])
        with pytest.raises(ValueError):
            HNPolygon(((0, 0), bad))
    with pytest.raises(ValueError):
        HNPolygon(((0, 0), (0.5, 1.0)))
    with pytest.raises(ValueError):
        HNPolygon(((False, False), (0, 1)))
    assert hn_polygon([[-1, 0], [0, 1]]) == hn_polygon([(-1, 0), (0, 1)])


def test_polygon_validation():
    with pytest.raises(ValueError):
        HNPolygon(((1, 0), (0, 1)))  # origin missing
    with pytest.raises(ValueError):
        HNPolygon(((0, 0), (1, -1)))  # edge outside H'
    with pytest.raises(ValueError):
        # increasing edge phases
        HNPolygon(((0, 0), (0, 1), (-1, 1)))
    with pytest.raises(ValueError, match="strictly decrease"):
        # two edges on one ray
        HNPolygon(((0, 0), (-1, 1), (-3, 3)))
    with pytest.raises(ValueError):
        HNPolygon(())


def test_brute_force_polygon_guard():
    # `hn --oracle` caps the summands at MAX_ORACLE_SUMMANDS, so a request
    # the cap lets through must never meet the oracle's own limit
    charges = [(0, 1)] * MAX_ORACLE_SUMMANDS
    assert brute_force_polygon(charges) == hn_polygon(charges)
    with pytest.raises(ValueError):
        brute_force_polygon(charges + [(0, 1)])


def test_polygon_matches_brute_force_random():
    rng = random.Random(41)
    for _ in range(300):
        count = rng.randint(0, 5)
        charges = []
        for _ in range(count):
            re = rng.randint(-4, 4)
            im = rng.randint(0, 4)
            if im == 0:
                re = -abs(re) - 1
            charges.append((re, im))
        assert hn_polygon(charges) == brute_force_polygon(charges), charges


def test_polygon_of_object_slices_matches_brute_force():
    rng = random.Random(42)
    for _ in range(60):
        obj = random_object(rng, semistable_only=True)
        result = hn_of_object(obj)
        via_slices = hn_polygon([s.total_charge for s in result.slices])
        direct = brute_force_polygon(
            [object_charge(x) for x in obj.summands]
        )
        assert via_slices == direct


# ---------------------------------------------------------------------------
# the standard heart: sheaf phases live in (0, 1]


def test_sheaves_live_in_the_standard_heart():
    rng = random.Random(43)
    for _ in range(40):
        obj = random_object(rng, semistable_only=True)
        for sl in hn_of_object(obj).slices:
            assert sl.phase.two_shift == 0 and in_h_prime(sl.phase.dir)

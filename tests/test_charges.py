from __future__ import annotations

import enum
import math
import random

import pytest
from hypothesis import given, strategies as st

from ngonstab.charges import (
    KClass,
    PhasePoint,
    Slope,
    add_half_turns,
    charge,
    compare_phase,
    in_h_prime,
    phase_cmp,
    phase_of_charge,
    primitive,
    _int_tuple,
)
from ngonstab.schemas import SchemaError, parse_slope


def float_phase(c: tuple[int, int]) -> float:
    """Float oracle for the (0, 2] window: atan2 folded off the positive axis."""
    ang = math.atan2(c[1], c[0])
    if ang <= 0.0:
        ang += 2.0 * math.pi
    return ang / math.pi


# ---------------------------------------------------------------------------
# directions


def test_in_h_prime_table():
    assert in_h_prime((0, 1))
    assert in_h_prime((-1, 0))
    assert in_h_prime((5, 3))
    assert in_h_prime((-7, 2))
    assert not in_h_prime((1, 0))
    assert not in_h_prime((0, -1))
    assert not in_h_prime((3, -1))
    assert not in_h_prime((0, 0))


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-6, -9)) == (-2, -3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((7, 0)) == (1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


# ---------------------------------------------------------------------------
# K-classes


def test_kclass_charge_and_kernel():
    k = KClass(2, (1, 0, -1))
    assert charge(k) == (-2, 0)
    assert k.rk_tot == 0
    assert charge(KClass(0, (1, -2, 1))) == (0, 0)
    assert charge(KClass(0, (1, 0, 0))) == (0, 1)


def test_kclass_validation_and_json():
    with pytest.raises(ValueError, match="^ranks must not be empty$"):
        KClass(1, ())
    k = KClass(-3, (1, 1, 0, 2))
    assert k.n == 4
    assert k.to_json() == {"n": 4, "chi": -3, "ranks": [1, 1, 0, 2]}


# ---------------------------------------------------------------------------
# phase points


def test_phase_of_charge_pins():
    assert phase_of_charge((-1, 0)) == PhasePoint(0, (-1, 0))
    assert phase_of_charge((2, 2)) == PhasePoint(0, (1, 1))
    assert phase_of_charge((0, -3)) == PhasePoint(0, (0, -1))
    # the branch end: the positive real axis carries phase exactly 2
    assert phase_of_charge((1, 0)) == PhasePoint(0, (1, 0))
    with pytest.raises(ValueError):
        phase_of_charge((0, 0))
    # the input boundary: a boolean entry is refused, not read as 1, and
    # a list is read as its tuple
    with pytest.raises(ValueError, match="^dir must contain only integers$"):
        phase_of_charge((True, 1))
    assert phase_of_charge([2, 2]) == PhasePoint(0, (1, 1))


class Level(enum.IntEnum):
    ONE = 1
    TWO = 2


def test_int_tuple_passes_exact_ints_and_checks_the_rest():
    exact = (3, -4, 10**30)
    assert _int_tuple(exact, "v") is exact
    assert _int_tuple([3, -4], "v") == (3, -4)
    got = _int_tuple((Level.ONE, 2), "v")
    assert got == (1, 2) and type(got) is tuple
    assert _int_tuple([Level.TWO], "v") == (2,)
    for bad in ((True, 1), (1, False), (1.0, 2), [2, 2.5], [True]):
        with pytest.raises(ValueError, match="^v must contain only integers$"):
            _int_tuple(bad, "v")
    for bad in (None, 7, "01", {1, 2}, range(2)):
        with pytest.raises(ValueError, match="^v must be a sequence of integers$"):
            _int_tuple(bad, "v")


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(0, (0, 0))
    # the direction is stored primitive
    assert PhasePoint(0, (2, 4)) == PhasePoint(0, (1, 2))
    # negative primitive directions are fine
    PhasePoint(-3, (-1, -1))


@given(
    st.integers(-4, 4),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 30),
)
def test_phase_point_is_its_ray(t, x, y, k):
    if (x, y) != (0, 0):
        assert PhasePoint(t, (k * x, k * y)) == PhasePoint(t, (x, y))


def test_positive_axis_is_window_maximum():
    top = PhasePoint(0, (1, 0)).sort_key()
    for d in [(0, 1), (-1, 0), (0, -1), (1, 1), (-2, 1), (-1, -3), (5, -1)]:
        assert PhasePoint(0, d).sort_key() < top
    # ... but one even shift dominates it
    assert top < PhasePoint(1, (0, 1)).sort_key()


def test_sort_matches_float_phase_exhaustive_box():
    dirs = sorted(
        {
            primitive((x, y))
            for x in range(-12, 13)
            for y in range(-12, 13)
            if (x, y) != (0, 0)
        }
    )
    by_key = sorted(dirs, key=lambda c: PhasePoint(0, c).sort_key())
    by_float = sorted(dirs, key=float_phase)
    assert by_key == by_float


def test_sort_matches_float_phase_random():
    rng = random.Random(99)
    for _ in range(10_000):
        a = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        b = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if a == (0, 0) or b == (0, 0):
            continue
        exact = PhasePoint(0, a).sort_key() < PhasePoint(0, b).sort_key()
        fa, fb = float_phase(a), float_phase(b)
        if abs(fa - fb) > 1e-9:
            assert exact == (fa < fb), (a, b)


def test_compare_phase_pins():
    one = PhasePoint(0, (-1, 0))
    half = PhasePoint(0, (0, 1))
    assert compare_phase(half, one) == "LT"
    assert compare_phase(one, half) == "GT"
    assert compare_phase(one, PhasePoint(0, (-1, 0))) == "EQ"
    assert compare_phase(PhasePoint(0, (1, 0)), PhasePoint(1, (0, 1))) == "LT"


def test_add_half_turns_pins():
    assert add_half_turns(PhasePoint(0, (0, 1)), 1) == PhasePoint(0, (0, -1))
    # crossing the branch end bumps the even shift
    assert add_half_turns(PhasePoint(0, (1, 0)), 1) == PhasePoint(1, (-1, 0))
    assert add_half_turns(PhasePoint(0, (0, -1)), 1) == PhasePoint(1, (0, 1))
    assert add_half_turns(PhasePoint(2, (-1, 5)), 0) == PhasePoint(2, (-1, 5))
    assert add_half_turns(PhasePoint(0, (-1, 0)), 2) == PhasePoint(1, (-1, 0))


def test_phase_point_json():
    p = PhasePoint(-2, (3, -5))
    assert p.to_json() == {"two_shift": -2, "dir": [3, -5]}


nonzero_dirs = st.tuples(
    st.integers(-30, 30), st.integers(-30, 30)
).filter(lambda c: c != (0, 0))
phase_points = st.builds(
    lambda s, d: PhasePoint(s, primitive(d)), st.integers(-4, 4), nonzero_dirs
)


@given(phase_points, st.integers(-7, 7), st.integers(-7, 7))
def test_add_half_turns_is_additive(p, a, b):
    assert add_half_turns(add_half_turns(p, a), b) == add_half_turns(p, a + b)


@given(phase_points, st.integers(-7, 7))
def test_add_half_turns_shifts_float_value(p, t):
    before = float_phase(p.dir) + 2 * p.two_shift
    q = add_half_turns(p, t)
    after = float_phase(q.dir) + 2 * q.two_shift
    assert after == pytest.approx(before + t)


@given(phase_points, phase_points, phase_points)
def test_compare_phase_is_transitive(a, b, c):
    order = {"LT": -1, "EQ": 0, "GT": 1}
    if order[compare_phase(a, b)] <= 0 and order[compare_phase(b, c)] <= 0:
        assert compare_phase(a, c) in ("LT", "EQ")


wide_dirs = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
).filter(lambda c: c != (0, 0))


@given(wide_dirs, wide_dirs)
def test_phase_cmp_is_antisymmetric(a, b):
    assert phase_cmp(a, b) == -phase_cmp(b, a)
    assert phase_cmp(a, b) in (-1, 0, 1)


@given(wide_dirs, wide_dirs)
def test_phase_cmp_ties_exactly_on_one_ray(a, b):
    assert (phase_cmp(a, b) == 0) == (primitive(a) == primitive(b))


@given(nonzero_dirs, st.integers(1, 10**6))
def test_phase_cmp_ignores_positive_multiples(a, k):
    assert phase_cmp(a, (k * a[0], k * a[1])) == 0
    assert phase_cmp(a, (-k * a[0], -k * a[1])) != 0


@given(wide_dirs, wide_dirs)
def test_phase_cmp_matches_float_phase(a, b):
    fa, fb = float_phase(a), float_phase(b)
    if abs(fa - fb) > 1e-9:
        assert phase_cmp(a, b) == (-1 if fa < fb else 1)


def test_phase_cmp_on_every_pair_of_a_small_box():
    # every nonzero vector of [-6, 6]^2, primitive or not, so the axes, the
    # branch ray and positive multiples of one direction all occur
    vecs = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    seen = [(v, primitive(v), float_phase(v)) for v in vecs]
    for a, pa, fa in seen:
        for b, pb, fb in seen:
            got = phase_cmp(a, b)
            if pa == pb:
                assert got == 0, (a, b)
            else:
                assert abs(fa - fb) > 1e-9, (a, b)
                assert got == (-1 if fa < fb else 1), (a, b)


@given(phase_points, phase_points)
def test_compare_phase_matches_sort_key(a, b):
    ka, kb = a.sort_key(), b.sort_key()
    expected = "LT" if ka < kb else "GT" if ka > kb else "EQ"
    assert compare_phase(a, b) == expected
    assert (ka == kb) == (a == b)


# ---------------------------------------------------------------------------
# slopes


def test_slope_parse_and_str():
    assert parse_slope("3/4") == Slope(3, 4)
    assert parse_slope(" -2 ") == Slope(-2, 1)
    assert parse_slope("6/4") == Slope(3, 2)
    assert parse_slope("inf") == Slope.infinity()
    assert parse_slope("oo").is_infinite
    assert str(Slope(-1, 3)) == "-1/3"
    assert str(Slope.infinity()) == "inf"
    for bad in ("abc", "1/2/3", "0/0", ""):
        with pytest.raises(SchemaError):
            parse_slope(bad)


def test_slope_of_normalizes_sign():
    assert Slope.of(2, -4) == Slope(-1, 2)
    assert Slope.of(-3, -3) == Slope(1, 1)
    assert Slope.of(5, 0) == Slope.infinity()
    assert Slope(-7, 0) == Slope.infinity()
    assert Slope(1, -1) == Slope(-1, 1)
    assert Slope(2, 4) == Slope(1, 2)
    # a bool is not an integer entry
    with pytest.raises(ValueError):
        Slope(True, 2)
    with pytest.raises(ValueError):
        Slope(0, 0)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-30, 30))
def test_slope_is_its_fraction(p, q, k):
    if (p, q) != (0, 0) and k != 0:
        assert Slope(k * p, k * q) == Slope(p, q)

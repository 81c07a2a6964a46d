from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ngonstab import gamma0
from ngonstab.charges import Slope
from ngonstab.gamma0 import (
    CuspClass,
    Mat2,
    brute_force_cusp_partition,
    class_count,
    cusp_canonicalize,
    cusp_class,
    cusp_equivalent,
    enumerate_cusp_classes,
    in_gamma0,
    restrict_partition_to_small_slopes,
    _complete,
    _euler_phi,
)
from ngonstab.schemas import SchemaError, mat2_from_json


def test_complete_is_the_normalised_det_one_column():
    for p in range(-40, 41):
        for q in range(0, 41):
            if gcd(p, q) != 1:
                with pytest.raises(ValueError, match="not reduced"):
                    _complete(p, q)
                continue
            m = _complete(p, q)
            assert m.det == 1 and (m.a, m.c) == (p, q), (p, q)
            if p != 0:
                assert 0 <= m.b < abs(p), (p, q)


# ---------------------------------------------------------------------------
# 2x2 matrices


def test_mat2_basics():
    t = Mat2.translation(3)
    v = Mat2.lower_translation(4)
    assert t.det == 1 and v.det == 1
    assert (t @ v).det == 1
    assert t @ Mat2.identity() == t
    assert t.inv() @ t == Mat2.identity()
    assert (-t).det == 1
    w = Mat2(0, 1, 1, 0)  # det -1
    assert w.inv() == w
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 2).inv()


def test_mat2_actions():
    t = Mat2.translation(1)
    assert t.matvec((1, 2)) == (3, 2)
    assert t.moebius(Slope(1, 2)) == Slope(3, 2)
    assert t.moebius(Slope.infinity()) == Slope.infinity()
    # the lower translation moves infinity to a finite slope
    assert Mat2.lower_translation(4).moebius(Slope.infinity()) == Slope(1, 4)


def test_mat2_json():
    m = Mat2(1, -2, 6, -11)
    assert mat2_from_json(m.to_json()) == m
    for bad in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], "x", [[1, 2], [3, "4"]]):
        with pytest.raises(SchemaError):
            mat2_from_json(bad)


def test_in_gamma0():
    assert in_gamma0(Mat2(1, 1, 4, 5), 4)
    assert in_gamma0(Mat2(1, 1, 4, 5), 2)
    assert not in_gamma0(Mat2(1, 1, 4, 5), 3)  # lower-left not divisible
    assert not in_gamma0(Mat2(1, 0, 0, -1), 1)  # det -1
    assert in_gamma0(-Mat2.identity(), 7)


# ---------------------------------------------------------------------------
# cusp counting and classification


def test_class_count_pins():
    expected = {1: 1, 2: 2, 3: 2, 4: 3, 5: 2, 6: 4, 8: 4, 12: 6, 36: 12}
    for n, count in expected.items():
        assert class_count(n) == count, n


def test_cusp_class_pins():
    assert cusp_class(4, Slope(0, 1)) == CuspClass(4, 1, 0)
    assert cusp_class(4, Slope.infinity()) == CuspClass(4, 4, 1)
    assert cusp_class(4, Slope(1, 2)) == CuspClass(4, 2, 1)
    assert cusp_class(12, Slope(7, 10)) == CuspClass(12, 2, 1)
    assert cusp_class(9, Slope(1, 3)) == CuspClass(9, 3, 1)
    assert cusp_class(9, Slope(2, 3)) == CuspClass(9, 3, 2)


def test_cusp_class_validation():
    with pytest.raises(ValueError):
        CuspClass(4, 3, 1)  # c does not divide N
    with pytest.raises(ValueError, match="^a must be a unit modulo gcd"):
        CuspClass(4, 2, 2)  # a = 0 mod gcd(2, 2)


def test_cusp_class_stores_the_canonical_residue():
    assert CuspClass(9, 3, 4) == CuspClass(9, 3, 1) == cusp_class(9, Slope(4, 3))
    assert CuspClass(4, 1, 5) == CuspClass(4, 1, 0)


def _canonical_residue(N, c, a):
    """The least t >= 0 with t = a mod gcd(c, N/c) and gcd(t, c) = 1,
    by counting up from 0."""
    g = gcd(c, N // c)
    return next(t for t in itertools.count() if (t - a) % g == 0 and gcd(t, c) == 1)


@st.composite
def _residues(draw):
    N = draw(st.integers(1, 60))
    c = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    g = gcd(c, N // c)
    a = draw(st.integers(-(10**30), 10**30) | st.integers(-3 * g, 3 * g))
    return N, c, g, a


@given(_residues())
def test_a_unit_residue_builds_its_canonical_class_and_no_other_does(case):
    N, c, g, a = case
    if gcd(a, g) != 1:
        with pytest.raises(ValueError, match="^a must be a unit modulo gcd"):
            CuspClass(N, c, a)
        return
    assert CuspClass(N, c, a).a == _canonical_residue(N, c, a)
    assert CuspClass(N, c, a) == CuspClass(N, c, a + g)


LEVEL_ZERO = [
    pytest.param(lambda: in_gamma0(Mat2.identity(), 0), id="in_gamma0"),
    pytest.param(lambda: class_count(0), id="class_count"),
    pytest.param(lambda: cusp_class(0, Slope(1, 2)), id="cusp_class"),
    pytest.param(lambda: brute_force_cusp_partition(0), id="partition"),
]


@pytest.mark.parametrize("call", LEVEL_ZERO)
def test_level_zero_is_refused(call):
    with pytest.raises(ValueError, match="^level must be a positive integer$"):
        call()


def test_cusp_equivalent():
    assert cusp_equivalent(4, Slope(1, 2), Slope(3, 2))
    assert not cusp_equivalent(9, Slope(1, 3), Slope(2, 3))
    assert cusp_equivalent(9, Slope(1, 3), Slope(4, 3))
    assert cusp_equivalent(6, Slope.infinity(), Slope(5, 6))
    assert not cusp_equivalent(6, Slope.infinity(), Slope(1, 2))


def test_cusp_class_is_moebius_invariant():
    """Acting by a verified group element never changes the class."""
    rng = random.Random(5)
    for N in (2, 3, 4, 6, 8, 12):
        for _ in range(60):
            s = Slope.of(rng.randint(-9, 9), rng.randint(-9, 9) or 1)
            word = Mat2.identity()
            for _ in range(rng.randint(1, 6)):
                gen = rng.choice(
                    [Mat2.translation(rng.choice((-1, 1))),
                     Mat2.lower_translation(N * rng.choice((-1, 1)))]
                )
                word = word @ gen
            assert in_gamma0(word, N)
            assert cusp_class(N, word.moebius(s)) == cusp_class(N, s)


def test_canonical_slope_gets_identity_witness():
    cls, witness = cusp_canonicalize(6, Slope(1, 2))
    assert cls == CuspClass(6, 2, 1)
    assert witness == Mat2.identity()


def test_witness_sweep():
    for N in (1, 2, 3, 4, 6, 8, 9, 12):
        slopes = [Slope.infinity()] + [
            Slope.of(p, q)
            for q in range(1, 13)
            for p in range(-12, 13)
        ]
        for s in slopes:
            cls, witness = cusp_canonicalize(N, s)
            assert in_gamma0(witness, N)
            assert witness.moebius(s) == cls.slope


def test_enumerate_cusp_classes():
    for N in range(1, 61):
        classes = enumerate_cusp_classes(N)
        assert len(classes) == class_count(N)
        assert len(set(classes)) == len(classes)
        assert classes[0] == CuspClass(N, 1, 0)
        if N > 1:
            assert classes[-1] == CuspClass(N, N, 1)
        # every class is its own canonical form
        for cls in classes:
            assert cusp_class(N, cls.slope) == cls


# ---------------------------------------------------------------------------
# brute-force oracles


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 12, 16, 18, 20, 90, 150])
def test_partition_matches_closed_form(N):
    uf = brute_force_cusp_partition(N)
    restricted = restrict_partition_to_small_slopes(N, uf)
    assert len(set(restricted.values())) == class_count(N)


def test_partition_matches_pairwise_equivalence():
    for N in (4, 6, 9, 12):
        restricted = restrict_partition_to_small_slopes(
            N, brute_force_cusp_partition(N)
        )
        slopes = list(restricted)
        for s1 in slopes:
            for s2 in slopes:
                same_orbit = restricted[s1] == restricted[s2]
                assert same_orbit == cusp_equivalent(N, s1, s2), (N, s1, s2)



def _batch(N):
    """The oracle's batch as (c, d) pairs: c = N..10N, d = 1..2N+1 coprime."""
    return [
        (c, d)
        for c in range(N, 10 * N + 1, N)
        for d in range(1, 2 * N + 2)
        if gcd(c, d) == 1
    ]


def _reference_partition(N, pairs):
    """The oracle's search written out literally: tuple node keys, a dict
    union-find, and every bisect window of the matrices [[a, b], [c, d]]
    named by `pairs` (each checked by in_gamma0) with no early stop.
    Returns the classes as a set of frozensets of node keys."""
    bound = 2 * N
    table = {}
    for c, d in sorted(pairs):
        a = pow(d, -1, c)
        M = Mat2(a, (a * d - 1) // c, c, d)
        assert in_gamma0(M, N)
        ds, mats = table.setdefault(c, ([], []))
        ds.append(d)
        mats.append(M)
    nodes = [(q, p0) for q in range(1, bound + 1) for p0 in range(q) if gcd(p0, q) == 1]
    parent = {x: x for x in [("inf",), *nodes]}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for q, p0 in nodes:
        for p in (p0 - q, p0, p0 + q):
            for c, (ds, mats) in table.items():
                cp = c * p
                d_lo = 1 if cp >= -bound else -((bound + cp) // q)
                d_hi = (bound - cp) // q
                for M in mats[bisect_left(ds, d_lo):bisect_right(ds, d_hi)]:
                    num, den = M.a * p + M.b * q, M.c * p + M.d * q
                    if den < 0:
                        num, den = -num, -den
                    image = (den, num % den) if den else ("inf",)
                    parent[find((q, p0))] = find(image)
    for c, (_, mats) in table.items():
        if c <= bound:
            for M in mats:
                parent[find(("inf",))] = find((c, M.a % c))
    return _classes(parent, find)


def _classes(keys, find):
    classes = {}
    for x in keys:
        classes.setdefault(find(x), set()).add(x)
    return {frozenset(v) for v in classes.values()}


def test_partition_equals_the_literal_search_on_every_node():
    for N in range(1, 31):
        uf = brute_force_cusp_partition(N)
        assert len(uf.parent) == 1 + sum(_euler_phi(q) for q in range(1, 2 * N + 1))
        assert _classes(uf.ids, uf.find) == _reference_partition(N, _batch(N)), N


def test_partition_equals_the_literal_search_on_small_batches(monkeypatch):
    """With one to three matrices most edges are needed, so an early stop
    that skips a non-empty window shows as a finer partition."""
    rng = random.Random(19)
    for N in range(1, 13):
        for k in [1, 2, 3] * 13:
            pairs = sorted(rng.sample(_batch(N), k))
            table = {}
            for c, d in pairs:
                a = pow(d, -1, c)
                ds, rows = table.setdefault(c, ([], []))
                ds.append(d)
                rows.append((a, (a * d - 1) // c))
            monkeypatch.setattr(
                gamma0, "_gamma0_edge_table",
                lambda n: [(c, ds, rows) for c, (ds, rows) in table.items()],
            )
            uf = brute_force_cusp_partition(N)
            assert _classes(uf.ids, uf.find) == _reference_partition(N, pairs), (N, pairs)

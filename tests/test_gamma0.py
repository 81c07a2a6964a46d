from __future__ import annotations

import ast
import itertools
import pathlib
import random
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
    _solve_congruence,
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


def test_solve_congruence_refuses_an_unsolvable_congruence():
    # 2m = 1 (mod 4) has no solution: gcd(2, 4) = 2 does not divide 1
    with pytest.raises(ValueError, match="^congruence has no solution$"):
        _solve_congruence(2, 1, 4)


def test_canonicalize_refuses_a_failed_witness(monkeypatch):
    monkeypatch.setattr(gamma0, "in_gamma0", lambda m, n: False)
    with pytest.raises(
        AssertionError, match="^witness construction failed for level 6, slope 5/6$"
    ):
        cusp_canonicalize(6, Slope(5, 6))


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


def test_restricted_keys_are_the_checked_slopes():
    for N in (1, 2, 7, 12, 30):
        keys = list(restrict_partition_to_small_slopes(N, brute_force_cusp_partition(N)))
        want = [Slope.infinity()] + [
            Slope(a, c) for c in range(1, N + 1) for a in range(c) if gcd(a, c) == 1
        ]
        assert keys == want and [repr(k) for k in keys] == [repr(s) for s in want]
        assert len(set(keys)) == len(keys)


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


def _p1_size(N):
    """N times the product of 1 + 1/p over the primes p dividing N."""
    size, m, p = N, N, 2
    while m > 1:
        if m % p == 0:
            size = size // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1
    return size


def test_partition_has_one_node_per_point_of_p1():
    assert [_p1_size(N) for N in (1, 2, 4, 6, 12)] == [1, 3, 6, 12, 24]
    for N in range(1, 61):
        assert len(brute_force_cusp_partition(N).parent) == _p1_size(N), N


def _p1_point(N, s):
    """The point of P^1(Z/NZ) of a slope p/q: the bottom row (q, d) of a
    determinant-one [[p, b], [q, d]], reduced mod N and taken as the
    least of its unit multiples."""
    q, d = (0, 1) if s.is_infinite else (s.den, pow(s.num, -1, s.den))
    units = [u for u in range(1, N + 1) if gcd(u, N) == 1]
    return min((u * q % N, u * d % N) for u in units)


def _random_gamma0(rng, N):
    while True:
        c, d = N * rng.randint(-12, 12), rng.randint(-60, 60)
        if gcd(c, d) == 1:
            break
    if c == 0:
        M = Mat2(d, rng.randint(-9, 9), 0, d)
    else:
        a = pow(d, -1, abs(c))
        M = Mat2(a, (a * d - 1) // c, c, d)
    M = Mat2.translation(rng.randint(-9, 9)) @ M
    assert in_gamma0(M, N), (M, N)
    return M


def test_partition_never_splits_an_orbit():
    """s and g(s) share a class for g in Gamma_0(N): the oracle is never
    finer than the orbits.  The closed-form and pairwise tests above
    show it is never coarser.  The restriction names each small slope's
    point."""
    rng = random.Random(33)
    for N in [*range(1, 31), 36, 49, 60, 90, 150]:
        uf = brute_force_cusp_partition(N)
        for s, root in restrict_partition_to_small_slopes(N, uf).items():
            assert root == uf.find(_p1_point(N, s)), (N, s)
        for _ in range(40):
            M = _random_gamma0(rng, N)
            s = Slope.of(rng.randint(-50, 50), rng.randint(0, 50) or 1)
            for x in (s, Slope.infinity()):
                image = M.moebius(x)
                assert uf.find(_p1_point(N, x)) == uf.find(_p1_point(N, image)), (N, M, x)


CLOSED_FORM = {"class_count", "cusp_class", "cusp_canonicalize", "cusp_equivalent",
               "CuspClass", "_complete", "_solve_congruence", "_coprime_representative",
               "_divisors", "_euler_phi"}


def test_partition_reads_nothing_of_the_closed_form():
    """The oracle, its restriction and the private helpers they reach
    name none of the closed form's functions, so it stays independent."""
    tree = ast.parse(pathlib.Path(gamma0.__file__).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = ["brute_force_cusp_partition", "restrict_partition_to_small_slopes"]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
        assert not names & CLOSED_FORM, (name, names & CLOSED_FORM)
        todo += [n for n in names if n.startswith("_") and n in defs]
    assert "_UnionFind" in seen

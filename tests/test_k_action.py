"""The paper's group acts on K-classes through its K-matrices.

Each generator is a functor on the sheaf model and a matrix on the
K-lattice (columns are images of e_0, e_1, ..., e_n).  Applying the
functor and then taking the class must equal applying the matrix to the
class: rotations of the curve against `iota_kauto`, the double shift
against `shift_square_kauto`, and a twist by a line bundle of degree d
on every component against the lift of the level matrix [[1, d], [0, 1]].
The covers act between levels: pulling back along the degree f = m/n
cover sends e_0 to f*e_0 and e_i to the sum of e_{i+jn} over its f sheets
j, and pushing forward onto the n'-cycle sends e_0 to e_0 and e_i to the
class of the component i - 1 reduces to.

A length-1 torsion point has class e_0 and the chain of one line with
degree -1 starting on component i - 1 has class e_i, so a functor's
K-matrix can also be read off its images of these n + 1 objects.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from ngonstab.charges import KClass
from ngonstab.compat import (
    KAuto,
    check_compatibility,
    identity_kauto,
    iota_kauto,
    lift_k_matrix,
    shift_square_kauto,
)
from ngonstab.gamma0 import Mat2
from ngonstab.sheaves import (
    ChainSheaf,
    Label,
    SmoothPoint,
    TorsionSheaf,
    double_shift,
    galois_translate,
    k_class,
    pullback,
    pushforward,
    random_label,
    random_object,
    tensor_line,
)


def act(A, x: KClass) -> KClass:
    """The matrix A (rows of ints) applied to the coordinates (chi, ranks) of x."""
    v = (x.chi, *x.ranks)
    image = [sum(a * b for a, b in zip(row, v)) for row in A]
    return KClass(image[0], tuple(image[1:]))


@given(st.integers(0, 2**32), st.integers(-3, 3))
@settings(max_examples=120)
def test_functors_act_by_their_k_matrices(seed, d):
    obj = random_object(random.Random(seed))
    n = obj.n
    x = k_class(obj)
    assert k_class(galois_translate(obj, 1)) == act(iota_kauto(n).matrix, x)
    assert k_class(double_shift(obj)) == act(shift_square_kauto(n).matrix, x)
    twisted = tensor_line(obj, (d,) * n, Label.identity())
    assert k_class(twisted) == act(lift_k_matrix(n, Mat2(1, d, 0, 1)).matrix, x)


def basis(n: int) -> list:
    """Objects of class e_0, e_1, ..., e_n."""
    point = TorsionSheaf(n, SmoothPoint(0, "p"), 1)
    return [point] + [ChainSheaf(n, 1, i, (-1,)) for i in range(n)]


def read_off(functor, n: int) -> tuple[tuple[int, ...], ...]:
    """The K-matrix whose column j is the class of functor(basis(n)[j]).

    It has n + 1 columns and one row per coordinate of the target level.
    """
    columns = [k_class(functor(x)) for x in basis(n)]
    return tuple(zip(*((c.chi, *c.ranks) for c in columns)))


def test_basis_objects_have_the_unit_classes():
    for n in range(1, 7):
        unit = identity_kauto(n).matrix
        assert read_off(lambda x: x, n) == unit


def test_read_off_matrices_are_the_compat_constructors():
    for n in range(1, 7):
        assert read_off(lambda x: galois_translate(x, 1), n) == iota_kauto(n).matrix
        assert read_off(double_shift, n) == shift_square_kauto(n).matrix
        for d in range(-3, 4):
            twist = read_off(lambda x: tensor_line(x, (d,) * n, Label.identity()), n)
            assert twist == lift_k_matrix(n, Mat2(1, d, 0, 1)).matrix


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
@settings(max_examples=300)
def test_a_twist_fails_the_kernel_exactly_when_its_degrees_differ(deg):
    n = len(deg)
    A = KAuto(read_off(lambda x: tensor_line(x, tuple(deg), Label.identity()), n))
    failed = check_compatibility(A).verdict == "FailsKernel"
    assert failed == (len(set(deg)) > 1)


@given(st.integers(1, 6), st.integers(-8, 8), st.integers(0, 2**32))
@settings(max_examples=100)
def test_the_descent_kernel_holds_rotations_trivial_twists_and_double_shift(
    n, power, seed
):
    mu = random_label(random.Random(seed))
    for functor in (
        lambda x: galois_translate(x, power),
        lambda x: tensor_line(x, (0,) * n, mu),
        double_shift,
    ):
        report = check_compatibility(KAuto(read_off(functor, n)))
        assert report.descended == Mat2.identity()


def pullback_map(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """e_0 -> (m/n)*e_0 and e_i -> the sum of e_{i+jn} over the m/n sheets."""
    cols = [[m // n] + [0] * m]
    for i in range(1, n + 1):
        cols.append([0] + [int((t - i) % n == 0) for t in range(1, m + 1)])
    return tuple(zip(*cols))


def pushforward_map(n: int, n_target: int) -> tuple[tuple[int, ...], ...]:
    """e_0 -> e_0 and e_i -> e_{(i - 1) mod n_target + 1}."""
    cols = [[1] + [0] * n_target]
    for i in range(1, n + 1):
        cols.append([0] + [int(t == (i - 1) % n_target + 1) for t in range(1, n_target + 1)])
    return tuple(zip(*cols))


def test_read_off_cover_maps_are_the_sheet_sums():
    for n in range(1, 7):
        for f in range(1, 4):
            assert read_off(lambda x: pullback(x, n * f), n) == pullback_map(n, n * f)
        for n_target in (d for d in range(1, n + 1) if n % d == 0):
            covered = read_off(lambda x: pushforward(x, n_target), n)
            assert covered == pushforward_map(n, n_target)


@given(st.integers(0, 2**32), st.integers(1, 3), st.data())
@settings(max_examples=120)
def test_covers_act_by_their_k_maps(seed, f, data):
    obj = random_object(random.Random(seed))
    n = obj.n
    x = k_class(obj)
    assert k_class(pullback(obj, n * f)) == act(read_off(lambda y: pullback(y, n * f), n), x)
    n_target = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    pushed = read_off(lambda y: pushforward(y, n_target), n)
    assert k_class(pushforward(obj, n_target)) == act(pushed, x)

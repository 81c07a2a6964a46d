"""The paper's group acts on K-classes through its K-matrices.

Each generator is a functor on the sheaf model and a matrix on the
K-lattice (columns are images of e_0, e_1, ..., e_n).  Applying the
functor and then taking the class must equal applying the matrix to the
class: rotations of the curve against `iota_kauto`, the double shift
against `shift_square_kauto`, and a twist by a line bundle of degree d
on every component against the lift of the level matrix [[1, d], [0, 1]].
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from ngonstab.charges import KClass
from ngonstab.compat import (
    KAuto,
    iota_kauto,
    lift_k_matrix,
    shift_square_kauto,
)
from ngonstab.gamma0 import Mat2
from ngonstab.sheaves import (
    Label,
    double_shift,
    galois_translate,
    k_class,
    random_object,
    tensor_line,
)


def act(A: KAuto, x: KClass) -> KClass:
    """A applied to the coordinate vector (chi, ranks) of x."""
    v = (x.chi, *x.ranks)
    image = [sum(a * b for a, b in zip(row, v)) for row in A.matrix]
    return KClass(x.n, image[0], tuple(image[1:]))


@given(st.integers(0, 2**32), st.integers(-3, 3))
@settings(max_examples=120)
def test_functors_act_by_their_k_matrices(seed, d):
    obj = random_object(random.Random(seed))
    n = obj.n
    x = k_class(obj)
    assert k_class(galois_translate(obj, 1)) == act(iota_kauto(n), x)
    assert k_class(double_shift(obj)) == act(shift_square_kauto(n), x)
    twisted = tensor_line(obj, (d,) * n, Label.identity())
    assert k_class(twisted) == act(lift_k_matrix(n, Mat2(1, d, 0, 1)), x)

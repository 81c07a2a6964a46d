from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ngonstab.charges import (
    KClass,
    PhasePoint,
    add_half_turns,
    charge,
    in_h_prime,
    phase_cmp,
    phase_of_charge,
    phase_sort_key,
)
from ngonstab.compat import (
    CompatReport,
    KAuto,
    box_sup_phase,
    check_compatibility,
    check_kernel,
    check_order,
    compose,
    compute_m,
    conjugate_by_D,
    identity_kauto,
    invert,
    iota_kauto,
    lift_k_matrix,
    order_preserved_brute_force,
    shift_square_kauto,
    _mat_det,
    _mat_identity,
    _mat_inverse,
    _mat_mul,
    _sorted_primitive_box,
)
from ngonstab.gamma0 import Mat2, in_gamma0
from ngonstab.schemas import MAX_BOX, MAX_K_N, SchemaError, kauto_from_json

ROT = Mat2(0, -1, 1, 0)


def random_gamma0(rng: random.Random, n: int, words: int = 5) -> Mat2:
    """A pseudo-random member built from the two parabolic generators."""
    m = Mat2.identity()
    for _ in range(words):
        if rng.random() < 0.5:
            m = m @ Mat2.translation(rng.choice((-2, -1, 1, 2)))
        else:
            m = m @ Mat2.lower_translation(n * rng.choice((-1, 1)))
    return m


# ---------------------------------------------------------------------------
# the lattice automorphism type


def test_kauto_validation():
    with pytest.raises(ValueError):
        KAuto(((2, 0), (0, 1)))  # det 2
    with pytest.raises(ValueError):
        KAuto(((1, 0), (0, 1)), amplitude_certificate="2")


REFUSALS = [
    pytest.param(
        KAuto, (((1,),),), "^expected a square integer matrix of at least 2 rows$",
        id="kauto-level-0",
    ),
    pytest.param(
        KAuto, (((1, 0), (0,)),), "^expected a 2x2 integer matrix$", id="kauto-not-square"
    ),
    pytest.param(iota_kauto, (0,), "^n must be a positive integer$", id="iota-level-0"),
    pytest.param(compute_m, (ROT, 0), "^n must be a positive integer$", id="m-level-0"),
    pytest.param(
        order_preserved_brute_force, (ROT, 0, 3), "^n must be a positive integer$",
        id="oracle-level-0",
    ),
    pytest.param(
        order_preserved_brute_force, (Mat2(2, 0, 0, 1), 1, 3),
        "^order check expects an invertible integer matrix$", id="oracle-det-2",
    ),
    pytest.param(
        CompatReport, (None, None, "Compatible"), "^unknown verdict 'Compatible'$",
        id="report-verdict",
    ),
]


@pytest.mark.parametrize("func, args, message", REFUSALS)
def test_refusals(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_kauto_json_round_trip():
    a = iota_kauto(3)
    assert kauto_from_json(a.to_json()) == a
    assert kauto_from_json(a.to_json()).amplitude_certificate == 0
    for bad in (
        17,
        {"n": 2},
        {"n": "2", "matrix": [[1, 0], [0, 1]]},
        {"n": 1, "matrix": [[1, 0], [0, 2]]},
        {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": "x"},
    ):
        with pytest.raises(SchemaError):
            kauto_from_json(bad)


def test_kauto_from_json_checks_the_shape_against_n_first():
    # 50,000 rows under n = 2 are refused on the row count alone, before
    # any row is read for the digit and determinant-work caps
    doc = {"n": 2, "matrix": [[1, 0, 0, 0, 0]] * 50_000, "amplitude_M": 0}
    with pytest.raises(SchemaError, match=r"^expected a 3x3 integer matrix$"):
        kauto_from_json(doc)
    for matrix in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 1]], None):
        with pytest.raises(SchemaError, match=r"^expected a 3x3 integer matrix$"):
            kauto_from_json({"n": 2, "matrix": matrix})
    with pytest.raises(SchemaError, match="^matrix entries must be integers$"):
        kauto_from_json({"n": 1, "matrix": [[1, 0], [0, True]]})
    # a non-integer entry before a ragged row: either fault may be named
    with pytest.raises(SchemaError, match="^(expected a 2x2 integer|matrix entries must be)"):
        kauto_from_json({"n": 1, "matrix": [[1, 0.5], [0]]})


def test_apply_kauto_rotates_components():
    # columns are images: e_0 fixed, e_1 -> e_2 -> e_3 -> e_1
    a = iota_kauto(3)
    assert a.matrix == ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    assert compose(a, compose(a, a)).matrix == identity_kauto(3).matrix


def test_check_kernel():
    assert check_kernel(iota_kauto(4))
    assert check_kernel(identity_kauto(5))
    # e_2 picks up an extra e_1: rank sums of kernel vectors drift
    broken = KAuto(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    assert not check_kernel(broken)


def _kernel_literal(A: KAuto) -> bool:
    """check_kernel by its definition: A b_i has zero charge for every
    kernel basis vector b_i = e_i - e_{i+1}."""
    n = A.n
    for i in range(1, n):
        b = [0] * (n + 1)
        b[i], b[i + 1] = 1, -1
        image = [sum(x * y for x, y in zip(row, b)) for row in A.matrix]
        if charge(KClass(image[0], tuple(image[1:]))) != (0, 0):
            return False
    return True


def _elementary(n: int, r: int, c: int, t: int) -> KAuto:
    """The identity on the rank-(n+1) lattice plus t in entry (r, c), r != c."""
    rows = [list(row) for row in _mat_identity(n + 1)]
    rows[r][c] = t
    return KAuto(tuple(map(tuple, rows)))


def test_check_kernel_matches_its_definition():
    rng = random.Random(2027)
    cases = []
    for n in (1, 2, 3, 5, 8, 12):
        size = n + 1
        cases.append(identity_kauto(n))
        cases.append(lift_k_matrix(n, random_gamma0(rng, n)))
        # permutations of the components keep the kernel; one that moves
        # e_0 need not
        perm = list(range(1, size))
        rng.shuffle(perm)
        for order in ([0, *perm], rng.sample(range(size), size)):
            cases.append(KAuto(tuple(
                tuple(int(order[c] == r) for c in range(size)) for r in range(size)
            )))
        for _ in range(12):
            A = lift_k_matrix(n, random_gamma0(rng, n))
            for _ in range(rng.randint(1, 2)):
                r, c = rng.sample(range(size), 2)
                A = compose(A, _elementary(n, r, c, rng.choice((-2, -1, 1, 2))))
            cases.append(A)
    verdicts = [check_kernel(A) for A in cases]
    assert verdicts == [_kernel_literal(A) for A in cases]
    assert {True, False} <= set(verdicts)
    # n = 1 has no kernel basis vector: every automorphism passes
    assert all(check_kernel(A) for A in cases if A.n == 1)
    assert not check_kernel(_elementary(2, 1, 2, 1))
    assert not check_kernel(_elementary(2, 0, 1, 1))
    assert check_kernel(_elementary(2, 1, 0, 5))


def test_conjugate_by_D():
    m = Mat2(1, 2, 3, 4)
    assert conjugate_by_D(m) == Mat2(1, -2, -3, 4)
    assert conjugate_by_D(conjugate_by_D(m)) == m
    assert conjugate_by_D(m).det == m.det


# ---------------------------------------------------------------------------
# the critical phase


def test_compute_m_pins():
    assert compute_m(Mat2.identity(), 1) == PhasePoint(0, (-1, 0))
    assert compute_m(-Mat2.identity(), 1) == PhasePoint(-1, (1, 0))
    assert compute_m(ROT, 2) == PhasePoint(0, (0, 1))  # phase 1/2
    assert compute_m(ROT.inv(), 2) == PhasePoint(0, (-1, 0))
    assert compute_m(Mat2.translation(1), 1) == PhasePoint(0, (-1, 0))
    assert compute_m(Mat2(1, 0, 1, 1), 1) == PhasePoint(0, (-1, 1))
    with pytest.raises(ValueError):
        compute_m(Mat2(0, 1, 1, 0), 1)


@pytest.mark.parametrize(
    "m2", [Mat2.identity(), -Mat2.identity(), ROT, Mat2(1, 0, 1, 1), Mat2(2, 1, 1, 1)]
)
def test_box_sup_attains_m_plus_one(m2):
    target = add_half_turns(compute_m(m2, 1), 1)
    sups = [box_sup_phase(m2, 1, box)[0].sort_key() for box in (10, 25, 50)]
    assert sups[0] <= sups[1] <= sups[2] <= target.sort_key()
    assert sups[2] == target.sort_key()


def test_box_sup_witness_is_a_member():
    p, v = box_sup_phase(ROT, 2, 10)
    assert p == PhasePoint(0, (0, -1))  # phase 3/2 = m + 1
    assert v == (0, -1)


def test_box_sup_witness_beats_every_other_member():
    rng = random.Random(11)
    matrices = [ROT, Mat2.identity(), Mat2(1, 0, 0, -1)]
    matrices += [random_gamma0(rng, 3) for _ in range(3)]
    for M in matrices:
        for box in (2, 5, 9):
            p, v = box_sup_phase(M, 3, box)
            assert p == PhasePoint(0, v)
            others = [u for u in _box_members(M, 3, box) if u != v]
            assert others and all(phase_cmp(v, u) > 0 for u in others)


# ---------------------------------------------------------------------------
# the criterion itself


def test_known_compatibles():
    for a in (identity_kauto(3), iota_kauto(5), shift_square_kauto(2)):
        report = check_compatibility(a)
        assert report.verdict == "Compatible-by-criterion"
        assert report.descended == Mat2.identity()
        flags = report.to_json()
        assert flags["kernel_preserved"] and flags["det_plus_one"]
        assert flags["order_preserved"]
        assert report.m_value is not None


def test_verdict_ladder():
    broken = KAuto(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    assert check_compatibility(broken).verdict == "FailsKernel"
    swap = KAuto(((0, 1), (1, 0)))
    report = check_compatibility(swap)
    assert report.verdict == "FailsOrientation"
    flags = report.to_json()
    assert flags["kernel_preserved"] and not flags["det_plus_one"]
    assert report.descended is None and not flags["order_preserved"]
    # a genuine lift with the certificate stripped off
    lifted = lift_k_matrix(2, Mat2(1, 1, 2, 3))
    bare = KAuto(lifted.matrix, None)
    assert check_compatibility(bare).verdict == "MissingAmplitude"
    assert check_compatibility(lifted).verdict == "Compatible-by-criterion"


def test_report_json():
    report = check_compatibility(iota_kauto(2))
    obj = report.to_json()
    assert obj["verdict"] == "Compatible-by-criterion"
    assert obj["descended"] == [[1, 0], [0, 1]]
    assert obj["m_value"] == {"two_shift": 0, "dir": [-1, 0]}
    none_report = check_compatibility(KAuto(((0, 1), (1, 0)))).to_json()
    assert none_report["m_value"] is None


def test_lift_round_trip():
    # A(e_i) = A(e_1) - e_1 + e_i for i >= 2: two rows over identity rows
    assert lift_k_matrix(3, Mat2(2, 1, 3, 2)).matrix == (
        (2, 1, 1, 1),
        (3, 2, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(10):
            m2 = random_gamma0(rng, n)
            assert in_gamma0(m2, n)
            lifted = lift_k_matrix(n, m2)
            assert check_kernel(lifted)
            report = check_compatibility(lifted)
            assert report.descended == m2
            assert report.verdict == "Compatible-by-criterion"


def test_lift_rejections():
    with pytest.raises(ValueError):
        lift_k_matrix(3, Mat2(1, 1, 2, 3))  # lower-left not divisible by 3
    with pytest.raises(ValueError):
        lift_k_matrix(1, Mat2(0, 1, 1, 0))  # det -1


def test_compose_and_invert():
    a = lift_k_matrix(4, Mat2(1, 1, 4, 5))
    b = lift_k_matrix(4, Mat2(1, 0, 4, 1))
    ab = compose(a, b)
    descended = [check_compatibility(x).descended for x in (ab, a, b)]
    assert descended[0] == descended[1] @ descended[2]
    assert ab.amplitude_certificate == 2
    inv = invert(a)
    assert compose(a, inv).matrix == identity_kauto(4).matrix
    assert inv.amplitude_certificate == a.amplitude_certificate
    assert compose(shift_square_kauto(2), shift_square_kauto(2)).amplitude_certificate == 4
    # unknown certificates stay unknown through composition
    bare = KAuto(a.matrix, None)
    assert compose(bare, b).amplitude_certificate is None
    with pytest.raises(ValueError):
        compose(a, identity_kauto(3))


# ---------------------------------------------------------------------------
# order oracles


def random_unimodular(rng: random.Random, size: int) -> tuple:
    """Identity scrambled by row additions, swaps and negations."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
        if rng.random() < 0.2:
            rows[i] = [-x for x in rows[i]]
    return tuple(tuple(r) for r in rows)


def test_integer_inverse_on_random_unimodular_kautos():
    rng = random.Random(5)
    for trial in range(300):
        n = 1 + trial % 12
        a = KAuto(random_unimodular(rng, n + 1))
        inv = invert(a).matrix
        assert _mat_mul(a.matrix, inv) == _mat_identity(n + 1)
        assert _mat_mul(inv, a.matrix) == _mat_identity(n + 1)
        assert _mat_inverse(inv) == a.matrix


def test_integer_inverse_refuses_non_unimodular():
    with pytest.raises(ValueError, match="not unimodular"):
        _mat_inverse(((2, 0, 0), (0, 1, 0), (1, 5, 1)))  # det 2
    with pytest.raises(ValueError, match="not unimodular"):
        _mat_inverse(((3, 1), (1, 1)))  # det 2, no zero pivot on the way
    with pytest.raises(ValueError, match="singular"):
        _mat_inverse(((3, 0), (3, 0)))


def permutation_sign(perm) -> int:
    inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
    return (-1) ** inversions


def leibniz_det(m) -> int:
    """The determinant by its definition, a signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = permutation_sign(perm)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def rational_inverse(m):
    """_mat_inverse's answer by Gauss-Jordan over the rationals: the
    inverse, or the message for a singular or non-unimodular matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return "matrix is singular"
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if any(x.denominator != 1 for row in a for x in row[n:]):
        return "matrix is not unimodular"  # an integer inverse needs det +-1
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


def inverse_or_refusal(m):
    try:
        return _mat_inverse(m)
    except ValueError as exc:
        return str(exc)


def test_elimination_matches_the_definitions_on_small_matrices():
    rng = random.Random(25)
    kinds = set()
    for trial in range(600):
        n = 1 + trial % 5
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        det = leibniz_det(m)
        kinds.add(min(abs(det), 2))
        assert _mat_det(m) == det, m
        assert inverse_or_refusal(m) == rational_inverse(m), m
    assert kinds == {0, 1, 2}  # singular, unimodular and |det| >= 2 all drawn


def permutation_matrix(perm) -> tuple:
    """Columns are images: e_j goes to e_perm[j]."""
    size = len(perm)
    return tuple(tuple(int(perm[j] == i) for j in range(size)) for i in range(size))


def test_elimination_on_lifts_permutations_and_products():
    # the structured K-matrices the library builds, where the elimination
    # skips the row steps that change nothing
    rng = random.Random(26)
    for n in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(3):
            lift = lift_k_matrix(n, random_gamma0(rng, n)).matrix
            other = lift_k_matrix(n, random_gamma0(rng, n)).matrix
            fixed = [0] + rng.sample(range(1, n + 1), n)
            moved = rng.sample(range(n + 1), n + 1)
            if moved[0] == 0:  # the point class goes elsewhere
                moved[0], moved[1] = moved[1], moved[0]
            cases = [
                (lift, 1),
                (permutation_matrix(fixed), permutation_sign(fixed)),
                (permutation_matrix(moved), permutation_sign(moved)),
                (_mat_mul(lift, other), 1),
                (_mat_mul(lift, permutation_matrix(moved)), permutation_sign(moved)),
                (_mat_mul(permutation_matrix(fixed), lift), permutation_sign(fixed)),
            ]
            for m, det in cases:
                assert _mat_det(m) == det, m
                assert _mat_inverse(m) == rational_inverse(m), m


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("make", [identity_kauto, iota_kauto, shift_square_kauto])
def test_lattice_constructors_refuse_n_below_1(make, n):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        make(n)


def test_k_matrix_decoder_is_capped():
    with pytest.raises(SchemaError, match=f"cap of {MAX_K_N}"):
        kauto_from_json({"n": MAX_K_N + 1, "matrix": []})


def test_check_order_is_the_determinant():
    assert check_order(Mat2(-1, 0, -2, -1), 2)
    assert not check_order(Mat2(0, 1, 1, 0), 2)
    with pytest.raises(ValueError):
        check_order(Mat2.identity(), 0)


def test_cyclic_oracle_on_reflections_and_rotations():
    assert order_preserved_brute_force(Mat2.identity(), 1, 8)
    assert order_preserved_brute_force(ROT, 1, 8)
    assert order_preserved_brute_force(-Mat2.identity(), 1, 8)
    assert not order_preserved_brute_force(Mat2(0, 1, 1, 0), 1, 8)
    assert not order_preserved_brute_force(Mat2(1, 0, 0, -1), 1, 8)


@pytest.mark.parametrize("box", range(2, 11))
def test_cyclic_oracle_pins_across_boxes(box):
    assert not order_preserved_brute_force(Mat2(0, 1, 1, 0), 1, box)
    assert not order_preserved_brute_force(Mat2(1, 0, 0, -1), 1, box)
    assert order_preserved_brute_force(-Mat2.identity(), 1, box)


UNIMODULAR = [
    Mat2(*e)
    for e in itertools.product(range(-6, 7), repeat=4)
    if e[0] * e[3] - e[1] * e[2] in (1, -1)
]


def _box_members(m, n, box):
    """The primitive box vectors v, in phase order, with v or -mv in H'."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _sorted_primitive_box(box)
    return [v for v in pts if in_h_prime(v) or in_h_prime(m.matvec((-v[0], -v[1])))]


def _order_preserved_by_definition(m, n, box):
    # order is preserved when the images, in member order, are a rotation
    # of their phase-sorted order with no two on one ray
    images = [m.matvec(v) for v in _box_members(m, n, box)]
    ordered = sorted(images, key=phase_sort_key)
    keys = [phase_sort_key(v) for v in ordered]
    distinct = all(p < q for p, q in zip(keys, keys[1:]))
    cut = images.index(ordered[0]) if images else 0
    return distinct and images[cut:] + images[:cut] == ordered


@given(st.sampled_from(UNIMODULAR), st.sampled_from((1, 2)), st.integers(0, 8))
@settings(max_examples=300)
def test_cyclic_oracle_matches_its_definition(m, n, box):
    assert order_preserved_brute_force(m, n, box) == _order_preserved_by_definition(m, n, box)


def test_cyclic_oracle_matches_its_definition_at_workload_radii():
    rng = random.Random(2610)
    plus = [m for m in UNIMODULAR if m.det == 1]
    minus = [m for m in UNIMODULAR if m.det == -1]
    cases = [(m, box) for box in (10, 25) for m in rng.sample(plus, 20) + rng.sample(minus, 20)]
    cases += [(m, 50) for m in rng.sample(plus, 3) + rng.sample(minus, 2)]
    cases += [(m, 50) for m in (ROT, -Mat2.identity(), Mat2(0, 1, 1, 0))]
    verdicts = []
    for m, box in cases:
        expected = _order_preserved_by_definition(m, 2, box)
        assert order_preserved_brute_force(m, 2, box) == expected, (m, box)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_cyclic_oracle_matches_its_definition_at_the_cap():
    lift = lift_k_matrix(12, Mat2(5, 2, 12, 5))
    descended = conjugate_by_D(check_compatibility(lift).descended)
    cases = [ROT, -Mat2.identity(), Mat2(0, 1, 1, 0), descended, Mat2(2, 1, 1, 0)]
    verdicts = [order_preserved_brute_force(m, 2, MAX_BOX) for m in cases]
    assert verdicts == [_order_preserved_by_definition(m, 2, MAX_BOX) for m in cases]
    assert verdicts == [True, True, False, True, False]


def _box_by_definition(box):
    """The primitive vectors of [-box, box]^2 sorted by the library's key."""
    pts = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if gcd(x, y) == 1
    ]
    pts.sort(key=phase_sort_key)
    return tuple(pts)


def test_sorted_box_matches_its_definition():
    for box in range(-1, 61):
        assert _sorted_primitive_box(box) == _box_by_definition(box), box


def test_sorted_box_at_the_cap_is_every_primitive_vector_by_phase():
    pts = _sorted_primitive_box(MAX_BOX)
    r = range(-MAX_BOX, MAX_BOX + 1)
    assert len(pts) == sum(gcd(x, y) == 1 for x in r for y in r)
    assert all(abs(x) <= MAX_BOX >= abs(y) and gcd(x, y) == 1 for x, y in pts)
    assert all(phase_cmp(u, v) < 0 for u, v in zip(pts, pts[1:]))
    half = len(pts) // 2
    assert all(map(in_h_prime, pts[:half]))
    assert not any(map(in_h_prime, pts[half:]))


def test_first_half_of_the_sorted_box_is_h_prime():
    for box in range(41):
        pts = _sorted_primitive_box(box)
        assert list(pts[: len(pts) // 2]) == [v for v in pts if in_h_prime(v)]


def test_box_sup_phase_refuses_an_empty_box():
    with pytest.raises(ValueError, match="no members in the box"):
        box_sup_phase(Mat2.identity(), 1, 0)
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        box_sup_phase(Mat2.identity(), 0, 0)


def test_box_sup_phase_is_the_last_member():
    small = [m for m in UNIMODULAR if max(map(abs, (m.a, m.b, m.c, m.d))) <= 3]
    # -I keeps exactly the H' half, so the second half holds no member
    pts = _sorted_primitive_box(12)
    assert -Mat2.identity() in small
    assert _box_members(-Mat2.identity(), 1, 12) == list(pts[: len(pts) // 2])
    for m in small:
        for n in (1, 3):
            for box in range(13):
                members = _box_members(m, n, box)
                if not members:
                    with pytest.raises(ValueError, match="no members in the box"):
                        box_sup_phase(m, n, box)
                    continue
                v = members[-1]
                assert box_sup_phase(m, n, box) == (phase_of_charge(v), v), (m, n, box)


def _traced_peak(f, *args):
    """Peak bytes held by what f allocates, tracing from its start."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [Mat2.identity(), Mat2(2, 1, 1, 1), Mat2(0, 1, 1, 0)])
def test_box_oracles_build_no_per_member_objects(m):
    # At box 50 (6,192 vectors) neither oracle holds a member list: each
    # reads the cached box in place and peaks under 0.5 KB.  The bound
    # allows 8x that; a member list would add at least 24 KB, and one
    # image tuple per member over 60 bytes each.
    order_preserved_brute_force(m, 2, 50)
    assert _traced_peak(order_preserved_brute_force, m, 2, 50) <= 4096
    assert _traced_peak(box_sup_phase, m, 2, 50) <= 4096


def test_cyclic_oracle_handles_negated_representatives():
    # the cyclic walk accepts a matrix and its negative alike, matching
    # the determinant rule
    m = Mat2(-1, 0, -2, -1)
    assert order_preserved_brute_force(m, 2, 10)
    assert order_preserved_brute_force(-m, 2, 10)

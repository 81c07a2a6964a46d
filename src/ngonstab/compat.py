"""K-lattice compatibility checks for autoequivalence candidates on n-gons.

An automorphism of the rank-(n+1) K-lattice is given by an integer
matrix in the basis (e_0, e_1, ..., e_n) where e_0 is the point class
and e_i the degree-(0,...,-1,...,0) line bundle class; columns are
images, so the matrix size n + 1 fixes n and a `KAuto` stores no n of
its own.  Every `KAuto` decides that it is unimodular by one exact
Bareiss elimination, the pass that `invert` finishes by back
substitution.  The central charge sends e_0 to -1 and each e_i to i
(rank 1, Euler characteristic 0), so its kernel is the rank-(n-1)
lattice {chi = 0, sum of ranks = 0} with basis b_i = e_i - e_{i+1}.

The checkable conditions are: the kernel is preserved (so the matrix
descends to the rank-2 charge image), the descended matrix has
determinant +1, and the descended action strictly preserves the phase
order on the effective-comparable set.  A fourth condition, bounded
cohomological amplitude, is not decidable from K-data and enters as a
caller-supplied integer certificate.

Two coordinate readings of a 2x2 matrix coexist here and are easy to
mix up.  `check_compatibility` reports the induced map in the lattice
basis (charge(e_0), charge(e_1)) = ((-1, 0), (0, 1)).  The region tests
(`compute_m`, `check_order` and the box oracles) act on ChargeVec pairs
(re, im) directly, i.e. in the standard plane basis.  The two differ
by conjugation with diag(-1, 1); `conjugate_by_D` converts.

The functors of `sheaves` act on K-classes through these matrices: for
each one, tests/test_k_action.py reads the matrix A_F off the images of
the n + 1 basis objects and checks k_class(F(x)) == A_F k_class(x) on
random objects.  Rotation by one component gives `iota_kauto`, the
double shift `shift_square_kauto`, and the twist by degree d on every
component the lift of [[1, d], [0, 1]]; `pullback` and `pushforward` give
the K-maps between levels that sum over, or fold, the sheets of the cover.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import mul

from .charges import (
    ChargeVec,
    PhasePoint,
    in_h_prime,
    is_int,
    phase_of_charge,
    value_class,
)
from .gamma0 import Mat2, in_gamma0

__all__ = [
    "KAuto",
    "CompatReport",
    "check_kernel",
    "conjugate_by_D",
    "check_order",
    "compute_m",
    "check_compatibility",
    "lift_k_matrix",
    "compose",
    "invert",
    "iota_kauto",
    "identity_kauto",
    "shift_square_kauto",
    "order_preserved_brute_force",
    "box_sup_phase",
]

IntMatrix = tuple[tuple[int, ...], ...]


def _as_int_matrix(rows: object) -> IntMatrix:
    """The rows as a tuple of tuples: square, at least 2x2, of integers."""
    size = len(rows) if isinstance(rows, (list, tuple)) else 0
    if size < 2:
        raise ValueError("expected a square integer matrix of at least 2 rows")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != size:
            raise ValueError(f"expected a {size}x{size} integer matrix")
        # one C-level pass for exact ints; is_int judges anything else
        if set(map(type, row)) != {int} and not all(is_int(x) for x in row):
            raise ValueError("matrix entries must be integers")
        out.append(tuple(row))
    return tuple(out)


def _eliminate(a: list[list[int]]) -> int:
    """Bareiss (fraction-free) forward elimination of a's leading square
    block, in place, carrying any further columns along; its determinant,
    0 when singular.  Every entry written is a minor of the input, and
    nothing below the diagonal is read again, so it is not cleared.  A
    row step is skipped when the row's pivot-column entry is 0 and the
    pivot equals the previous one, as it would compute row * p // prev =
    row: on lifts, permutations and their products that leaves about n^2
    work instead of n^3."""
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        p = a[k][k]
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            if f != 0 or p != prev:
                row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * a[n - 1][n - 1]


def _mat_det(m: IntMatrix) -> int:
    return _eliminate([list(row) for row in m])


def _mat_mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


def _mat_identity(n: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def _mat_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix.

    _eliminate runs on [m | I] and leaves m's upper triangle beside the
    reduced identity.  With determinant +-1, m^-1 = +-adj m is an integer
    matrix, so fraction-free back substitution on that triangle divides
    every row exactly by its pivot.
    """
    n = len(m)
    a = [list(row + e) for row, e in zip(m, _mat_identity(n))]
    det = _eliminate(a)
    if det == 0:
        raise ValueError("matrix is singular")
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")
    inv: list[tuple[int, ...]] = [()] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = row[n:]
        for j in range(i + 1, n):
            if row[j] != 0:
                acc = [x - row[j] * y for x, y in zip(acc, inv[j])]
        inv[i] = tuple([x // row[i] for x in acc])
    return tuple(inv)


@value_class
class KAuto:
    """Unimodular automorphism of the rank-(n+1) K-lattice.

    matrix[i][j] is the coefficient of e_i in the image of e_j (columns
    are images), and n is len(matrix) - 1.  amplitude_certificate is the
    caller's assertion that the underlying functor has cohomological
    amplitude at most that integer; None means unknown, which blocks a
    Compatible verdict.
    """

    matrix: IntMatrix
    amplitude_certificate: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_int_matrix(self.matrix))
        if abs(_mat_det(self.matrix)) != 1:
            raise ValueError("K-lattice automorphism must be unimodular")
        if self.amplitude_certificate is not None and not is_int(
            self.amplitude_certificate
        ):
            raise ValueError("amplitude certificate must be an integer or None")

    @property
    def n(self) -> int:
        return len(self.matrix) - 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [list(row) for row in self.matrix],
            "amplitude_M": self.amplitude_certificate,
        }


def check_kernel(A: KAuto) -> bool:
    """True iff A maps the charge kernel {chi = 0, sum of ranks = 0} into itself.

    On the basis b_i = e_i - e_{i+1}, A b_i is column i minus column
    i + 1, so the test is that row 0 and the column sums of rows 1..n are
    each constant on columns 1..n, read off one transposed pass.  Since
    the kernel has finite rank and A is invertible, "into" already gives
    an automorphism.
    """
    top, *rest = A.matrix
    sums = list(map(sum, zip(*rest)))
    return len(set(top[1:])) == 1 and len(set(sums[1:])) == 1


def _descend_matrix(A: KAuto) -> Mat2:
    """Induced 2x2 matrix in the basis (charge(e_0), charge(e_1))."""
    top, *rest = A.matrix
    return Mat2(top[0], top[1], sum(r[0] for r in rest), sum(r[1] for r in rest))


def conjugate_by_D(M: Mat2) -> Mat2:
    """Conjugate by diag(-1, 1): switches between the (charge(e_0),
    charge(e_1)) lattice basis and (re, im) plane coordinates."""
    return Mat2(M.a, -M.b, -M.c, M.d)


def check_order(M: Mat2, n: int) -> bool:
    """Strict phase-order preservation on the effective-comparable set.

    Closed form: a linear map of determinant +1 preserves the strict
    cyclic order of rays (the charge image spans the whole plane, so
    the reduction applies), hence the test is det(M) = +1.  The
    brute-force counterpart order_preserved_brute_force stays around
    as the permanent cross-check.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return M.det == 1


def compute_m(M: Mat2, n: int) -> PhasePoint:
    """The critical phase m: sup of phases over the effective-comparable
    set equals m + 1, for a plane action M of determinant +1.

    The sup is governed by u = M^{-1} applied to (1, 0), the preimage of
    the branch-cut ray: members v outside H' contribute phase(-v) + 1
    where -v must land in M^{-1}(H'), a half-plane whose open boundary
    ray points along u.  Four exact cases result, each attained by a
    lattice vector, so the box oracle reaches the sup at finite size.
    The case u = (1, 0), where the whole H' window survives, needs no
    branch of its own: the last line returns -u = (-1, 0) for it.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if M.det != 1:
        raise ValueError("critical phase needs a determinant +1 action")
    u = M.inv().matvec((1, 0))
    ux, uy = u
    if in_h_prime(u):
        if uy == 0:  # u along (-1, 0): the comparable half is empty
            return PhasePoint(-1, (1, 0))
        return PhasePoint(0, (-1, 0))
    return PhasePoint(0, (-ux, -uy))


_VERDICTS = (
    "Compatible-by-criterion",
    "FailsKernel",
    "FailsOrientation",
    "MissingAmplitude",
)


@value_class
class CompatReport:
    """Verdict, descended matrix and critical phase; the JSON's gate flags
    are read off them (det +1 is also check_order's closed form)."""

    descended: Mat2 | None
    m_value: PhasePoint | None
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        compatible = self.verdict == "Compatible-by-criterion"
        assert (self.m_value is not None) == compatible
        assert (self.descended is not None) == (
            compatible or self.verdict == "MissingAmplitude"
        )

    def to_json(self) -> dict:
        descended = self.descended is not None
        return {
            "kernel_preserved": self.verdict != "FailsKernel",
            "descended": self.descended.to_json() if descended else None,
            "det_plus_one": descended,
            "order_preserved": descended,
            "m_value": None if self.m_value is None else self.m_value.to_json(),
            "verdict": self.verdict,
        }


def check_compatibility(A: KAuto) -> CompatReport:
    """Run the kernel and orientation conditions in sequence.

    The order condition needs no rung of its own: it is det = +1 of the
    plane action (check_order), and conjugate_by_D keeps the
    determinant, so it holds once the orientation gate passes.  The
    verdict is Compatible-by-criterion only when both gates pass and
    an amplitude certificate is present; the certificate requirement is
    what keeps a bare K-matrix from being declared compatible (bounded
    amplitude is a statement about objects, not classes).
    """
    if not check_kernel(A):
        return CompatReport(None, None, "FailsKernel")
    raw = _descend_matrix(A)
    if raw.det != 1:
        return CompatReport(None, None, "FailsOrientation")
    if A.amplitude_certificate is None:
        return CompatReport(raw, None, "MissingAmplitude")
    m = compute_m(conjugate_by_D(raw), A.n)
    return CompatReport(raw, m, "Compatible-by-criterion")


def lift_k_matrix(n: int, M: Mat2) -> KAuto:
    """Lift a level-n matrix to a K-lattice automorphism descending to it.

    The lift fixes images on the charge part, A(e_0) = a e_0 + c e_1
    and A(e_1) = b e_0 + d e_1, and acts trivially on the charge kernel:
    A(e_i) = A(e_1) - e_1 + e_i for i >= 2.  So the matrix is two rows
    over identity rows, with determinant det(M) = 1; both postconditions
    (kernel preserved, descends to M) are asserted before returning.
    Other kernel actions come from composing with a kernel automorphism.
    The amplitude certificate is 1, matching the one-dimensional fibers
    of the kernels these matrices come from.
    """
    if not in_gamma0(M, n):
        raise ValueError("only determinant-one matrices with lower-left "
                         "divisible by n lift at level n")
    top = (M.a,) + (M.b,) * n
    second = (M.c, M.d) + (M.d - 1,) * (n - 1)
    A = KAuto((top, second) + _mat_identity(n + 1)[2:], amplitude_certificate=1)
    assert check_kernel(A)
    assert _descend_matrix(A) == M
    return A


def compose(A: KAuto, B: KAuto) -> KAuto:
    """A after B.  Descending is covariant: the descended matrix of
    compose(A, B) is the product of those of A and B.  Certificates add
    when both are present."""
    if A.n != B.n:
        raise ValueError("cannot compose automorphisms of different n-gons")
    cert = None
    if A.amplitude_certificate is not None and B.amplitude_certificate is not None:
        cert = A.amplitude_certificate + B.amplitude_certificate
    return KAuto(_mat_mul(A.matrix, B.matrix), cert)


def invert(A: KAuto) -> KAuto:
    """Inverse automorphism; the amplitude bound carries over unchanged."""
    return KAuto(_mat_inverse(A.matrix), A.amplitude_certificate)


def identity_kauto(n: int) -> KAuto:
    if n < 1:
        raise ValueError("n must be a positive integer")
    return KAuto(_mat_identity(n + 1), amplitude_certificate=0)


def iota_kauto(n: int) -> KAuto:
    """Component rotation: e_0 fixed, e_i to e_{i+1} cyclically."""
    rows = identity_kauto(n).matrix
    return KAuto((rows[0], rows[n]) + rows[1:n], amplitude_certificate=0)


def shift_square_kauto(n: int) -> KAuto:
    """The double shift: identity on the K-lattice, amplitude 2."""
    return KAuto(identity_kauto(n).matrix, amplitude_certificate=2)


# ---------------------------------------------------------------------------
# brute-force oracles over lattice boxes


# The box oracles run at a handful of radii.  A box takes about 1-1.5 ms
# to build at radius 50 and 20-30 ms at radius 200; eight stay cached:
# 6,192 vectors at radius 50, 97,856 (about 8 MB) at radius 200.
@lru_cache(maxsize=8)
def _sorted_primitive_box(box: int) -> tuple[ChargeVec, ...]:
    """Primitive vectors of [-box, box]^2, in phase order.

    Built in phase order, with no comparison.  The Farey sequence of
    order box lists every reduced p/q in [0, 1] with q <= box once, in
    increasing order; each term follows from the two before it by the
    next-term recurrence.  A vector (q, p) with 0 < p <= q is primitive
    in the box exactly when p/q is reduced with q <= box, and its phase,
    atan(p/q) / pi, grows with p/q.  So (q, p) for the
    terms in (0, 1] runs through the primitive box vectors of phase
    (0, 1/4] (0 < y <= x) in order, and the reflection (p, q) of the
    terms in [0, 1), reversed, through those of phase (1/4, 1/2]
    (0 <= x < y): each is a monotone bijection onto its octant's
    primitive vectors in the box.  The quarter turn (x, y) -> (-y, x)
    adds 1/2 to every phase, carrying (0, 1/2] in order onto (1/2, 1];
    together that is H', phases (0, 1].  Negation adds exactly 1,
    carrying H' in order onto the rest, phases (1, 2].
    """
    if box < 1:
        return ()
    farey = [(0, 1)]
    a, b, c, d = 0, 1, 1, box
    while c <= d:
        farey.append((c, d))
        k = (box + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    quarter = [(q, p) for p, q in farey[1:]] + [(p, q) for p, q in reversed(farey[:-1])]
    upper = quarter + [(-y, x) for x, y in quarter]
    return tuple(upper + [(-x, -y) for x, y in upper])


def _last_member(M: Mat2, pts: tuple[ChargeVec, ...], half: int) -> ChargeVec:
    """Last member, by phase, of the sorted box pts (half = len(pts) // 2).

    Every nonzero lattice vector is effective, so v is a member when v or
    -Mv lies in H' (no det +1 gate: the oracles also exhibit violations
    for reflections).  v -> -v pairs H' (phases (0, 1]) with the rest, so
    the first half of the box is its H' vectors, all members.  The scan
    runs back from the end to the first member, else pts[half - 1].
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    for v in islice(reversed(pts), len(pts) - half):
        x, y = v
        # -Mv lies in H' iff Mv lies in -H'
        if (im := c * x + d * y) < 0 or (im == 0 and a * x + b * y > 0):
            return v
    return pts[half - 1]


def order_preserved_brute_force(M: Mat2, n: int, box: int) -> bool:
    """Check strict cyclic order preservation on all primitive box members.

    Distinct primitive vectors occupy distinct rays, so members arrive
    sorted by phase with no ties.  Walking their image phases around the
    circle must wind exactly once: at most one circular descent (the
    place where the image arc passes the branch cut).  An orientation-
    reversing map reverses the walk and produces descents at almost
    every step.  Like check_order, it accepts M and -M alike.

    The walk reads the box once, in place, from the image of the last
    member: the H' half, then the second half, skipping each v whose
    image Mv (nonzero) lies in H'.  Images are ordered by the walk's own
    rule, not the library's phase comparison: one in H' comes before one
    outside it, two on one side (less than a half turn apart) by the sign
    of their cross product, 0 meaning one ray.  For box >= 1 the H' half
    alone holds 4 or more members; only the empty box has fewer than 3.
    """
    if M.det not in (1, -1):
        raise ValueError("order check expects an invertible integer matrix")
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _sorted_primitive_box(box)
    half = len(pts) // 2
    if not half:
        return True
    a, b, c, d = M.a, M.b, M.c, M.d
    descents = 0
    x, y = _last_member(M, pts, half)
    px, py = a * x + b * y, c * x + d * y
    p_up = py > 0 or (py == 0 and px < 0)
    for x, y in islice(pts, half):
        x, y = a * x + b * y, c * x + d * y
        up = y > 0 or (y == 0 and x < 0)
        if up == p_up:
            cross = px * y - py * x
            if cross == 0:
                return False  # two members on one image ray: not injective
            descended = cross < 0
        else:
            descended = up
        if descended:
            descents += 1
            if descents > 1:
                return False
        px, py, p_up = x, y, up
    for x, y in islice(pts, half, None):
        im = c * x + d * y
        if im > 0 or (im == 0 and a * x + b * y < 0):
            continue  # the image is in H': not a member
        x, y = a * x + b * y, im
        if not p_up:  # a member after an image in H' never descends
            cross = px * y - py * x
            if cross == 0:
                return False
            if cross < 0:
                descents += 1
                if descents > 1:
                    return False
        px, py, p_up = x, y, False
    return True


def box_sup_phase(M: Mat2, n: int, box: int) -> tuple[PhasePoint, ChargeVec]:
    """Largest phase attained by a primitive box member, with a witness.

    A lower bound for the true sup m + 1, which compute_m's case analysis
    shows a lattice direction attains, so large enough boxes reach it
    exactly; the witness is the box's last member (_last_member).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    pts = _sorted_primitive_box(box)
    half = len(pts) // 2
    if not half:
        raise ValueError("no members in the box")
    witness = _last_member(M, pts, half)
    return phase_of_charge(witness), witness

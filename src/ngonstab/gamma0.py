"""Integer 2x2 matrices, Gamma_0(N) membership, and cusp classes.

Cusps (orbits of P^1(Q) under the Moebius action of Gamma_0(N)) are put
in a canonical form by the classical two-part invariant: the divisor
c = gcd(q, N) of the denominator, and the residue of p * (q/c) modulo
g = gcd(c, N/c).  Writing p/q ~ a/c out as an explicit matrix equation
shows the two cusps are equivalent exactly when that residue matches,
which is where the invariant comes from; the count over all classes is
then sum over divisors c | N of phi(gcd(c, N/c)).

Besides the closed form, this module carries one deliberately dumb
cross-check: a union-find orbit partition of bounded-denominator slopes
under a batch of individually verified level-N matrices (every union it
makes is a real group element, so it can only ever be too fine, never
too coarse).  The test suite holds the closed form to it, and checks
every witness by applying it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd

from .charges import Slope, value_class

__all__ = [
    "Mat2",
    "CuspClass",
    "in_gamma0",
    "class_count",
    "cusp_class",
    "cusp_canonicalize",
    "cusp_equivalent",
    "enumerate_cusp_classes",
    "brute_force_cusp_partition",
    "restrict_partition_to_small_slopes",
]


@value_class
class Mat2:
    """Integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, m: int) -> "Mat2":
        """T^m = [[1, m], [0, 1]]."""
        return cls(1, m, 0, 1)

    @classmethod
    def lower_translation(cls, n: int) -> "Mat2":
        """V = [[1, 0], [n, 1]], the standard lower generator at level n."""
        return cls(1, 0, n, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "Mat2":
        det = self.det
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError("only unimodular matrices can be inverted exactly")

    def matvec(self, v: tuple[int, int]) -> tuple[int, int]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def moebius(self, s: Slope) -> Slope:
        """Projective action on slopes: p/q maps to (a p + b q)/(c p + d q)."""
        num = self.a * s.num + self.b * s.den
        den = self.c * s.num + self.d * s.den
        return Slope(num, den)

    def to_json(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def in_gamma0(M: Mat2, N: int) -> bool:
    """True iff M is in SL(2, Z) with lower-left entry divisible by N."""
    if N < 1:
        raise ValueError("level must be a positive integer")
    return M.det == 1 and M.c % N == 0


def _euler_phi(m: int) -> int:
    result = m
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def class_count(N: int) -> int:
    """Number of cusp classes at level N: sum of phi(gcd(d, N/d)) over d | N."""
    if N < 1:
        raise ValueError("level must be a positive integer")
    return sum(_euler_phi(gcd(d, N // d)) for d in _divisors(N))


@value_class
class CuspClass:
    """Canonical cusp datum: divisor c of N plus a residue representative a.

    Any integer a whose residue modulo g = gcd(c, N/c) is a unit names a
    class; the constructor stores the smallest nonnegative integer in that
    residue class that is coprime to c, so (N, c, a) is a plain value
    equality test and a/c is a concrete representative slope.
    """

    N: int
    c: int
    a: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.c < 1 or self.N % self.c != 0:
            raise ValueError("c must be a positive divisor of N")
        g = gcd(self.c, self.N // self.c)
        if gcd(self.a, g) != 1:
            raise ValueError("a must be a unit modulo gcd(c, N/c)")
        object.__setattr__(self, "a", _coprime_representative(self.a, g, self.c))

    @property
    def slope(self) -> Slope:
        return Slope(self.a, self.c)

    def to_json(self) -> dict:
        return {"N": self.N, "c": self.c, "a": self.a, "slope": str(self.slope)}


def _coprime_representative(a: int, g: int, c: int) -> int:
    """Smallest nonnegative t = a (mod g) with gcd(t, c) = 1.

    a is a unit mod g and g divides c, so the arithmetic progression
    a + g*Z meets the units mod c (Chinese remainder on the primes of c
    not dividing g), and the scan below ends before it passes their
    product times g.
    """
    t = a % g
    while gcd(t, c) != 1:
        t += g
    return t


def cusp_class(N: int, s: Slope) -> CuspClass:
    """Canonical class of a slope under Gamma_0(N), without a witness."""
    if N < 1:
        raise ValueError("level must be a positive integer")
    c = gcd(s.den, N)  # the infinite slope (den 0) gives c = N
    return CuspClass(N, c, s.num * (s.den // c))


def _complete(p: int, q: int) -> Mat2:
    """Deterministic completion of a coprime column to [[p, u], [q, v]], det 1.

    Completions differ by multiples of the first column; the one with
    0 <= u < |p| is taken when p != 0, and for p = 0 the column is (-1, 0).
    """
    if gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not reduced")
    if p == 0:
        # q = +-1; the slopes used here always carry q = 1
        return Mat2(0, -1, q, 0) if q == 1 else Mat2(0, 1, q, 0)
    # det 1 asks p*v - u*q = 1, so u*q = -1 (mod p) and p divides 1 + u*q
    u = -pow(q, -1, abs(p)) % abs(p)
    return Mat2(p, u, q, (1 + u * q) // p)


def _solve_congruence(alpha: int, beta: int, mod: int) -> int:
    """Minimal nonnegative m with alpha*m = beta (mod mod)."""
    alpha %= mod
    beta %= mod
    d = gcd(alpha, mod)
    if beta % d != 0:
        raise ValueError("congruence has no solution")
    m2 = mod // d
    return ((beta // d) * pow(alpha // d, -1, m2)) % m2


def cusp_canonicalize(N: int, s: Slope) -> tuple[CuspClass, Mat2]:
    """Canonical class of s plus a witness w in Gamma_0(N) with w(s) = a/c.

    The witness is assembled as A2 * T^m * A1^{-1} where A1, A2 complete
    the input and representative columns to determinant-one matrices and
    m solves the one linear congruence that pushes the lower-left entry
    into N*Z.  A canonical input solves with m = 0 and A2 = A1, so it
    gets the identity witness.  The witness is re-applied and checked
    before returning.
    """
    cls = cusp_class(N, s)
    rep = cls.slope
    A1 = _complete(s.num, s.den)
    A2 = _complete(rep.num, rep.den)
    alpha = s.den * rep.den
    beta = rep.den * A1.d - s.den * A2.d
    m = _solve_congruence(alpha, beta, N)
    witness = A2 @ Mat2.translation(m) @ A1.inv()
    if not in_gamma0(witness, N) or witness.moebius(s) != rep:
        raise AssertionError(
            f"witness construction failed for level {N}, slope {s}"
        )
    return cls, witness


def cusp_equivalent(N: int, s1: Slope, s2: Slope) -> bool:
    return cusp_class(N, s1) == cusp_class(N, s2)


def enumerate_cusp_classes(N: int) -> tuple[CuspClass, ...]:
    """All cusp classes at level N, ordered by (c, a)."""
    out = []
    for c in _divisors(N):
        g = gcd(c, N // c)
        out += [CuspClass(N, c, a) for a in range(g) if gcd(a, g) == 1]
    out.sort(key=lambda k: (k.c, k.a))
    return tuple(out)


# ---------------------------------------------------------------------------
# brute-force oracles


class _UnionFind:
    """Disjoint sets over the node ids of `ids`, which numbers each key once."""

    def __init__(self, ids: dict) -> None:
        self.ids = ids
        self.parent = list(range(len(ids)))

    def find(self, key) -> int:
        parent = self.parent
        x = self.ids[key]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x


def _gamma0_edge_table(N: int) -> list[tuple[int, list[int], list[tuple[int, int]]]]:
    """Verified level-N matrices for oracle edges, as (c, ds, rows) by c.

    For each c in {N, 2N, ..., 10N} and each d in 1..2N+1 coprime to c,
    the matrix [[a, b], [c, d]] with a the least positive inverse of d
    mod c and b forced by the determinant is a genuine member: ad - bc = 1
    and N | c are checked on the integers.
    Words in T and [[1,0],[N,1]] alone are congruent to +-[[1,*],[0,1]]
    mod N and stay inside an infinite-index subgroup once N > 4, which
    is why this richer batch is needed for the orbit closure to converge
    (level 150 needs lower-left entries up to 10N, level 90 up to 9N).
    Small d matters: the image denominator is c*p + d*q, so only small-d
    members act within a bounded denominator universe.
    """
    table = []
    for c in range(N, 10 * N + 1, N):
        ds: list[int] = []
        rows: list[tuple[int, int]] = []
        for d in range(1, 2 * N + 2):
            if gcd(d, c) != 1:
                continue
            a = pow(d, -1, c)
            b = (a * d - 1) // c
            if a * d - b * c != 1 or c % N != 0:
                raise AssertionError(f"[[{a}, {b}], [{c}, {d}]] is not in level {N}")
            ds.append(d)
            rows.append((a, b))
        table.append((c, ds, rows))
    return table


def brute_force_cusp_partition(N: int) -> _UnionFind:
    """Orbit partition of bounded-denominator slopes under verified elements.

    Nodes are T-classes (q, p0 = p mod q) with q <= 2N plus one node for
    the infinite slope, numbered once.  Each node's representatives
    p0 - q, p0, p0 + q are pushed through every matrix from
    _gamma0_edge_table whose image denominator c*p + d*q stays within
    +-2N (a bisect window on d), and the image node is merged in.  The
    batch is walked in ascending c, and two rules stop it once every
    later window is provably empty:

    - p > 0: every image denominator is at least c*p + q, which grows
      with c, so stop once c*p + q > 2N;
    - p < 0: the least admissible d is ceil((-2N - c*p)/q), which grows
      with c, so stop once it passes 2N + 1, the largest d of the whole
      batch (not of the current c, whose largest d can be smaller).

    Every merge applies a matrix individually verified to lie in the
    level-N group, so the partition can only be too fine, never too
    coarse; the test suite settles convergence by comparing class counts
    against the divisor-sum formula.
    """
    if N < 1:
        raise ValueError("level must be a positive integer")
    bound = 2 * N
    top = bound + 1
    ids = {("inf",): 0}
    for q in range(1, bound + 1):
        for p0 in range(q):
            if gcd(p0, q) == 1:
                ids[q, p0] = len(ids)
    uf = _UnionFind(ids)
    parent = uf.parent
    table = _gamma0_edge_table(N)
    for (q, p0), x in list(ids.items())[1:]:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        for p in (p0 - q, p0, p0 + q):
            for c, ds, rows in table:
                cp = c * p
                if cp >= -bound:
                    if cp + q > bound:
                        break
                    d_lo = 1
                else:
                    d_lo = -((bound + cp) // q)
                    if d_lo > top:
                        break
                for i in range(bisect_left(ds, d_lo), bisect_right(ds, (bound - cp) // q)):
                    den = cp + ds[i] * q
                    if den:
                        a, b = rows[i]
                        num = a * p + b * q
                        if den < 0:
                            num, den = -num, -den
                        y = ids[den, num % den]
                    else:
                        y = 0
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    if y != x:
                        parent[x] = x = y  # x stays its node's root
    # the infinite slope 1/0 maps to a/c under [[a, b], [c, d]]
    for c, _, rows in table:
        if c <= bound:
            for a, _ in rows:
                parent[uf.find(("inf",))] = uf.find((c, a))
    return uf


def restrict_partition_to_small_slopes(N: int, uf: _UnionFind) -> dict[Slope, int]:
    """Map each reduced slope a/c (0 <= a < c <= N) plus infinity to its root."""
    out: dict[Slope, int] = {Slope.infinity(): uf.find(("inf",))}
    for c in range(1, N + 1):
        for a in range(c):
            if gcd(a, c) == 1:
                out[Slope(a, c)] = uf.find((c, a))
    return out

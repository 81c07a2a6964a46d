"""Integer 2x2 matrices, Gamma_0(N) membership, and cusp classes.

Cusps (orbits of P^1(Q) under the Moebius action of Gamma_0(N)) are put
in a canonical form by the classical two-part invariant: the divisor
c = gcd(q, N) of the denominator, and the residue of p * (q/c) modulo
g = gcd(c, N/c).  Writing p/q ~ a/c out as an explicit matrix equation
shows the two cusps are equivalent exactly when that residue matches,
which is where the invariant comes from; the count over all classes is
then sum over divisors c | N of phi(gcd(c, N/c)).

Besides the closed form, this module carries one independent oracle:
the cusps as the orbits of the translation T on P^1(Z/NZ), one
union-find pass over its points (brute_force_cusp_partition, whose
docstring proves it).  It is exact at every level and reads nothing of
the closed form.  The test suite holds the closed form to it, and checks
every witness by applying it.
"""

from __future__ import annotations

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
# brute-force oracle


class _UnionFind:
    """Disjoint sets over the nodes 0 .. size - 1; `ids` maps each key to its node."""

    def __init__(self, ids: dict, size: int) -> None:
        self.ids = ids
        self.parent = list(range(size))

    def find(self, key) -> int:
        parent = self.parent
        x = self.ids[key]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x


def brute_force_cusp_partition(N: int) -> _UnionFind:
    """Cusp classes at level N as the orbits of T on P^1(Z/NZ).

    A point of P^1(Z/NZ) is a pair (c, d) mod N with gcd(c, d, N) = 1,
    taken up to a unit factor u mod N; it is numbered by its least pair
    (u*c mod N, u*d mod N), and `ids` maps every one of its pairs to
    that node.  One union-find pass joins each point (c : d) to
    (c : c + d).  The classes are exactly the cusps, by standard facts:

    - SL(2, Z) acts transitively on P^1(Q): a reduced a/c is g(inf) for
      g = [[a, b], [c, d]] with ad - bc = 1.  The stabiliser of inf is
      +-[[1, k], [0, 1]].  So g -> g(inf) maps the double cosets
      Gamma_0(N) g <+-T> one to one onto the cusps.
    - Gamma_0(N) g = Gamma_0(N) g' exactly when the bottom rows (c, d)
      and (c', d') are one point of P^1(Z/NZ): the lower-left entry of
      g' g^-1 is c'd - d'c, and for pairs with gcd(c, d, N) = 1,
      c'd = d'c (mod N) holds exactly when (c', d') = u (c, d) (mod N)
      for a unit u.  Every point is a bottom row, because reduction
      SL(2, Z) -> SL(2, Z/NZ) is onto.  So the cosets are the points.
    - Right multiplication by [[1, k], [0, 1]] sends the bottom row
      (c, d) to (c, kc + d), and by -1 to (-c, -d), the same point.

    So the cusps are the orbits of (c : d) -> (c : c + d).  This is
    exact at every level, and reads nothing of the closed form.
    """
    if N < 1:
        raise ValueError("level must be a positive integer")
    units = [u for u in range(N) if gcd(u, N) == 1]
    ids: dict[tuple[int, int], int] = {}
    points = []
    for c in range(N):
        for d in range(N):
            # the scan is lexicographic, so the first pair met of a point is its least
            if (c, d) not in ids and gcd(c, d, N) == 1:
                for u in units:
                    ids[u * c % N, u * d % N] = len(points)
                points.append((c, d))
    uf = _UnionFind(ids, len(points))
    for c, d in points:
        uf.parent[uf.find((c, d))] = uf.find((c, (c + d) % N))
    return uf


def restrict_partition_to_small_slopes(N: int, uf: _UnionFind) -> dict[Slope, int]:
    """Map each reduced slope a/c (0 <= a < c <= N) plus infinity to its root.

    a/c is g(inf) for g = [[a, b], [c, d]] of determinant 1, so its point
    is (c : d) with a*d = 1 (mod c); infinity is g(inf) for g = 1, the
    point (0 : 1).
    """
    out: dict[Slope, int] = {Slope.infinity(): uf.find((0, 1 % N))}
    for c in range(1, N + 1):
        for a in range(c):
            if gcd(a, c) == 1:
                # a and c are exact ints with gcd 1 and c >= 1, so the slope
                # is already in the lowest terms Slope would store
                out[Slope._make(a, c)] = uf.find((c % N, pow(a, -1, c) % N))
    return out

"""Combinatorial models of coherent sheaves on cycle-of-lines curves.

A cycle curve with n components carries three families of indecomposable
sheaves, and each family is pinned down by discrete data:

* ``BandSheaf``: locally free.  A band on the n-cycle is the pushforward
  of a line bundle from the nr-cycle cover, twisted by the unipotent
  bundle of multiplicity m.  Data: the degree vector around the big
  cycle, a gluing label lam, and m.
* ``ChainSheaf``: torsion-free but not locally free.  Pushforward of a
  line bundle from a chain of k lines mapping onto the cycle.  Data:
  starting component, length k, degree vector along the chain.
* ``TorsionSheaf``: finite length at a single point, smooth or nodal.

Degrees, Euler characteristics and ranks are all integers, so every
slope comparison below is done by cross-multiplication; no floats.

Stability is classical slope stability for the polarization giving each
component weight one: the slope of a sheaf is chi / (number of weighted
support components), and a subsheaf destabilizes when its slope is not
smaller.  For chains and bands the candidate subsheaves are supported on
contiguous intervals, with the degree dropping by one at every node
where the interval meets the rest of the curve.  The verdict functions
decide every interval at once from the extremes of one prefix sum of
the degrees: on a chain of length k the scaled prefix f(t) = k*P[t] -
chi*t must stay in [-k, 0], and on an indecomposable band around the
N-cycle the periodic g(t) = N*P[t] - chi*t must spread by at most N;
touching 0 or -k, or spreading by exactly N, is a tie.  Both cost O(k)
or O(N).
The ``brute_force_*`` oracles re-derive the verdicts by enumerating every
interval and the Euler characteristics of its twisted subsheaves
directly, in O(k^3) or O(N^3).

Gluing parameters never enter any computed quantity except through
equality tests, so ``Label`` models them as elements of a free abelian
group on named symbols rather than as complex numbers.

Every functor acts on K-classes by a matrix: k_class(F(x)) equals A_F
applied to k_class(x), where column j of A_F is the class of F applied
to the j-th basis object (a length-one torsion point for e_0, the chain
of one line of degree -1 on component i - 1 for e_i).  The tests check
this for rotation, twists and the double shift against the `compat`
constructors, and for `pullback` (e_0 -> (m/n) e_0, e_i -> the sum of
e_{i+jn} over the sheets j) and `pushforward` (e_i -> the class of the
component it folds onto) between levels.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .charges import (
    ChargeVec,
    KClass,
    PhasePoint,
    _int_tuple,
    is_int,
    phase_of_charge,
    value_class,
)

__all__ = [
    "STABLE",
    "SEMISTABLE",
    "UNSTABLE",
    "Label",
    "SmoothPoint",
    "NodePoint",
    "BandSheaf",
    "ChainSheaf",
    "TorsionSheaf",
    "Summand",
    "SheafObject",
    "k_class",
    "object_charge",
    "phase",
    "pullback",
    "pushforward",
    "galois_translate",
    "tensor_line",
    "double_shift",
    "is_semistable",
    "brute_force_chain_verdict",
    "brute_force_band_verdict",
    "random_label",
    "random_summand",
    "random_corpus",
    "random_object",
    "summand_to_json",
]

STABLE = "Stable"
SEMISTABLE = "StrictlySemistable"
UNSTABLE = "Unstable"


# ---------------------------------------------------------------------------
# gluing labels


@value_class
class Label:
    """Element of a free abelian group on named symbols, written multiplicatively.

    Stands in for a nonzero gluing scalar: the only operations the model
    ever needs are products, integer powers and equality.  The powers are
    stored canonical: one entry per symbol, sorted, with no zero exponent,
    so any list of factors builds the product it names.
    """

    powers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        acc: dict[str, int] = {}
        for sym, exp in self.powers:
            if not _is_symbol(sym):
                raise ValueError(f"bad label symbol {sym!r}")
            if not is_int(exp):
                raise ValueError("label exponents must be integers")
            acc[sym] = acc.get(sym, 0) + exp
        object.__setattr__(
            self, "powers", tuple(sorted((s, e) for s, e in acc.items() if e))
        )

    @classmethod
    def identity(cls) -> "Label":
        return cls(())

    @classmethod
    def generator(cls, name: str) -> "Label":
        return cls(((name, 1),))

    def __mul__(self, other: "Label") -> "Label":
        return Label(self.powers + other.powers)

    def __pow__(self, k: int) -> "Label":
        return Label(tuple((sym, exp * k) for sym, exp in self.powers))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for sym, exp in self.powers:
            parts.append(sym if exp == 1 else f"{sym}^{exp}")
        return "*".join(parts)


def _is_symbol(s: object) -> bool:
    return (
        isinstance(s, str)
        and s != ""
        and (s[0].isalpha() or s[0] == "_")
        and all(ch.isalnum() or ch == "_" for ch in s)
    )


# ---------------------------------------------------------------------------
# torsion support points


@value_class
class SmoothPoint:
    """A smooth point: which component it sits on, plus an opaque marker."""

    component: int
    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError("smooth point label must be a string")


@value_class
class NodePoint:
    """The node between components index and index + 1."""

    index: int


# ---------------------------------------------------------------------------
# the three families


def _rotated(seq: tuple[int, ...], by: int) -> tuple[int, ...]:
    # new[(i + by) % L] = old[i]
    cut = -by % len(seq)
    return seq[cut:] + seq[:cut]


def _least_sheet_rotation(seq: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The least rotation of seq by whole sheets of n entries, in O(len(seq)).

    Duval's minimal rotation over the sheets as letters: the inner loop
    extends the current Lyndon word, and the outer one skips past every
    start that a smaller rotation already beats.
    """
    r = len(seq) // n
    if r == 1:
        return seq
    sheets = [seq[t * n : t * n + n] for t in range(r)] * 2
    i = best = 0
    while i < r:
        best = i
        j, k = i + 1, i
        while j < 2 * r and sheets[k] <= sheets[j]:
            k = i if sheets[k] < sheets[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return seq[best * n :] + seq[: best * n]


@value_class
class BandSheaf:
    """Locally free summand: degree vector on the nr-cycle, label, multiplicity.

    multideg[t] is the degree on component t of the covering nr-cycle;
    component t sits over component t mod n downstairs.  Two degree
    vectors that differ by rotating whole sheets (n positions at a time)
    describe the same pushforward, because the choice of first upstairs
    component is bookkeeping; the constructor stores the least such
    rotation, so field equality is equality of sheaves.  The label is
    carried along unrotated since the model attaches it to the band as a
    whole.
    """

    n: int
    r: int
    multideg: tuple[int, ...]
    lam: Label
    m: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1 or self.m < 1:
            raise ValueError("n, r and m must be positive")
        if len(self.multideg) != self.n * self.r:
            raise ValueError("multideg must have length n*r")
        object.__setattr__(
            self, "multideg", _least_sheet_rotation(self.multideg, self.n)
        )
        if not isinstance(self.lam, Label):
            raise ValueError("lam must be a Label")

    @property
    def period(self) -> int:
        """Smallest t > 0 fixing the degree vector by a t-sheet rotation; r does."""
        for t in range(1, self.r):
            if self.r % t == 0 and _rotated(self.multideg, self.n * t) == self.multideg:
                return t
        return self.r


@value_class
class ChainSheaf:
    """Torsion-free non-locally-free summand: a chain of k lines over the cycle.

    Position t of the chain lies over component (start + t) mod n, so a
    chain longer than n winds around and stacks up rank.
    """

    n: int
    k: int
    start: int
    multideg: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < 1:
            raise ValueError("chain length must be positive")
        object.__setattr__(self, "start", self.start % self.n)
        if len(self.multideg) != self.k:
            raise ValueError("multideg must have length k")


@value_class
class TorsionSheaf:
    """Finite-length summand at one point of the cycle."""

    n: int
    position: SmoothPoint | NodePoint
    length: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.length < 1:
            raise ValueError("length must be positive")
        object.__setattr__(self, "position", _moved(self.position, 0, self.n))


def _moved(pos: SmoothPoint | NodePoint, by: int, n: int) -> SmoothPoint | NodePoint:
    """The point `by` components on around the n-cycle, index reduced mod n;
    pos itself when that leaves its index, an exact int, as it was."""
    if isinstance(pos, SmoothPoint):
        at = (pos.component + by) % n
        kept = at == pos.component and type(pos.component) is int
        return pos if kept else SmoothPoint(at, pos.label)
    if isinstance(pos, NodePoint):
        at = (pos.index + by) % n
        kept = at == pos.index and type(pos.index) is int
        return pos if kept else NodePoint(at)
    raise ValueError("position must be a SmoothPoint or a NodePoint")


# not typing.Union[...], whose process-wide cache would keep the classes
# of every import of this module, and through them the module, alive
Summand = BandSheaf | ChainSheaf | TorsionSheaf


def _summand_sort_key(s: Summand) -> tuple:
    # the families are disjoint, so testing the commonest first changes nothing
    if isinstance(s, ChainSheaf):
        return (1, s.k, s.start, s.multideg)
    if isinstance(s, BandSheaf):
        return (2, s.r, s.m, s.multideg, str(s.lam))
    pos = s.position
    if isinstance(pos, SmoothPoint):
        where = (0, pos.component, pos.label)
    else:
        where = (1, pos.index, "")
    return (0, s.length, where)


@value_class
class SheafObject:
    """Formal direct sum of summands on a single cycle curve.

    Summands are kept in a canonical sorted order so that equality means
    equality of multisets.
    """

    summands: tuple[Summand, ...]

    def __post_init__(self) -> None:
        if not self.summands:
            raise ValueError("object needs at least one summand")
        first = self.summands[0]
        for s in self.summands:
            if not isinstance(s, (BandSheaf, ChainSheaf, TorsionSheaf)):
                raise ValueError("summands must be band, chain or torsion sheaves")
            if s.n != first.n:
                raise ValueError("summands must live on the same curve")
        object.__setattr__(
            self, "summands", tuple(sorted(self.summands, key=_summand_sort_key))
        )

    @property
    def n(self) -> int:
        return self.summands[0].n


# ---------------------------------------------------------------------------
# K-theory


def _parts(s: Summand | SheafObject) -> tuple[Summand, ...]:
    """The summands of a model: an object's own, or (s,) for a summand.

    Every entry point below that takes a model walks it through here
    (object_charge only what is not a summand), so anything else is
    refused with the one TypeError.
    """
    if isinstance(s, (BandSheaf, ChainSheaf, TorsionSheaf)):
        return (s,)
    if isinstance(s, SheafObject):
        return s.summands
    raise TypeError(f"not a sheaf model: {type(s).__name__}")


def _like(s: Summand | SheafObject, images: list[Summand]):
    """Per-summand images, shaped as s was: an object, or the one summand."""
    return SheafObject(tuple(images)) if isinstance(s, SheafObject) else images[0]


def k_class(s: Summand | SheafObject) -> KClass:
    """Class chi*e0 + sum(rank_i * e_i) of a summand or a direct sum.

    One pass in O(n + total chain length): a band adds r*m to every
    component, a chain one to each component it passes through, and
    torsion adds no rank.
    """
    chi = -object_charge(s)[0]
    parts = _parts(s)
    n = parts[0].n
    ranks = [0] * n
    everywhere = 0
    for part in parts:
        if isinstance(part, BandSheaf):
            everywhere += part.r * part.m
        elif isinstance(part, ChainSheaf):
            for t in range(part.k):
                ranks[(part.start + t) % n] += 1
    return KClass(chi, tuple(x + everywhere for x in ranks))


def object_charge(s: Summand | SheafObject) -> ChargeVec:
    """Central charge (-chi, total rank), read straight off the summand data.

    Equal to charges.charge(k_class(s)), without building the length-n
    rank vector of the K-class.  Each summand kind has one rule, returned
    directly for a summand; a direct sum adds its summands' charges.
    """
    if isinstance(s, ChainSheaf):
        return (-1 - sum(s.multideg), s.k)
    if isinstance(s, BandSheaf):
        return (-s.m * sum(s.multideg), s.r * s.m * s.n)
    if isinstance(s, TorsionSheaf):
        return (-s.length, 0)
    re = im = 0
    for part in _parts(s):
        a, b = object_charge(part)
        re += a
        im += b
    return (re, im)


# Value-keyed memos of the summand fast path.  A direct sum repeats the
# values of its short summands, and a phase or verdict depends on the
# value alone.  Each memo keeps at most _MEMO_SIZE keys and admits only
# vectors of at most _MEMO_LEN entries, so the three hold at most
# 3 * _MEMO_SIZE keys of at most _MEMO_LEN integers; a longer vector goes
# straight to the kernel.
_MEMO_SIZE = 1024
_MEMO_LEN = 32


def phase(s: Summand | SheafObject) -> PhasePoint:
    """Phase of the central charge; honest sheaves land in (0, 1].

    Memoized on the exact-int charge pair, which a direct sum's summands
    repeat: a repeated charge costs one lookup, not a new `PhasePoint`.
    """
    return _phase_memo(object_charge(s))


@lru_cache(maxsize=_MEMO_SIZE)
def _phase_memo(c: ChargeVec) -> PhasePoint:
    # phase_of_charge is read at call time, so a wrapper bound over the
    # name sees each miss
    return phase_of_charge(c)


# ---------------------------------------------------------------------------
# covers, deck action, line-bundle twists


def pullback(s: Summand | SheafObject, m: int) -> SheafObject:
    """Pull back along the degree m/n cover of cycles; n must divide m.

    Bands can split: the covering nr-cycle and the m-cycle have a fiber
    product with gcd(r, m/n) components, one summand per component, each
    reading the old degrees around a longer cycle and raising the label
    to the number of times the new sheet wraps the old one.  Chains and
    torsion points simply acquire one translated copy per sheet.
    """
    parts = _parts(s)
    if not is_int(m):
        raise ValueError("m must be an integer")
    n = parts[0].n
    if m < 1 or m % n != 0:
        raise ValueError(f"no cover: {n} does not divide {m}")
    f = m // n
    out: list[Summand] = []
    for x in parts:
        if isinstance(x, BandSheaf):
            g = gcd(x.r, f)
            L = n * x.r
            for j in range(g):
                new_d = tuple(x.multideg[(j * n + t) % L] for t in range(L * f // g))
                out.append(BandSheaf(m, x.r // g, new_d, x.lam ** (f // g), x.m))
        elif isinstance(x, ChainSheaf):
            out.extend(
                ChainSheaf(m, x.k, x.start + j * n, x.multideg) for j in range(f)
            )
        else:
            out.extend(
                TorsionSheaf(m, _moved(x.position, j * n, m), x.length)
                for j in range(f)
            )
    return SheafObject(tuple(out))


def pushforward(s, n_target: int):
    """Push down along the cover onto the n_target-cycle; n_target | n.

    Finite and flat, so nothing splits: a band keeps its degree vector
    and multiplies its sheet count, chains and torsion reduce their
    component indices.  Euler characteristic and total rank are
    untouched.
    """
    parts = _parts(s)
    if not is_int(n_target):
        raise ValueError("n_target must be an integer")
    n = parts[0].n
    if n_target < 1 or n % n_target != 0:
        raise ValueError(f"no cover: {n_target} does not divide {n}")
    out: list[Summand] = []
    for x in parts:
        if isinstance(x, BandSheaf):
            r = x.r * (n // n_target)
            out.append(BandSheaf(n_target, r, x.multideg, x.lam, x.m))
        elif isinstance(x, ChainSheaf):
            out.append(ChainSheaf(n_target, x.k, x.start, x.multideg))
        else:
            out.append(TorsionSheaf(n_target, x.position, x.length))
    return _like(s, out)


def galois_translate(s, power: int):
    """Rotate the curve by `power` components; a Z/nZ action on objects.

    The rotation lifts to covering cycles one position at a time, so a
    band rotates its whole degree vector by `power`.  Rotating by n
    moves a band by one full sheet, which equality treats as the same
    band.
    """
    parts = _parts(s)
    if not is_int(power):
        raise ValueError("power must be an integer")
    # Each image is built unchecked, with the fields its constructor
    # would store.  x passed the constructor of its family, one of three
    # final classes, and the rotation keeps n, k, r, m, lam and length,
    # so their checks hold; a rotated int tuple keeps its length and its
    # exact-int entries; an integer power keeps start and the point's
    # index exact ints, and `% n` and `_moved` reduce them as the
    # constructors do; a band's vector gets the least sheet rotation its
    # constructor takes.
    out: list[Summand] = []
    for x in parts:
        kind = type(x)
        if kind is ChainSheaf:
            out.append(ChainSheaf._make(x.n, x.k, (x.start + power) % x.n, x.multideg))
        elif kind is BandSheaf:
            d = _least_sheet_rotation(_rotated(x.multideg, power), x.n)
            out.append(BandSheaf._make(x.n, x.r, d, x.lam, x.m))
        else:
            out.append(TorsionSheaf._make(x.n, _moved(x.position, power, x.n), x.length))
    if not isinstance(s, SheafObject):
        return out[0]
    # every image is one of the three families on the n of s, one per
    # summand of s, which is not empty: all SheafObject checks but the sort
    return SheafObject._make(tuple(sorted(out, key=_summand_sort_key)))


def tensor_line(s, deg: tuple[int, ...], mu: Label, triv_only: bool = False):
    """Tensor with the line bundle of componentwise degree `deg` and label mu.

    Bands add the degree pattern pulled back around their covering
    cycle; chains add the degrees of the components they pass through;
    torsion sheaves are unchanged.  With triv_only=True only degree-zero
    twists (the Picard-trivial action) are accepted.
    """
    parts = _parts(s)
    n = parts[0].n
    deg = _int_tuple(deg, "deg")
    if len(deg) != n:
        raise ValueError("deg must have one entry per component")
    if triv_only and any(deg):
        raise ValueError("triv_only twist requires deg = 0")
    if not isinstance(mu, Label):
        raise ValueError("mu must be a Label")
    out: list[Summand] = []
    for x in parts:
        if isinstance(x, BandSheaf):
            new_d = tuple(d + deg[t % n] for t, d in enumerate(x.multideg))
            out.append(BandSheaf(n, x.r, new_d, x.lam * mu, x.m))
        elif isinstance(x, ChainSheaf):
            new_d = tuple(d + deg[(x.start + t) % n] for t, d in enumerate(x.multideg))
            out.append(ChainSheaf(n, x.k, x.start, new_d))
        else:
            out.append(x)
    return _like(s, out)


def double_shift(s):
    """The square of the suspension acting on the model.

    It fixes every K-class and every verdict, and the model keeps no
    homological degree, so at this level it is the identity; it exists
    so pipelines can apply the generator explicitly.
    """
    _parts(s)
    return s


# ---------------------------------------------------------------------------
# stability


def is_semistable(s: Summand) -> str:
    """Slope-stability verdict for one summand.

    The chain scan depends on the degree vector alone and the band scan
    on the core's degree vector alone, and a direct sum repeats both, so
    each scan is memoized on its vector: at most 1024 vectors each, none
    longer than 32 entries; a longer one is scanned every time.

    Torsion: a length-one point admits no proper subsheaf; longer ones
    are iterated equal-phase extensions.  Chains and bands compare every
    proper contiguous interval, with the degree cut by one at each end
    that meets the rest of the curve, through one prefix sum P of the
    degrees and chi = 1 + sum(d) (chain) or sum(d) (band):

    * a chain of length k is judged by f(t) = k*P[t] - chi*t on
      1 <= t < k, in O(k): Unstable if max f > 0 or min f < -k,
      StrictlySemistable if max f = 0 or min f = -k, Stable otherwise
      (k = 1 has no proper interval and is Stable);
    * bands with multiplicity reduce to their multiplicity-one core,
      decomposable bands to their repeating piece, and an indecomposable
      one-multiplicity band on the N-cycle is judged by the spread
      max g - min g of the N-periodic g(t) = N*P[t] - chi*t, in O(N):
      Unstable if it exceeds N, StrictlySemistable if it equals N,
      Stable otherwise.  A tie is a g-value v with v + N again a
      g-value; once the spread is at most N, v + N <= max g <= min g + N
      <= v + N forces v = min g and max g = min g + N.
    """
    if isinstance(s, ChainSheaf):
        return _judge(_chain_memo, s.multideg)
    if isinstance(s, BandSheaf):
        return _band_verdict(s)
    if isinstance(s, TorsionSheaf):
        return STABLE if s.length == 1 else SEMISTABLE
    raise TypeError(f"not an indecomposable summand model: {type(s).__name__}")


def _chain_interval_verdict(d: tuple[int, ...]) -> str:
    # A chain of length k = len(d).  The interval [i, j] has excess
    # chi_sub*k - chi*ell equal to k*(1 - cuts) + f(j + 1) - f(i), with
    # f(0) = 0 and f(k) = -k.  The prefix ending at t - 1 has excess f(t)
    # and the suffix starting at t has excess -k - f(t).  An interior
    # interval has excess
    # f(b) - f(a) - k for 1 <= a < b < k, which is negative once every
    # f(t) lies in [-k, 0] and zero only where a prefix is already tied,
    # so the least and the greatest f(t) decide the verdict.
    k = len(d)
    if k == 1:  # one line has no proper interval
        return STABLE
    chi = 1 + sum(d)
    f = list(accumulate([k * x - chi for x in d[:-1]]))
    lo, hi = min(f), max(f)
    if hi > 0 or lo < -k:
        return UNSTABLE
    return SEMISTABLE if hi == 0 or lo == -k else STABLE


def _band_verdict(b: BandSheaf) -> str:
    # Multiplicity m > 1 is an equal-slope self-extension, and a period
    # q < r splits the band into r/q equal-slope bands on the nq-cycle,
    # whose degrees are the first nq entries.  Either way semistability
    # passes through and stability never does.  r = 1 is its own period,
    # and at q = r the core is the whole vector.
    r = b.r
    q = 1 if r == 1 else b.period
    core = _judge(_cycle_memo, b.multideg if q == r else b.multideg[: b.n * q])
    return SEMISTABLE if core == STABLE and (b.m > 1 or q < r) else core


def _cycle_verdict(d: tuple[int, ...]) -> str:
    # An indecomposable multiplicity-one band on the N-cycle, N = len(d);
    # N = 1 has no proper interval, and g = [0] reads Stable.
    # The interval of length ell starting at a has chi_sub = P[a+ell] - P[a] - 1,
    # so its excess chi_sub*N - chi*ell is g(a + ell) - g(a) - N, and each
    # ordered pair of distinct residues mod N is exactly one proper interval.
    N = len(d)
    chi = sum(d)
    g = list(accumulate([N * x - chi for x in d[:-1]], initial=0))
    spread = max(g) - min(g)
    if spread > N:
        return UNSTABLE
    return SEMISTABLE if spread == N else STABLE


_chain_memo = lru_cache(maxsize=_MEMO_SIZE)(_chain_interval_verdict)
_cycle_memo = lru_cache(maxsize=_MEMO_SIZE)(_cycle_verdict)


def _judge(memo, d: tuple[int, ...]) -> str:
    """memo(d), or for d longer than _MEMO_LEN the kernel memo wraps."""
    return memo(d) if len(d) <= _MEMO_LEN else memo.__wrapped__(d)


def brute_force_chain_verdict(c: ChainSheaf) -> str:
    """Chain verdict by enumerating subsheaf Euler characteristics directly.

    Every proper interval [i, j] of the chain, cut once at each end that
    meets the rest of the curve, through `_literal_verdict`.  Cubic in k.
    """
    k = c.k
    spans = [
        (i, j - i + 1, (i > 0) + (j < k - 1))
        for i in range(k)
        for j in range(i, k)
        if i > 0 or j < k - 1
    ]
    return _literal_verdict(c.multideg, 1 + sum(c.multideg), spans)


def brute_force_band_verdict(b: BandSheaf) -> str:
    """Band verdict by enumerating twisted interval subsheaves on the cycle.

    Takes the multiplicity and periodicity reductions as `_band_verdict`
    states them (they are definitional: both produce equal-slope summands
    or extensions) and searches the core, the first n*q degrees for the
    period q, literally: every proper interval of its covering cycle, cut
    once at each end, through `_literal_verdict`.  Cubic in n*q.
    """
    q = b.period
    d = b.multideg[: b.n * q]
    N = len(d)
    spans = [(i, ell, 2) for i in range(N) for ell in range(1, N)]
    core = _literal_verdict(d, sum(d), spans)
    return SEMISTABLE if core == STABLE and (b.m > 1 or q < b.r) else core


def _literal_verdict(
    d: tuple[int, ...], chi: int, spans: list[tuple[int, int, int]]
) -> str:
    """Verdict of a sheaf of Euler characteristic chi over the len(d)
    components with degrees d, from its subsheaves on the given spans.

    Each span (start, length, cuts) reads d cyclically from start.  A
    line bundle there has chi = 1 + the total of its multidegree, which
    is at most the restricted total less the cuts, and only that maximal
    subsheaf is compared with the whole, by cross-multiplication.  That
    is the verdict of every sub-multidegree: a lower total t <= top - 1
    with t * N >= chi * ell gives top * N >= chi * ell + N > chi * ell,
    so it ties or exceeds only where the maximal one already exceeds.
    """
    N = len(d)
    dd = d + d
    saw_equal = False
    saw_over = False
    for start, ell, cuts in spans:
        top = 1 + sum(dd[start : start + ell]) - cuts
        if top * N > chi * ell:
            saw_over = True
        elif top * N == chi * ell:
            saw_equal = True
    if saw_over:
        return UNSTABLE
    return SEMISTABLE if saw_equal else STABLE


# ---------------------------------------------------------------------------
# seeded corpora


def random_label(rng: random.Random) -> Label:
    return Label((("a", rng.randint(-2, 2)), ("b", rng.randint(-2, 2))))


def random_summand(
    rng: random.Random,
    n: int,
    kinds: tuple[str, ...],
    max_k: int = 8,
    max_deg: int = 3,
) -> Summand:
    """One random summand; all randomness comes from the supplied rng."""
    kind = rng.choice(kinds)
    if kind == "chain":
        k = rng.randint(1, max_k)
        d = tuple(rng.randint(-max_deg, max_deg) for _ in range(k))
        return ChainSheaf(n, k, rng.randrange(n), d)
    if kind == "band":
        r = rng.randint(1, 2)
        d = tuple(rng.randint(-max_deg, max_deg) for _ in range(n * r))
        return BandSheaf(n, r, d, random_label(rng), rng.randint(1, 2))
    if kind == "torsion":
        if rng.random() < 0.5:
            pos: SmoothPoint | NodePoint = SmoothPoint(
                rng.randrange(n), rng.choice(("p", "q", "z"))
            )
        else:
            pos = NodePoint(rng.randrange(n))
        return TorsionSheaf(n, pos, rng.randint(1, 3))
    raise ValueError(f"unknown summand kind {kind!r}")


def random_corpus(
    seed: int, count: int, kinds: tuple[str, ...] = ("chain", "band")
) -> tuple[Summand, ...]:
    rng = random.Random(seed)
    return tuple(random_summand(rng, rng.randint(1, 6), kinds) for _ in range(count))


def random_object(rng: random.Random, semistable_only: bool = False) -> SheafObject:
    """A random direct sum of one to four summands on one curve, optionally
    skipping unstable parts."""
    n = rng.randint(1, 6)
    parts: list[Summand] = []
    want = rng.randint(1, 4)
    while len(parts) < want:
        s = random_summand(rng, n, ("chain", "band", "torsion"), max_k=6, max_deg=2)
        if semistable_only and is_semistable(s) == UNSTABLE:
            continue
        parts.append(s)
    return SheafObject(tuple(parts))


# ---------------------------------------------------------------------------
# JSON


def summand_to_json(s: Summand) -> dict:
    if isinstance(s, BandSheaf):
        return {
            "type": "band",
            "r": s.r,
            "multideg": list(s.multideg),
            "lambda": str(s.lam),
            "m": s.m,
        }
    if isinstance(s, ChainSheaf):
        return {
            "type": "chain",
            "k": s.k,
            "start": s.start,
            "multideg": list(s.multideg),
        }
    if isinstance(s, TorsionSheaf):
        pos = s.position
        if isinstance(pos, SmoothPoint):
            where = {"kind": "smooth", "component": pos.component, "label": pos.label}
        else:
            where = {"kind": "node", "index": pos.index}
        return {"type": "torsion", "position": where, "length": s.length}
    raise TypeError(f"not a sheaf model: {type(s).__name__}")

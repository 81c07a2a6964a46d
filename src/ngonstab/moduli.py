"""Classification of stable objects by phase class on the n-cycle curve.

Phases of lattice charges correspond to rational slopes (including
infinity), slopes fall into finitely many classes under the level-n
congruence action, and each class has a canonical representative r/s
with s dividing n.  At that representative the stable locus has a
positive-dimensional part, a copy of the s-cycle curve swept out by
pulled-back line bundles, together with n isolated points: chains of
length s carrying one fixed balanced degree vector, translated around
the curve.  A description stores only the phase and its level; building
it derives the class and the witness, the stable charges are read off
the phase direction, and the rigid chains are built, and their
stability checked rather than believed, from the representative.

The balanced degree vector is unique: writing P_t for its prefix sums,
stability of a length-s chain of total degree r - 1 against prefix and
suffix intervals forces rt/s - 1 < P_t < rt/s, and with gcd(r, s) = 1
the only integer in that window is floor(rt/s).  Interior intervals
then pass automatically.  A small-case search in the tests confirms the
uniqueness claim independently.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .charges import ChargeVec, PhasePoint, Slope, in_h_prime, value_class
from .gamma0 import cusp_canonicalize
from .sheaves import (
    STABLE,
    BandSheaf,
    ChainSheaf,
    Label,
    is_semistable,
    pullback,
    summand_to_json,
)

__all__ = [
    "ModuliDescription",
    "classify",
    "enumerate_rigid",
    "stable_vb_construct",
]

_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


# Levels up to 60 carry 294 cusp classes, so 512 keys hold every rigid
# locus at such levels while the cache stays bounded.
@lru_cache(maxsize=512)
def enumerate_rigid(n: int, r: int, s: int) -> tuple[ChainSheaf, ...]:
    """The n isolated stable points at the representative r/s: length-s chains.

    All n translates share the forced staircase degree vector; the
    stability test runs on the first one and a failure raises rather
    than returning a wrong descriptor.
    """
    if s < 1 or n % s != 0:
        raise ValueError("s must be a positive divisor of n")
    if gcd(r, s) != 1:
        raise ValueError("r and s must be coprime")
    prefix = [r * t // s for t in range(s)]
    prefix.append(r - 1)
    d = tuple(prefix[t + 1] - prefix[t] for t in range(s))
    assert sum(d) == r - 1
    first = ChainSheaf(n, s, 0, d)
    if is_semistable(first) != STABLE:
        raise ValueError(f"no stable balanced chain found for {r}/{s}")
    return tuple(ChainSheaf(n, s, j, d) for j in range(n))


def stable_vb_construct(
    n: int, r: int, s: int, line_data: tuple[int, ...], label: Label
) -> BandSheaf:
    """Pull a degree-r line bundle on the s-cycle up to a rank-one band.

    The result tiles line_data around the n-cycle, has chi = n*r/s and
    total rank n, and is stable exactly when the downstairs bundle is.
    """
    if s < 1 or n % s != 0:
        raise ValueError("s must be a positive divisor of n")
    line_data = tuple(line_data)
    if len(line_data) != s:
        raise ValueError("line_data must have one degree per component")
    if sum(line_data) != r:
        raise ValueError(f"line_data must have total degree {r}")
    downstairs = BandSheaf(s, 1, line_data, label, 1)
    up = pullback(downstairs, n)
    assert len(up.summands) == 1  # gcd(1, n/s) sheets never split
    return up.summands[0]


@value_class
class ModuliDescription:
    """Everything the classification pins down for one phase.

    The fields are the level n and the phase.  The constructor derives
    `representative`, the phase's class r/s at level n, and `witness`,
    which moves the phase's slope there; every other value is read off
    these.
    """

    n: int
    phase: PhasePoint

    galois_note = (
        "Z/nZ acts transitively on rigid points; "
        "factors through Gal(E_s → E_1) on E_s"
    )

    def __post_init__(self) -> None:
        # the direction (re, im) carries the slope -re/im, so phases a and
        # a + 1, of opposite directions, share it
        re, im = self.phase.dir
        representative, witness = cusp_canonicalize(self.n, Slope(-re, im))
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "witness", witness)

    @property
    def s(self) -> int:
        return self.representative.c

    @property
    def positive_component(self) -> str:
        """Display name of the s-cycle curve, E with subscript s."""
        return "E" + str(self.s).translate(_SUB)

    @property
    def rigid_points(self) -> tuple[ChainSheaf, ...]:
        """The n stable chains of length s at the representative."""
        return enumerate_rigid(self.n, self.representative.a, self.s)

    @property
    def stable_charges(self) -> tuple[ChargeVec, ChargeVec]:
        """(vector_bundle, rigid) = ((n/s)·dir, dir), dir the phase direction in H'.

        These are the representative's (chi, rank) columns (nr/s, n) and
        (r, s) carried back by the witness w: w(p, q) = ±(r, s) for the slope
        p/q of dir, so w⁻¹(r, s) = ±(p, q), and w⁻¹(nr/s, n) is n/s times that.
        """
        re, im = self.phase.dir
        if not in_h_prime((re, im)):
            re, im = -re, -im
        m = self.n // self.s
        return ((m * re, m * im), (re, im))

    @property
    def rigid_count(self) -> int:
        return self.n

    @property
    def torsion_class(self) -> bool:
        return self.s == self.n

    def class_payload(self) -> tuple:
        """The fields determined by the phase class alone."""
        return (self.n, self.representative, self.rigid_points)

    def to_json(self) -> dict:
        return self._json([summand_to_json(c) for c in self.rigid_points])

    def _json(self, rigid_points) -> dict:
        """to_json's payload around the given rigid_points value, which the
        command line writes from one chain of the orbit."""
        vb, rigid = self.stable_charges
        return {
            "n": self.n,
            "phase": self.phase.to_json(),
            "representative": self.representative.to_json(),
            "witness": self.witness.to_json(),
            "s": self.s,
            "positive_component": {
                "tag": "E_s",
                "s": self.s,
                "display": self.positive_component,
            },
            "rigid_count": self.rigid_count,
            "rigid_points": rigid_points,
            "stable_charges": {"vector_bundle": list(vb), "rigid": list(rigid)},
            "galois_note": self.galois_note,
            "torsion_class": self.torsion_class,
        }


def classify(n: int, a: PhasePoint) -> ModuliDescription:
    """Describe the stable moduli at phase a on the n-cycle curve.

    For n = 1 every slope is in the single class of 0/1 and the report
    degenerates to the curve itself; the lone rigid chain is the
    boundary point of its compactification rather than a separate
    component, which is why torsion_class is always true there.
    """
    return ModuliDescription(n, a)

"""Exact charge and phase arithmetic for cycles of projective lines.

The Grothendieck group of a cycle E_n of n projective lines is Z^{n+1},
with basis the point class e0 and the n component classes e_i given by
O(-1) on each line, so a `KClass` is (chi, ranks) and reads n off its
one rank per component.  The classical central charge sends a class with
Euler characteristic chi and total rank r to the Gaussian integer
-chi + i*r, so its image is the full rank-2 lattice no matter what n is.

Phases are never floats here.  A phase is stored as a primitive lattice
direction together with an even integer shift.  The branch window is
(0, 2] with the discontinuity on the positive real axis: directions in
the closed upper half plane H' = {im > 0} u {im = 0, re < 0} carry
phases in (0, 1], their negatives carry (1, 2].  So H' comes first, and
two directions on one side are ordered by the sign of one integer cross
product (`phase_cmp`); no ratio is ever formed.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

__all__ = [
    "KClass",
    "ChargeVec",
    "PhasePoint",
    "Slope",
    "charge",
    "phase_of_charge",
    "slope_to_phase",
    "compare_phase",
    "add_half_turns",
    "in_h_prime",
    "primitive",
    "phase_sort_key",
]

# A charge is the exact value of the central charge as a pair of integers
# (re, im) = (-chi, rk_tot).
ChargeVec = tuple[int, int]


def is_int(x: object) -> bool:
    """True for an integer value; JSON true and false decode to bool, a
    subclass of int, and are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_tuple(value: object, what: str) -> tuple[int, ...]:
    if type(value) is tuple:
        # an exact tuple of exact ints passes as is, with one compare per entry
        for x in value:
            if type(x) is not int:
                break
        else:
            return value
    if not isinstance(value, (tuple, list)):
        raise ValueError(f"{what} must be a sequence of integers")
    out = tuple(value)
    for x in out:
        if not is_int(x):
            raise ValueError(f"{what} must contain only integers")
    return out


_INT_TUPLE_TYPES = ("tuple[int, ...]", "ChargeVec")


def value_class(cls: type) -> type:
    """Make `cls` a frozen value class over its annotated fields.

    Every annotation is a field, in order, so a class constant goes
    unannotated; a class attribute of the same name is the field's
    default.  An annotation is the string ``from __future__ import
    annotations`` leaves; any other raises TypeError, so a module without
    that import cannot skip the integer checks.  One `exec` builds
    `__init__` (refuses any value `is_int` rejects for a field annotated
    ``int``, stores a field annotated ``tuple[int, ...]`` or
    ``ChargeVec`` as a tuple after `_int_tuple`'s checks, refuses a
    ``ChargeVec`` of other than two entries, assigns every field, then
    calls `__post_init__` if the class has one), `__eq__` (same class and
    equal field tuples) and `__hash__` (the hash of the field tuple): the
    code `dataclass` generates for ``frozen=True``, so equal values
    compare and hash as they did under it.  `__repr__` and the frozen
    `__setattr__` and `__delattr__` are shared by every value class.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    ns = {
        "__name__": cls.__module__,
        "_set": object.__setattr__,
        "_is_int": is_int,
        "_int_tuple": _int_tuple,
    }
    params = []
    body = ""
    for name in names:
        if not isinstance(annotations[name], str):
            raise TypeError(f"{cls.__qualname__}.{name}: annotation is not a string")
        if name in cls.__dict__:
            ns[f"_dflt_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        if annotations[name] == "int":
            # the exact-type test first keeps the common case to one compare
            body += (
                f"\n    if type({name}) is not int and not _is_int({name}):"
                f"\n        raise ValueError({name + ' must be an integer'!r})"
            )
        elif annotations[name] in _INT_TUPLE_TYPES:
            body += f"\n    {name} = _int_tuple({name}, {name!r})"
            if annotations[name] == "ChargeVec":
                body += (
                    f"\n    if len({name}) != 2:"
                    f"\n        raise ValueError({name + ' must have two entries'!r})"
                )
    own = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    body += "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(
        f"def __init__(self, {', '.join(params)}):{body}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({own}) == ({other})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({own}))\n",
        ns,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        fn = ns[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls._fields = names
    cls.__repr__ = _value_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _value_repr(self) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({args})"


def _frozen_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def in_h_prime(c: ChargeVec) -> bool:
    """Membership in H' = upper half plane plus the negative real ray."""
    re, im = c
    return im > 0 or (im == 0 and re < 0)


def primitive(c: ChargeVec) -> ChargeVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    re, im = c
    g = gcd(re, im)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return (re // g, im // g)


@value_class
class KClass:
    """A K-group element chi*e0 + sum(ranks[i]*e_i) on the n-gon, n = len(ranks)."""

    chi: int
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("ranks must not be empty")

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def rk_tot(self) -> int:
        return sum(self.ranks)

    def to_json(self) -> dict:
        return {"n": self.n, "chi": self.chi, "ranks": list(self.ranks)}


def charge(k: KClass) -> ChargeVec:
    """Central charge value (-chi, rk_tot) of a K-class."""
    return (-k.chi, k.rk_tot)


def phase_cmp(a: ChargeVec, b: ChargeVec) -> int:
    """Compare the phases of two nonzero vectors: -1, 0 or 1.

    A vector in H' (phases (0, 1]) comes before one outside it (phases
    (1, 2]).  Two vectors on the same side span less than a half turn,
    so b has the larger phase exactly when the cross product a x b is
    positive, and 0 means one ray.  The vectors need not be primitive:
    positive multiples of one direction compare equal.
    """
    ax, ay = a
    bx, by = b
    # in_h_prime written out: a call costs more than the whole comparison
    a_up = ay > 0 or (ay == 0 and ax < 0)
    if a_up != (by > 0 or (by == 0 and bx < 0)):
        return -1 if a_up else 1
    cross = ax * by - ay * bx
    return (cross < 0) - (cross > 0)


_phase_key = cmp_to_key(phase_cmp)


def phase_sort_key(c: ChargeVec):
    """Sort key ordering nonzero charges by phase inside (0, 2].

    Keys compare with <, > and == through phase_cmp; equal keys are
    directions on one ray.
    """
    if c == (0, 0):
        raise ValueError("charge in kernel")
    return _phase_key(c)


@value_class
class PhasePoint:
    """Exact point of the phase line: phi = phi0(dir) + 2*two_shift.

    dir is a nonzero lattice direction, stored primitive, and phi0 is its
    phase in the (0, 2] window, so every value of the form (rational
    direction phase) + (even integer) is representable, and nothing else
    is.  Positive multiples of one direction build the same point.
    """

    two_shift: int
    dir: ChargeVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "dir", primitive(self.dir))

    def sort_key(self) -> tuple:
        return (self.two_shift, _phase_key(self.dir))

    def to_json(self) -> dict:
        return {"two_shift": self.two_shift, "dir": list(self.dir)}


def phase_of_charge(c: ChargeVec) -> PhasePoint:
    """Phase of a nonzero charge, in the principal window (0, 2]."""
    return PhasePoint(0, c)


def compare_phase(a: PhasePoint, b: PhasePoint) -> str:
    """Total order on phase points: returns 'LT', 'EQ' or 'GT'."""
    if a.two_shift != b.two_shift:
        return "LT" if a.two_shift < b.two_shift else "GT"
    return ("LT", "EQ", "GT")[phase_cmp(a.dir, b.dir) + 1]


def add_half_turns(p: PhasePoint, turns: int) -> PhasePoint:
    """Shift a phase by an integer number of half turns (phi -> phi + turns).

    One half turn negates the direction; whether the even shift absorbs a
    carry depends on which side of H' the direction started on (crossing
    downward through the branch end bumps two_shift).
    """
    if turns == 0:
        return p
    shift, d = p.two_shift, p.dir
    shift += turns // 2
    if turns % 2:
        # phi0 in (0,1] lands in (1,2], the same window; phi0 in (1,2]
        # exits the window upward.
        if not in_h_prime(d):
            shift += 1
        d = (-d[0], -d[1])
    return PhasePoint(shift, d)


@value_class
class Slope:
    """Rational slope num/den, stored in lowest terms with den >= 0.

    Every n/0 with n != 0 is the one infinite slope, stored as 1/0; only
    0/0 is refused.  Equal fractions build equal slopes.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        g = gcd(self.num, self.den)
        if g == 0:
            raise ValueError("0/0 is not a slope")
        if self.den < 0 or (self.den == 0 and self.num < 0):
            g = -g
        object.__setattr__(self, "num", self.num // g)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def infinity(cls) -> "Slope":
        return cls(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @classmethod
    def of(cls, num: int, den: int) -> "Slope":
        """The slope num/den; the constructor already reduces any pair."""
        return cls(num, den)

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.num}/{self.den}"


def slope_to_phase(s: Slope) -> PhasePoint:
    """Phase in (0, 1] of the direction (-p, q) attached to the slope p/q."""
    return PhasePoint(0, (-s.num, s.den))

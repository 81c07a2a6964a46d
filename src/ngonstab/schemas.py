"""The input boundary: every decoder of outside input and every cap.

Outside input reaches the library only through this module: files are
read as JSON here and decode into 2x2 matrices, K-matrices and sheaf
objects, command-line text into integers, slopes and gluing labels, and every
size an input asks for is checked against a cap below before anything
of that size is built.  The library modules never import this one; they
raise ValueError.

Exit codes of the command line: 0 on success; 1 for a domain error,
well-formed input asking for something impossible (the library raised
ValueError, say for an unstable summand to filter or a matrix outside
the level); 2 for malformed input: bad arguments, an unreadable file,
bad JSON (malformed, not UTF-8 or nested too deeply), a value of the
wrong shape or type (JSON true and false are never integers), values a
constructor refuses (a length that does not match, a size below 1, no
summands, a K-matrix that is not unimodular), or a size, an integer or
the work of a check above a cap, whose message names the cap.
SchemaError does not subclass ValueError, so the two stay disjoint.
"""

from __future__ import annotations

import json

from .charges import Slope, is_int
from .compat import KAuto, _as_int_matrix
from .gamma0 import Mat2
from .hn import MAX_SUBSET_CHARGES
from .sheaves import (
    BandSheaf,
    ChainSheaf,
    Label,
    NodePoint,
    SheafObject,
    SmoothPoint,
    TorsionSheaf,
)

__all__ = [
    "SchemaError",
    "check_cap",
    "kauto_from_json",
    "load_json",
    "mat2_from_json",
    "object_from_json",
    "parse_integer",
    "parse_label",
    "parse_slope",
]

# A level, the n of a sheaf object, the length k of a chain and the
# covering cycle n*r of a band count curve components; a K-class lists
# one rank per component.
MAX_N = 10_000
# A K-matrix has n + 1 rows.  A lift is built and checked in about n^2
# steps (`lift` takes about 0.04 s at the cap with 100-digit entries on
# a 2-CPU x86-64 host); MAX_DET_WORK bounds a dense file's n^3.
MAX_K_N = 200
# Decoding a K-matrix checks its determinant by Bareiss elimination: at
# most n^3 steps on integers as long as the Hadamard bound prod ||row||,
# which bounds every minor.  The cap on n^2 times the bits of that bound
# keeps the check under about 0.6 s on a 2-CPU x86-64 host: it admits
# dense files of 1-digit entries up to n = 118 (0.3 s), of 100-digit
# entries up to n = 30 (0.45 s), and lifts of short level words at
# n = MAX_K_N (tens of bits, 0.02 s); at n = MAX_K_N it refuses a lift
# whose level matrix has an entry of 76 digits or more.
MAX_DET_WORK = 10_000_000
# One box oracle call visits (2 * box + 1)^2 lattice points, about 160k
# at the cap.
MAX_BOX = 200
# classify and rigid print n chains of s degrees each; n*s at the cap is
# 1.13 MB of JSON, which takes about 23 ms to serialize (classify 316
# --slope=1/316, Python 3.11 on a 2-CPU x86-64 machine).
MAX_RIGID_DEGREES = 100_000
# The cusp partition oracle of phase-classes --oracle takes about 0.5 s
# at this level (Python 3.11 on a 2-CPU x86-64 machine).
MAX_ORACLE_LEVEL = 150
# semistable --oracle reports null above these: the chain oracle is cubic
# in the chain length k, the band oracle exponential in the cycle length
# n*r.  It refuses files of more summands than MAX_ORACLE_VERDICTS: 100
# chains at the chain cap take 0.7-1.1 s with one-digit degrees and
# 1.7-2.6 s with degrees of MAX_INT_DIGITS digits (Python 3.11 on a
# 2-CPU x86-64 machine).
MAX_ORACLE_CHAIN = 100
MAX_ORACLE_BAND = 6
MAX_ORACLE_VERDICTS = 100
# hn --oracle builds every subset sum of the summand charges.
MAX_ORACLE_SUMMANDS = MAX_SUBSET_CHARGES
# The digits of any integer read from a file, a slope or a label.  A
# verb prints sums and products of at most two such integers and sizes
# under the caps above (chi = -m * sum(multideg) over the summands; a
# descended matrix sums n + 1 entries), so nothing it prints nears the
# 4,300 digits Python will convert to text: about 2 * 100 + 20 at most.
MAX_INT_DIGITS = 100
_INT_BOUND = 10**MAX_INT_DIGITS


class SchemaError(Exception):
    """Raised when outside input is malformed or above a cap."""


def check_cap(value: int, cap: int, what: str) -> int:
    """The value, or SchemaError naming the cap when it is above it."""
    if value > cap:
        raise SchemaError(f"{what} above the cap of {cap}")
    return value


def parse_integer(text: str) -> int:
    """An optional sign and ASCII digits as an int; ValueError, as int()
    raises, for anything else (int() also takes '1_2', spaces and other
    scripts' digits), SchemaError above MAX_INT_DIGITS digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    if len(digits) > MAX_INT_DIGITS:
        raise SchemaError(f"integer above the cap of {MAX_INT_DIGITS} digits")
    return int(text)


def _check_digits(values) -> None:
    """SchemaError naming the cap if an integer of values has too many digits."""
    if values and not -_INT_BOUND < min(values) <= max(values) < _INT_BOUND:
        raise SchemaError(f"integer above the cap of {MAX_INT_DIGITS} digits")


# ---------------------------------------------------------------------------
# JSON files and fields


def load_json(path: str) -> object:
    """The JSON document in a file; every read or parse failure is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # integers decode natively; the decoders below check the
            # digits of every integer they read
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(exc)) from None
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise SchemaError(f"malformed JSON at {where}: {exc.msg}") from None
    except ValueError:
        # the one other ValueError of json.load: an integer literal past
        # the 4,300 digits Python converts
        raise SchemaError(f"integer above the cap of {MAX_INT_DIGITS} digits") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return value


def _field(obj: dict, key: str, what: str):
    try:
        return obj[key]
    except KeyError:
        raise SchemaError(f"{what} missing field {key!r}") from None


def _int(obj: dict, key: str, what: str) -> int:
    value = _field(obj, key, what)
    if not is_int(value):
        raise SchemaError(f"{what} {key} must be an integer")
    _check_digits((value,))
    return value


def _ints(obj: dict, key: str, what: str) -> tuple[int, ...]:
    value = _field(obj, key, what)
    if not isinstance(value, list) or not all(is_int(x) for x in value):
        raise SchemaError(f"{what} {key} must be a list of integers")
    _check_digits(value)
    return tuple(value)


def _size(obj: dict, key: str, cap: int, what: str) -> int:
    """A positive integer field, refused above cap."""
    value = _int(obj, key, what)
    if value < 1:
        raise SchemaError(f"{key} must be positive")
    return check_cap(value, cap, key)


# ---------------------------------------------------------------------------
# file decoders


def mat2_from_json(obj: object) -> Mat2:
    """[[a, b], [c, d]] with integer entries."""
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(row, list) and len(row) == 2 for row in obj)
        or not all(is_int(x) for row in obj for x in row)
    ):
        raise SchemaError("matrix must be [[a, b], [c, d]] with integer entries")
    (a, b), (c, d) = obj
    _check_digits((a, b, c, d))
    return Mat2(a, b, c, d)


def kauto_from_json(obj: object) -> KAuto:
    """{"n": n, "matrix": n + 1 rows of n + 1 integers, "amplitude_M": int or null}."""
    obj = _object(obj, "K-matrix")
    n = _size(obj, "n", MAX_K_N, "K-matrix")
    matrix = _field(obj, "matrix", "K-matrix")
    amplitude = obj.get("amplitude_M")
    # the row count against n before any row is read, then compat's rule
    # for the rows, then digits and determinant work, since the
    # constructor's determinant grows with both
    size = n + 1
    if not isinstance(matrix, list) or len(matrix) != size:
        raise SchemaError(f"expected a {size}x{size} integer matrix")
    try:
        matrix = _as_int_matrix(matrix)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    _check_digits([x for row in matrix for x in row])
    _check_digits([amplitude] if is_int(amplitude) else [])
    # ceil(log2 ||row||) per row: half of ceil(log2 of the sum of squares)
    bits = sum(((sum(x * x for x in row) - 1).bit_length() + 1) // 2 for row in matrix)
    check_cap(n * n * bits, MAX_DET_WORK, "K-matrix determinant work n^2 * bits")
    try:
        return KAuto(matrix, amplitude)
    except ValueError as exc:
        # the certificate or unimodularity failed: the file is malformed
        raise SchemaError(str(exc)) from None


def object_from_json(obj: object) -> SheafObject:
    """{"n": n, "summands": [band, chain or torsion summand, ...]}."""
    obj = _object(obj, "sheaf object")
    n = _size(obj, "n", MAX_N, "sheaf object")
    raw = _field(obj, "summands", "sheaf object")
    if not isinstance(raw, list):
        raise SchemaError("summands must be a list")
    try:
        return SheafObject(tuple(_summand(n, x) for x in raw))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _summand(n: int, obj: object):
    # Every type check and cap runs here; the constructors refuse the
    # values that contradict each other.
    obj = _object(obj, "summand")
    kind = _field(obj, "type", "summand")
    if kind == "band":
        r = _int(obj, "r", "band")
        multideg = _ints(obj, "multideg", "band")
        lam = parse_label(_field(obj, "lambda", "band"))
        m = _int(obj, "m", "band") if "m" in obj else 1
        check_cap(n * r, MAX_N, "band n*r")  # the covering cycle is a curve too
        return BandSheaf(n, r, multideg, lam, m)
    if kind == "chain":
        k, start = _int(obj, "k", "chain"), _int(obj, "start", "chain")
        check_cap(k, MAX_N, "chain k")  # a chain of k lines is a curve too
        return ChainSheaf(n, k, start, _ints(obj, "multideg", "chain"))
    if kind == "torsion":
        where = _object(_field(obj, "position", "torsion"), "torsion position")
        length = _int(obj, "length", "torsion")
        place = _field(where, "kind", "position")
        if place == "smooth":
            label = _field(where, "label", "smooth position")
            if not isinstance(label, str):
                raise SchemaError("smooth position label must be a string")
            point = SmoothPoint(_int(where, "component", "smooth position"), label)
        elif place == "node":
            point = NodePoint(_int(where, "index", "node position"))
        else:
            raise SchemaError(f"unknown position kind {place!r}")
        return TorsionSheaf(n, point, length)
    raise SchemaError(f"unknown summand type {kind!r}")


# ---------------------------------------------------------------------------
# text parsers


def parse_slope(text: str) -> Slope:
    """p/q, an integer, or inf (also oo)."""
    text = text.strip()
    if text in ("inf", "oo"):
        return Slope.infinity()
    num, slash, den = text.partition("/")
    try:
        return Slope(parse_integer(num), parse_integer(den) if slash else 1)
    except ValueError:
        raise SchemaError(f"not a slope: {text!r}") from None


def parse_label(text: object) -> Label:
    """Inverse of str(Label): '1', 'a', 'a^2*b^-1' and friends."""
    if not isinstance(text, str):
        raise SchemaError("label must be a string")
    text = text.strip()
    factors = []
    for part in text.split("*") if text != "1" else ():
        name, caret, exp = part.partition("^")
        try:
            power = parse_integer(exp) if caret else 1
            factors += Label(((name.strip(), power),)).powers
        except ValueError:
            raise SchemaError(f"bad label factor {part!r}") from None
    return Label(tuple(factors))

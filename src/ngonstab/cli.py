"""Command-line front end: one verb per library computation.

JSON is the single interchange format and the default output: two-space
indented, ASCII-escaped, keys in the order the payload was built, byte
for byte what json.dumps(payload, indent=2) prints, from one walk of the
payload (`_dumps`).  `--format table` renders the same payload as flat
key/value lines for reading, never for parsing back.  `--oracle`, on the
four verbs that have a brute-force cross-check, runs it and reports both
answers; `--box` sets the lattice radius of the `check-compat` oracles
and `--seed` feeds the sampled one.  Input is decoded and capped in
`schemas`, whose docstring states the exit codes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import schemas
from .charges import charge, phase_of_charge, slope_to_phase
from .compat import (
    check_compatibility,
    check_order,
    conjugate_by_D,
    lift_k_matrix,
    order_preserved_brute_force,
    sampled_pairwise_order,
)
from .gamma0 import (
    brute_force_cusp_partition,
    class_count,
    cusp_canonicalize,
    enumerate_cusp_classes,
    restrict_partition_to_small_slopes,
)
from .hn import brute_force_polygon, hn_of_object, hn_polygon
from .moduli import classify
from .schemas import check_cap
from .sheaves import (
    BandSheaf,
    ChainSheaf,
    brute_force_band_verdict,
    brute_force_chain_verdict,
    is_semistable,
    k_class,
    object_charge,
    phase,
)

__all__ = ["main", "run"]


def _argument(parse):
    """Argparse type from parse, a function of the argument text; it raises
    only ArgumentTypeError, as argparse lets a SchemaError escape."""

    def typed(text: str) -> int:
        try:
            return parse(text)
        except (ValueError, schemas.SchemaError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _capped(cap: int, what: str):
    """Argparse type for a positive integer that is refused above cap."""

    def parse(text: str) -> int:
        value = schemas.parse_integer(text)
        if value < 1:
            raise ValueError("expected a positive integer")
        return check_cap(value, cap, what)

    return _argument(parse)


# The verb table: verb -> (handler, help, arguments), each argument a
# (name, add_argument options) pair that _build_parser adds to the verb.
_VERBS: dict[str, tuple] = {}


def _verb(name: str, help_text: str, *arguments):
    def enter(func):
        _VERBS[name] = (func, help_text, arguments)
        return func

    return enter


_FORMAT = ("--format", dict(choices=("json", "table"), default="json"))
_LEVEL = ("n", dict(type=_capped(schemas.MAX_N, "level")))
_SLOPE = ("--slope", dict(required=True, help="p/q, an integer, or inf"))
_OBJECT = ("file", dict(help="sheaf object JSON file"))
_ORACLE = ("--oracle", dict(action="store_true", help="also run the oracle"))
_BOX = ("--box", dict(type=_capped(schemas.MAX_BOX, "box radius"), default=25))
_SEED = (
    "--seed",
    dict(type=_argument(schemas.parse_integer), default=0,
         help="seed for the sampled oracle"),
)
_KMATRIX = ("file", dict(help="K-matrix JSON file"))
_K_LEVEL = ("n", dict(type=_capped(schemas.MAX_K_N, "level")))
_MATRIX = ("file", dict(help="2x2 matrix JSON file"))


@_verb("phase-classes", "count phase classes at a level", _LEVEL, _ORACLE)
def _cmd_phase_classes(args):
    count = class_count(args.n)
    if not args.oracle:
        return count
    check_cap(args.n, schemas.MAX_ORACLE_LEVEL, "oracle level")
    uf = brute_force_cusp_partition(args.n)
    orbits = len(set(restrict_partition_to_small_slopes(args.n, uf).values()))
    return {"closed_form": count, "brute_force": orbits}


@_verb("cusps", "list canonical cusp classes", _LEVEL)
def _cmd_cusps(args):
    return [cls.to_json() for cls in enumerate_cusp_classes(args.n)]


@_verb("reduce", "canonicalize a slope with a witness", _LEVEL, _SLOPE)
def _cmd_reduce(args):
    cls, witness = cusp_canonicalize(args.n, schemas.parse_slope(args.slope))
    return {"class": cls.to_json(), "witness": witness.to_json()}


# classify and rigid print n rigid chains of length s
@_verb("classify", "describe the stable moduli at a phase", _LEVEL, _SLOPE)
def _cmd_classify(args):
    desc = classify(args.n, slope_to_phase(schemas.parse_slope(args.slope)))
    check_cap(args.n * desc.s, schemas.MAX_RIGID_DEGREES, "n*s")
    return desc.to_json()


@_verb("rigid", "the isolated stable chains at a phase class", _LEVEL, _SLOPE)
def _cmd_rigid(args):
    payload = _cmd_classify(args)
    return {key: payload[key] for key in ("n", "representative", "rigid_points")}


@_verb(
    "check-compat", "run the compatibility criterion", _KMATRIX, _ORACLE, _BOX, _SEED
)
def _cmd_check_compat(args):
    auto = schemas.kauto_from_json(schemas.load_json(args.file))
    report = check_compatibility(auto)
    payload = report.to_json()
    if args.oracle and report.descended is not None:
        plane = conjugate_by_D(report.descended)
        payload["order_oracle"] = {
            "shortcut": check_order(plane, auto.n),
            "cyclic_box_search": order_preserved_brute_force(plane, auto.n, args.box),
            "sampled_pairs": sampled_pairwise_order(
                plane, auto.n, args.box, seed=args.seed
            ),
        }
    return payload


@_verb("lift", "lift a 2x2 level matrix to a K-matrix", _K_LEVEL, _MATRIX)
def _cmd_lift(args):
    matrix = schemas.mat2_from_json(schemas.load_json(args.file))
    return lift_k_matrix(args.n, matrix).to_json()


@_verb("hn", "filtration slices and polygon", _OBJECT, _ORACLE)
def _cmd_hn(args):
    obj = schemas.object_from_json(schemas.load_json(args.file))
    if args.oracle:
        check_cap(len(obj.summands), schemas.MAX_ORACLE_SUMMANDS, "oracle summands")
    result = hn_of_object(obj)
    payload = result.to_json()
    polygon = hn_polygon([s.total_charge for s in result.slices])
    payload["polygon"] = polygon.to_json()["vertices"]
    if args.oracle:
        oracle = brute_force_polygon([object_charge(x) for x in obj.summands])
        payload["polygon_oracle"] = oracle.to_json()["vertices"]
    return payload


@_verb("charge", "K-class, charge and phase", _OBJECT)
def _cmd_charge(args):
    obj = schemas.object_from_json(schemas.load_json(args.file))
    k = k_class(obj)
    c = charge(k)
    return {
        "k_class": k.to_json(),
        "charge": list(c),
        "phase": phase_of_charge(c).to_json(),
    }


def _oracle_verdict(part):
    # null where the literal search would run too long
    if isinstance(part, ChainSheaf):
        small = part.k <= schemas.MAX_ORACLE_CHAIN
        return brute_force_chain_verdict(part) if small else None
    if isinstance(part, BandSheaf):
        small = part.n * part.r <= schemas.MAX_ORACLE_BAND
        return brute_force_band_verdict(part) if small else None
    return is_semistable(part)


@_verb("semistable", "stability verdict per summand", _OBJECT, _ORACLE)
def _cmd_semistable(args):
    obj = schemas.object_from_json(schemas.load_json(args.file))
    if args.oracle:
        check_cap(len(obj.summands), schemas.MAX_ORACLE_VERDICTS, "oracle verdicts")
    rows = []
    for idx, part in enumerate(obj.summands):
        row = {
            "index": idx,
            "verdict": is_semistable(part),
            "phase": phase(part).to_json(),
        }
        if args.oracle:
            row["oracle_verdict"] = _oracle_verdict(part)
        rows.append(row)
    return {"n": obj.n, "verdicts": rows}


# Built once per process: parse_args leaves the parser as it was and the
# argument types are pure, so every run can share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: only full flag names, so a flag added to a verb
    # cannot change what an abbreviation used to mean
    parser = argparse.ArgumentParser(
        prog="ngonstab",
        description="Exact computations for stability on cycle-of-lines curves.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, help_text, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text, allow_abbrev=False)
        for name, options in (_FORMAT, *arguments):
            p.add_argument(name, **options)
        p.set_defaults(func=func)
    return parser


def _walk(lines: list[str], prefix: str, value) -> None:
    if isinstance(value, dict):
        for key, val in value.items():
            _walk(lines, f"{prefix}.{key}" if prefix else str(key), val)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(f"{prefix}: {' '.join(str(x) for x in value)}")
        else:
            for i, val in enumerate(value):
                _walk(lines, f"{prefix}[{i}]", val)
    else:
        lines.append(f"{prefix}: {value}")


def _render_table(payload) -> str:
    if isinstance(payload, (dict, list)):
        lines: list[str] = []
        _walk(lines, "", payload)
        return "\n".join(lines) + "\n"
    return f"{payload}\n"


def _dumps(value, indent: str = "\n") -> str:
    """The text json.dumps(value, indent=2) gives, from one walk of value.

    `indent` is the line break and indentation before value's closing
    bracket.  Dispatch is on exact type: dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises TypeError.
    """
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # _escape raises TypeError on a key that is not a str
        items = [_escape(key) + ": " + _dumps(val, inner) for key, val in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        # most items are ints: written here, without a call
        items = [int.__repr__(x) if type(x) is int else _dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def run(argv) -> tuple[int, str]:
    """Parse, dispatch, and serialize; returns (exit code, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already wrote its own message
        return (int(exc.code) if exc.code else 0), ""
    try:
        payload = args.func(args)
    except schemas.SchemaError as exc:
        return 2, f"error: {exc}\n"
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    if args.format == "table":
        return 0, _render_table(payload)
    return 0, _dumps(payload) + "\n"


def main(argv=None) -> int:
    code, text = run(argv)
    (sys.stdout if code == 0 else sys.stderr).write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

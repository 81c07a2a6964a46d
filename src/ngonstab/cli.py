"""Command-line front end: one verb per library computation.

JSON is the single interchange format and the default output: two-space
indented, ASCII-escaped, keys in the order the payload was built, byte
for byte what json.dumps(payload, indent=2) prints, from one walk of the
payload (`_dumps`).  The one exception is the rigid points of `classify`
and `rigid`: one orbit, which `_rigid_orbit` writes as one chain and its
n translates, and which the walk passes on as it is.  `--format table`
renders the full payload, n chain dicts and all, as flat key/value lines
for reading, never for parsing back.  `--oracle`, on the four verbs that
have a brute-force cross-check, runs it and reports both answers;
`--box` sets the lattice radius of the `check-compat` oracle.
`--seed` still parses but is not read (ROADMAP item 7).  Input is
decoded and capped in `schemas`, whose docstring states the exit codes.

Arguments are read in two tiers from one verb table (`_VERBS`).  `_read`
takes argv in canonical form (the verb, its positionals and each of its
flags at most once, as --flag, --flag=value or --flag value) straight
from the table, giving the attributes argparse would.  It declines
anything else, and argparse parses that argv: help, every usage error and
every unusual but valid form.  So stdout, stderr and exit codes are what
argparse alone gives, and `argparse` is imported only on a decline.
"""

from __future__ import annotations

import functools
import io
import os
import sys
from json.encoder import encode_basestring_ascii as _escape
from types import SimpleNamespace

from . import schemas
from .charges import charge, phase_of_charge, slope_to_phase
from .compat import (
    check_compatibility,
    check_order,
    conjugate_by_D,
    lift_k_matrix,
    order_preserved_brute_force,
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
    summand_to_json,
)

__all__ = ["main", "run"]


def _argument(parse):
    """Argparse type from parse, a function of the argument text; it raises
    only ArgumentTypeError, as argparse lets a SchemaError escape."""
    import argparse

    def typed(text: str) -> int:
        try:
            return parse(text)
        except (ValueError, schemas.SchemaError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _capped(cap: int, what: str):
    """Parse function for a positive integer that is refused above cap."""

    def parse(text: str) -> int:
        value = schemas.parse_integer(text)
        if value < 1:
            raise ValueError("expected a positive integer")
        return check_cap(value, cap, what)

    return parse


# The verb table: verb -> (handler, help, arguments), each argument a
# (name, add_argument options) pair.  An argument's "type" is the parse
# function itself, raising ValueError or SchemaError: _read calls it as it
# is, and _build_parser wraps it in _argument.
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
    dict(type=schemas.parse_integer,
         help="accepted and ignored; goes once the benchmark stops passing it "
         "(ROADMAP item 7)"),
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


class _Text(str):
    """JSON text, already written, that _dumps passes on as it is."""


def _rigid_orbit(points) -> _Text:
    """The JSON text of rigid_points as a top-level payload key holds it.

    The points are one orbit: point j is point 0, which starts at 0,
    moved on j components (`moduli.enumerate_rigid`).  So point 0 is
    written once and cut at its start, and the n copies are joined around
    their starts: O(n + s) joins, not a walk of n*s nodes.
    """
    head, _, tail = _dumps(summand_to_json(points[0]), "\n    ").partition('"start": 0')
    head += '"start": '
    starts = (tail + ",\n    " + head).join(map(str, range(len(points))))
    return _Text(f"[\n    {head}{starts}{tail}\n  ]")


# classify and rigid print n rigid chains of length s; as JSON, one chain
# written n times (_rigid_orbit)
@_verb("classify", "describe the stable moduli at a phase", _LEVEL, _SLOPE)
def _cmd_classify(args):
    desc = classify(args.n, slope_to_phase(schemas.parse_slope(args.slope)))
    check_cap(args.n * desc.s, schemas.MAX_RIGID_DEGREES, "n*s")
    if args.format == "table":
        return desc.to_json()
    return desc._json(_rigid_orbit(desc.rigid_points))


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
    # null past the caps, where the cubic literal search would run too
    # long for a file of MAX_ORACLE_VERDICTS summands
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


# Built once per process, and only for argv that _read declines:
# parse_args leaves the parser as it was and the argument types are pure,
# so every run can share it.
@functools.cache
def _build_parser():
    import argparse

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
            if "type" in options:
                options = dict(options, type=_argument(options["type"]))
            p.add_argument(name, **options)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _layout(verb: str) -> tuple:
    """What _read needs of a verb, from its table entry: the attributes
    argparse sets before it reads argv, the positionals as (name, type)
    in order, each flag as name -> (dest, switch, type, choices), and
    the required flags."""
    func, _, arguments = _VERBS[verb]
    defaults = {"verb": verb, "func": func}
    positionals, flags, required = [], {}, set()
    for name, options in (_FORMAT, *arguments):
        parse = options.get("type")
        if not name.startswith("--"):
            positionals.append((name, parse))
            continue
        dest, switch = name[2:], options.get("action") == "store_true"
        defaults[dest] = options.get("default", False if switch else None)
        flags[name] = (dest, switch, parse, options.get("choices"))
        if options.get("required"):
            required.add(name)
    return defaults, positionals, flags, required


def _read(argv: list[str]):
    """The attributes _build_parser().parse_args(argv) would give, read
    straight from the verb table, or None for argparse to answer.

    It reads the verb, its positionals, and each of its flags at most
    once, as --flag, --flag=value or --flag value.  It declines, and
    argparse then prints the help, the usage error or the same result,
    on anything else: an unknown token, -h, -- or -, a repeated or
    missing flag, a separate flag value that starts with -, a missing or
    extra positional, a value outside the choices, or a value its type
    refuses.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    defaults, positionals, flags, required = _layout(argv[0])
    values = dict(defaults)
    seen, texts = set(), []
    i, end = 1, len(argv)
    try:
        while i < end:
            token = argv[i]
            i += 1
            if token[:1] != "-":
                texts.append(token)
                continue
            name, eq, text = token.partition("=")
            if name not in flags or name in seen:
                return None
            seen.add(name)
            dest, switch, parse, choices = flags[name]
            if switch:
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                if i == end or argv[i][:1] == "-":
                    return None
                text = argv[i]
                i += 1
            value = text if parse is None else parse(text)
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        if len(texts) != len(positionals) or not required <= seen:
            return None
        for (dest, parse), text in zip(positionals, texts):
            values[dest] = text if parse is None else parse(text)
    except (ValueError, schemas.SchemaError):
        return None
    return SimpleNamespace(**values)


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
    tuples, str, int, bool and None, and a _Text, written as it is;
    anything else raises TypeError.
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
        # one f-string builds the text in one allocation; + would copy it thrice
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        # most items are ints: written here, without a call
        items = [int.__repr__(x) if type(x) is int else _dumps(x, inner) for x in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is _Text:
        return value
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def run(argv) -> tuple[int, str]:
    """Parse, dispatch, and serialize; returns (exit code, output text).
    argv None reads sys.argv[1:], as argparse does."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        # argparse writes help to stdout itself and hides a failed write,
        # so help is captured here and main writes it; a usage error
        # still goes straight to stderr
        captured = io.StringIO()
        stdout, sys.stdout = sys.stdout, captured
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return (int(exc.code), "") if exc.code else (0, captured.getvalue())
        finally:
            sys.stdout = stdout
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
    stream = sys.stdout if code == 0 else sys.stderr
    try:
        if hasattr(stream, "reconfigure"):
            # a table's subscripts on a stream that cannot encode them are
            # written as backslash escapes, not a traceback
            stream.reconfigure(errors="backslashreplace")
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull, so
        # the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

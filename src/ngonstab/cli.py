"""Command-line front end: one verb per library computation.

JSON is the single interchange format and the default output; `--format
table` renders the same payload as flat key/value lines for reading,
never for parsing back.  Exit codes: 0 success, 1 a computation
rejected its input (domain error), 2 malformed input (bad JSON, bad
schema, bad arguments).  `--oracle` additionally runs the relevant
brute-force cross-check and reports both answers; `--box` sets the
lattice radius those searches use (at most MAX_BOX) and `--seed` feeds
the sampled ones.  A level is at most sheaves.MAX_N, and at most
compat.MAX_K_N where it sizes a K-matrix (`lift`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .charges import Slope, slope_to_phase
from .compat import (
    MAX_K_N,
    KAuto,
    check_compatibility,
    conjugate_by_D,
    lift_k_matrix,
    order_preserved_brute_force,
    sampled_pairwise_order,
)
from .gamma0 import (
    Mat2,
    brute_force_cusp_partition,
    class_count,
    cusp_canonicalize,
    enumerate_cusp_classes,
    restrict_partition_to_small_slopes,
)
from .hn import brute_force_polygon, hn_of_object, hn_polygon
from .moduli import classify, enumerate_rigid
from .schemas import SchemaError
from .sheaves import (
    MAX_N,
    BandSheaf,
    ChainSheaf,
    brute_force_band_verdict,
    brute_force_chain_verdict,
    is_semistable,
    k_class,
    object_charge,
    object_from_json,
    phase,
    summand_to_json,
)

__all__ = ["main", "run"]

# One box oracle call visits (2 * box + 1)^2 lattice points, about 160k
# at the cap; larger radii are refused before anything is allocated.
MAX_BOX = 200


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _capped(cap: int, what: str):
    """Argparse type for a positive integer that is refused above cap."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{what} above the cap of {cap}")
        return value

    return parse


_box_radius = _capped(MAX_BOX, "box radius")
_level = _capped(MAX_N, "level")
_lift_level = _capped(MAX_K_N, "level")


def _cmd_phase_classes(args):
    count = class_count(args.n)
    if not args.oracle:
        return count
    uf = brute_force_cusp_partition(args.n)
    orbits = len(set(restrict_partition_to_small_slopes(args.n, uf).values()))
    return {"closed_form": count, "brute_force": orbits}


def _cmd_cusps(args):
    return [cls.to_json() for cls in enumerate_cusp_classes(args.n)]


def _cmd_reduce(args):
    cls, witness = cusp_canonicalize(args.n, Slope.parse(args.slope))
    return {"class": cls.to_json(), "witness": witness.to_json()}


def _cmd_classify(args):
    return classify(args.n, slope_to_phase(Slope.parse(args.slope))).to_json()


def _cmd_rigid(args):
    cls, _ = cusp_canonicalize(args.n, Slope.parse(args.slope))
    points = enumerate_rigid(args.n, cls.a, cls.c)
    return {
        "n": args.n,
        "representative": cls.to_json(),
        "rigid_points": [summand_to_json(c) for c in points],
    }


def _cmd_check_compat(args):
    auto = KAuto.from_json(_load_json(args.file))
    report = check_compatibility(auto)
    payload = report.to_json()
    if args.oracle and report.descended is not None and report.det_plus_one:
        plane = conjugate_by_D(report.descended)
        payload["order_oracle"] = {
            "shortcut": report.order_preserved,
            "cyclic_box_search": order_preserved_brute_force(plane, auto.n, args.box),
            "sampled_pairs": sampled_pairwise_order(
                plane, auto.n, args.box, seed=args.seed
            ),
        }
    return payload


def _cmd_lift(args):
    matrix = Mat2.from_json(_load_json(args.file))
    return lift_k_matrix(args.n, matrix).to_json()


def _cmd_hn(args):
    obj = object_from_json(_load_json(args.file))
    result = hn_of_object(obj)
    payload = result.to_json()
    polygon = hn_polygon([s.total_charge for s in result.slices])
    payload["polygon"] = polygon.to_json()["vertices"]
    if args.oracle:
        oracle = brute_force_polygon([object_charge(x) for x in obj.summands])
        payload["polygon_oracle"] = oracle.to_json()["vertices"]
    return payload


def _cmd_charge(args):
    obj = object_from_json(_load_json(args.file))
    return {
        "k_class": k_class(obj).to_json(),
        "charge": list(object_charge(obj)),
        "phase": phase(obj).to_json(),
    }


def _oracle_verdict(part):
    if isinstance(part, ChainSheaf):
        return brute_force_chain_verdict(part)
    if isinstance(part, BandSheaf):
        if part.n * part.r <= 6:
            return brute_force_band_verdict(part)
        return None  # the literal search is exponential in the cycle length
    return is_semistable(part)


def _cmd_semistable(args):
    obj = object_from_json(_load_json(args.file))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngonstab",
        description="Exact computations for stability on cycle-of-lines curves.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument(
        "--box",
        type=_box_radius,
        default=25,
        help=f"brute-force lattice radius, at most {MAX_BOX}",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for sampled oracles")
    common.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force cross-check and report both answers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "phase-classes", parents=[common], help="count phase classes at a level"
    )
    p.add_argument("n", type=_level)
    p.set_defaults(func=_cmd_phase_classes)

    p = sub.add_parser("cusps", parents=[common], help="list canonical cusp classes")
    p.add_argument("n", type=_level)
    p.set_defaults(func=_cmd_cusps)

    p = sub.add_parser(
        "reduce", parents=[common], help="canonicalize a slope with a witness"
    )
    p.add_argument("n", type=_level)
    p.add_argument("--slope", required=True, help="p/q, an integer, or inf")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "classify", parents=[common], help="describe the stable moduli at a phase"
    )
    p.add_argument("n", type=_level)
    p.add_argument("--slope", required=True, help="p/q, an integer, or inf")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "rigid", parents=[common], help="the isolated stable chains at a phase class"
    )
    p.add_argument("n", type=_level)
    p.add_argument("--slope", required=True, help="p/q, an integer, or inf")
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser(
        "check-compat", parents=[common], help="run the compatibility criterion"
    )
    p.add_argument("file", help="K-matrix JSON file")
    p.set_defaults(func=_cmd_check_compat)

    p = sub.add_parser(
        "lift", parents=[common], help="lift a 2x2 level matrix to a K-matrix"
    )
    p.add_argument("n", type=_lift_level)
    p.add_argument("file", help="2x2 matrix JSON file")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("hn", parents=[common], help="filtration slices and polygon")
    p.add_argument("file", help="sheaf object JSON file")
    p.set_defaults(func=_cmd_hn)

    p = sub.add_parser("charge", parents=[common], help="K-class, charge and phase")
    p.add_argument("file", help="sheaf object JSON file")
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser(
        "semistable", parents=[common], help="stability verdict per summand"
    )
    p.add_argument("file", help="sheaf object JSON file")
    p.set_defaults(func=_cmd_semistable)

    return parser


def _render_table(payload) -> str:
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, val in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), val)
        elif isinstance(value, list):
            if all(not isinstance(x, (dict, list)) for x in value):
                lines.append(f"{prefix}: {' '.join(str(x) for x in value)}")
            else:
                for i, val in enumerate(value):
                    walk(f"{prefix}[{i}]", val)
        else:
            lines.append(f"{prefix}: {value}")

    if isinstance(payload, (dict, list)):
        walk("", payload)
        return "\n".join(lines) + "\n"
    return f"{payload}\n"


def run(argv=None) -> tuple[int, str]:
    """Parse, dispatch, and serialize; returns (exit code, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already wrote its own message
        return (int(exc.code) if exc.code else 0), ""
    try:
        payload = args.func(args)
    except SchemaError as exc:
        return 2, f"error: {exc}\n"
    except json.JSONDecodeError as exc:
        return (
            2,
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}\n",
        )
    except OSError as exc:
        return 2, f"error: {exc}\n"
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    if args.format == "table":
        return 0, _render_table(payload)
    return 0, json.dumps(payload, indent=2) + "\n"


def main(argv=None) -> int:
    code, text = run(argv)
    (sys.stdout if code == 0 else sys.stderr).write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, one operation, its checks.

Each workload is built after a fresh import of the library and holds the
imported modules in ``self.ng``; every call goes through a module or
class attribute at call time, so the tracer's wrappers see it.  Inputs
are plain data drawn from ``random.Random(seed)`` and turned into library
objects during set-up.  `run` is the timed operation; `check` compares
its result with an oracle or with an answer known by construction and
returns a list of problems (empty when the result is right).  Checks run
outside the timed region.

The seed fixes a layout: one slot per operation, holding what decides
its cost (box radius, object kind and size stratum, verb and oracle
flag).  Slots are laid out in shuffled blocks, so every prefix of the
layout has the stated mix.  `draw(p)` makes pass p's operations, one per
slot, with values drawn from ``pass_rng(seed, p)``: every pass sees new
input objects of the same strata, so nothing the library might memoise
on an input is reused from pass to pass.  `labels` names each slot's
stratum, for the time shares in a run's ``info``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

STABLE, UNSTABLE = "Stable", "Unstable"
COMPATIBLE = "Compatible-by-criterion"
LEVELS = (2, 3, 4, 6, 8, 12)
ROOT = Path(__file__).resolve().parent.parent


def _blocks(rng: random.Random, pattern: list, count: int) -> list:
    """`count` items laid out as shuffled copies of `pattern`."""
    out: list = []
    while len(out) < count:
        block = list(pattern)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _in_stratum(rng: random.Random, stratum: int, strata: int) -> float:
    """A fraction in (0, 1) within 0.005 of the middle of `stratum` of
    `strata`.  With strata laid out by `_blocks`, sizes drawn from these
    have nearly the same order statistics for every seed and pass."""
    return (stratum + 0.5) / strata + rng.uniform(-0.005, 0.005)


def pass_rng(seed: int, p: int) -> random.Random:
    """The generator for the values of pass `p` of a run with `seed`."""
    return random.Random(f"{seed}/{p}")


def _scale(u: float, lo: int, hi: int) -> int:
    return lo + round((hi - lo) * u)


def _word(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    """A random product of T^{+-1,+-2} and V^{+-n}, as integer entries."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:
            m = rng.choice((-2, -1, 1, 2))
            a, b, c, d = a, a * m + b, c, c * m + d
        else:
            m = n * rng.choice((-1, 1))
            a, b, c, d = a + b * m, b, c + d * m, d
    return a, b, c, d


def _det_one_matrices(bound: int) -> list[tuple[int, int, int, int]]:
    """Every integer matrix with entries in [-bound, bound] and det 1."""
    out = []
    span = range(-bound, bound + 1)
    for a in span:
        for b in span:
            for c in span:
                if a == 0:
                    if b * c == -1:
                        out.extend((0, b, c, d) for d in span)
                elif (1 + b * c) % a == 0 and abs((1 + b * c) // a) <= bound:
                    out.append((a, b, c, (1 + b * c) // a))
    return out


def staircase(length: int, total: int) -> tuple[int, ...]:
    """Balanced degrees: window sums of `length` steps of total/length."""
    return tuple(
        (total * (t + 1)) // length - (total * t) // length for t in range(length)
    )


def _coprime_near(rng: random.Random, lo: int, hi: int, to: int) -> int:
    while True:
        x = rng.randint(lo, hi)
        if gcd(x, to) == 1:
            return x


def _stable_chain_degrees(rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, ...]:
    """Staircase of total chi r with gcd(r, k) = 1: Stable by construction."""
    r = _coprime_near(rng, lo, hi, k)
    prefix = [r * t // k for t in range(k)] + [r - 1]
    return tuple(prefix[t + 1] - prefix[t] for t in range(k))


def _stable_band_degrees(rng: random.Random, size: int, lo: int, hi: int) -> tuple[int, ...]:
    """Cyclically balanced degrees with total coprime to the cycle length."""
    d = staircase(size, _coprime_near(rng, lo, hi, size))
    turn = rng.randrange(size)
    return d[turn:] + d[:turn]


# ---------------------------------------------------------------------------


class OrderSweep:
    """Order checks over lattice boxes plus the K-matrix criterion.

    One op: a determinant-one matrix with entries in [-10, 10] and its
    inverse go through `check_order` and the box oracle at one box
    radius, the matrix through `box_sup_phase` and `compute_m`; then a seeded word at one level is lifted,
    inverted and composed, and every K-matrix is run through the
    criterion.
    """

    name = "order_sweep"
    size = 120
    block = 20
    tail = "p90"
    RADII = [25] * 14 + [10] * 3 + [50] * 3

    def __init__(self, ng, seed: int, workdir: Path) -> None:
        self.ng, self.seed = ng, seed
        self.pool = _det_one_matrices(10)
        # each block pairs every radius slot with every level once
        pattern = [(b, n) for b in self.RADII for n in LEVELS]
        self.slots = _blocks(random.Random(seed), pattern, self.size)
        self.labels = [f"box{box}" for box, _ in self.slots]
        self.ops = self.draw(0)

    def draw(self, p: int, count: int | None = None) -> list:
        rng = pass_rng(self.seed, p)
        Mat2 = self.ng.gamma0.Mat2
        ops = []
        for box, n in self.slots[:count]:
            M = Mat2(*rng.choice(self.pool))
            ops.append((M, M.inv(), box, n, Mat2(*_word(rng, n))))
        return ops

    def warm(self) -> None:
        identity = self.ng.gamma0.Mat2(1, 0, 0, 1)
        for box in sorted(set(self.RADII)):
            self.ng.compat.order_preserved_brute_force(identity, 2, box)

    def run(self, op):
        M, M_inv, box, n, word = op
        compat = self.ng.compat
        shortcut = (compat.check_order(M, 2), compat.check_order(M_inv, 2))
        oracle = (
            compat.order_preserved_brute_force(M, 2, box),
            compat.order_preserved_brute_force(M_inv, 2, box),
        )
        m = compat.compute_m(M, 2)
        sup, witness = compat.box_sup_phase(M, 2, box)
        A = compat.lift_k_matrix(n, word)
        inverse = compat.invert(A)
        loop = compat.compose(A, inverse)
        verdicts = [compat.check_compatibility(x).verdict for x in (A, inverse, loop)]
        return shortcut, oracle, m, sup, witness, verdicts, loop.matrix

    def check(self, op, result) -> list[str]:
        M, _, box, n, _ = op
        shortcut, oracle, m, sup, witness, verdicts, loop = result
        charges = self.ng.charges
        problems = []
        if shortcut != (True, True) or oracle != (True, True):
            problems.append(f"order check {shortcut} vs box oracle {oracle} for {M}")
        if sup != charges.phase_of_charge(witness):
            problems.append(f"box sup {sup} does not match its witness {witness}")
        if sup.sort_key() > charges.add_half_turns(m, 1).sort_key():
            problems.append(f"box {box} sup {sup} exceeds m + 1 for m = {m}")
        if verdicts != [COMPATIBLE] * 3:
            problems.append(f"level {n} lift, inverse, product: {verdicts}")
        if loop != tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)):
            problems.append(f"A composed with its inverse is not the identity at level {n}")
        return problems

    def properties(self) -> dict:
        radii = Counter(box for box, _ in self.slots)
        return {
            "box_radius_share": {
                str(b): round(c / len(self.slots), 4) for b, c in sorted(radii.items())
            },
            "oracle_share": 1.0,
        }


# ---------------------------------------------------------------------------


class SheafFiltration:
    """Verdicts, phases and HN filtration of one object on n <= 12 lines.

    Objects come in two kinds: two fifths long, three fifths short.  A
    long object carries one chain with k in 100-600 and one band with n*r
    in 100-400, at one of five sizes, both balanced (Stable, so the
    verdict scans every interval) or both with random degrees (most exit
    the scan early), plus a few short summands.  A short object carries 100-200 summands with k <= 8
    or r <= 2, half of them balanced; there sorting and filtering cost
    most.
    """

    name = "sheaf_filtration"
    size = 100
    block = 10
    tail = "p90"
    # with a fifth of the objects balanced, p90 falls mid-way through them
    KINDS = ["short"] * 6 + ["long_balanced", "long_random"] * 2
    # five sizes of long objects put p90 inside the four objects of the
    # middle size, not between two sizes; sizes stop at k = 600 so that a
    # run holds several passes
    STRATA = {"short": 10, "long_balanced": 5, "long_random": 5}
    # short summands: 45% chains, 35% bands, 20% torsion; half balanced
    SHORT_KINDS = ["chain"] * 9 + ["band"] * 7 + ["torsion"] * 4

    def __init__(self, ng, seed: int, workdir: Path) -> None:
        self.ng, self.seed = ng, seed
        rng = random.Random(seed)
        kinds = _blocks(rng, self.KINDS, self.size)
        # curve lengths and size strata are laid out per kind
        count = Counter(kinds)
        # long objects live on 8 to 12 lines, so a long band has r <= 50
        # and its rotation scans stay small beside its interval scan
        curves = {
            k: iter(_blocks(rng, list(range(1 if k == "short" else 8, 13)), c))
            for k, c in count.items()
        }
        strata = {
            k: iter(_blocks(rng, list(range(self.STRATA[k])), c)) for k, c in count.items()
        }
        self.slots = [(kind, next(curves[kind]), next(strata[kind])) for kind in kinds]
        self.labels = kinds
        self.ops = self.draw(0)

    def draw(self, p: int, count: int | None = None) -> list:
        """One object per slot.  An op also holds the summands built
        balanced, the rotation and the oracle sample's seed."""
        rng = pass_rng(self.seed, p)
        ops = []
        for kind, n, stratum in self.slots[:count]:
            # one fraction sizes both long summands, so cost rises with it
            u = _in_stratum(rng, stratum, self.STRATA[kind])
            if kind == "short":
                parts = self._shorts(rng, n, _scale(u, 100, 200))
            else:
                balanced = kind == "long_balanced"
                parts = self._shorts(rng, n, rng.randint(4, 8))
                parts.append(self._long_chain(rng, n, _scale(u, 100, 600), balanced))
                parts.append(self._long_band(rng, n, _scale(u, 100, 400), balanced))
            obj = self.ng.sheaves.SheafObject(tuple(s for s, _ in parts))
            stable = tuple(s for s, b in parts if b)
            ops.append((kind, obj, stable, rng.randint(1, 11), rng.randrange(1 << 30)))
        return ops

    def _label(self, rng: random.Random):
        Label = self.ng.sheaves.Label
        e = rng.randint(-2, 2)
        return Label.generator("a") ** e if e else Label.identity()

    # each builder returns (summand, built balanced so Stable by construction)

    def _long_chain(self, rng, n, k, balanced):
        if balanced:
            d = _stable_chain_degrees(rng, k, k // 2, 2 * k)
        else:
            d = tuple(rng.randint(-2, 2) for _ in range(k))
        return self.ng.sheaves.ChainSheaf(n, k, rng.randrange(n), d), balanced

    def _long_band(self, rng, n, length, balanced):
        r = max(1, round(length / n))
        size = n * r
        if balanced:
            d = _stable_band_degrees(rng, size, size // 2, 2 * size)
        else:
            d = tuple(rng.randint(-2, 2) for _ in range(size))
        return self.ng.sheaves.BandSheaf(n, r, d, self._label(rng), 1), balanced

    def _shorts(self, rng, n, count):
        kinds = _blocks(rng, self.SHORT_KINDS, count)
        balanced = _blocks(rng, [True, False], count)
        return [self._short(rng, n, k, b) for k, b in zip(kinds, balanced)]

    def _short(self, rng, n, kind, balanced):
        sh = self.ng.sheaves
        if kind == "chain":
            k = rng.randint(1, 8)
            if balanced:
                d = _stable_chain_degrees(rng, k, -k, 2 * k)
            else:
                d = tuple(rng.randint(-2, 2) for _ in range(k))
            return sh.ChainSheaf(n, k, rng.randrange(n), d), balanced
        if kind == "band":
            r = rng.randint(1, 2)
            if balanced:
                d = _stable_band_degrees(rng, n * r, -n * r, 2 * n * r)
                return sh.BandSheaf(n, r, d, self._label(rng), 1), True
            d = tuple(rng.randint(-2, 2) for _ in range(n * r))
            return sh.BandSheaf(n, r, d, self._label(rng), rng.randint(1, 2)), False
        if rng.random() < 0.5:
            where = sh.SmoothPoint(rng.randrange(n), rng.choice(("p", "q")))
        else:
            where = sh.NodePoint(rng.randrange(n))
        return sh.TorsionSheaf(n, where, rng.randint(1, 3)), False

    def warm(self) -> None:
        for op in self.ops:
            if op[0] == "short":
                self.run(op)
                return

    def run(self, op):
        _, obj, _, turn, _ = op
        sh, hn = self.ng.sheaves, self.ng.hn
        rows = [(sh.is_semistable(s), sh.phase(s)) for s in obj.summands]
        semistable = tuple(s for s, row in zip(obj.summands, rows) if row[0] != UNSTABLE)
        result = polygon = None
        if semistable:
            result = hn.hn_of_object(sh.SheafObject(semistable))
            polygon = hn.hn_polygon([sl.total_charge for sl in result.slices])
        rotated = sh.galois_translate(obj, turn)
        turned = [(sh.is_semistable(s), sh.phase(s)) for s in rotated.summands]
        return rows, result, polygon, turned

    def check(self, op, result) -> list[str]:
        _, obj, stable, turn, sample_seed = op
        rows, hn_result, polygon, turned = result
        sh, hn = self.ng.sheaves, self.ng.hn
        problems = []
        if Counter(rows) != Counter(turned):
            problems.append(f"rotation by {turn} changed a verdict or phase")
        # the object sorts its summands, so they are known by identity
        balanced = {id(s) for s in stable}
        for s, (verdict, _) in zip(obj.summands, rows):
            if id(s) in balanced and verdict != STABLE:
                problems.append(f"balanced {type(s).__name__} judged {verdict}")
        small = [
            (s, row[0])
            for s, row in zip(obj.summands, rows)
            if (isinstance(s, sh.ChainSheaf) and s.k <= 8)
            or (isinstance(s, sh.BandSheaf) and s.n * s.r <= 6)
        ]
        for s, verdict in random.Random(sample_seed).sample(small, min(3, len(small))):
            if isinstance(s, sh.ChainSheaf):
                expected = sh.brute_force_chain_verdict(s)
            else:
                expected = sh.brute_force_band_verdict(s)
            if verdict != expected:
                problems.append(f"{s} judged {verdict}, oracle says {expected}")
        if hn_result is not None:
            if polygon.total != hn_result.total_charge:
                problems.append("polygon does not end at the total charge")
            few = [sl.total_charge for sl in hn_result.slices[:5]]
            if hn.hn_polygon(few) != hn.brute_force_polygon(few):
                problems.append(f"hull of {few} disagrees with the subset oracle")
        return problems

    def properties(self) -> dict:
        kinds = Counter(self.labels)
        return {
            "object_kind_share": {
                k: round(c / len(self.slots), 4) for k, c in sorted(kinds.items())
            },
            "summands_per_object": round(
                sum(len(op[1].summands) for op in self.ops) / len(self.ops), 2
            ),
        }


# ---------------------------------------------------------------------------


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class _Fixtures:
    """JSON input files for the command line, written at set-up."""

    def __init__(self, ng, rng: random.Random, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.kautos, self.matrices, self.objects, self.hn_objects = [], [], [], []
        for i in range(24):
            n = LEVELS[i % len(LEVELS)]
            self.kautos.append(_write(workdir / f"kauto{i}.json", self._kauto(ng, rng, n, i)))
            self.matrices.append((n, _write(workdir / f"mat{i}.json", self._matrix(rng, n))))
        for i in range(24):
            n = rng.randint(1, 12)
            self.objects.append(_write(workdir / f"obj{i}.json", self._object(rng, n, False)))
            self.hn_objects.append(_write(workdir / f"hn{i}.json", self._object(rng, n, True)))
        # inputs that must be refused: malformed (exit 2) or impossible (exit 1)
        (workdir / "broken.json").write_text('{"n": 2,\n  "oops"\n}\n', encoding="utf-8")
        self.broken = str(workdir / "broken.json")
        self.schema = _write(workdir / "schema.json", {"n": 3})
        self.missing = str(workdir / "missing.json")
        self.unstable = _write(
            workdir / "unstable.json",
            {"n": 3, "summands": [{"type": "chain", "k": 2, "start": 0, "multideg": [2, -2]}]},
        )
        self.off_level = _write(workdir / "offlevel.json", [[2, 1], [1, 1]])

    @staticmethod
    def _kauto(ng, rng, n, i):
        size = n + 1
        if i % 3 == 0:
            # a lift of a level-n word, with the library's own amplitude certificate
            M = ng.gamma0.Mat2(*_word(rng, n))
            return ng.compat.lift_k_matrix(n, M).to_json()
        perm = list(range(1, size))
        rng.shuffle(perm)
        cols = [0] + perm
        if i % 3 == 2:
            cols[0], cols[1] = cols[1], cols[0]  # moves the point class: fails the kernel test
        matrix = [[int(cols[j] == r) for j in range(size)] for r in range(size)]
        return {"n": n, "matrix": matrix, "amplitude_M": rng.choice((None, 0, 1, 2))}

    @staticmethod
    def _matrix(rng, n):
        a, b, c, d = _word(rng, n)
        return [[a, b], [c, d]]

    @staticmethod
    def _object(rng, n, semistable_only):
        parts = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if roll < 0.5:
                k = rng.randint(1, 6)
                if semistable_only or rng.random() < 0.5:
                    d = _stable_chain_degrees(rng, k, -k, 2 * k)
                else:
                    d = tuple(rng.randint(-2, 2) for _ in range(k))
                parts.append({"type": "chain", "k": k, "start": rng.randrange(n), "multideg": list(d)})
            elif roll < 0.8:
                r = rng.randint(1, 2)
                if semistable_only or rng.random() < 0.5:
                    d = _stable_band_degrees(rng, n * r, -n * r, 2 * n * r)
                else:
                    d = tuple(rng.randint(-2, 2) for _ in range(n * r))
                parts.append({"type": "band", "r": r, "multideg": list(d), "lambda": rng.choice(("1", "a", "a^2*b^-1")), "m": 1})
            else:
                where = (
                    {"kind": "node", "index": rng.randrange(n)}
                    if rng.random() < 0.5
                    else {"kind": "smooth", "component": rng.randrange(n), "label": "p"}
                )
                parts.append({"type": "torsion", "position": where, "length": rng.randint(1, 3)})
        return {"n": n, "summands": parts}


def _slope(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return "inf"
    p, q = rng.randint(-40, 40), rng.randint(1, 40)
    return f"{p}/{q}"


class CliMix:
    """In-process `ngonstab.cli.run(argv)` over a seeded mix of all ten verbs.

    Each block of 20 requests holds every verb (the cheap level-N verbs
    twice or three times), one of them refused on purpose; about one in
    ten asks for `--format table` and a small share for `--oracle` at a
    small box or level.
    """

    name = "cli_mix"
    size = 1600
    block = 40
    tail = "p99"
    VERBS = [
        "phase-classes", "phase-classes", "cusps", "cusps",
        "reduce", "reduce", "reduce", "classify", "classify", "classify",
        "rigid", "rigid", "check-compat", "check-compat", "lift", "lift",
        "hn", "charge", "semistable", "refused",
    ]

    def __init__(self, ng, seed: int, workdir: Path) -> None:
        self.ng, self.seed, self.workdir = ng, seed, workdir
        rng = random.Random(seed)

        # the rare oracle requests make up the p99 tail, so their shares
        # and sizes are laid out in blocks like the verbs
        def share(hits: int, out_of: int):
            return iter(_blocks(rng, [True] * hits + [False] * (out_of - hits), self.size))

        oracle = {
            "phase-classes": share(3, 20),
            "check-compat": share(1, 10),
            "hn": share(3, 10),
            "semistable": share(3, 10),
        }
        table = share(1, 10)
        # the partition oracle at levels 11 and 12 is the costliest request
        # (about 4 ms): a plateau of 1.5% of the slots that holds the p99
        oracle_levels = iter(_blocks(rng, [11, 12], self.size))
        oracle_boxes = iter(_blocks(rng, [4, 5, 6], self.size))
        # a slot: (verb, --oracle, its level or box, --format table)
        self.slots = []
        for verb in _blocks(rng, self.VERBS, self.size):
            if verb == "refused":
                self.slots.append((verb, False, None, False))
                continue
            checked = verb in oracle and next(oracle[verb])
            size = None
            if checked and verb == "phase-classes":
                size = next(oracle_levels)
            elif checked and verb == "check-compat":
                size = next(oracle_boxes)
            self.slots.append((verb, checked, size, next(table)))
        self.labels = [slot[0] for slot in self.slots]
        self.ops = self.draw(0)

    def draw(self, p: int, count: int | None = None) -> list:
        """(argv, expected exit code) per slot, on fresh input files."""
        rng = pass_rng(self.seed, p)
        files = _Fixtures(self.ng, rng, self.workdir / f"pass{p}")
        refused = [
            (["hn", files.broken], 2),
            (["charge", files.schema], 2),
            (["reduce", "12", "--slope=x/y"], 2),
            (["classify", "0", "--slope=1/2"], 2),
            (["semistable", files.missing], 2),
            (["hn", files.unstable], 1),
            (["lift", "4", files.off_level], 1),
        ]
        ops = []
        for verb, checked, size, table in self.slots[:count]:
            if verb == "refused":
                argv, code = rng.choice(refused)
                ops.append((list(argv), code))
                continue
            level = str(rng.randint(1, 60))
            if verb == "phase-classes":
                argv = [verb, str(size) if checked else level]
            elif verb == "cusps":
                argv = [verb, level]
            elif verb in ("reduce", "classify", "rigid"):
                argv = [verb, level, f"--slope={_slope(rng)}"]
            elif verb == "check-compat":
                argv = [verb, rng.choice(files.kautos)]
                if checked:
                    argv += ["--box", str(size), "--seed", str(rng.randrange(100))]
            elif verb == "lift":
                n, path = rng.choice(files.matrices)
                argv = [verb, str(n), path]
            elif verb == "hn":
                argv = [verb, rng.choice(files.hn_objects)]
            else:
                argv = [verb, rng.choice(files.objects)]
            if checked:
                argv.append("--oracle")
            if table:
                argv += ["--format", "table"]
            ops.append((argv, 0))
        return ops

    def warm(self) -> None:
        seen = set()
        for op in self.ops:
            if op[0][0] not in seen:
                seen.add(op[0][0])
                self.run(op)

    def run(self, op):
        return self.ng.cli.run(op[0])

    def check(self, op, result) -> list[str]:
        return check_cli(op[0], op[1], result[0], result[1])

    def properties(self) -> dict:
        total = len(self.slots)
        verbs = Counter(self.labels)
        return {
            "verb_share": {v: round(c / total, 4) for v, c in sorted(verbs.items())},
            "refusal_share": round(verbs["refused"] / total, 4),
            "oracle_share": round(sum(slot[1] for slot in self.slots) / total, 4),
            "table_share": round(sum(slot[3] for slot in self.slots) / total, 4),
        }


def check_cli(argv: list[str], expected: int, code: int, out: str) -> list[str]:
    """Exit code as expected; on success, output that parses and agrees."""
    if code != expected:
        return [f"{argv}: exit {code}, expected {expected}"]
    if code != 0:
        return [] if out == "" or out.startswith("error:") else [f"{argv}: refusal printed {out[:60]!r}"]
    if "table" in argv:
        lines = out.splitlines()
        if not lines or (len(lines) > 1 and not all(": " in line for line in lines)):
            return [f"{argv}: malformed table output"]
        return []
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return [f"{argv}: stdout is not JSON"]
    if "--oracle" not in argv:
        return []
    verb = argv[0]
    agree = True
    if verb == "phase-classes":
        agree = payload["closed_form"] == payload["brute_force"]
    elif verb == "check-compat" and "order_oracle" in payload:
        # the sampled pairs use the window-anchored order, which a
        # determinant-one matrix may fail; only the cyclic search must agree
        oracle = payload["order_oracle"]
        agree = oracle["shortcut"] == oracle["cyclic_box_search"]
    elif verb == "hn":
        agree = payload["polygon"] == payload["polygon_oracle"]
    elif verb == "semistable":
        agree = all(
            row["oracle_verdict"] in (None, row["verdict"]) for row in payload["verdicts"]
        )
    return [] if agree else [f"{argv}: fast path and oracle disagree"]


# ---------------------------------------------------------------------------


class CliCold:
    """One interpreter per request, as a command-line user pays for it.

    The child (`cold_child.py`) times its own `import ngonstab.cli` and
    reports it on the first line of stderr; traced children also report
    their per-layer spans there.  One pass fills a run: a child shares
    nothing with the one before it, so a repeat would only add a sample.
    """

    name = "cli_cold"
    size = 120
    block = 10
    tail = "p90"
    VERBS = ["classify", "reduce", "cusps", "check-compat", "hn"]

    def __init__(self, ng, seed: int, workdir: Path) -> None:
        self.ng, self.seed, self.workdir = ng, seed, workdir
        self.slots = self.labels = _blocks(random.Random(seed), self.VERBS, self.size)
        self.child = Path(__file__).with_name("cold_child.py")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.traced = False
        self.import_ns: list[int] = []
        self.trace_reports: list[dict] = []
        self.ops = self.draw(0)

    def draw(self, p: int, count: int | None = None) -> list:
        rng = pass_rng(self.seed, p)
        files = _Fixtures(self.ng, rng, self.workdir / f"pass{p}")
        ops = []
        for verb in self.slots[:count]:
            level = str(rng.randint(1, 60))
            if verb in ("classify", "reduce"):
                argv = [verb, level, f"--slope={_slope(rng)}"]
            elif verb == "cusps":
                argv = [verb, level]
            elif verb == "check-compat":
                argv = [verb, rng.choice(files.kautos)]
            else:
                argv = [verb, rng.choice(files.hn_objects)]
            ops.append((argv, 0))
        return ops

    def warm(self) -> None:
        self.run(self.ops[0])

    def run(self, op):
        cmd = [sys.executable, str(self.child)] + (["--trace"] if self.traced else []) + op[0]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result) -> list[str]:
        code, out, err = result
        head, _, rest = err.partition("\n")
        tag, _, value = head.partition(" ")
        if tag != "import_ns" or not value.isdigit():
            return [f"{op[0]}: child did not report its import time: {err[-200:]!r}"]
        self.import_ns.append(int(value))
        if self.traced:
            line = rest.splitlines()[-1] if rest else ""
            if not line.startswith("trace "):
                return [f"{op[0]}: traced child sent no spans"]
            self.trace_reports.append(json.loads(line[len("trace "):]))
        return check_cli(op[0], op[1], code, out)

    def properties(self) -> dict:
        verbs = Counter(self.slots)
        return {"verb_share": {v: round(c / len(self.slots), 4) for v, c in sorted(verbs.items())}}


WORKLOADS = {w.name: w for w in (OrderSweep, SheafFiltration, CliMix, CliCold)}

"""Replay corpus: the exit code and output bytes of about 2,000 requests.

`_corpus` builds a seeded list of argv that covers every verb, as JSON
and as a table; `--oracle` at small sizes; every refusal the command
line prints (argparse's usage errors and help, each cap, each malformed
file, each domain error); `reduce`, `classify` and `rigid` at slopes
that are not their class's representative; and `check-compat` on
K-matrix files that `lift` wrote.  `_write_fixtures` writes the input
files into a scratch directory, and every request runs through
`cli.main` from there, by relative paths, so no scratch path reaches an
output.

`tests/data/replay.json` holds, per request, the argv, the exit code and
a digest of what the request wrote to stdout and to stderr.  The test
replays every request and names the first whose exit code or digest
differs.  argparse's help and usage text are Python's own, so the file
holds for the Python version that wrote it (3.11).

A change that moves output bytes on purpose regenerates the file, and
says in CHANGES.md which requests changed and why:

    PYTHONPATH=src python tests/test_replay.py

writes tests/data/replay.json and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from math import gcd
from pathlib import Path

from ngonstab import cli
from ngonstab.schemas import (
    MAX_BOX,
    MAX_INT_DIGITS,
    MAX_K_N,
    MAX_N,
    MAX_ORACLE_CHAIN,
    MAX_ORACLE_LEVEL,
    MAX_ORACLE_SUMMANDS,
    MAX_ORACLE_VERDICTS,
)

EXPECTED = Path(__file__).parent / "data" / "replay.json"
SEED = 15
LEVELS = (1, 2, 3, 4, 5, 6, 8, 9, 12)


def _write(where: Path, name: str, payload) -> str:
    (where / name).write_text(json.dumps(payload), encoding="utf-8")
    return name


def _staircase(length: int, total: int) -> list[int]:
    """Degrees whose window sums are as even as total/length allows."""
    return [(total * (t + 1)) // length - (total * t) // length for t in range(length)]


def _coprime(rng: random.Random, lo: int, hi: int, to: int) -> int:
    while True:
        x = rng.randint(lo, hi)
        if gcd(x, to) == 1:
            return x


def _chain(rng: random.Random, n: int, stable: bool) -> dict:
    k = rng.randint(1, 6)
    if stable:
        # a staircase of chi r coprime to k, with the last step lowered
        r = _coprime(rng, -k, 2 * k, k)
        prefix = [r * t // k for t in range(k)] + [r - 1]
        degrees = [prefix[t + 1] - prefix[t] for t in range(k)]
    else:
        degrees = [rng.randint(-2, 2) for _ in range(k)]
    return {"type": "chain", "k": k, "start": rng.randrange(n), "multideg": degrees}


def _band(rng: random.Random, n: int, stable: bool) -> dict:
    r = rng.randint(1, 2)
    size = n * r
    if stable:
        degrees = _staircase(size, _coprime(rng, -size, 2 * size, size))
        turn = rng.randrange(size)
        degrees = degrees[turn:] + degrees[:turn]
    else:
        degrees = [rng.randint(-2, 2) for _ in range(size)]
    label = rng.choice(("1", "a", "a^-1", "a^2*b^-1", "b*a"))
    return {"type": "band", "r": r, "multideg": degrees, "lambda": label, "m": rng.randint(1, 2)}


def _torsion(rng: random.Random, n: int) -> dict:
    if rng.random() < 0.5:
        where = {"kind": "node", "index": rng.randrange(n)}
    else:
        where = {"kind": "smooth", "component": rng.randrange(n), "label": rng.choice("pq")}
    return {"type": "torsion", "position": where, "length": rng.randint(1, 3)}


def _object(rng: random.Random, stable: bool) -> dict:
    n = rng.randint(1, 8)
    parts = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(_chain(rng, n, stable or rng.random() < 0.5))
        elif roll < 0.8:
            parts.append(_band(rng, n, stable or rng.random() < 0.5))
        else:
            parts.append(_torsion(rng, n))
    return {"n": n, "summands": parts}


def _word(rng: random.Random, n: int) -> list[list[int]]:
    """A product of T^{+-1, +-2} and V^{+-n}: a matrix of Gamma0(n)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            m = rng.choice((-2, -1, 1, 2))
            b, d = a * m + b, c * m + d
        else:
            m = n * rng.choice((-1, 1))
            a, c = a + b * m, c + d * m
    return [[a, b], [c, d]]


def _permutation(rng: random.Random, n: int, moves_point: bool) -> dict:
    cols = [0] + rng.sample(range(1, n + 1), n)
    if moves_point:
        cols[0], cols[1] = cols[1], cols[0]
    matrix = [[int(cols[j] == r) for j in range(n + 1)] for r in range(n + 1)]
    return {"n": n, "matrix": matrix, "amplitude_M": rng.choice((None, 0, 1))}


NODE = {"kind": "node", "index": 0}
POINT = {"type": "torsion", "position": NODE, "length": 1}
CHAIN = {"type": "chain", "k": 2, "start": 0, "multideg": [0, 0]}
BAND = {"type": "band", "r": 1, "multideg": [0, 0], "lambda": "1"}
BIG = 10**MAX_INT_DIGITS

# Files each refused as malformed (exit 2) by the verbs that read them.
BAD_OBJECTS = [
    [],
    {"n": 3},
    {"n": 2, "summands": {}},
    {"n": 2, "summands": [7]},
    {"n": 2, "summands": []},
    {"n": 0, "summands": [POINT]},
    {"n": -3, "summands": [POINT]},
    {"n": True, "summands": [POINT]},
    {"n": MAX_N + 1, "summands": [POINT]},
    {"n": 2, "summands": [{"type": "line"}]},
    {"n": 2, "summands": [{"type": "chain"}]},
    {"n": 2, "summands": [{**CHAIN, "k": 0, "multideg": []}]},
    {"n": 2, "summands": [{**CHAIN, "multideg": [0]}]},
    {"n": 2, "summands": [{**CHAIN, "multideg": [True, 0]}]},
    {"n": 2, "summands": [{**CHAIN, "multideg": "00"}]},
    {"n": 2, "summands": [{**CHAIN, "multideg": [BIG, 0]}]},
    {"n": 2, "summands": [{**CHAIN, "k": MAX_N + 1, "multideg": [0]}]},
    {"n": 2, "summands": [{**CHAIN, "start": 0.5}]},
    {"n": 2, "summands": [{**BAND, "r": 0, "multideg": []}]},
    {"n": 2, "summands": [{**BAND, "r": True}]},
    {"n": 2, "summands": [{**BAND, "m": 0}]},
    {"n": 2, "summands": [{**BAND, "multideg": [0]}]},
    {"n": 2, "summands": [{**BAND, "r": MAX_N // 2 + 1, "multideg": [0]}]},
    {"n": 2, "summands": [{**BAND, "lambda": 1}]},
    {"n": 2, "summands": [{**BAND, "lambda": "a^x"}]},
    {"n": 2, "summands": [{**BAND, "lambda": "a^1_2"}]},
    {"n": 2, "summands": [{**BAND, "lambda": "a^" + "1" * (MAX_INT_DIGITS + 1)}]},
    {"n": 2, "summands": [{**POINT, "length": 0}]},
    {"n": 2, "summands": [{**POINT, "length": True}]},
    {"n": 2, "summands": [{**POINT, "position": 3}]},
    {"n": 2, "summands": [{**POINT, "position": {"kind": "cusp"}}]},
    {"n": 2, "summands": [{**POINT, "position": {"kind": "node", "index": False}}]},
    {"n": 2, "summands": [{**POINT, "position": {"kind": "smooth", "component": 0}}]},
    {"n": 2, "summands": [{**POINT, "position": {"kind": "smooth", "component": 0, "label": 5}}]},
    {"n": 1, "summands": [{**BAND, "multideg": [10**4290], "m": 10**4290}]},
]
BAD_MATRICES = [
    [[1, 0], [4]],
    [[True, 0], [4, True]],
    {"a": 1},
    [[1, 0], [4 * BIG, 1]],
    [[1, 0.5], [4, 1]],
]
BAD_KMATRICES = [
    [],
    {"n": 3},
    {"n": True, "matrix": [[1, 0], [0, 1]], "amplitude_M": 0},
    {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": True},
    {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": BIG},
    {"n": 0, "matrix": [[1]], "amplitude_M": 0},
    {"n": MAX_K_N + 1, "matrix": [], "amplitude_M": 1},
    {"n": 2, "matrix": [[1, 0, 0], [0, 1, 0]], "amplitude_M": 0},
    {"n": 2, "matrix": [[1, 0, 0], [0, 1], [0, 0, 1]], "amplitude_M": 0},
    {"n": 2, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]], "amplitude_M": 0},
    {"n": 2, "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 1]], "amplitude_M": 0},
    {"n": 2, "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 1]], "amplitude_M": 0},
    {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": "0"},
    {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": 7},
]


def _write_fixtures(where: Path) -> dict[str, list]:
    """Write the corpus's input files into `where`; return their names,
    keyed by kind, with each matrix's level."""
    rng = random.Random(f"{SEED}/files")
    files: dict[str, list] = {"objects": [], "stable": [], "matrices": [], "kmatrices": []}
    for i in range(56):
        files["objects"].append(_write(where, f"obj{i}.json", _object(rng, False)))
        files["stable"].append(_write(where, f"hn{i}.json", _object(rng, True)))
    for i in range(36):
        n = LEVELS[i % len(LEVELS)]
        name = _write(where, f"mat{i}.json", _word(rng, n))
        files["matrices"].append((n, name))
        # a K-matrix as `lift` writes it, and permutations, half of which
        # move the point class
        code, text = cli.run(["lift", str(n), str(where / name)])
        assert code == 0, text
        (where / f"lift{i}.json").write_text(text, encoding="utf-8")
        files["kmatrices"].append(f"lift{i}.json")
        files["kmatrices"].append(_write(where, f"perm{i}.json", _permutation(rng, n, i % 2 == 1)))
    files["bad_objects"] = [_write(where, f"bad_obj{i}.json", x) for i, x in enumerate(BAD_OBJECTS)]
    files["bad_matrices"] = [_write(where, f"bad_mat{i}.json", x) for i, x in enumerate(BAD_MATRICES)]
    files["bad_kmatrices"] = [
        _write(where, f"bad_k{i}.json", x) for i, x in enumerate(BAD_KMATRICES)
    ]
    # determinant work above the cap, refused before the determinant
    top = BIG - 1
    dense = [[rng.randint(-top, top) for _ in range(41)] for _ in range(41)]
    files["bad_kmatrices"].append(_write(where, "dense.json", {"n": 40, "matrix": dense, "amplitude_M": 0}))
    raw = {
        "broken.json": b'{"n": 2,\n  "oops"\n}\n',
        "latin1.json": b"\xff\xfe{}",
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
        "long_int.json": b'{"n": 2, "summands": [' + b"7" * 5000 + b"]}",
        "empty.json": b"",
    }
    for name, content in raw.items():
        (where / name).write_bytes(content)
    files["unreadable"] = [*raw, "missing.json", "."]
    _write(where, "unstable.json", {"n": 3, "summands": [{**CHAIN, "multideg": [2, -2]}]})
    _write(where, "many_points.json", {"n": 2, "summands": [POINT] * (MAX_ORACLE_SUMMANDS + 1)})
    _write(where, "many_verdicts.json", {"n": 2, "summands": [POINT] * (MAX_ORACLE_VERDICTS + 1)})
    chains = [{**CHAIN, "k": k, "multideg": [0] * k} for k in (MAX_ORACLE_CHAIN, MAX_ORACLE_CHAIN + 1)]
    _write(where, "long_chains.json", {"n": 3, "summands": chains})
    _write(where, "off_level.json", [[2, 1], [1, 1]])
    return files


def _slope(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(("inf", "oo", " inf ", "1/0", "-3/0"))
    if roll < 0.15:
        return str(rng.randint(-9, 9))
    # a fraction not in lowest terms half the time
    p, q, g = rng.randint(-40, 40), rng.randint(1, 40), rng.choice((1, 1, 2, 3))
    return f"{p * g}/{q * g}"


def _slope_flag(rng: random.Random, slope: str) -> list[str]:
    return [f"--slope={slope}"] if rng.random() < 0.7 else ["--slope", slope]


def _table(rng: random.Random, argv: list[str], share: float = 0.3) -> list[str]:
    if rng.random() < share:
        return argv + (["--format", "table"] if rng.random() < 0.5 else ["--format=table"])
    return argv


def _refusals(files: dict[str, list]) -> list[list[str]]:
    """Every refusal path of the command line, once or a few times each."""
    k, obj, mat = "lift0.json", "hn0.json", "mat0.json"
    argvs = [
        # argparse: help, usage errors, unknown and misplaced flags
        [], ["-h"], ["--help"], ["no-such-verb"], ["phase-classes"],
        *[[verb, "-h"] for verb in cli._VERBS],
        ["phase-classes", "0"], ["phase-classes", "-3"], ["phase-classes", "x"],
        ["phase-classes", "1_2"], ["phase-classes", "٣"], ["phase-classes", "1.0"],
        ["phase-classes", str(MAX_N + 1)], ["phase-classes", str(10**18 + 3)],
        ["phase-classes", "1" * (MAX_INT_DIGITS + 1)],
        ["phase-classes", "6", "7"], ["phase-classes", "6", "--", "7"],
        ["cusps", "4", "--oracle"], ["cusps", "4", "--format", "xml"],
        ["cusps", "4", "--format"], ["cusps", "4", "--form", "table"],
        ["reduce", "6"], ["reduce", "6", "--slope"], ["reduce", "7", "--slo", "1/2"],
        ["reduce", "6", "--slope=1/2", "--box", "5"],
        ["reduce", str(MAX_N + 1), "--slope=1/2"],
        ["classify", "0", "--slope=1/2"], ["rigid", "-1", "--slope=1/2"],
        ["check-compat"], ["check-compat", k, "--bo", "4"],
        ["check-compat", k, "--box", str(MAX_BOX + 1)], ["check-compat", k, "--box", "0"],
        ["check-compat", k, "--box", "1_0"], ["check-compat", k, "--seed", "x"],
        ["check-compat", k, "--seed", " 7"], ["check-compat", k, "--oracle=1"],
        ["charge", obj, "--seed", "3"], ["charge"], ["charge", obj, obj],
        ["lift", "4", mat, "--oracle"], ["lift", str(MAX_K_N + 1), mat], ["lift", "4"],
        ["hn", obj, "--box", "3"], ["semistable", obj, "--oracle", "--oracle"],
        # caps and malformed text past argparse
        ["phase-classes", str(MAX_ORACLE_LEVEL + 1), "--oracle"],
        ["classify", "317", "--slope=inf"], ["rigid", "317", "--slope=inf"],
        *[["reduce", "12", f"--slope={s}"] for s in (
            "sideways", "0/0", "1/2/3", "x/y", "1_2/5", "5/１", "",
            "1" * (MAX_INT_DIGITS + 1) + "/7", "7/-" + "1" * 5000,
        )],
        ["hn", "many_points.json", "--oracle"],
        ["semistable", "many_verdicts.json", "--oracle"],
    ]
    for name in files["unreadable"]:
        argvs += [["charge", name], ["hn", name], ["check-compat", name], ["lift", "4", name]]
    for name in files["bad_objects"]:
        argvs += [["charge", name], ["semistable", name], ["hn", name]]
    for name in files["bad_matrices"]:
        argvs.append(["lift", "4", name])
    for name in files["bad_kmatrices"]:
        argvs.append(["check-compat", name])
    # domain errors: exit 1
    argvs += [
        ["hn", "unstable.json"], ["hn", "unstable.json", "--oracle"],
        ["lift", "4", "off_level.json"], ["lift", "3", "mat3.json"],
        ["lift", "5", "off_level.json", "--format", "table"],
    ]
    return argvs


def _corpus(files: dict[str, list]) -> list[list[str]]:
    """The seeded requests, in order."""
    rng = random.Random(SEED)
    argvs = []
    for n in range(1, 61):
        argvs.append(_table(rng, ["phase-classes", str(n)], 0.2))
    for n in range(1, MAX_ORACLE_LEVEL + 1, 7):
        argvs.append(["phase-classes", str(n), "--oracle"])
    argvs += [["phase-classes", str(MAX_N)], ["phase-classes", "+12"]]
    for n in range(1, 41):
        argvs.append(_table(rng, ["cusps", str(n)]))
    for verb, count in (("reduce", 300), ("classify", 300), ("rigid", 240)):
        for _ in range(count):
            n = rng.randint(1, 40)
            argvs.append(_table(rng, [verb, str(n), *_slope_flag(rng, _slope(rng))]))
    # argv orders and spellings the reader and argparse both take
    argvs += [
        ["reduce", "--slope", "7/10", "12"], ["reduce", "+12", "--slope=-3/+4"],
        ["classify", "--format=table", "6", "--slope=1/2"],
        ["rigid", "6", "--slope=1/2", "--slope=2/4"],
        ["classify", "316", "--slope=1/316"], ["rigid", str(MAX_N), "--slope=1/2"],
    ]
    for n, name in files["matrices"]:
        argvs.append(_table(rng, ["lift", str(n), name]))
    for name in files["kmatrices"]:
        argvs.append(_table(rng, ["check-compat", name]))
        box = rng.randint(1, 6)
        argvs.append(_table(rng, ["check-compat", name, "--oracle", "--box", str(box)]))
        argvs.append(["check-compat", "--seed", str(rng.randrange(-5, 100)), name, "--box=3"])
    for name in files["objects"] + files["stable"]:
        for verb in ("charge", "semistable", "hn"):
            argvs.append(_table(rng, [verb, name]))
        argvs.append(_table(rng, ["semistable", name, "--oracle"]))
        argvs.append(_table(rng, ["hn", "--oracle", name]))
    argvs.append(["semistable", "long_chains.json", "--oracle"])
    argvs.append(["hn", "many_points.json"])
    return argvs + _refusals(files)


def _replay(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(out: str, err: str) -> str:
    both = f"{len(out)}:{out}{err}".encode("utf-8", "backslashreplace")
    return hashlib.sha256(both).hexdigest()[:20]


def _run_corpus(where: Path) -> list[tuple[list[str], int, str, str]]:
    """(argv, exit code, stdout, stderr) per request, run from `where`."""
    files = _write_fixtures(where)
    home = os.getcwd()
    os.chdir(where)
    try:
        return [(argv, *_replay(argv)) for argv in _corpus(files)]
    finally:
        os.chdir(home)


def test_every_request_replays_its_bytes(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    runs = _run_corpus(tmp_path)
    assert [r[0] for r in runs] == [e[0] for e in expected], "the corpus changed: regenerate it"
    for (argv, code, out, err), (_, want, digest) in zip(runs, expected):
        if (code, _digest(out, err)) != (want, digest):
            raise AssertionError(
                f"first request that changed: {argv}\n"
                f"exit {code} (expected {want}); output starts {(out or err).splitlines()[:3]}"
            )


def test_the_corpus_covers_every_verb_and_exit_code():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert 1_800 <= len(expected) <= 2_400
    seen = {(argv[0], "--oracle" in argv, bool({"table", "--format=table"} & set(argv)), code)
            for argv, code, _ in expected if argv and argv[0] in cli._VERBS}
    for verb in cli._VERBS:
        assert {(verb, False, False, 0), (verb, False, True, 0)} <= seen, verb
        assert any(v == verb and code == 2 for v, _, _, code in seen), verb
    for verb in ("phase-classes", "check-compat", "hn", "semistable"):
        assert (verb, True, False, 0) in seen, verb
    assert {code for _, code, _ in expected} == {0, 1, 2}


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as where:
        records = [[argv, code, _digest(out, err)] for argv, code, out, err in _run_corpus(Path(where))]
    lines = ",\n".join(json.dumps(record) for record in records)
    EXPECTED.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} requests to {EXPECTED}")


if __name__ == "__main__":
    _regenerate()

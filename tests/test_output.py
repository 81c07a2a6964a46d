"""The command line prints exactly what json.dumps(payload, indent=2) prints.

`cli._dumps` writes the payload in one walk; json.dumps is its oracle.
The property tests draw payloads of every type a payload may hold, and
the end-to-end tests run every golden command and every fixture through
each verb that reads it, so a verb added later is covered as well.
`classify` and `rigid` write their rigid points from one chain of the
orbit; json.dumps of the payload the table path builds is their oracle.
"""

from __future__ import annotations

import enum
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ngonstab.cli import _VERBS, _dumps, _read, run
from ngonstab.gamma0 import enumerate_cusp_classes
from test_cli import GOLDEN_CASES

DATA = pathlib.Path(__file__).parent / "data"

texts = st.text() | st.sampled_from(
    ["", "E₂", '"', "\\", "\x00\x1f\x7f", " ", "\ud800", "a\"b\\c\nd\te"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**100), 10**100)
    | texts
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(texts, inner),
    max_leaves=40,
)


@given(payloads)
@settings(max_examples=200)
def test_dumps_matches_json(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)


class Colour(enum.IntEnum):
    RED = 1


unencodable = (
    st.floats()
    | st.sampled_from([object(), {1, 2}, b"x", Fraction(1, 2), 1j, Colour.RED])
)
bad_keys = st.integers() | st.none() | st.booleans() | st.floats() | st.just((1, 2))


@given(payloads, unencodable, bad_keys, st.integers(0, 3))
def test_anything_else_raises_type_error(payload, bad, key, where):
    wrapped = [
        bad,
        [payload, bad],
        {"payload": payload, "bad": bad},
        {"payload": payload, key: 0},
    ][where]
    with pytest.raises(TypeError):
        _dumps(wrapped)


def assert_json_as_json_prints_it(argv):
    code, text = run(argv)
    assert code == 0, (argv, text)
    assert text == json.dumps(json.loads(text), indent=2) + "\n", argv


@pytest.mark.parametrize(
    "argv", [argv for _, argv in GOLDEN_CASES if "table" not in argv], ids=str
)
def test_golden_commands(argv):
    assert_json_as_json_prints_it(argv)


# every verb that reads a file, with its flags
FILE_VERBS = {
    verb: [name for name, _ in arguments]
    for verb, (_, _, arguments) in _VERBS.items()
    if any(name == "file" for name, _ in arguments)
}


def file_runs(verb: str, path: str):
    """Each argv of verb on path: every level 1-12 it takes, each box 1-3
    and the oracle off and on where the verb has them."""
    names = FILE_VERBS[verb]
    levels = [[str(n)] for n in range(1, 13)] if "n" in names else [[]]
    flags = [[]]
    if "--oracle" in names:
        flags.append(["--oracle"])
    if "--box" in names:
        flags += [["--oracle", "--box", str(box)] for box in (1, 2, 3)]
    return [[verb, *level, path, *flag] for level in levels for flag in flags]


# replay.json holds test_replay's expectations, not an input
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json") if p.name != "replay.json"))
def test_every_fixture_through_each_verb_that_reads_it(name):
    path = str(DATA / name)
    read = 0
    for verb in FILE_VERBS:
        for argv in file_runs(verb, path):
            code, text = run(argv)
            if code == 0:
                read += 1
                assert text == json.dumps(json.loads(text), indent=2) + "\n", argv
    assert read or name == "broken.json"


def assert_rigid_orbit_as_json_prints_it(argv):
    # --format table builds the full payload, n chain dicts and all
    args = _read([*argv, "--format", "table"])
    assert run(argv) == (0, json.dumps(args.func(args), indent=2) + "\n"), argv


def test_every_class_at_levels_up_to_60_prints_its_rigid_orbit():
    for n in range(1, 61):
        for cls in enumerate_cusp_classes(n):
            for verb in ("classify", "rigid"):
                assert_rigid_orbit_as_json_prints_it([verb, str(n), f"--slope={cls.a}/{cls.c}"])


def test_seeded_slopes_print_their_rigid_orbit():
    rng = random.Random(30)
    for _ in range(2000):
        n, p, q = rng.randint(1, 60), rng.randint(-40, 40), rng.randint(1, 40)
        verb = rng.choice(("classify", "rigid"))
        assert_rigid_orbit_as_json_prints_it([verb, str(n), f"--slope={p}/{q}"])


@pytest.mark.parametrize(
    "argv",
    [
        # n*s = 99,856, just under MAX_RIGID_DEGREES, and n at MAX_N
        ["classify", "316", "--slope=1/316"],
        ["classify", "10000", "--slope=1/2"],
        # one point, one component
        ["rigid", "1", "--slope=40/1"],
    ],
    ids=str,
)
def test_rigid_orbit_at_the_caps(argv):
    assert_rigid_orbit_as_json_prints_it(argv)

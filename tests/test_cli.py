from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ngonstab
from ngonstab.cli import _build_parser, main, run
from ngonstab.moduli import enumerate_rigid
from ngonstab.schemas import (
    MAX_DET_WORK,
    MAX_INT_DIGITS,
    MAX_K_N,
    MAX_N,
    MAX_ORACLE_BAND,
    MAX_ORACLE_CHAIN,
    MAX_ORACLE_LEVEL,
    MAX_ORACLE_SUMMANDS,
    MAX_ORACLE_VERDICTS,
    MAX_RIGID_DEGREES,
)

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def data(name: str) -> str:
    return str(DATA / name)


def timed_run(argv):
    start = time.perf_counter()
    code, text = run(argv)
    return code, text, time.perf_counter() - start


GOLDEN_CASES = [
    ("phase_classes_6.txt", ["phase-classes", "6"]),
    ("cusps_4.txt", ["cusps", "4"]),
    ("reduce_12.txt", ["reduce", "12", "--slope", "7/10"]),
    ("classify_6.txt", ["classify", "6", "--slope", "1/2"]),
    ("check_compat_iota3.txt", ["check-compat", data("iota3.json")]),
    ("hn_chain_plus_point.txt", ["hn", data("chain_plus_point.json")]),
    (
        "charge_table.txt",
        ["charge", data("chain_plus_point.json"), "--format", "table"],
    ),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES)
def test_golden_outputs(golden_name, argv):
    code, text = run(argv)
    assert code == 0
    assert text == (GOLDEN / golden_name).read_text()


def test_scalar_payload_prints_bare():
    for fmt in ("json", "table"):
        code, text = run(["phase-classes", "6", "--format", fmt])
        assert (code, text) == (0, "4\n")


def test_runs_are_deterministic():
    assert run(["classify", "12", "--slope", "5/6"]) == run(
        ["classify", "12", "--slope", "5/6"]
    )


# one argv sequence over every verb, help at both levels, unknown verbs
# and flags, tables, oracles and refusals exiting 1 and 2; flags set by
# one line must not leak into the next line of the same verb
REUSE_SEQUENCE = [
    ["-h"],
    ["phase-classes", "6"],
    ["phase-classes", "8", "--oracle"],
    ["cusps", "4", "--format", "table"],
    ["reduce", "12", "--slope", "7/10"],
    ["reduce", "12", "--slope=x/y"],
    ["classify", "--help"],
    ["classify", "6", "--slope", "1/2", "--format", "table"],
    ["classify", "6", "--slope", "1/2"],
    ["rigid", "12", "--slope", "5/6"],
    ["check-compat", data("iota3.json"), "--oracle", "--box", "4", "--seed", "3"],
    ["check-compat", data("iota3.json")],
    ["check-compat", "-h"],
    ["lift", "4", data("gamma0_4.json")],
    ["lift", "3", data("gamma0_4.json")],
    ["hn", data("chain_plus_point.json"), "--oracle"],
    ["hn", data("unstable_chain.json")],
    ["charge", data("chain_plus_point.json"), "--format", "table"],
    ["charge", data("broken.json")],
    ["semistable", data("chain_plus_point.json"), "--oracle"],
    ["semistable", data("chain_plus_point.json")],
    ["no-such-verb", "4"],
    ["cusps", "4", "--oracle"],
    ["reduce", "7", "--slo", "1/2"],
    ["phase-classes", "0"],
    ["--help"],
    [],
    ["cusps", "4"],
]


def _streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_a_process_as_fresh_ones_would():
    fresh = []
    for argv in REUSE_SEQUENCE:
        _build_parser.cache_clear()
        fresh.append(_streams(argv))
    _build_parser.cache_clear()
    reused = [_streams(argv) for argv in REUSE_SEQUENCE]
    assert _build_parser.cache_info().misses == 1
    assert reused == fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2}


# ---------------------------------------------------------------------------
# verbs with oracles


def test_phase_classes_oracle_agrees():
    code, text = run(["phase-classes", "8", "--oracle"])
    assert code == 0
    payload = json.loads(text)
    assert payload["closed_form"] == payload["brute_force"] == 4


def test_check_compat_oracle_section():
    argv = ["check-compat", data("iota3.json"), "--oracle", "--box", "10"]
    code, text = run([*argv, "--seed", "3"])
    assert code == 0
    oracle = json.loads(text)["order_oracle"]
    assert oracle == {"shortcut": True, "cyclic_box_search": True}
    # --seed still parses, and its value changes nothing
    assert run(argv) == (code, text) == run([*argv, "--seed", "-7"])


def test_check_compat_oracle_agrees_on_a_compatible_matrix(tmp_path):
    # a determinant-one matrix that fails the window-anchored order: the
    # box search must test the cyclic order, as the shortcut does
    path = tmp_path / "kauto.json"
    path.write_text('{"n": 1, "matrix": [[-2, -1], [5, 2]], "amplitude_M": 1}')
    code, text = run(["check-compat", str(path), "--oracle"])
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Compatible-by-criterion"
    oracle = payload["order_oracle"]
    assert oracle == {"shortcut": True, "cyclic_box_search": True}


def test_semistable_with_oracle():
    code, text = run(["semistable", data("chain_plus_point.json"), "--oracle"])
    assert code == 0
    rows = json.loads(text)["verdicts"]
    assert [r["verdict"] for r in rows] == ["Stable", "StrictlySemistable"]
    assert all(r["oracle_verdict"] == r["verdict"] for r in rows)


def test_semistable_oracle_on_bands():
    # by sort order: a band on the 1-cycle, one with m = 2, one whose
    # period 2 is below r = 4, and one with n*r above MAX_ORACLE_BAND
    assert 1 * 7 > MAX_ORACLE_BAND >= 1 * 4
    code, text = run(["semistable", data("bands.json"), "--oracle"])
    assert code == 0
    rows = json.loads(text)["verdicts"]
    assert [r["verdict"] for r in rows] == [
        "Stable", "StrictlySemistable", "Unstable", "Stable"
    ]
    assert [r["oracle_verdict"] for r in rows] == [r["verdict"] for r in rows[:3]] + [None]


def test_hn_oracle_polygon_agrees():
    code, text = run(["hn", data("chain_plus_point.json"), "--oracle"])
    assert code == 0
    payload = json.loads(text)
    assert payload["polygon"] == payload["polygon_oracle"]


def test_lift_round_trips_through_files():
    code, text = run(["lift", "4", data("gamma0_4.json")])
    assert code == 0
    payload = json.loads(text)
    assert payload["n"] == 4
    assert payload["amplitude_M"] == 1
    # the lifted matrix descends to the input
    assert [row[:2] for row in payload["matrix"][:1]] == [[1, 1]]


def test_rigid_verb():
    code, text = run(["rigid", "2", "--slope", "inf"])
    assert code == 0
    points = json.loads(text)["rigid_points"]
    assert len(points) == 2
    assert {p["start"] for p in points} == {0, 1}


# ---------------------------------------------------------------------------
# failure modes


def test_domain_error_exits_one():
    code, text = run(["lift", "3", data("gamma0_4.json")])
    assert code == 1
    assert text.startswith("error:")


def test_unstable_hn_exits_one():
    code, text = run(["hn", data("unstable_chain.json")])
    assert code == 1
    assert "refine" in text


def test_malformed_json_exits_two_with_position():
    code, text = run(["charge", data("broken.json")])
    assert code == 2
    assert "malformed JSON at line 3, column 1" in text


def test_missing_file_exits_two():
    code, text = run(["charge", data("no_such_file.json")])
    assert code == 2
    assert "error:" in text


def test_schema_error_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    for content, message in [
        (b'{"n": 2, "summands": [{"type": "chain"}]}', "missing field"),
        (b"\xff\xfe{}", "can't decode byte 0xff"),  # not UTF-8
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        # refused before conversion, past Python's own 4,300-digit limit
        (b'{"n": 2, "summands": [' + b"7" * 5000 + b"]}", f"cap of {MAX_INT_DIGITS} digits"),
        (
            b'{"n": 2, "summands": [{"type": "band", "r": 1, "multideg": [0, 0], "lambda": 1}]}',
            "error: label must be a string\n",
        ),
        (
            b'{"n": 2, "summands": [{"type": "torsion", "length": 1, "position":'
            b' {"kind": "smooth", "component": 0, "label": 5}}]}',
            "error: smooth position label must be a string\n",
        ),
    ]:
        bad.write_bytes(content)
        for verb in ("charge", "semistable"):
            code, text = run([verb, str(bad)])
            assert code == 2, (verb, text)
            assert message in text


def test_bad_slope_exits_two():
    code, text = run(["reduce", "6", "--slope", "sideways"])
    assert code == 2
    for slope in ["1" * 101 + "/7", "7/-" + "1" * 5000]:
        code, text = run(["reduce", "12", f"--slope={slope}"])
        assert code == 2
        assert text == f"error: integer above the cap of {MAX_INT_DIGITS} digits\n"


def _torsion(n, position, length):
    return {"n": n, "summands": [{"type": "torsion", "position": position, "length": length}]}


NODE = {"kind": "node", "index": 0}
BOOLEAN_CASES = [
    pytest.param("semistable", {"n": 2, "summands": [
        {"type": "chain", "k": 2, "start": 0, "multideg": [True, 0]}]}, id="chain-multideg"),
    pytest.param("hn", {"n": 2, "summands": [
        {"type": "band", "r": True, "multideg": [0, 0], "lambda": "1"}]}, id="band-r"),
    pytest.param("charge", _torsion(True, NODE, True), id="object-n"),
    pytest.param("charge", _torsion(2, NODE, True), id="torsion-length"),
    pytest.param("charge", _torsion(2, {"kind": "node", "index": False}, 1), id="node-index"),
    pytest.param("lift", [[True, 0], [4, True]], id="mat2-entries"),
    pytest.param("check-compat", {"n": True, "matrix": [[1, 0], [0, 1]], "amplitude_M": 0},
                 id="kauto-n"),
    pytest.param("check-compat", {"n": 1, "matrix": [[1, 0], [0, 1]], "amplitude_M": True},
                 id="kauto-amplitude"),
]


@pytest.mark.parametrize("verb,doc", BOOLEAN_CASES)
def test_json_booleans_are_not_integers(tmp_path, capsys, verb, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [verb, "4", str(path)] if verb == "lift" else [verb, str(path)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "true" not in out.out + out.err


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("verb", ["charge", "hn", "semistable"])
def test_non_positive_n_is_malformed(tmp_path, capsys, verb, n):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_torsion(n, NODE, 1)))
    assert main([verb, str(path)]) == 2
    assert "n must be positive" in capsys.readouterr().err


def test_curve_size_is_capped(tmp_path, capsys):
    path = tmp_path / "input.json"
    # the cap itself is cheap: its K-class lists MAX_N ranks
    path.write_text(json.dumps(_torsion(MAX_N, NODE, 1)))
    code, text = run(["charge", str(path)])
    assert code == 0
    assert len(json.loads(text)["k_class"]["ranks"]) == MAX_N
    path.write_text(json.dumps(_torsion(MAX_N + 1, NODE, 1)))
    assert main(["charge", str(path)]) == 2
    assert f"cap of {MAX_N}" in capsys.readouterr().err
    # many summands at the cap: the K-class is one pass, so 2,000 points
    # cost about 0.03 s, and one length-n pass per summand exceeds the bound
    point = {"type": "torsion", "position": NODE, "length": 1}
    path.write_text(json.dumps({"n": MAX_N, "summands": [point] * 2000}))
    code, text, seconds = timed_run(["charge", str(path)])
    assert code == 0 and json.loads(text)["k_class"]["chi"] == 2000
    assert seconds < 0.4


def _big_band(value):
    band = {"type": "band", "r": 1, "multideg": [value], "lambda": "1", "m": value}
    return {"n": 1, "summands": [band]}


@pytest.mark.parametrize("verb", ["charge", "hn"])
def test_integer_magnitude_is_capped(verb, tmp_path, capsys):
    path = tmp_path / "input.json"
    # chi = -m * degree would print 8,581 digits, past the 4,300 that
    # Python converts to text
    path.write_text(json.dumps(_big_band(10**4290)))
    assert main([verb, str(path)]) == 2
    assert f"cap of {MAX_INT_DIGITS} digits" in capsys.readouterr().err
    # the cap itself is accepted, and so is its product
    cap = 10**MAX_INT_DIGITS - 1
    path.write_text(json.dumps(_big_band(cap)))
    code, text = run([verb, str(path)])
    assert code == 0 and str(cap * cap) in text


def test_matrix_integers_are_capped(tmp_path):
    path = tmp_path / "input.json"
    big = 10**MAX_INT_DIGITS
    refusal = f"error: integer above the cap of {MAX_INT_DIGITS} digits\n"
    path.write_text(json.dumps([[1, 0], [4 * big, 1]]))
    assert run(["lift", "4", str(path)]) == (2, refusal)
    path.write_text(json.dumps([[1, 0], [4 * (big // 10), 1]]))
    assert run(["lift", "4", str(path)])[0] == 0
    # refused before the determinant, which on a dense matrix at the size
    # cap takes seconds even with one-digit entries
    rng = random.Random(3)
    dense = [[rng.randint(-9, 9) for _ in range(MAX_K_N + 1)] for _ in range(MAX_K_N + 1)]
    dense[MAX_K_N][0] = -(10**4000)
    path.write_text(json.dumps({"n": MAX_K_N, "matrix": dense, "amplitude_M": 0}))
    code, text, seconds = timed_run(["check-compat", str(path)])
    assert (code, text) == (2, refusal) and seconds < 0.5
    with open(data("iota3.json")) as fh:
        kauto = json.load(fh)
    kauto["amplitude_M"] = big
    path.write_text(json.dumps(kauto))
    assert run(["check-compat", str(path)]) == (2, refusal)


def test_k_matrix_determinant_work_is_capped(tmp_path):
    # a dense matrix of 100-digit entries at n = 100 would spin in the
    # determinant check for minutes; the estimate refuses it up front
    path = tmp_path / "dense.json"
    rng = random.Random(9)
    top = 10**MAX_INT_DIGITS - 1
    dense = [[rng.randint(-top, top) for _ in range(101)] for _ in range(101)]
    path.write_text(json.dumps({"n": 100, "matrix": dense, "amplitude_M": 0}))
    code, text, seconds = timed_run(["check-compat", str(path)])
    assert code == 2 and seconds < 1
    assert text == (
        f"error: K-matrix determinant work n^2 * bits above the cap of {MAX_DET_WORK}\n"
    )
    # a lifted word at the size cap stays far under it
    path = tmp_path / "word.json"
    path.write_text(json.dumps([[1, 1], [MAX_K_N, MAX_K_N + 1]]))
    code, text = run(["lift", str(MAX_K_N), str(path)])
    assert code == 0
    path.write_text(text)
    assert run(["check-compat", str(path)])[0] == 0


def test_module_entry_point_runs_the_verb():
    src = str(pathlib.Path(ngonstab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ngonstab.cli", "cusps", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "cusps_4.txt").read_text()


def test_box_radius_is_capped(capsys):
    argv = ["check-compat", data("iota3.json"), "--box"]
    # without --oracle no box is enumerated, so the cap itself is cheap to accept
    assert run(argv + ["200"])[0] == 0
    assert run(argv + ["201"])[0] == 2
    assert "cap of 200" in capsys.readouterr().err


LEVEL_VERBS = [
    ["phase-classes"],
    ["cusps"],
    ["reduce", "--slope=1/2"],
    ["classify", "--slope=1/2"],
    ["rigid", "--slope=1/2"],
    ["lift", data("gamma0_4.json")],
]


@pytest.mark.parametrize("level", [MAX_N + 1, 10**18 + 3])
@pytest.mark.parametrize("verb", LEVEL_VERBS, ids=lambda v: v[0])
def test_level_is_capped(verb, level, capsys):
    # refused in the argument parser, before any level-sized work runs
    assert run([verb[0], str(level)] + verb[1:])[0] == 2
    cap = MAX_K_N if verb[0] == "lift" else MAX_N
    assert f"level above the cap of {cap}" in capsys.readouterr().err


def test_level_cap_itself_is_accepted():
    for verb in LEVEL_VERBS[:3]:
        assert run([verb[0], str(MAX_N)] + verb[1:])[0] == 0


def test_k_matrix_size_is_capped(tmp_path, capsys):
    assert run(["lift", str(MAX_K_N + 1), data("gamma0_4.json")])[0] == 2
    assert f"cap of {MAX_K_N}" in capsys.readouterr().err
    # the size is refused before the matrix is even read
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": MAX_K_N + 1, "matrix": [], "amplitude_M": 1}))
    assert main(["check-compat", str(path)]) == 2
    assert f"n above the cap of {MAX_K_N}" in capsys.readouterr().err


def test_oracle_level_is_capped(capsys):
    # refused before the partition oracle runs; the closed form alone is cheap
    assert main(["phase-classes", str(MAX_ORACLE_LEVEL + 1), "--oracle"]) == 2
    assert f"oracle level above the cap of {MAX_ORACLE_LEVEL}" in capsys.readouterr().err
    assert run(["phase-classes", str(MAX_N)])[0] == 0


@pytest.mark.parametrize("verb", ["classify", "rigid"])
def test_rigid_output_is_capped(verb, capsys):
    # n = 317 at slope inf has s = n, so n*s = 100489 chain degrees to print
    assert 317 * 317 > MAX_RIGID_DEGREES >= 316 * 316
    before = enumerate_rigid.cache_info()
    assert main([verb, "317", "--slope=inf"]) == 2
    assert f"n*s above the cap of {MAX_RIGID_DEGREES}" in capsys.readouterr().err
    # refused before the rigid chains are built
    assert enumerate_rigid.cache_info() == before
    # the level cap itself is fine where s is small
    code, text = run([verb, str(MAX_N), "--slope=1/2"])
    assert code == 0 and len(json.loads(text)["rigid_points"]) == MAX_N


def test_hn_oracle_summands_are_capped(tmp_path, capsys):
    point = {"type": "torsion", "position": NODE, "length": 1}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"n": 2, "summands": [point] * (MAX_ORACLE_SUMMANDS + 1)}))
    assert run(["hn", str(path)])[0] == 0
    assert main(["hn", str(path), "--oracle"]) == 2
    assert f"above the cap of {MAX_ORACLE_SUMMANDS}" in capsys.readouterr().err


def test_semistable_oracle_skips_long_chains(tmp_path):
    def chain(k):
        # degree zero on every line: chi = 1, stable for every k
        return {"type": "chain", "k": k, "start": 0, "multideg": [0] * k}

    path = tmp_path / "input.json"
    doc = {"n": 3, "summands": [chain(MAX_ORACLE_CHAIN), chain(MAX_ORACLE_CHAIN + 1)]}
    path.write_text(json.dumps(doc))
    code, text = run(["semistable", str(path), "--oracle"])
    assert code == 0
    rows = json.loads(text)["verdicts"]
    assert [r["verdict"] for r in rows] == ["Stable", "Stable"]
    assert [r["oracle_verdict"] for r in rows] == ["Stable", None]


def test_semistable_oracle_work_is_capped(tmp_path, capsys):
    # every summand a chain at MAX_ORACLE_CHAIN: the costliest literal verdict
    chain = {"type": "chain", "k": MAX_ORACLE_CHAIN, "start": 0, "multideg": [0] * MAX_ORACLE_CHAIN}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"n": 3, "summands": [chain] * (MAX_ORACLE_VERDICTS + 1)}))
    code, text, seconds = timed_run(["semistable", str(path), "--oracle"])
    assert code == 2 and seconds < 0.5
    assert text == f"error: oracle verdicts above the cap of {MAX_ORACLE_VERDICTS}\n"
    assert run(["semistable", str(path)])[0] == 0
    # the cap itself runs the oracle on every summand
    point = {"type": "torsion", "position": NODE, "length": 1}
    path.write_text(json.dumps({"n": 2, "summands": [point] * MAX_ORACLE_VERDICTS}))
    code, text = run(["semistable", str(path), "--oracle"])
    assert code == 0 and len(json.loads(text)["verdicts"]) == MAX_ORACLE_VERDICTS


@pytest.mark.parametrize(
    "text",
    ["1_2", "\uff11\uff12", "\u0663", "+\u0661\u0662"],
    ids=["underscore", "fullwidth", "arabic-indic", "signed-arabic-indic"],
)
def test_integers_are_a_sign_and_ascii_digits(text, tmp_path, capsys):
    # int() takes every one of these texts; no command-line integer does
    assert int(text) in (12, 3)
    band = {"type": "band", "r": 1, "multideg": [0], "lambda": f"a^{text}"}
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"n": 1, "summands": [band]}))
    for argv in (
        ["reduce", text, "--slope=1/2"],
        ["reduce", "12", f"--slope={text}/5"],
        ["reduce", "12", f"--slope=5/{text}"],
        ["check-compat", data("iota3.json"), "--box", text],
        ["charge", str(path)],
    ):
        assert run(argv)[0] == 2, argv
    capsys.readouterr()
    assert run(["reduce", "+12", "--slope=-3/+4"])[0] == 0


@pytest.mark.parametrize("seed", ["1_0", "\u0663", " 7"])
def test_seed_is_a_sign_and_ascii_digits(seed, capsys):
    argv = ["check-compat", data("iota3.json"), "--oracle", "--box", "3", "--seed"]
    assert run([*argv, seed])[0] == 2
    assert "argument --seed: not an integer" in capsys.readouterr().err
    assert run([*argv, "-7"])[0] == run([*argv, "0"])[0] == 0


def test_band_cycle_is_capped(tmp_path, capsys):
    # the covering cycle of a band is n*r components: refused before its
    # degrees are read, so the short list below is never checked
    band = {"type": "band", "r": MAX_N // 2 + 1, "multideg": [0], "lambda": "1"}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"n": 2, "summands": [band]}))
    assert main(["charge", str(path)]) == 2
    assert f"band n*r above the cap of {MAX_N}" in capsys.readouterr().err
    # bands at the cap: storing each at its least sheet rotation is linear,
    # so twenty with n = 1 and r = MAX_N cost about 0.35 s, and a canonical
    # form quadratic in r, recomputed by every comparison, exceeds the bound
    rng = random.Random(5)
    bands = [
        {"type": "band", "r": MAX_N, "lambda": "1",
         "multideg": [rng.randint(-1, 1) for _ in range(MAX_N)]}
        for _ in range(20)
    ]
    path.write_text(json.dumps({"n": 1, "summands": bands}))
    code, text, seconds = timed_run(["semistable", str(path)])
    assert code == 0 and len(json.loads(text)["verdicts"]) == 20
    assert seconds < 4


def test_chain_length_is_capped(tmp_path, capsys):
    # a chain of k lines is a curve of k components: refused before its
    # degrees are read, so the short list below is never checked
    chain = {"type": "chain", "k": MAX_N + 1, "start": 0, "multideg": [0]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"n": 2, "summands": [chain]}))
    assert main(["charge", str(path)]) == 2
    assert f"chain k above the cap of {MAX_N}" in capsys.readouterr().err
    chain.update(k=MAX_N, multideg=[0] * MAX_N)
    path.write_text(json.dumps({"n": 2, "summands": [chain]}))
    assert main(["charge", str(path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cusps", "4", "--oracle"],
        ["reduce", "6", "--slope=1/2", "--box", "5"],
        ["charge", data("chain_plus_point.json"), "--seed", "3"],
        ["lift", "4", data("gamma0_4.json"), "--oracle"],
    ],
)
def test_verbs_refuse_flags_they_do_not_honour(argv, capsys):
    assert run(argv)[0] == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_arguments_exit_two(capsys):
    assert run(["no-such-verb"])[0] == 2
    assert run(["phase-classes", "0"])[0] == 2
    assert run([])[0] == 2
    # only full flag names: no abbreviation is accepted
    assert run(["reduce", "7", "--slo", "1/2"])[0] == 2
    assert run(["check-compat", data("iota3.json"), "--bo", "4"])[0] == 2
    capsys.readouterr()  # argparse wrote usage text; swallow it


def test_main_writes_to_streams(capsys):
    assert main(["phase-classes", "4"]) == 0
    out = capsys.readouterr()
    assert out.out == "3\n" and out.err == ""
    assert main(["lift", "3", data("gamma0_4.json")]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


# ---------------------------------------------------------------------------
# fuzzing the whole boundary

VERBS = ["phase-classes", "cusps", "reduce", "classify", "rigid", "check-compat",
         "lift", "hn", "charge", "semistable"]
FIXTURES = ["chain_plus_point.json", "gamma0_4.json", "iota3.json", "unstable_chain.json"]
KEYS = ["n", "type", "k", "r", "m", "start", "multideg", "lambda", "length",
        "position", "kind", "index", "component", "label", "summands", "matrix",
        "amplitude_M"]

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-12, 12) | st.integers()
    | st.floats(allow_nan=False) | st.sampled_from(["1", "a^2*b^-1", "node", "band", "x"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=16,
)
# argparse prints help and exits 0 on -h, also when grouped with other
# short flags; a prefix of --help is not a flag
tokens = st.sampled_from(
    VERBS + ["--oracle", "--box", "--seed", "--slope", "--format", "json", "table",
             "--slope=1/2", "1", "4", "6", "12", "0", "-3", "201", "10001", "7/10",
             "inf", "x/y", "FILE"]
) | st.text(max_size=4).filter(lambda t: not t.startswith("-h"))


def _mutated(data, doc):
    """doc with one node replaced by a random tree or deleted."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.booleans()):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        key = data.draw(st.sampled_from(keys))
        if isinstance(doc, dict) and data.draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = _mutated(data, doc[key])
        return doc
    return data.draw(json_trees)


FIXTURE_RUNS = {
    "chain_plus_point.json": [
        ["charge", "FILE"], ["hn", "FILE", "--oracle"], ["semistable", "FILE", "--oracle"]
    ],
    "unstable_chain.json": [
        ["charge", "FILE"], ["hn", "FILE"], ["semistable", "FILE", "--oracle"]
    ],
    "gamma0_4.json": [["lift", "4", "FILE"]],
    "iota3.json": [["check-compat", "FILE", "--oracle", "--box", "4"]],
}
REPLACEMENTS = [None, True, -1, 0, 10**6, 2.5, "x", [], {}, [1, "x"]]


def _one_node_changes(doc):
    """Copies of doc with one node replaced by each value above, or deleted."""
    yield from REPLACEMENTS
    keys = doc if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else ()
    for key in keys:
        if isinstance(doc, dict):
            yield {k: v for k, v in doc.items() if k != key}
        for changed in _one_node_changes(doc[key]):
            copy = json.loads(json.dumps(doc))
            copy[key] = changed
            yield copy


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_every_one_node_change_of_a_fixture_keeps_the_exit_codes(name, tmp_path):
    path = tmp_path / name
    for doc in _one_node_changes(json.loads((DATA / name).read_text())):
        path.write_text(json.dumps(doc))
        for template in FIXTURE_RUNS[name]:
            argv = [str(path) if t == "FILE" else t for t in template]
            code, text = run(argv)
            assert code in (0, 1, 2), (doc, argv)
            if code == 0:
                json.loads(text)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_never_escapes_its_exit_codes(data, tmp_path_factory):
    if data.draw(st.booleans()):
        doc = json.loads((DATA / data.draw(st.sampled_from(FIXTURES))).read_text())
        doc = _mutated(data, doc)
    else:
        doc = data.draw(json_trees)
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if t == "FILE" else t for t in data.draw(st.lists(tokens, max_size=6))]
    if data.draw(st.booleans()):
        # a well-formed verb line around the random input file
        verb = data.draw(st.sampled_from(VERBS))
        head = [verb, "4"] if verb in VERBS[:5] or verb == "lift" else [verb]
        argv = head + ([str(path)] if verb in VERBS[5:] else ["--slope=1/2"]) + argv
    code, text = run(argv)
    assert code in (0, 1, 2)
    if code == 0 and "table" not in argv:
        json.loads(text)

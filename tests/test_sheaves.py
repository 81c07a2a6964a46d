from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ngonstab import sheaves
from ngonstab.charges import KClass, PhasePoint, charge, phase_of_charge
from ngonstab.cli import run
from ngonstab.schemas import SchemaError, object_from_json, parse_label
from ngonstab.sheaves import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    BandSheaf,
    ChainSheaf,
    Label,
    NodePoint,
    SheafObject,
    SmoothPoint,
    TorsionSheaf,
    brute_force_band_verdict,
    brute_force_chain_verdict,
    double_shift,
    galois_translate,
    is_semistable,
    k_class,
    object_charge,
    phase,
    pullback,
    pushforward,
    random_corpus,
    random_label,
    random_object,
    summand_to_json,
    tensor_line,
    _rotated,
)

A = Label.generator("a")
B = Label.generator("b")
ONE = Label.identity()


# ---------------------------------------------------------------------------
# labels


def test_label_group_laws():
    assert A * A**-1 == ONE
    assert (A * B) ** 2 == A**2 * B**2
    assert str(A**2 * B**-1) == "a^2*b^-1"
    assert str(ONE) == "1"
    assert A**0 == ONE


def test_label_parse():
    for lam in (ONE, A, A**-3, A * B**2):
        assert parse_label(str(lam)) == lam
    assert parse_label("a*a") == A**2
    assert parse_label("a*a^-1") == ONE
    for bad in ("", "2a", "a^x", "a^"):
        with pytest.raises(SchemaError):
            parse_label(bad)


def test_label_validation():
    for bad in ((("2a", 1),), (("", 1),), (("a", 1.0),), (("a", True),)):
        with pytest.raises(ValueError):
            Label(bad)
    # zero, unsorted and repeated powers are put in canonical form
    assert Label((("a", 0),)) == ONE
    assert Label((("b", 1), ("a", 1))).powers == (("a", 1), ("b", 1))
    assert Label((("a", 1), ("a", 2))) == A**3
    assert Label((("b", 1), ("a", 1), ("a", -1))) == B


labels = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), max_size=5
).map(lambda powers: Label(tuple(powers)))


@given(labels, labels, labels)
def test_label_products_form_a_group(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * x**-1 == ONE
    assert parse_label(str(x)) == x


# ---------------------------------------------------------------------------
# the three summand families


def test_constructor_validation():
    with pytest.raises(ValueError):
        BandSheaf(2, 1, (1,), A)  # multideg length must be n*r
    with pytest.raises(ValueError):
        BandSheaf(2, 1, (1, 0), "a")  # label must be a Label
    with pytest.raises(ValueError):
        BandSheaf(2, 0, (), A)
    with pytest.raises(ValueError):
        ChainSheaf(3, 2, 0, (1,))
    with pytest.raises(ValueError):
        ChainSheaf(3, 1, 0, (True,))  # bools are not degrees
    with pytest.raises(ValueError):
        TorsionSheaf(3, SmoothPoint(0, "p"), 0)
    with pytest.raises(ValueError):
        TorsionSheaf(3, "somewhere", 1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        ChainSheaf(0, 1, 0, (0,))
    with pytest.raises(ValueError, match="^n must be positive$"):
        TorsionSheaf(0, NodePoint(0), 1)
    with pytest.raises(ValueError, match="^smooth point label must be a string$"):
        SmoothPoint(0, 5)


def test_positions_refuse_booleans():
    # bool is a subclass of int, but not a component or node index
    for bad in (True, False):
        with pytest.raises(ValueError):
            SmoothPoint(bad, "p")
        with pytest.raises(ValueError):
            NodePoint(bad)
    with pytest.raises(ValueError):
        SmoothPoint(1.0, "p")


def test_positions_reduce_mod_n():
    assert TorsionSheaf(3, SmoothPoint(7, "p"), 1) == TorsionSheaf(
        3, SmoothPoint(1, "p"), 1
    )
    assert TorsionSheaf(3, NodePoint(-1), 1) == TorsionSheaf(3, NodePoint(2), 1)
    assert ChainSheaf(4, 1, 9, (0,)) == ChainSheaf(4, 1, 1, (0,))


def test_band_sheet_rotation_equality():
    """Rotating a band by whole sheets is a relabeling of the same sheaf."""
    b = BandSheaf(2, 2, (1, 0, 2, 0), A)
    assert b == BandSheaf(2, 2, (2, 0, 1, 0), A)
    assert hash(b) == hash(BandSheaf(2, 2, (2, 0, 1, 0), A))
    assert b != BandSheaf(2, 2, (0, 1, 0, 2), A)  # off-sheet rotation
    assert b != BandSheaf(2, 2, (1, 0, 2, 0), B)
    assert galois_translate(b, 2 * 2) == b


def test_sheet_canonical_is_the_least_rotation():
    def literal_rotation(seq, by):
        # new[(i + by) % L] = old[i], index by index
        return tuple(seq[(i - by) % len(seq)] for i in range(len(seq)))

    def vectors(rng):
        # random, periodic, and periodic with one entry nudged
        for _ in range(300):
            n, r = rng.randint(1, 6), rng.randint(1, 14)
            yield n, r, [rng.randint(-2, 2) for _ in range(n * r)]
            q = rng.choice([t for t in range(1, r + 1) if r % t == 0])
            piece = [rng.randint(-1, 1) for _ in range(n * q)]
            yield n, r, piece * (r // q)
            d = piece * (r // q)
            d[rng.randrange(n * r)] += rng.choice((-1, 1))
            yield n, r, d

    rng = random.Random(29)
    for n, r, d in vectors(rng):
        d = tuple(d)
        least = min(literal_rotation(d, n * t) for t in range(r))
        assert BandSheaf(n, r, d, A).multideg == least, (n, r, d)
        by = rng.randint(-3 * n * r, 3 * n * r)
        assert _rotated(d, by) == literal_rotation(d, by)


def test_band_period():
    assert BandSheaf(2, 2, (2, 0, 2, 0), A).period == 1
    assert BandSheaf(2, 2, (1, 0, 2, 0), A).period == 2
    assert BandSheaf(1, 2, (2, 0), A).period == 2
    assert BandSheaf(2, 2, (1, 0, 1, 0), A).period == 1
    # r = 1 has no proper rotation; a prime r is periodic only with period 1
    assert BandSheaf(3, 1, (1, 0, 2), A).period == 1
    assert BandSheaf(2, 3, (1, 0) * 3, A).period == 1
    assert BandSheaf(2, 3, (1, 0, 1, 0, 2, 0), A).period == 3
    assert BandSheaf(1, 5, (0,) * 5, A).period == 1
    assert BandSheaf(1, 5, (1, 0, 0, 0, 0), A).period == 5
    assert BandSheaf(2, 5, (0, -1, 0, -1, 0, -1, 0, -1, 1, -1), A).period == 5


def test_sheaf_object_canonical_order():
    t = TorsionSheaf(2, NodePoint(0), 1)
    c = ChainSheaf(2, 1, 0, (0,))
    assert SheafObject((c, t)) == SheafObject((t, c))
    assert SheafObject((c, t)).summands[0] is t
    assert SheafObject([c, t]).summands == (t, c)
    with pytest.raises(ValueError):
        SheafObject(())
    with pytest.raises(ValueError):
        SheafObject((c, ChainSheaf(3, 1, 0, (0,))))


def test_bands_equal_but_for_the_label_sort_by_its_text(tmp_path):
    # the label's text breaks the tie; its stored powers tuple would give
    # 1, a^-2, a^-1, a, a*b^-1, a^2
    labels = [ONE, A, A**-1, A**2, A**-2, A * B**-1]
    expected = ["1", "a", "a*b^-1", "a^-1", "a^-2", "a^2"]
    rng = random.Random(6)
    for _ in range(5):
        rng.shuffle(labels)
        obj = SheafObject(tuple(BandSheaf(2, 1, (1, 0), lam, 1) for lam in labels))
        assert [str(s.lam) for s in obj.summands] == expected
    # semistable reads the file into that order and reports row i for
    # summand i; its rows carry no label, and these bands judge alike
    path = tmp_path / "bands.json"
    path.write_text(json.dumps(
        {"n": 2, "summands": [summand_to_json(s) for s in reversed(obj.summands)]}
    ))
    assert [str(s.lam) for s in object_from_json(json.loads(path.read_text())).summands] == expected
    code, text = run(["semistable", str(path)])
    assert code == 0
    row = {"verdict": is_semistable(obj.summands[0]), "phase": phase(obj.summands[0]).to_json()}
    assert json.loads(text)["verdicts"] == [{"index": i, **row} for i in range(6)]


def test_sheaf_object_refuses_a_non_summand_first():
    c = ChainSheaf(2, 1, 0, (0,))
    for parts in ((1,), ("x", c), (NodePoint(0), c)):
        with pytest.raises(ValueError, match="band, chain or torsion"):
            SheafObject(parts)


# ---------------------------------------------------------------------------
# K-theory


def test_k_class_pins():
    assert k_class(BandSheaf(3, 1, (1, 1, 0), A)) == KClass(2, (1, 1, 1))
    assert k_class(BandSheaf(3, 1, (1, 1, 0), A, m=2)) == KClass(4, (2, 2, 2))
    assert k_class(ChainSheaf(4, 2, 3, (1, 0))) == KClass(2, (1, 0, 0, 1))
    # winding chain stacks rank
    assert k_class(ChainSheaf(2, 5, 0, (0,) * 5)) == KClass(1, (3, 2))
    assert k_class(TorsionSheaf(2, NodePoint(1), 3)) == KClass(3, (0, 0))
    both = SheafObject(
        (ChainSheaf(2, 1, 0, (0,)), TorsionSheaf(2, NodePoint(0), 1))
    )
    assert k_class(both) == KClass(2, (1, 0))
    assert object_charge(both) == (-2, 1)


def test_phase_pins():
    assert phase(TorsionSheaf(5, NodePoint(0), 2)) == PhasePoint(0, (-1, 0))
    assert phase(BandSheaf(2, 1, (0, 0), A)) == PhasePoint(0, (0, 1))
    assert phase(ChainSheaf(2, 2, 0, (0, 0))) == PhasePoint(0, (-1, 2))


# ---------------------------------------------------------------------------
# covering functors


def test_pullback_line_bundle():
    assert pullback(BandSheaf(1, 1, (2,), A), 3) == SheafObject(
        (BandSheaf(3, 1, (2, 2, 2), A**3),)
    )


def test_pullback_splits_on_matching_wraps():
    out = pullback(BandSheaf(1, 2, (1, 0), A), 2)
    assert set(out.summands) == {
        BandSheaf(2, 1, (1, 0), A),
        BandSheaf(2, 1, (0, 1), A),
    }


def test_pullback_chain_and_torsion():
    out = pullback(ChainSheaf(2, 3, 1, (1, 0, 0)), 4)
    assert out == SheafObject(
        (ChainSheaf(4, 3, 1, (1, 0, 0)), ChainSheaf(4, 3, 3, (1, 0, 0)))
    )
    tor = pullback(TorsionSheaf(2, SmoothPoint(0, "p"), 2), 6)
    assert [t.position for t in tor.summands] == [
        SmoothPoint(0, "p"),
        SmoothPoint(2, "p"),
        SmoothPoint(4, "p"),
    ]


def test_pullback_scales_charge():
    rng = random.Random(17)
    for s in random_corpus(21, 40, kinds=("chain", "band", "torsion")):
        f = rng.randint(1, 3)
        up = pullback(s, s.n * f)
        re, im = object_charge(s)
        assert object_charge(up) == (f * re, f * im)
    with pytest.raises(ValueError):
        pullback(ChainSheaf(2, 1, 0, (0,)), 5)


def test_pushforward_pins():
    assert pushforward(BandSheaf(4, 1, (1, 0, 0, 0), A), 2) == BandSheaf(
        2, 2, (1, 0, 0, 0), A
    )
    assert pushforward(ChainSheaf(6, 2, 4, (1, 0)), 3) == ChainSheaf(3, 2, 1, (1, 0))
    assert pushforward(TorsionSheaf(6, NodePoint(5), 1), 2) == TorsionSheaf(
        6 and 2, NodePoint(1), 1
    )
    with pytest.raises(ValueError):
        pushforward(BandSheaf(4, 1, (0,) * 4, A), 3)


def test_pushforward_preserves_charge():
    for s in random_corpus(22, 40, kinds=("chain", "band", "torsion")):
        for div in range(1, s.n + 1):
            if s.n % div == 0:
                assert object_charge(pushforward(s, div)) == object_charge(s)


def test_push_pull_round_trip():
    # pushing the pullback of a line bundle recovers the wrap-around band
    assert pushforward(pullback(BandSheaf(1, 1, (1,), A), 3), 1) == SheafObject(
        (BandSheaf(1, 3, (1, 1, 1), A**3),)
    )


def test_galois_translate_pins():
    c = galois_translate(ChainSheaf(3, 2, 2, (1, 0)), 2)
    assert c == ChainSheaf(3, 2, 1, (1, 0))
    b = galois_translate(BandSheaf(2, 1, (1, 0), A), 1)
    assert b == BandSheaf(2, 1, (0, 1), A)
    t = galois_translate(TorsionSheaf(4, SmoothPoint(3, "z"), 2), 3)
    assert t == TorsionSheaf(4, SmoothPoint(2, "z"), 2)


def test_tensor_line_pins():
    b = tensor_line(BandSheaf(2, 2, (1, 0, 0, 0), A), (0, 1), B)
    assert b == BandSheaf(2, 2, (1, 1, 0, 1), A * B)
    c = tensor_line(ChainSheaf(3, 2, 2, (0, 0)), (5, 0, 1), ONE)
    assert c == ChainSheaf(3, 2, 2, (1, 5))
    t = TorsionSheaf(3, NodePoint(0), 2)
    assert tensor_line(t, (1, 1, 1), A) == t
    with pytest.raises(ValueError):
        tensor_line(c, (1, 0, 0), ONE, triv_only=True)
    with pytest.raises(ValueError):
        tensor_line(c, (1, 0), ONE)
    with pytest.raises(ValueError, match="^mu must be a Label$"):
        tensor_line(c, (0, 0, 0), "a")
    assert tensor_line(c, (0, 0, 0), B, triv_only=True) == ChainSheaf(
        3, 2, 2, (1, 5)
    )


def test_double_shift_is_identity_on_the_model():
    c = ChainSheaf(2, 2, 0, (1, 0))
    assert double_shift(c) == c
    obj = SheafObject((c,))
    assert double_shift(obj) == obj
    with pytest.raises(TypeError):
        double_shift("not a sheaf")


summand_strategy = st.one_of(
    st.builds(
        lambda n, start, d: ChainSheaf(n, len(d), start, tuple(d)),
        st.integers(1, 4),
        st.integers(0, 3),
        st.lists(st.integers(-2, 2), min_size=1, max_size=5),
    ),
    st.builds(
        lambda n, r, seed, m: BandSheaf(
            n, r, tuple(random.Random(seed).randint(-2, 2) for _ in range(n * r)), A, m
        ),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 10_000),
        st.integers(1, 2),
    ),
    st.builds(
        TorsionSheaf,
        st.integers(1, 4),
        st.builds(NodePoint, st.integers(0, 3)),
        st.integers(1, 3),
    ),
)


@given(summand_strategy, st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_galois_translate_is_an_action(s, a, b):
    assert galois_translate(galois_translate(s, a), b) == galois_translate(s, a + b)
    assert galois_translate(s, s.n) == galois_translate(s, 0)
    assert object_charge(galois_translate(s, a)) == object_charge(s)


@given(summand_strategy, st.integers(0, 10_000))
@settings(max_examples=60)
def test_tensor_line_inverts(s, seed):
    rng = random.Random(seed)
    deg = tuple(rng.randint(-2, 2) for _ in range(s.n))
    neg = tuple(-x for x in deg)
    twisted = tensor_line(s, deg, A)
    assert tensor_line(twisted, neg, A**-1) == s


# ---------------------------------------------------------------------------
# stability verdicts


def _literal_distributions(d, chi, spans):
    """Verdict from every sub-multidegree on each span (start, length,
    left cut, right cut), down to two twists below each restricted degree."""
    N, seen = len(d), set()
    for start, ell, left, right in spans:
        top = [d[(start + t) % N] for t in range(ell)]
        top[0] -= left
        top[-1] -= right
        for sub in itertools.product(*(range(x - 2, x + 1) for x in top)):
            excess = (1 + sum(sub)) * N - chi * ell
            seen.add((excess > 0) - (excess < 0))
    return UNSTABLE if 1 in seen else SEMISTABLE if 0 in seen else STABLE


def _distribution_verdict(s):
    """The verdict of a chain, or of a band through its core, from
    `_literal_distributions`: a reference that is exponential in the length."""
    if isinstance(s, ChainSheaf):
        k, d = s.k, s.multideg
        spans = [
            (i, j - i + 1, i > 0, j < k - 1)
            for i in range(k)
            for j in range(i, k)
            if i > 0 or j < k - 1
        ]
        return _literal_distributions(d, 1 + sum(d), spans)
    q = s.period
    d = s.multideg[: s.n * q]
    spans = [(i, ell, 1, 1) for i in range(len(d)) for ell in range(1, len(d))]
    core = _literal_distributions(d, sum(d), spans)
    return SEMISTABLE if core == STABLE and (s.m > 1 or q < s.r) else core


def test_torsion_verdicts():
    assert is_semistable(TorsionSheaf(3, SmoothPoint(1, "p"), 1)) == STABLE
    assert is_semistable(TorsionSheaf(3, NodePoint(1), 1)) == STABLE
    assert is_semistable(TorsionSheaf(3, NodePoint(1), 2)) == SEMISTABLE


def test_chain_verdict_pins():
    assert is_semistable(ChainSheaf(1, 1, 0, (5,))) == STABLE
    assert is_semistable(ChainSheaf(2, 2, 0, (0, 0))) == STABLE
    assert is_semistable(ChainSheaf(2, 2, 0, (1, 0))) == SEMISTABLE
    assert is_semistable(ChainSheaf(3, 2, 0, (2, -2))) == UNSTABLE
    # the boundaries: f(t) = k*P[t] - chi*t on 1 <= t < k must stay in
    # [-k, 0], and a chain of one line has no t and no proper interval
    for d in (-3, 0, 4):
        assert is_semistable(ChainSheaf(2, 1, 0, (d,))) == STABLE
    pins = {
        (0, 0, 0): STABLE,  # f = (-1, -2)
        (0, 1, 0, 0): SEMISTABLE,  # f = (-2, 0, -2): max exactly 0
        (0, 0, 1, 0): SEMISTABLE,  # f = (-2, -4, -2): min exactly -k
        (0, 0, -1): SEMISTABLE,  # f = (0, 0): max 0, min above -k
        (1, 0, 0): UNSTABLE,  # f = (1, 2)
        (0, -1, 2, 0): UNSTABLE,  # f = (-2, -8, -2): min below -k
    }
    for d, verdict in pins.items():
        c = ChainSheaf(3, len(d), 0, d)
        assert is_semistable(c) == verdict == _distribution_verdict(c), d


def test_band_verdict_pins():
    assert is_semistable(BandSheaf(1, 1, (0,), A)) == STABLE
    assert is_semistable(BandSheaf(2, 1, (0, 0), A)) == STABLE
    assert is_semistable(BandSheaf(2, 1, (1, 0), A)) == STABLE
    # decomposable: the period-one piece repeats
    assert is_semistable(BandSheaf(2, 2, (2, 0, 2, 0), A)) == SEMISTABLE
    assert is_semistable(BandSheaf(2, 2, (2, -2, 2, -2), A)) == UNSTABLE
    # indecomposable wrap of an everywhere-semistable piece
    assert is_semistable(BandSheaf(1, 2, (2, 0), A)) == SEMISTABLE
    # multiplicity kills stability but not semistability
    assert is_semistable(BandSheaf(1, 1, (0,), A, m=2)) == SEMISTABLE
    assert is_semistable(BandSheaf(1, 2, (2, -2), A, m=2)) == UNSTABLE
    # the boundaries on the 3-cycle: g(t) = 3*P[t] - chi*t, unstable when
    # it spreads by more than N = 3, tied when by exactly 3
    pins = {
        (0, 0, 1): STABLE,  # g = (0, -1, -2): spread 2
        (1, 0, -1): SEMISTABLE,  # g = (0, 3, 3): spread 3
        (-1, 0, 1): SEMISTABLE,  # g = (0, -3, -3): spread 3
        (2, 0, 0): UNSTABLE,  # g = (0, 4, 2): spread 4
    }
    for d, verdict in pins.items():
        b = BandSheaf(3, 1, d, A)
        assert is_semistable(b) == verdict == brute_force_band_verdict(b), d


def test_chain_oracles_agree_exhaustively():
    """The verdict, the oracle and the distribution reference coincide
    for every k <= 4 multidegree."""
    for k in range(1, 5):
        for d in itertools.product(range(-2, 3), repeat=k):
            c = ChainSheaf(2, k, 0, d)
            got = is_semistable(c)
            assert got == brute_force_chain_verdict(c), (k, d)
            assert got == _distribution_verdict(c), (k, d)


def test_chain_oracles_agree_sampled_long():
    rng = random.Random(30)
    for _ in range(300):
        k = rng.choice((5, 6, 7))
        d = tuple(rng.randint(-3, 3) for _ in range(k))
        c = ChainSheaf(3, k, 0, d)
        assert is_semistable(c) == brute_force_chain_verdict(c), d


def test_band_oracle_agrees_exhaustively():
    for n, r in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)):
        for m in (1, 2, 3):  # m > 1 takes the oracle's multiplicity reduction
            for d in itertools.product(range(-2, 3), repeat=n * r):
                b = BandSheaf(n, r, d, A, m)
                got = is_semistable(b)
                assert got == brute_force_band_verdict(b), (n, r, d, m)
                assert got == _distribution_verdict(b), (n, r, d, m)


def test_band_oracle_agrees_sampled():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice((1, 2, 3, 5, 6))
        r = rng.choice([r for r in (1, 2, 3) if n * r <= 6])
        d = tuple(rng.randint(-3, 3) for _ in range(n * r))
        b = BandSheaf(n, r, d, A, rng.randint(1, 2))
        assert is_semistable(b) == brute_force_band_verdict(b), (n, r, d)


def _staircase(length, chi):
    """Degree vector whose prefix sums follow floor(t * chi / length)."""
    prefix = [t * chi // length for t in range(length + 1)]
    return [prefix[t + 1] - prefix[t] for t in range(length)]


def _bumped(d, rng):
    """Up to three +1/-1 bumps, pushing some prefixes onto or past the boundary."""
    d = list(d)
    for _ in range(rng.randint(0, 3)):
        d[rng.randrange(len(d))] += rng.choice((-1, 1))
    return d


def test_chain_verdict_matches_literal_oracle_near_balance():
    rng = random.Random(40)
    seen = set()
    for _ in range(400):
        k = rng.randint(2, 40)
        chi = rng.randint(-k, k)
        d = _bumped(_staircase(k, chi), rng)
        d[-1] -= 1  # the chain's chi is 1 + sum(d)
        c = ChainSheaf(3, k, 0, tuple(d))
        got = is_semistable(c)
        assert got == brute_force_chain_verdict(c), d
        seen.add(got)
    assert seen == {STABLE, SEMISTABLE, UNSTABLE}


def test_band_verdict_matches_literal_oracle_near_balance():
    rng = random.Random(41)
    seen = set()
    checked = 0
    while checked < 200:
        n = rng.randint(1, 10)
        r = rng.randint(1, 30 // n)
        N = n * r
        d = _bumped(_staircase(N, rng.randint(-N, N)), rng)
        turn = rng.randrange(N)
        b = BandSheaf(n, r, tuple(d[turn:] + d[:turn]), A)
        if N == 1 or b.period < r:
            continue
        got = is_semistable(b)
        assert got == brute_force_band_verdict(b), (n, r, b.multideg)
        seen.add(got)
        checked += 1
    assert seen == {STABLE, SEMISTABLE, UNSTABLE}


def test_long_balanced_summands_are_stable():
    # the staircase of a slope in lowest terms keeps every interval
    # strictly below it; the interval scan this replaced took seconds here
    k = 4000
    d = _staircase(k, 2001)
    d[-1] -= 1  # chain chi = 1 + sum(d) = 2001, coprime to k
    assert is_semistable(ChainSheaf(7, k, 0, tuple(d))) == STABLE
    band = BandSheaf(8, 500, tuple(_staircase(4000, 1333)), A)
    assert band.period == band.r
    assert is_semistable(band) == STABLE


# ---------------------------------------------------------------------------
# value-keyed memos

MEMOS = (sheaves._phase_memo, sheaves._chain_memo, sheaves._cycle_memo)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_memos_admit_no_vector_past_the_bound():
    rng = random.Random(2701)
    bound = sheaves._MEMO_LEN

    def degrees(length):
        return tuple(rng.randint(-2, 2) for _ in range(length))

    # a core past the bound: one sheet of bound + 1, or bound + 1 sheets
    # of one line that no shorter rotation repeats
    past = [
        ChainSheaf(3, bound + 1, 0, degrees(bound + 1)),
        BandSheaf(bound + 1, 1, degrees(bound + 1), A),
        BandSheaf(1, bound + 1, (1,) + (0,) * bound, A),
        ChainSheaf(7, 600, 2, degrees(600)),
        BandSheaf(8, 50, (3,) + degrees(399), A),
    ]
    assert all(s.period == s.r for s in past if isinstance(s, BandSheaf))
    _clear_memos()
    for s in past:
        is_semistable(s)
    assert [memo.cache_info().currsize for memo in MEMOS] == [0, 0, 0]
    # a vector at the bound is admitted, and a repeat is a hit
    at = [ChainSheaf(3, bound, 0, degrees(bound)), BandSheaf(bound, 1, degrees(bound), A)]
    for s in at * 2:
        is_semistable(s)
    info = [memo.cache_info() for memo in MEMOS[1:]]
    assert [(i.currsize, i.hits) for i in info] == [(1, 1), (1, 1)]
    # the literal oracles never read a memo
    before = [memo.cache_info() for memo in MEMOS]
    small = ChainSheaf(2, 5, 0, degrees(5))
    brute_force_chain_verdict(small)
    brute_force_band_verdict(BandSheaf(2, 2, degrees(4), A, 2))
    assert [memo.cache_info() for memo in MEMOS] == before


def _memo_corpus():
    """Short summands with the values a direct sum repeats, their turns
    and twists, and long balanced and random chains and bands."""
    rng = random.Random(2702)
    corpus = list(random_corpus(2703, 400, kinds=("chain", "band", "torsion")))
    for s in corpus[:100]:
        corpus.append(galois_translate(s, rng.randint(1, 5)))
        deg = tuple(rng.randint(-1, 1) for _ in range(s.n))
        corpus.append(tensor_line(s, deg, ONE))
    for k in (40, 120, 600):
        d = _staircase(k, rng.randint(-k, k))
        d[-1] -= 1
        corpus.append(ChainSheaf(5, k, 1, tuple(_bumped(d, rng))))
        corpus.append(ChainSheaf(5, k, 0, tuple(rng.randint(-2, 2) for _ in range(k))))
    for n, r in ((10, 4), (8, 15), (10, 40)):
        d = _bumped(_staircase(n * r, rng.randint(-n * r, n * r)), rng)
        corpus.append(BandSheaf(n, r, tuple(d), A, rng.randint(1, 2)))
    return corpus


def test_memoized_verdicts_and_phases_equal_cold_and_literal_ones():
    corpus = _memo_corpus()
    objects = [SheafObject(tuple(corpus[i : i + 7])) for i in range(0, 84, 7)
               if len({s.n for s in corpus[i : i + 7]}) == 1]
    _clear_memos()
    cold = [(is_semistable(s), phase(s)) for s in corpus]
    cold_objects = [phase(obj) for obj in objects]
    misses = [memo.cache_info().misses for memo in MEMOS]
    warm = [(is_semistable(s), phase(s)) for s in corpus]
    assert warm == cold
    assert [phase(obj) for obj in objects] == cold_objects
    # the warm pass read every short value back from the memos
    assert [memo.cache_info().misses for memo in MEMOS] == misses
    seen = set()
    for s, (verdict, ph) in zip(corpus, cold):
        assert ph == phase_of_charge(charge(k_class(s))), s
        if isinstance(s, ChainSheaf) and s.k <= 8:
            assert verdict == brute_force_chain_verdict(s), s
        elif isinstance(s, BandSheaf) and s.n * s.r <= 6:
            assert verdict == brute_force_band_verdict(s), s
        seen.add(verdict)
    assert seen == {STABLE, SEMISTABLE, UNSTABLE}
    for obj, ph in zip(objects, cold_objects):
        assert ph == phase_of_charge(charge(k_class(obj)))


def test_object_charge_matches_k_class():
    corpus = random_corpus(42, 300, kinds=("chain", "band", "torsion"))
    with pytest.raises(ValueError, match="^unknown summand kind 'spiral'$"):
        random_corpus(42, 1, kinds=("spiral",))
    assert {s.m for s in corpus if isinstance(s, BandSheaf)} == {1, 2}
    assert {type(s) for s in corpus} == {ChainSheaf, BandSheaf, TorsionSheaf}
    for s in corpus:
        assert object_charge(s) == charge(k_class(s)), s
    rng = random.Random(43)
    for _ in range(200):
        obj = random_object(rng)
        assert object_charge(obj) == charge(k_class(obj))
        for s in obj.summands:
            assert object_charge(s) == charge(k_class(s)), s


FUNCTORS = {
    "object_charge": object_charge,
    "k_class": k_class,
    "phase": phase,
    "pullback": lambda s: pullback(s, 2),
    "pushforward": lambda s: pushforward(s, 1),
    "galois_translate": lambda s: galois_translate(s, 1),
    "tensor_line": lambda s: tensor_line(s, (0,), ONE),
    "double_shift": double_shift,
    "summand_to_json": summand_to_json,
}


@pytest.mark.parametrize("name", FUNCTORS)
def test_entry_points_refuse_non_models(name):
    for bad in ("x", None, 3, (ChainSheaf(1, 1, 0, (0,)),), NodePoint(0)):
        with pytest.raises(TypeError, match="^not a sheaf model: "):
            FUNCTORS[name](bad)


@given(st.integers(0, 2**32))
@settings(max_examples=80)
def test_functors_act_summand_by_summand(seed):
    rng = random.Random(seed)
    obj = random_object(rng)
    n, parts = obj.n, obj.summands
    power = rng.randint(-7, 7)
    deg = tuple(rng.randint(-2, 2) for _ in range(n))
    mu = random_label(rng)
    down = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    up = n * rng.randint(1, 3)
    for functor in (
        lambda x: galois_translate(x, power),
        lambda x: tensor_line(x, deg, mu),
        lambda x: pushforward(x, down),
        double_shift,
    ):
        assert functor(obj) == SheafObject(tuple(functor(x) for x in parts))
    pulled = [y for x in parts for y in pullback(x, up).summands]
    assert pullback(obj, up) == SheafObject(tuple(pulled))
    charges = [object_charge(x) for x in parts]
    assert object_charge(obj) == tuple(map(sum, zip(*charges)))
    classes = [k_class(x) for x in parts]
    ranks = tuple(map(sum, zip(*(k.ranks for k in classes))))
    assert k_class(obj) == KClass(sum(k.chi for k in classes), ranks)


def test_verdict_rejects_objects():
    with pytest.raises(TypeError):
        is_semistable(SheafObject((ChainSheaf(1, 1, 0, (0,)),)))


# ---------------------------------------------------------------------------
# corpora and serialization


def test_random_corpus_is_deterministic():
    assert random_corpus(7, 25) == random_corpus(7, 25)
    assert random_corpus(7, 25) != random_corpus(8, 25)


def test_random_object_semistable_only():
    rng = random.Random(13)
    for _ in range(20):
        obj = random_object(rng, semistable_only=True)
        assert all(is_semistable(s) != UNSTABLE for s in obj.summands)


def test_summand_json_round_trips():
    samples = [
        BandSheaf(2, 2, (1, 0, -1, 3), A * B**-2, m=2),
        ChainSheaf(3, 4, 2, (0, 1, 0, -1)),
        TorsionSheaf(3, SmoothPoint(1, "q"), 2),
        TorsionSheaf(3, NodePoint(0), 1),
    ]
    for s in samples:
        doc = {"n": s.n, "summands": [summand_to_json(s)]}
        assert object_from_json(doc).summands == (s,)


def test_object_json_round_trip():
    obj = SheafObject(
        (
            ChainSheaf(2, 2, 1, (1, 0)),
            TorsionSheaf(2, NodePoint(1), 2),
            BandSheaf(2, 1, (0, 0), A),
        )
    )
    doc = {"n": obj.n, "summands": [summand_to_json(s) for s in obj.summands]}
    assert object_from_json(doc) == obj


def test_json_schema_errors():
    for bad in (
        "x",
        {"type": "band"},
        {"type": "spiral"},
        {"type": "chain", "k": 1, "start": 0, "multideg": [0.5]},
        {"type": "torsion", "position": {"kind": "edge"}, "length": 1},
        {"type": "torsion", "position": {"kind": "smooth", "component": 0}, "length": 1},
    ):
        with pytest.raises(SchemaError):
            object_from_json({"n": 2, "summands": [bad]})
    with pytest.raises(SchemaError):
        object_from_json({"n": 2})
    with pytest.raises(SchemaError):
        object_from_json({"n": "2", "summands": []})


def test_json_contradictions_are_schema_errors():
    # the constructor refuses data that contradicts itself, and the
    # decoder reports its message as malformed input
    for bad, message in (
        ({"type": "chain", "k": 2, "start": 0, "multideg": [0]}, "multideg must have length k"),
        (
            {"type": "band", "r": 1, "multideg": [0, 0, 0], "lambda": "a"},
            "multideg must have length n*r",
        ),
    ):
        with pytest.raises(SchemaError) as info:
            object_from_json({"n": 2, "summands": [bad]})
        assert str(info.value) == message

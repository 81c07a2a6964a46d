from __future__ import annotations

import itertools
import random
from math import gcd

import pytest

from ngonstab.charges import (
    PhasePoint,
    Slope,
    add_half_turns,
    in_h_prime,
    slope_to_phase,
)
from ngonstab.gamma0 import (
    CuspClass,
    cusp_canonicalize,
    cusp_equivalent,
    in_gamma0,
)
from ngonstab.moduli import (
    ModuliDescription,
    classify,
    enumerate_rigid,
    stable_vb_construct,
)
from ngonstab.sheaves import (
    STABLE,
    BandSheaf,
    ChainSheaf,
    Label,
    galois_translate,
    is_semistable,
    object_charge,
    pushforward,
)

A = Label.generator("a")


def test_classify_folds_a_phase_into_window():
    desc = classify(6, PhasePoint(0, (-1, 2)))
    assert desc.representative == CuspClass(6, 2, 1)
    assert desc.witness.moebius(Slope(1, 2)) == Slope(1, 2)
    # a phase one unit down carries the same slope
    folded = classify(6, PhasePoint(0, (1, -2)))
    assert folded.representative == desc.representative
    assert in_gamma0(folded.witness, 6)
    # a phase and its half-turn both carry the slope it came from, and the
    # constructor derives what cusp_canonicalize gives for that slope
    for n in (1, 6, 12):
        for s in (Slope(0, 1), Slope(1, 1), Slope(-3, 2), Slope(5, 7), Slope.infinity()):
            p = slope_to_phase(s)
            for q in (p, add_half_turns(p, 1)):
                desc = ModuliDescription(n, q)
                assert desc == classify(n, q)
                assert (desc.representative, desc.witness) == cusp_canonicalize(n, s)


def test_a_description_is_built_from_its_fields_alone():
    desc = classify(6, slope_to_phase(Slope(1, 2)))
    for derived in ("representative", "witness"):
        with pytest.raises(TypeError):
            ModuliDescription(6, desc.phase, **{derived: getattr(desc, derived)})


# ---------------------------------------------------------------------------
# rigid points


def test_enumerate_rigid_pins():
    points = enumerate_rigid(6, 1, 2)
    assert len(points) == 6
    assert points[0] == ChainSheaf(6, 2, 0, (0, 0))
    assert all(is_semistable(c) == STABLE for c in points)
    assert {c.start for c in points} == set(range(6))
    # slope-0 class: the balanced vector dips negative
    assert enumerate_rigid(2, 0, 1)[0] == ChainSheaf(2, 1, 0, (-1,))
    assert enumerate_rigid(12, 5, 6)[0].multideg == (0, 1, 1, 1, 1, 0)


def test_enumerate_rigid_validation():
    with pytest.raises(ValueError):
        enumerate_rigid(6, 1, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        enumerate_rigid(6, 2, 2)  # not coprime


def test_rigid_points_form_one_translation_orbit():
    for n, r, s in ((6, 1, 2), (4, 1, 4), (12, 5, 6), (2, 0, 1)):
        points = enumerate_rigid(n, r, s)
        orbit = {galois_translate(points[0], j) for j in range(n)}
        assert orbit == set(points)
        assert len(set(points)) == n


def test_rigid_pushforwards_collapse_to_s_objects():
    for n, r, s in ((6, 1, 2), (4, 1, 4), (12, 5, 6), (2, 0, 1)):
        points = enumerate_rigid(n, r, s)
        downstairs = {pushforward(c, s) for c in points}
        assert len(downstairs) == s
        assert all(object_charge(c) == (-r, s) for c in points)


def test_balanced_vector_is_unique():
    """Brute search: exactly one stable degree vector of the right total."""
    for s in (2, 3, 4):
        for r in range(8):
            if gcd(r, s) != 1:
                continue
            expected = enumerate_rigid(s, r, s)[0].multideg
            stable = [
                d
                for d in itertools.product(range(-3, 4), repeat=s)
                if sum(d) == r - 1
                and is_semistable(ChainSheaf(s, s, 0, d)) == STABLE
            ]
            assert stable == [expected], (s, r)


def test_stable_vb_construct():
    vb = stable_vb_construct(6, 1, 2, (1, 0), A)
    assert isinstance(vb, BandSheaf)
    assert vb.n == 6 and vb.r == 1
    assert vb.multideg == (1, 0, 1, 0, 1, 0)
    assert is_semistable(vb) == STABLE
    assert object_charge(vb) == (-3, 6)
    with pytest.raises(ValueError):
        stable_vb_construct(6, 1, 2, (1, 1), A)
    with pytest.raises(ValueError):
        stable_vb_construct(6, 1, 4, (1, 0, 0, 0), A)
    with pytest.raises(ValueError, match="^line_data must have one degree per component$"):
        stable_vb_construct(6, 1, 2, (1,), A)


# ---------------------------------------------------------------------------
# the classification report


def test_classify_half_slope_on_hexagon():
    desc = classify(6, slope_to_phase(Slope(1, 2)))
    assert desc.s == 2 and desc.representative.a == 1
    assert desc.representative == CuspClass(6, 2, 1)
    assert desc.stable_charges == ((-3, 6), (-1, 2))
    assert desc.positive_component == "E₂"
    assert desc.rigid_count == 6
    assert not desc.torsion_class
    assert desc.galois_note == (
        "Z/nZ acts transitively on rigid points; "
        "factors through Gal(E_s → E_1) on E_s"
    )


def test_classify_slope_zero_two_components():
    desc = classify(2, slope_to_phase(Slope(0, 1)))
    assert desc.s == 1 and desc.representative.a == 0
    assert desc.positive_component == "E₁"
    assert desc.rigid_count == 2
    assert desc.stable_charges == ((0, 2), (0, 1))
    assert desc.rigid_points[0].multideg == (-1,)
    assert not desc.torsion_class


def test_classify_torsion_class():
    desc = classify(4, slope_to_phase(Slope(1, 4)))
    assert desc.s == 4
    assert desc.torsion_class
    assert classify(12, slope_to_phase(Slope(1, 12))).positive_component == "E₁₂"
    assert desc.stable_charges[0] == (-1, 4)
    # at the infinite slope the transported bundle charge is torsion-like
    inf = classify(2, PhasePoint(0, (-1, 0)))
    assert inf.torsion_class
    assert inf.stable_charges[0] == (-1, 0)


def _transported(witness, chi, rk):
    """Reference: carry the representative's (chi, rank) column back to
    the queried slope through the witness's inverse, signed into H'."""
    num, den = witness.inv().matvec((chi, rk))
    return (-num, den) if in_h_prime((-num, den)) else (num, -den)


def test_stable_charges_match_the_witness_transport():
    rng = random.Random(16)
    for _ in range(2000):
        n = rng.randint(1, 60)
        d = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if d == (0, 0):
            d = (0, -1)
        phase = PhasePoint(rng.randint(-3, 3), d)
        desc = classify(n, phase)
        r, s = desc.representative.a, desc.s
        expected = (
            _transported(desc.witness, n * r // s, n),
            _transported(desc.witness, r, s),
        )
        assert desc.stable_charges == expected, (n, phase)
        # the half-turn, outside H' when phase.dir is in it, reads the same
        turned = classify(n, add_half_turns(phase, 1))
        assert turned.stable_charges == expected, (n, phase)
    assert classify(6, PhasePoint(2, (1, -2))).stable_charges == ((-3, 6), (-1, 2))


def test_rigid_points_are_the_enumerated_locus():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 60)
        phase = PhasePoint(rng.randint(-3, 3), (rng.randint(-99, 99), rng.randint(1, 99)))
        desc = classify(n, phase)
        rigid = enumerate_rigid(n, desc.representative.a, desc.s)
        assert desc.rigid_points == rigid
        assert len(desc.rigid_points) == desc.rigid_count == n


def test_classify_point_curve():
    desc = classify(1, slope_to_phase(Slope(3, 7)))
    assert desc.s == 1 and desc.rigid_count == 1
    assert desc.torsion_class


def test_classify_constant_on_classes():
    def random_slope(rng: random.Random) -> Slope:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if p == 0 and q == 0:
            q = 1
        return Slope.of(p, q)

    rng = random.Random(8)
    for _ in range(250):
        n = rng.randint(1, 12)
        s1 = random_slope(rng)
        s2 = random_slope(rng)
        d1 = classify(n, slope_to_phase(s1))
        d2 = classify(n, slope_to_phase(s2))
        same = d1.class_payload() == d2.class_payload()
        assert same == cusp_equivalent(n, s1, s2), (n, s1, s2)


def test_classify_covers_every_divisor():
    seen = {classify(12, slope_to_phase(Slope.of(1, c))).s for c in range(1, 13)}
    seen.add(classify(12, slope_to_phase(Slope(0, 1))).s)
    assert seen == {1, 2, 3, 4, 6, 12}


def test_classify_json_shape():
    payload = classify(6, slope_to_phase(Slope(1, 2))).to_json()
    assert list(payload) == [
        "n",
        "phase",
        "representative",
        "witness",
        "s",
        "positive_component",
        "rigid_count",
        "rigid_points",
        "stable_charges",
        "galois_note",
        "torsion_class",
    ]
    assert payload["positive_component"] == {"tag": "E_s", "s": 2, "display": "E₂"}
    assert payload["witness"] == [[1, 0], [0, 1]]
    assert payload["stable_charges"] == {"vector_bundle": [-3, 6], "rigid": [-1, 2]}

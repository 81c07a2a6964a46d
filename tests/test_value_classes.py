"""Value semantics of the package's frozen classes (`charges.value_class`).

Every class compares and hashes by its field tuple, exactly as a frozen
dataclass does, so set and dict order, and with them the output bytes,
depend only on the field values.
"""

from __future__ import annotations

import importlib

import pytest

from ngonstab.charges import KClass, PhasePoint, Slope, slope_to_phase, value_class
from ngonstab.compat import CompatReport, KAuto
from ngonstab.gamma0 import CuspClass, Mat2
from ngonstab.hn import HNPolygon, HNResult, HNSlice
from ngonstab.moduli import ModuliDescription, classify
from ngonstab.sheaves import (
    BandSheaf,
    ChainSheaf,
    Label,
    NodePoint,
    SheafObject,
    SmoothPoint,
    TorsionSheaf,
)

A = Label.generator("a")
CHAIN = ChainSheaf(2, 2, 0, (0, 1))
PHASE = PhasePoint(0, (0, 1))
SLICE = HNSlice((0, 1), (0,))
DESCRIPTION = classify(3, slope_to_phase(Slope(1, 2)))
MODULI_FIELDS = {"n": 3, "phase": DESCRIPTION.phase}

# Each class with its fields, in declaration order, as stored canonical.
TABLE = [
    (KClass, {"chi": 1, "ranks": (1, 0)}),
    (PhasePoint, {"two_shift": 1, "dir": (1, 2)}),
    (Slope, {"num": -1, "den": 2}),
    (Mat2, {"a": 1, "b": 2, "c": 0, "d": 1}),
    (CuspClass, {"N": 6, "c": 2, "a": 1}),
    (KAuto, {"matrix": ((1, 0), (0, 1)), "amplitude_certificate": 0}),
    (
        CompatReport,
        {
            "descended": Mat2(1, 0, 0, 1),
            "m_value": PHASE,
            "verdict": "Compatible-by-criterion",
        },
    ),
    (HNSlice, {"total_charge": (0, 1), "members": (0,)}),
    (HNResult, {"slices": (SLICE,)}),
    (HNPolygon, {"vertices": ((0, 0), (-1, 1))}),
    (ModuliDescription, MODULI_FIELDS),
    (Label, {"powers": (("a", 1), ("b", -2))}),
    (SmoothPoint, {"component": 1, "label": "p"}),
    (NodePoint, {"index": 0}),
    (BandSheaf, {"n": 2, "r": 1, "multideg": (0, 1), "lam": A, "m": 2}),
    (ChainSheaf, {"n": 2, "k": 2, "start": 0, "multideg": (0, 1)}),
    (TorsionSheaf, {"n": 2, "position": NodePoint(1), "length": 1}),
    (SheafObject, {"summands": (CHAIN,)}),
]
IDS = [cls.__name__ for cls, _ in TABLE]
MODULES = ["charges", "gamma0", "compat", "sheaves", "hn", "moduli", "schemas", "cli"]


def test_the_table_holds_every_value_class():
    found = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"ngonstab.{name}")).values()
        if isinstance(obj, type) and hasattr(obj, "_fields")
    }
    assert found == {cls for cls, _ in TABLE}


def test_a_non_string_annotation_is_refused():
    # a module without `from __future__ import annotations` fails at import
    source = "@value_class\nclass Point:\n    x: int\n"
    code = compile(source, "point.py", "exec", dont_inherit=True)
    with pytest.raises(TypeError, match=r"^Point\.x: annotation is not a string$"):
        exec(code, {"value_class": value_class})


@pytest.mark.parametrize("cls, fields", TABLE, ids=IDS)
def test_value_semantics(cls, fields):
    x = cls(**fields)
    y = cls(*fields.values())
    values = tuple(fields.values())
    assert tuple(getattr(x, name) for name in fields) == values
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(values)
    assert len({x, y}) == 1
    assert x != values and x.__eq__(values) is NotImplemented
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(x) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls, fields", TABLE, ids=IDS)
def test_fields_are_frozen(cls, fields):
    x = cls(**fields)
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == tuple(fields.values())


INT_FIELDS = [
    (cls, fields, name)
    for cls, fields in TABLE
    for name, ann in cls.__annotations__.items()
    if ann == "int"
]


@pytest.mark.parametrize(
    "cls, fields, name",
    INT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, _, name in INT_FIELDS],
)
def test_int_fields_refuse_non_integers(cls, fields, name):
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            cls(**{**fields, name: bad})


TUPLE_FIELDS = [
    (cls, fields, name)
    for cls, fields in TABLE
    for name, ann in cls.__annotations__.items()
    if ann in ("tuple[int, ...]", "ChargeVec")
]


@pytest.mark.parametrize(
    "cls, fields, name",
    TUPLE_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, _, name in TUPLE_FIELDS],
)
def test_int_tuple_fields_refuse_non_integers(cls, fields, name):
    good = fields[name]
    for bad in ((True, *good[1:]), (1.5, *good[1:])):
        with pytest.raises(ValueError, match=f"^{name} must contain only integers$"):
            cls(**{**fields, name: bad})
    for bad in (None, 7, "01"):
        with pytest.raises(ValueError, match=f"^{name} must be a sequence of integers$"):
            cls(**{**fields, name: bad})
    stored = getattr(cls(**{**fields, name: list(good)}), name)
    assert type(stored) is tuple and stored == good


CHARGE_FIELDS = [(cls, fields, name) for cls, fields, name in TUPLE_FIELDS
                 if cls.__annotations__[name] == "ChargeVec"]


@pytest.mark.parametrize(
    "cls, fields, name",
    CHARGE_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, _, name in CHARGE_FIELDS],
)
def test_charge_fields_refuse_other_than_two_entries(cls, fields, name):
    for bad in ((), (1,), (0, 1, 2)):
        with pytest.raises(ValueError, match=f"^{name} must have two entries$"):
            cls(**{**fields, name: bad})


def test_a_slice_charge_lies_on_its_phase():
    assert HNSlice((0, 3), (0,)).phase == PHASE
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        HNSlice((0, 0), (0,))


def test_defaults_and_class_constants():
    assert KAuto(((1, 0), (0, 1))).amplitude_certificate is None
    assert BandSheaf(2, 1, (0, 1), A).m == 1
    assert "galois_note" not in repr(DESCRIPTION)
    assert DESCRIPTION == ModuliDescription(**MODULI_FIELDS)
    assert isinstance(DESCRIPTION.galois_note, str)
    with pytest.raises(TypeError):
        ModuliDescription(galois_note="", **MODULI_FIELDS)


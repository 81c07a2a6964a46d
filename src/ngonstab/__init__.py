"""Exact stability computations for cycle-of-lines curves.

Everything is integer arithmetic (a slope is a pair of integers); there
is no floating point anywhere in the library.  The modules layer bottom-up:

- ``charges``: numerical invariants, phase points, slopes.
- ``gamma0``: 2x2 integer matrices, congruence level structure, cusp
  classes with canonicalizing witnesses.
- ``compat``: matrices on the invariant lattice, the descent to the
  plane, and the compatibility criterion with its brute-force order
  oracles.
- ``sheaves``: the three summand families on a cycle of n lines,
  covering-map functors, and the semistability verdicts.
- ``hn``: filtration slices and polygons.
- ``moduli``: what the stable objects at a given phase look like.
- ``schemas``: the decoders of outside input, and every cap on it.
- ``cli``: the ``ngonstab`` entry point.
"""

from __future__ import annotations

from .charges import (
    ChargeVec,
    KClass,
    PhasePoint,
    Slope,
    add_half_turns,
    compare_phase,
    in_h_prime,
    phase_of_charge,
    primitive,
    slope_phase_convert,
    slope_to_phase,
)
from .compat import (
    CompatReport,
    KAuto,
    check_compatibility,
    compose,
    compute_m,
    identity_kauto,
    invert,
    iota_kauto,
    lift_k_matrix,
    shift_square_kauto,
)
from .gamma0 import (
    CuspClass,
    Mat2,
    class_count,
    cusp_canonicalize,
    cusp_equivalent,
    enumerate_cusp_classes,
    in_gamma0,
)
from .hn import HNPolygon, HNResult, HNSlice, hn_of_object, hn_polygon
from .moduli import ModuliDescription, classify, enumerate_rigid
from .schemas import SchemaError, object_from_json
from .sheaves import (
    BandSheaf,
    ChainSheaf,
    SheafObject,
    TorsionSheaf,
    galois_translate,
    is_semistable,
    k_class,
    object_charge,
    phase,
    pullback,
    pushforward,
    tensor_line,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandSheaf",
    "ChainSheaf",
    "ChargeVec",
    "CompatReport",
    "CuspClass",
    "HNPolygon",
    "HNResult",
    "HNSlice",
    "KAuto",
    "KClass",
    "Mat2",
    "ModuliDescription",
    "PhasePoint",
    "SchemaError",
    "SheafObject",
    "Slope",
    "TorsionSheaf",
    "add_half_turns",
    "check_compatibility",
    "class_count",
    "classify",
    "compare_phase",
    "compose",
    "compute_m",
    "cusp_canonicalize",
    "cusp_equivalent",
    "enumerate_cusp_classes",
    "enumerate_rigid",
    "galois_translate",
    "hn_of_object",
    "hn_polygon",
    "identity_kauto",
    "in_gamma0",
    "in_h_prime",
    "invert",
    "iota_kauto",
    "is_semistable",
    "k_class",
    "lift_k_matrix",
    "object_charge",
    "object_from_json",
    "phase",
    "phase_of_charge",
    "primitive",
    "pullback",
    "pushforward",
    "shift_square_kauto",
    "slope_phase_convert",
    "slope_to_phase",
    "tensor_line",
]

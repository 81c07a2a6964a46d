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

Callers import from these modules; the package itself defines no names.
"""

"""Exact non-properness sets of polynomial maps, with certified curve
coverings and a numeric limit-curve tracker.

The package computes, for a generically finite polynomial map with
rational coefficients, the set of target points near which the map fails
to be proper; certifies that this set is covered by parametric curves of
bounded degree (with exact minimality proofs where requested); and
realizes the limit-curve construction numerically with exact rational
back-verification.

Import names from their defining modules (``nonproper.properness``,
``nonproper.curves``, ``nonproper.tracker``, ...); the package itself
re-exports nothing.
"""

__version__ = "0.1.0"

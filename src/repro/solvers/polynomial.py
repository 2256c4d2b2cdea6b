"""Polynomial closed-form fitting under an epsilon tolerance.

This module replaces Z3 in the original system.  The original encodes, for
each observation ``x_j`` at index ``i_j``::

    (a*i_j + b) - eps <= x_j <= (a*i_j + b) + eps        (degree 1)
    (a*i_j^2 + b*i_j + c) - eps <= x_j <= ... + eps       (degree 2)

and asks Z3 for a model of ``a, b(, c)``.  For fixed observations this is a
bounded linear feasibility problem; we decide it by

1. solving the unconstrained least-squares problem (Vandermonde / lstsq),
2. snapping each coefficient to a nearby nice rational (Z3's models are exact
   rationals, which is where the paper's readable ``2*(i+1)`` coefficients
   come from), and
3. explicitly checking every residual against ``epsilon`` — first for the
   snapped coefficients, then for the raw least-squares ones.

If neither passes, the constraint system is (almost certainly) infeasible and
we report no solution, exactly as the paper's pipeline would fall through to
the next solver.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.solvers.forms import ConstantForm, LinearForm, QuadraticForm
from repro.solvers.rational import nice_round

#: Tolerance used when snapping fitted coefficients to nice rationals.  This
#: is deliberately larger than machine epsilon: decompiler noise on the order
#: of 1e-3 should still snap to the intended integer coefficients.
_SNAP_TOLERANCE = 5e-3


def fit_constant(values: Sequence[float], epsilon: float) -> Optional[ConstantForm]:
    """Fit a constant function, if all values agree within ``epsilon``."""
    values = list(values)
    if not values:
        return None
    center = nice_round(float(np.mean(values)), tolerance=_SNAP_TOLERANCE)
    form = ConstantForm(center)
    if form.satisfies(values, epsilon):
        return form
    # The mean may sit outside the epsilon band even when a feasible constant
    # exists (e.g. one outlier-free tight cluster): try the midrange.
    midrange = (max(values) + min(values)) / 2.0
    form = ConstantForm(nice_round(midrange, tolerance=_SNAP_TOLERANCE))
    if form.satisfies(values, epsilon):
        return form
    return None


def _least_squares(indices: np.ndarray, values: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial coefficients, highest degree first."""
    vandermonde = np.vander(indices, degree + 1)
    coefficients, *_ = np.linalg.lstsq(vandermonde, values, rcond=None)
    return coefficients


def fit_linear(values: Sequence[float], epsilon: float) -> Optional[LinearForm]:
    """Fit ``a*i + b`` within ``epsilon``, preferring nice coefficients."""
    values = list(values)
    if len(values) < 2:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)
    a_raw, b_raw = _least_squares(indices, observations, 1)

    snapped = LinearForm(
        nice_round(float(a_raw), tolerance=max(_SNAP_TOLERANCE, epsilon)),
        nice_round(float(b_raw), tolerance=max(_SNAP_TOLERANCE, epsilon)),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    raw = LinearForm(float(a_raw), float(b_raw))
    if raw.satisfies(values, epsilon):
        return raw
    return None


def fit_quadratic(values: Sequence[float], epsilon: float) -> Optional[QuadraticForm]:
    """Fit ``a*i^2 + b*i + c`` within ``epsilon``, preferring nice coefficients."""
    values = list(values)
    if len(values) < 3:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)
    a_raw, b_raw, c_raw = _least_squares(indices, observations, 2)

    snap = max(_SNAP_TOLERANCE, epsilon)
    snapped = QuadraticForm(
        nice_round(float(a_raw), tolerance=snap),
        nice_round(float(b_raw), tolerance=snap),
        nice_round(float(c_raw), tolerance=snap),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    raw = QuadraticForm(float(a_raw), float(b_raw), float(c_raw))
    if raw.satisfies(values, epsilon):
        return raw
    return None

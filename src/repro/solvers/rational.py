"""Coefficient rationalization.

The closed forms the paper reports are human-readable: ``2 * (i + 1)``,
``360 * i / 60``, ``24 * i - 12``.  A raw least-squares fit over noisy data
returns coefficients like ``1.99999983``, so after fitting we snap each
coefficient to the nearest "nice" rational (small denominator) whenever doing
so keeps the fit within the epsilon tolerance.  This plays the role of Z3
returning exact rational models in the original system.

The snapping runs :meth:`fractions.Fraction.limit_denominator`'s
continued-fraction algorithm directly on the integer ratio of the float, so
the solvers' hot path builds no ``Fraction`` objects; the results are
bit-identical to the ``Fraction`` route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple


def _limit_denominator(value: float, max_denominator: int) -> Tuple[int, int]:
    """``Fraction(value).limit_denominator(max_denominator)`` as ``(num, den)``."""
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    n, d = value.as_integer_ratio()
    if d <= max_denominator:
        return n, d
    exact_den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    # The best bounds are p1/q1 and (p0+k*p1)/(q0+k*q1), 1/(q1*(q0+k*q1))
    # apart; p1/q1 lies d/(q1*exact_den) from the value, so it is at least as
    # close (and wins ties) exactly when this holds.
    if 2 * d * (q0 + k * q1) <= exact_den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def rationalize(value: float, max_denominator: int = 720) -> Fraction:
    """The closest fraction to ``value`` with a bounded denominator.

    ``720`` covers every denominator that appears in CAD closed forms built
    from degree steps (360/n for n up to 720 teeth/cells) while still
    rejecting arbitrary noise.
    """
    return Fraction(*_limit_denominator(value, max_denominator))


def nice_round(value: float, tolerance: float = 1e-6, max_denominator: int = 720) -> float:
    """Snap ``value`` to a nearby nice rational when it is within ``tolerance``.

    Returns the snapped value as a float (int-valued floats collapse to the
    integer float, e.g. ``2.0000001`` becomes ``2.0``).  When no nice rational
    is close enough, the original value is returned unchanged.
    """
    numerator, denominator = _limit_denominator(value, max_denominator)
    snapped = numerator / denominator
    if abs(snapped - value) <= tolerance:
        return snapped
    return value


def as_int_if_close(value: float, tolerance: float = 1e-9) -> Optional[int]:
    """Return ``value`` as an int when it is within ``tolerance`` of one."""
    rounded = round(value)
    if abs(value - rounded) <= tolerance:
        return int(rounded)
    return None


"""Trigonometric closed-form fitting: ``offset + a * sin(b*i + c)``.

Z3 does not support transcendental functions, so the paper implements a
dedicated non-linear least-squares solver (iterative SVD refinement) for the
sinusoidal family and judges fits by R².  We do the same with numpy:

* for a *fixed* frequency ``b`` the model is linear in
  ``(offset, a*cos(c), a*sin(c))`` because
  ``a*sin(b*i + c) = a*cos(c)*sin(b*i) + a*sin(c)*cos(b*i)``, so we solve
  that linear system by SVD (``lstsq``);
* the frequency itself is found by scanning the natural candidate
  frequencies of a length-``n`` design (multiples of ``360/n`` and of
  ``360/(n+1)``, plus harmonics) and then refining the best candidate with a
  local Gauss–Newton iteration.

Within one :func:`fit_sinusoid` call each distinct frequency is solved
once: the scan, the refinement's revisits of a frequency it already tried,
and the final re-solve of the refined frequency all read a per-call memo.

Phases and frequencies are reported in degrees, matching the programs the
paper prints (``Sin (90 * i + 315)``).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.forms import SinusoidForm
from repro.solvers.rational import nice_round


#: ``(offset, amplitude, phase_degrees, residual)`` of a fixed-frequency fit.
FrequencyFit = Tuple[float, float, float, float]


def _solve_fixed_frequency(
    indices: np.ndarray, values: np.ndarray, frequency_degrees: float
) -> FrequencyFit:
    """Best (offset, amplitude, phase_degrees, residual) for a fixed frequency."""
    radians = np.radians(frequency_degrees * indices)
    design = np.column_stack([np.ones_like(indices), np.sin(radians), np.cos(radians)])
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset, coefficient_sin, coefficient_cos = solution
    amplitude = math.hypot(coefficient_sin, coefficient_cos)
    phase = math.degrees(math.atan2(coefficient_cos, coefficient_sin)) % 360.0
    predictions = design @ solution
    residual = float(np.max(np.abs(predictions - values))) if len(values) else 0.0
    return float(offset), float(amplitude), phase, residual


def _candidate_frequencies(count: int) -> List[float]:
    """Natural frequency candidates for a length-``count`` repetitive design."""
    candidates: List[float] = []
    for divisor in (count, count + 1, count - 1, 2 * count):
        if divisor and divisor > 0:
            base = 360.0 / divisor
            for harmonic in (1, 2, 3, 4):
                candidates.append(base * harmonic)
    # Common CAD angles regardless of the list length.
    candidates.extend([30.0, 36.0, 45.0, 60.0, 72.0, 90.0, 120.0, 180.0, 270.0])
    unique: List[float] = []
    for candidate in candidates:
        candidate = candidate % 360.0 or 360.0
        if 0.0 < candidate <= 360.0 and all(abs(candidate - c) > 1e-9 for c in unique):
            unique.append(candidate)
    return unique


def _refine_frequency(
    solve: Callable[[float], FrequencyFit], frequency: float, rounds: int = 25
) -> float:
    """Local search refinement of the frequency around an initial guess."""
    best_frequency = frequency
    _, _, _, best_residual = solve(frequency)
    step = max(frequency * 0.05, 0.5)
    for _ in range(rounds):
        improved = False
        for candidate in (best_frequency - step, best_frequency + step):
            if candidate <= 0.0 or candidate > 720.0:
                continue
            _, _, _, residual = solve(candidate)
            if residual < best_residual - 1e-12:
                best_residual = residual
                best_frequency = candidate
                improved = True
        if not improved:
            step /= 2.0
            if step < 1e-6:
                break
    return best_frequency


def fit_sinusoid(
    values: Sequence[float], epsilon: float, *, tally: Optional[Counter] = None
) -> Optional[SinusoidForm]:
    """Fit ``offset + a*sin(b*i + c)`` within ``epsilon`` (degrees).

    Returns ``None`` when no candidate frequency produces a fit within the
    tolerance, or when the data is too short to constrain the model (fewer
    than 4 points: any 3 points lie on some sinusoid, which would make the
    solver claim spurious structure).  Each distinct frequency is solved
    once per call; ``tally["frequency_solves"]``, when given, counts them.
    """
    values = list(values)
    if len(values) < 4:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)
    solved: Dict[float, FrequencyFit] = {}

    def solve(frequency: float) -> FrequencyFit:
        fit = solved.get(frequency)
        if fit is None:
            fit = solved[frequency] = _solve_fixed_frequency(indices, observations, frequency)
            if tally is not None:
                tally["frequency_solves"] += 1
        return fit

    best: Optional[SinusoidForm] = None
    best_residual = math.inf
    for frequency in _candidate_frequencies(len(values)):
        offset, amplitude, phase, residual = solve(frequency)
        if residual < best_residual:
            best_residual = residual
            best = SinusoidForm(amplitude, frequency, phase, offset)

    if best is None:
        return None

    refined_frequency = _refine_frequency(solve, best.frequency)
    offset, amplitude, phase, residual = solve(refined_frequency)
    if residual < best_residual:
        best = SinusoidForm(amplitude, refined_frequency, phase, offset)
        best_residual = residual

    # Snap the parameters to nice values when that keeps the fit feasible.
    snapped = SinusoidForm(
        nice_round(best.amplitude, tolerance=max(5e-3, epsilon)),
        nice_round(best.frequency, tolerance=max(5e-3, epsilon)),
        nice_round(best.phase, tolerance=max(5e-3, epsilon)) % 360.0,
        nice_round(best.offset, tolerance=max(5e-3, epsilon)),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    if best.satisfies(values, epsilon):
        return best
    return None

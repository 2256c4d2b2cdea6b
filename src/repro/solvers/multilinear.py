"""Multilinear closed forms over several loop indices.

Nested-loop inference (paper Section 5) pairs each list element with a tuple
of loop indices (from the m-index-sets) and asks for a closed form of those
indices.  The forms that arise in CAD grids are affine in each index —
``24*i - 12``, ``5 + 10*j``, ``2 - 4*i`` — so the solver fits

    value = a_1*i_1 + a_2*i_2 + ... + a_m*i_m + b

by least squares, snaps the coefficients to nice rationals, and accepts the
fit only when every residual is within the epsilon tolerance, exactly like
the single-index polynomial solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cad.build import add, mul, sub
from repro.lang.term import Term
from repro.solvers.rational import as_int_if_close, nice_round

_SNAP_TOLERANCE = 5e-3


@dataclass(frozen=True)
class MultilinearForm:
    """``sum_k coefficients[k] * index_k + intercept``.

    Frozen, like the single-index forms, so rendered terms can be memoized
    per form value.
    """

    coefficients: Tuple[float, ...]
    intercept: float
    kind: str = "d1"

    def predict(self, indices: Sequence[int]) -> float:
        return (
            sum(a * i for a, i in zip(self.coefficients, indices)) + self.intercept
        )

    def max_residual(
        self, index_tuples: Sequence[Sequence[int]], values: Sequence[float]
    ) -> float:
        return max(
            (abs(self.predict(t) - v) for t, v in zip(index_tuples, values)),
            default=0.0,
        )

    def satisfies(
        self,
        index_tuples: Sequence[Sequence[int]],
        values: Sequence[float],
        epsilon: float,
    ) -> bool:
        return self.max_residual(index_tuples, values) <= epsilon

    def is_constant(self) -> bool:
        return all(nice_round(a) == 0.0 for a in self.coefficients)

    def to_term(self, index_vars: Sequence[Term]) -> Term:
        """Render over the given index variable terms (one per loop level)."""
        if len(index_vars) != len(self.coefficients):
            raise ValueError("index variable count does not match coefficients")
        term: Optional[Term] = None
        for coefficient, index in zip(self.coefficients, index_vars):
            coefficient = nice_round(coefficient)
            if coefficient == 0.0:
                continue
            piece = index if coefficient == 1.0 else mul(_number(coefficient), index)
            term = piece if term is None else add(term, piece)
        intercept = nice_round(self.intercept)
        if term is None:
            return _number(intercept)
        if intercept == 0.0:
            return term
        if intercept < 0.0:
            return sub(term, _number(-intercept))
        return add(term, _number(intercept))

    def describe(self) -> str:
        pieces = [
            f"{nice_round(a):g}*i{k}" for k, a in enumerate(self.coefficients)
        ]
        pieces.append(f"{nice_round(self.intercept):g}")
        return " + ".join(pieces)


def _number(value: float) -> Term:
    as_int = as_int_if_close(value, tolerance=1e-9)
    if as_int is not None:
        return Term.num(as_int)
    return Term.num(value)


def fit_multilinear(
    index_tuples: Sequence[Sequence[int]],
    values: Sequence[float],
    epsilon: float,
) -> Optional[MultilinearForm]:
    """Fit an affine function of the loop indices within ``epsilon``."""
    if not index_tuples or len(index_tuples) != len(values):
        return None
    arity = len(index_tuples[0])
    if any(len(t) != arity for t in index_tuples):
        raise ValueError("inconsistent index tuple arity")
    design = np.column_stack(
        [np.asarray([t[k] for t in index_tuples], dtype=float) for k in range(arity)]
        + [np.ones(len(index_tuples))]
    )
    observations = np.asarray(values, dtype=float)
    solution, *_ = np.linalg.lstsq(design, observations, rcond=None)
    coefficients = tuple(float(c) for c in solution[:-1])
    intercept = float(solution[-1])

    snap = max(_SNAP_TOLERANCE, epsilon)
    snapped = MultilinearForm(
        tuple(nice_round(c, tolerance=snap) for c in coefficients),
        nice_round(intercept, tolerance=snap),
    )
    if snapped.satisfies(index_tuples, values, epsilon):
        return snapped
    raw = MultilinearForm(coefficients, intercept)
    if raw.satisfies(index_tuples, values, epsilon):
        return raw
    return None

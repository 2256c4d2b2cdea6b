"""Model selection across the closed-form solvers.

``solve_component`` tries, in order, the constant, degree-1, degree-2, and
trigonometric families (the last only when no polynomial fits), keeps every
feasible fit (max residual within epsilon; each ``fit_*`` returns only
feasible forms), and returns the one ranking first on

1. the highest coefficient of determination R², rounded to 9 digits;
2. for rotation components, the periodic 360/n shape (below);
3. the *simplest* rendered expression, so a constant beats an equivalent
   degree-2 fit;

with remaining ties going to the earliest candidate.  R² is computed once
per candidate.  A feasible constant whose R² rounds to 1 is returned at
once, without fitting the other families, because nothing can outrank it:
its R² is maximal; the rotation shape needs a non-zero integer slope,
while a least-squares slope through values equal up to rounding is itself
within rounding of 0; and the constant is the simplest term and the first
candidate, so it wins any remaining tie.  ``solve_vectors`` solves
the three components of a list of 3-vectors independently, which is
exactly how the paper's function inference decomposes the problem
(Section 4.1).

The rotation heuristic from the paper is applied here: when the solved
component feeds a ``Rotate``, a feasible linear fit ``a*i + b`` whose step
divides 360 is re-expressed as ``360 * (i [+1]) / n`` (a
:class:`~repro.solvers.forms.RotationForm`), which surfaces the loop bound
(e.g. the gear's 60 teeth) directly in the program text.

``tally`` (a :class:`collections.Counter`, which :class:`FunctionSolver`
passes) counts ``solver_constant_shortcuts`` and the ``frequency_solves``
of the trigonometric fit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.term import Term
from repro.solvers.forms import (
    ClosedForm,
    ConstantForm,
    LinearForm,
    RotationForm,
    SinusoidForm,
)
from repro.solvers.polynomial import fit_constant, fit_linear, fit_quadratic
from repro.solvers.rational import as_int_if_close
from repro.solvers.trig import fit_sinusoid


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the arithmetic component."""

    #: Tolerance on every observation (the paper's epsilon = 0.001).
    epsilon: float = 1e-3
    #: Whether to attempt the trigonometric family at all.
    enable_trig: bool = True
    #: Whether to rewrite rotation fits into the 360*(i+shift)/n shape.
    rotation_heuristic: bool = True
    #: Maximum loop bound considered by the rotation heuristic.
    max_rotation_count: int = 720


@dataclass(frozen=True)
class ComponentSolution:
    """A feasible closed form together with its goodness of fit."""

    form: ClosedForm
    r_squared: float

    @property
    def kind(self) -> str:
        return self.form.kind


def _rotation_normalize(
    form: LinearForm, values: Sequence[float], config: SolverConfig
) -> Optional[RotationForm]:
    """Convert a linear rotation fit into the periodic 360/n shape."""
    step = as_int_if_close(form.a, tolerance=max(1e-6, config.epsilon))
    if step is None or step == 0:
        return None
    if 360 % abs(step) != 0:
        return None
    count = 360 // abs(step)
    if count < 2 or count > config.max_rotation_count:
        return None
    intercept = as_int_if_close(form.b, tolerance=max(1e-6, config.epsilon))
    if intercept is None:
        return None
    if intercept == 0:
        candidate = RotationForm(count=count, shift=0)
    elif intercept == step:
        candidate = RotationForm(count=count, shift=1)
    else:
        candidate = RotationForm(count=count, shift=0, offset=float(intercept))
    if step < 0:
        # Negative steps stay as plain linear forms; a negative "count" would
        # read worse than -6*i.
        return None
    if candidate.satisfies(values, config.epsilon):
        return candidate
    return None


def solve_component(
    values: Sequence[float],
    config: Optional[SolverConfig] = None,
    *,
    is_rotation: bool = False,
    tally: Optional[Counter] = None,
) -> Optional[ComponentSolution]:
    """Find the best closed form for one vector component.

    ``tally``, when given, counts ``solver_constant_shortcuts`` and
    ``frequency_solves`` (see the module docstring).
    """
    config = config or SolverConfig()
    values = [float(v) for v in values]
    if not values:
        return None
    epsilon = config.epsilon

    # The paper tries the polynomial families first and only falls back to
    # the trigonometric solver when no polynomial fits (Section 4.1).  This
    # ordering also keeps noisy-but-constant data from being "explained" by a
    # sinusoid that interpolates the noise.  Every fit returns only feasible
    # forms, so the candidates need no second epsilon check.
    scored: List[Tuple[ClosedForm, float]] = []

    def add(form: ClosedForm) -> float:
        r_squared = form.r_squared(values)
        scored.append((form, r_squared))
        return r_squared

    constant = fit_constant(values, epsilon)
    if constant is not None:
        r_squared = add(constant)
        if round(r_squared, 9) == 1.0:
            # Nothing can outrank it; see the module docstring.
            if tally is not None:
                tally["solver_constant_shortcuts"] += 1
            return ComponentSolution(form=constant, r_squared=r_squared)

    linear = fit_linear(values, epsilon)
    if linear is not None:
        if is_rotation and config.rotation_heuristic:
            rotation = _rotation_normalize(linear, values, config)
            if rotation is not None:
                add(rotation)
        add(linear)

    quadratic = fit_quadratic(values, epsilon)
    if quadratic is not None:
        add(quadratic)

    if not scored and config.enable_trig and len(set(values)) >= 2:
        sinusoid = fit_sinusoid(values, epsilon, tally=tally)
        if sinusoid is not None:
            add(sinusoid)

    if not scored:
        return None

    def rank(candidate: Tuple[ClosedForm, float]) -> Tuple[float, int, int]:
        # Maximize R^2 (so sort on its negation), then — for rotation
        # components — prefer the periodic 360/n shape (the paper's rotation
        # heuristic), then prefer simpler terms.
        form, r_squared = candidate
        rotation_preference = 0 if (is_rotation and isinstance(form, RotationForm)) else 1
        return (-round(r_squared, 9), rotation_preference, form.complexity())

    best, r_squared = min(scored, key=rank)
    return ComponentSolution(form=best, r_squared=r_squared)


@dataclass
class VectorFunction:
    """Closed forms for the x, y, z components of an affine-vector list."""

    x: ClosedForm
    y: ClosedForm
    z: ClosedForm
    r_squared: float = 1.0

    def predict(self, index: int) -> Tuple[float, float, float]:
        return (self.x.predict(index), self.y.predict(index), self.z.predict(index))

    def kinds(self) -> Tuple[str, str, str]:
        return (self.x.kind, self.y.kind, self.z.kind)

    def dominant_kind(self) -> str:
        """The most "interesting" function class across components.

        Table 1's ``f`` column reports one label per loop; a trigonometric
        component outranks polynomials, and degree 2 outranks degree 1.
        """
        kinds = set(self.kinds())
        if "theta" in kinds:
            return "theta"
        if "d2" in kinds:
            return "d2"
        return "d1"

    def is_constant(self) -> bool:
        """True when all three components are constants."""
        return all(isinstance(f, ConstantForm) for f in (self.x, self.y, self.z))

    def describe(self) -> str:
        return f"({self.x.describe()}, {self.y.describe()}, {self.z.describe()})"


#: The solver's running counters, named as the inference pass spans report
#: them (each pass reports its own deltas; see ``inference_counters``).
SOLVER_COUNTERS = (
    "solve_component_calls",
    "solve_memo_hits",
    "solver_constant_shortcuts",
    "frequency_solves",
    "render_memo_hits",
)


class FunctionSolver:
    """Facade over the component solvers, operating on lists of 3-vectors.

    The config is fixed per instance, so the solver memoizes
    :func:`solve_component` per ``(column, is_rotation)``: the suffix folds
    of a flat chain present the same columns over and over.  It also
    memoizes rendering (:meth:`render`) per ``(form, index)``, since the
    same solved forms are rendered into every inferred shape.  Both memos
    live as long as the instance (one ``determinize`` phase, shared by both
    inference passes); the shared solutions hold frozen closed forms and
    terms are immutable, so reusing them is safe.
    """

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._memo: Dict[tuple, Optional[ComponentSolution]] = {}
        self._rendered: Dict[tuple, Term] = {}
        #: Running totals of :data:`SOLVER_COUNTERS`.
        self.counts: Counter = Counter(dict.fromkeys(SOLVER_COUNTERS, 0))

    def solve_component(
        self, column: Sequence[float], *, is_rotation: bool = False
    ) -> Optional[ComponentSolution]:
        """:func:`solve_component` under this solver's config, memoized."""
        self.counts["solve_component_calls"] += 1
        column = tuple(column)
        key = (column, is_rotation)
        if 0.0 in column:
            # -0.0 == 0.0, so equal columns may still differ in a zero's sign.
            key += (tuple(math.copysign(1.0, v) for v in column),)
        if key in self._memo:
            self.counts["solve_memo_hits"] += 1
            return self._memo[key]
        solution = solve_component(
            column, self.config, is_rotation=is_rotation, tally=self.counts
        )
        self._memo[key] = solution
        return solution

    def render(self, form, index) -> Term:
        """``form.to_term(index)``, memoized per ``(form, index)``.

        Forms compare by value, and value-equal forms render alike: every
        float parameter is read through ``nice_round`` (which maps -0.0 to
        0.0) or compared with ``==``, so ``ConstantForm(-0.0)`` shares
        ``ConstantForm(0.0)``'s entry safely.  ``index`` is a term, or a
        tuple of terms for a multilinear form.
        """
        key = (form, index)
        term = self._rendered.get(key)
        if term is None:
            term = self._rendered[key] = form.to_term(index)
        else:
            self.counts["render_memo_hits"] += 1
        return term

    def render_terms(self, function: VectorFunction, index: Term) -> Tuple[Term, Term, Term]:
        """Render the three component expressions over the index variable."""
        return (
            self.render(function.x, index),
            self.render(function.y, index),
            self.render(function.z, index),
        )

    def solve(
        self, vectors: Sequence[Sequence[float]], *, is_rotation: bool = False
    ) -> Optional[VectorFunction]:
        """Find closed forms for every component of ``vectors`` or ``None``."""
        if not vectors:
            return None
        columns = list(zip(*[tuple(v) for v in vectors]))
        if len(columns) != 3:
            raise ValueError("expected 3-component vectors")
        solutions = []
        for column in columns:
            solution = self.solve_component(column, is_rotation=is_rotation)
            if solution is None:
                return None
            solutions.append(solution)
        overall_r2 = min(s.r_squared for s in solutions)
        return VectorFunction(
            x=solutions[0].form,
            y=solutions[1].form,
            z=solutions[2].form,
            r_squared=overall_r2,
        )


def solve_vectors(
    vectors: Sequence[Sequence[float]],
    config: Optional[SolverConfig] = None,
    *,
    is_rotation: bool = False,
) -> Optional[VectorFunction]:
    """Module-level convenience wrapper around :class:`FunctionSolver`."""
    return FunctionSolver(config).solve(vectors, is_rotation=is_rotation)

"""Unit tests for the closed-form solvers (the arithmetic component)."""

import dataclasses
import math
import struct
from collections import Counter
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lang.term import Term
from repro.cad.evaluator import evaluate
from repro.solvers import trig
from repro.solvers.closed_form import (
    ComponentSolution,
    FunctionSolver,
    SolverConfig,
    _rotation_normalize,
    solve_component,
    solve_vectors,
)
from repro.solvers.forms import ConstantForm, LinearForm, QuadraticForm, RotationForm, SinusoidForm
from repro.solvers.multilinear import MultilinearForm, fit_multilinear
from repro.solvers.polynomial import fit_constant, fit_linear, fit_quadratic
from repro.solvers.rational import as_int_if_close, nice_round, rationalize
from repro.solvers.trig import fit_sinusoid

EPSILON = 1e-3


def _evaluate_form_term(form, index: int) -> float:
    """Evaluate the rendered LambdaCAD term of a form at a concrete index."""
    term = form.to_term(Term("i"))
    return float(evaluate(term, {"i": index}))


class TestRational:
    def test_nice_round_snaps_small_noise(self):
        assert nice_round(1.9999998, tolerance=1e-3) == 2.0
        assert nice_round(0.3333335, tolerance=1e-3) == pytest.approx(1.0 / 3.0)

    def test_nice_round_keeps_far_values(self):
        assert nice_round(2.345678, tolerance=1e-6) == 2.345678

    def test_rationalize_bounds_denominator(self):
        assert rationalize(0.5).denominator == 2
        assert rationalize(1.0 / 60.0).denominator == 60

    def test_as_int_if_close(self):
        assert as_int_if_close(5.0000000001) == 5
        assert as_int_if_close(5.01) is None

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1, 2, 7, 60, 720, 10_000]),
    )
    @example(-2.5, 720)
    @example(7.0, 720)
    @example(-3.0, 1)
    @example(1.0 / 3.0, 720)
    @example(-355.0 / 113.0, 720)
    @example(2.5, 1)
    @example(-2.5, 1)
    @example(1.0 / 1441.0, 720)
    @example(0.5 / 720.0, 720)
    @example(0.0, 720)
    @example(-0.0, 720)
    @example(1e-300, 720)
    @example(-1e-300, 720)
    @example(5e15, 720)
    @example(5e15 + 0.5, 7)
    def test_rationalize_matches_fraction_limit_denominator(self, value, max_denominator):
        expected = Fraction(value).limit_denominator(max_denominator)
        assert rationalize(value, max_denominator) == expected
        # nice_round snaps to the same float, bit for bit (signed zeros too).
        for tolerance in (1e-6, 1e-3, 0.5):
            snapped = float(expected)
            old = snapped if abs(snapped - value) <= tolerance else value
            new = nice_round(value, tolerance=tolerance, max_denominator=max_denominator)
            assert struct.pack("d", new) == struct.pack("d", old)


class TestPolynomialFits:
    def test_constant(self):
        form = fit_constant([125.0, 125.0001, 124.9999], EPSILON)
        assert isinstance(form, ConstantForm)
        assert form.value == pytest.approx(125.0, abs=1e-3)

    def test_constant_infeasible(self):
        assert fit_constant([1.0, 2.0], EPSILON) is None

    def test_linear_clean(self):
        form = fit_linear([2.0, 4.0, 6.0, 8.0, 10.0], EPSILON)
        assert isinstance(form, LinearForm)
        assert form.a == pytest.approx(2.0)
        assert form.b == pytest.approx(2.0)

    def test_linear_noisy_paper_example(self):
        # The paper's example: [5.001, 10.00001, 14.9998, 20.0] -> 5 * (i + 1).
        form = fit_linear([5.001, 10.00001, 14.9998, 20.0], EPSILON)
        assert form is not None
        assert form.a == pytest.approx(5.0, abs=2e-3)
        assert form.b == pytest.approx(5.0, abs=5e-3)

    def test_linear_infeasible(self):
        assert fit_linear([0.0, 1.0, 0.0, 1.0], EPSILON) is None

    def test_quadratic_exact(self):
        values = [3.0 * i * i + 2.0 * i + 1.0 for i in range(5)]
        form = fit_quadratic(values, EPSILON)
        assert isinstance(form, QuadraticForm)
        assert (form.a, form.b, form.c) == pytest.approx((3.0, 2.0, 1.0))

    def test_quadratic_requires_three_points(self):
        assert fit_quadratic([1.0, 2.0], EPSILON) is None

    def test_forms_render_to_evaluable_terms(self):
        form = fit_linear([2.0, 4.0, 6.0], EPSILON)
        for i in range(3):
            assert _evaluate_form_term(form, i) == pytest.approx(form.predict(i))


class TestTrigFits:
    def test_square_wave_like_paper_example(self):
        # x components of the paper's example: [-1, -1, 1, 1] = sin(180 i + 270).
        form = fit_sinusoid([-1.0, -1.0, 1.0, 1.0], EPSILON)
        assert isinstance(form, SinusoidForm)
        for i, expected in enumerate([-1.0, -1.0, 1.0, 1.0]):
            assert form.predict(i) == pytest.approx(expected, abs=1e-3)

    def test_circular_pattern(self):
        values = [10.0 + 7.07 * math.sin(math.radians(90.0 * i + 315.0)) for i in range(4)]
        form = fit_sinusoid(values, EPSILON)
        assert form is not None
        assert form.max_residual(values) <= EPSILON

    def test_too_few_points(self):
        assert fit_sinusoid([1.0, 2.0, 3.0], EPSILON) is None

    def test_non_periodic_rejected(self):
        # Random-looking data without a sinusoidal structure at tolerance 1e-3.
        values = [0.0, 5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        form = fit_sinusoid(values, EPSILON)
        if form is not None:
            assert form.max_residual(values) <= EPSILON

    def test_renders_sin_term(self):
        form = fit_sinusoid([-1.0, -1.0, 1.0, 1.0], EPSILON)
        rendered = form.to_term(Term("i"))
        assert "Sin" in {t.op for t in rendered.subterms()}


class TestModelSelection:
    def test_prefers_simpler_feasible_form(self):
        solution = solve_component([5.0, 5.0, 5.0, 5.0])
        assert isinstance(solution.form, ConstantForm)

    def test_linear_beats_quadratic_when_exact(self):
        solution = solve_component([1.0, 3.0, 5.0, 7.0])
        assert solution.form.kind == "d1"

    def test_quadratic_when_needed(self):
        values = [float(i * i) for i in range(5)]
        solution = solve_component(values)
        assert solution.form.kind == "d2"

    def test_rotation_heuristic(self):
        values = [6.0 * (i + 1) for i in range(10)]
        solution = solve_component(values, is_rotation=True)
        assert isinstance(solution.form, RotationForm)
        assert solution.form.count == 60
        rendered = str(solution.form.to_term(Term("i")))
        assert "360" in rendered and "60" in rendered

    def test_rotation_heuristic_disabled_for_non_rotation(self):
        values = [6.0 * (i + 1) for i in range(10)]
        solution = solve_component(values, is_rotation=False)
        assert not isinstance(solution.form, RotationForm)

    def test_infeasible_returns_none(self):
        assert solve_component([1.0, 17.0, 2.0, 23.0, 3.0, 31.0, 4.0]) is None

    def test_solve_vectors_componentwise(self):
        vectors = [(2.0 * (i + 1), 0.0, 5.0) for i in range(5)]
        function = solve_vectors(vectors)
        assert function is not None
        assert function.predict(2) == pytest.approx((6.0, 0.0, 5.0))
        assert function.is_constant() is False

    def test_solve_vectors_rejects_partial(self):
        vectors = [(float(i), 0.0, [1.0, 17.0, 2.0, 23.0, 3.0][i]) for i in range(5)]
        assert solve_vectors(vectors) is None

    def test_epsilon_controls_acceptance(self):
        # Noise of ~0.02 on a line: rejected at the paper's epsilon (1e-3),
        # accepted when the tolerance is loosened past the noise level.
        noisy = [2.0, 4.01, 6.0, 8.02, 10.0, 11.98]
        assert solve_component(noisy, SolverConfig(epsilon=1e-3)) is None
        loose = solve_component(noisy, SolverConfig(epsilon=0.05))
        assert loose is not None
        assert loose.form.max_residual(noisy) <= 0.05


class TestSolverMemo:
    _ROTATION_COLUMN = tuple(6.0 * (i + 1) for i in range(10))

    def test_rotation_flag_keeps_separate_memo_entries(self):
        solver = FunctionSolver()
        plain = solver.solve_component(self._ROTATION_COLUMN, is_rotation=False)
        rotation = solver.solve_component(self._ROTATION_COLUMN, is_rotation=True)
        assert not isinstance(plain.form, RotationForm)
        assert isinstance(rotation.form, RotationForm)
        assert solver.counts["solve_memo_hits"] == 0
        assert solver.solve_component(self._ROTATION_COLUMN, is_rotation=True) is rotation
        assert (solver.counts["solve_component_calls"], solver.counts["solve_memo_hits"]) == (3, 1)

    @pytest.mark.parametrize(
        "column",
        [
            (5.0, 5.0, 5.0),
            (1.0, 3.0, 5.0, 7.0),
            (0.0, 1.0, 4.0, 9.0, 16.0),
            (0.0, 0.0, 0.0),
            (-0.0, -0.0, -0.0),
            (0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0),
            (1.0, 7.0, 2.0),
        ],
    )
    @pytest.mark.parametrize("is_rotation", [False, True])
    def test_memoized_solve_equals_fresh_solve(self, column, is_rotation):
        config = SolverConfig()
        solver = FunctionSolver(config)
        first = solver.solve_component(column, is_rotation=is_rotation)
        again = solver.solve_component(list(column), is_rotation=is_rotation)
        fresh = solve_component(column, config, is_rotation=is_rotation)
        assert first == again == fresh
        assert solver.counts["solve_memo_hits"] == 1

    def test_signed_zero_columns_do_not_share_an_entry(self):
        solver = FunctionSolver()
        solver.solve_component((0.0, 0.0, 0.0))
        solver.solve_component((-0.0, -0.0, -0.0))
        assert solver.counts["solve_memo_hits"] == 0

    def test_closed_forms_are_frozen(self):
        # Memoized solutions are shared between vector functions.
        form = solve_component([1.0, 3.0, 5.0, 7.0]).form
        with pytest.raises(dataclasses.FrozenInstanceError):
            form.a = 0.0


def _reference_fit_sinusoid(values, epsilon):
    """``fit_sinusoid`` without its frequency memo: every solve is fresh."""
    values = list(values)
    if len(values) < 4:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)

    def solve(frequency):
        return trig._solve_fixed_frequency(indices, observations, frequency)

    best, best_residual = None, math.inf
    for frequency in trig._candidate_frequencies(len(values)):
        offset, amplitude, phase, residual = solve(frequency)
        if residual < best_residual:
            best_residual = residual
            best = SinusoidForm(amplitude, frequency, phase, offset)
    if best is None:
        return None
    refined = trig._refine_frequency(solve, best.frequency)
    offset, amplitude, phase, residual = solve(refined)
    if residual < best_residual:
        best = SinusoidForm(amplitude, refined, phase, offset)
    snap = max(5e-3, epsilon)
    snapped = SinusoidForm(
        nice_round(best.amplitude, tolerance=snap),
        nice_round(best.frequency, tolerance=snap),
        nice_round(best.phase, tolerance=snap) % 360.0,
        nice_round(best.offset, tolerance=snap),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    if best.satisfies(values, epsilon):
        return best
    return None


def _reference_solve_component(values, config=None, *, is_rotation=False):
    """The full-candidate model selection: fit every family, re-check every
    candidate against epsilon, then rank (no short-circuit, no reuse)."""
    config = config or SolverConfig()
    values = [float(v) for v in values]
    if not values:
        return None
    candidates = []
    constant = fit_constant(values, config.epsilon)
    if constant is not None:
        candidates.append(constant)
    linear = fit_linear(values, config.epsilon)
    if linear is not None:
        if is_rotation and config.rotation_heuristic:
            rotation = _rotation_normalize(linear, values, config)
            if rotation is not None:
                candidates.append(rotation)
        candidates.append(linear)
    quadratic = fit_quadratic(values, config.epsilon)
    if quadratic is not None:
        candidates.append(quadratic)
    feasible = [c for c in candidates if c.satisfies(values, config.epsilon)]
    if not feasible and config.enable_trig and len(set(values)) >= 2:
        sinusoid = _reference_fit_sinusoid(values, config.epsilon)
        if sinusoid is not None and sinusoid.satisfies(values, config.epsilon):
            feasible = [sinusoid]
    if not feasible:
        return None

    def rank(form):
        preference = 0 if (is_rotation and isinstance(form, RotationForm)) else 1
        return (-round(form.r_squared(values), 9), preference, form.complexity())

    best = min(feasible, key=rank)
    return ComponentSolution(form=best, r_squared=best.r_squared(values))


def _bits(solution):
    """A solution with every float spelled exactly (so -0.0 != 0.0)."""
    if solution is None:
        return None
    fields = dataclasses.astuple(solution.form)
    return (
        type(solution.form).__name__,
        tuple(v.hex() if isinstance(v, float) else v for v in fields),
        solution.r_squared.hex(),
    )


class TestSolverDifferential:
    """The short-circuiting solver returns bit-identical solutions."""

    COLUMNS = [
        # Exact constants, signed zeros included.
        (5.0, 5.0, 5.0, 5.0),
        (0.0, -0.0, 0.0),
        (-0.0, -0.0, -0.0, -0.0, -0.0),
        (0.1, 0.1, 0.1),  # the float mean is not exactly 0.1
        (7.25,),
        (1e6, 1e6, 1e6, 1e6, 1e6, 1e6),
        # Near-constant noisy columns: the constant is feasible but its R^2
        # is below 1, so an exact quadratic (or line) must still win ...
        (5.0008, 5.0002, 5.0, 5.0002, 5.0008),
        tuple(-0.0009 + 0.0003 * i for i in range(7)),
        (-0.0009, 0.0009),
        # ... or the constant wins on simplicity below R^2 = 1.
        (3.0, 3.0004, 3.0, 3.0004, 3.0),
        # Rotation steps.
        tuple(6.0 * (i + 1) for i in range(10)),
        tuple(30.0 * i for i in range(12)),
        tuple(45.0 + 90.0 * i for i in range(4)),
        tuple(-6.0 * i for i in range(5)),
        # An aliased sinusoid: 90 and 270 degrees agree at integer points.
        (0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0),
        tuple(round(math.sin(math.radians(90 * i + 315)), 12) for i in range(8)),
        tuple(2.0 + 3.0 * math.sin(math.radians(60 * i)) for i in range(7)),
        # Infeasible.
        (1.0, 17.0, 2.0, 23.0, 3.0, 31.0, 4.0),
    ]

    @pytest.mark.parametrize("column", COLUMNS)
    @pytest.mark.parametrize("is_rotation", [False, True])
    def test_fixed_columns(self, column, is_rotation):
        config = SolverConfig()
        assert _bits(solve_component(column, config, is_rotation=is_rotation)) == _bits(
            _reference_solve_component(column, config, is_rotation=is_rotation)
        )

    def test_constant_shortcut_is_counted(self):
        solver = FunctionSolver()
        solver.solve_component((5.0, 5.0, 5.0))
        solver.solve_component((-0.0, 0.0, -0.0), is_rotation=True)
        solver.solve_component(tuple(1.0 + 1e-4 * i * i for i in range(5)))
        assert solver.counts["solver_constant_shortcuts"] == 2

    @settings(max_examples=120, deadline=None)
    @given(
        column=st.one_of(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 90.0, 180.0, 1e-4]),
                min_size=1,
                max_size=9,
            ),
            st.lists(
                st.floats(min_value=-400, max_value=400, allow_nan=False, width=32),
                min_size=1,
                max_size=9,
            ),
            st.builds(
                lambda a, b, c, scale, count, noise: [
                    scale * (a * i * i + b * i) + c + noise * (-1) ** i for i in range(count)
                ],
                st.integers(-3, 3),
                st.integers(-60, 60),
                st.integers(-360, 360),
                st.sampled_from([1.0, 1e-4, 2e-5]),
                st.integers(1, 10),
                st.sampled_from([0.0, 2e-4, 6e-4, 3e-3]),
            ),
        ),
        is_rotation=st.booleans(),
    )
    def test_generated_columns(self, column, is_rotation):
        config = SolverConfig()
        assert _bits(solve_component(column, config, is_rotation=is_rotation)) == _bits(
            _reference_solve_component(column, config, is_rotation=is_rotation)
        )

    @pytest.mark.parametrize(
        "column",
        [
            (0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0),
            tuple(2.0 + 3.0 * math.sin(math.radians(60 * i)) for i in range(7)),
            tuple(math.sin(math.radians(50 * i + 10)) for i in range(9)),
            (1.0, 17.0, 2.0, 23.0, 3.0, 31.0, 4.0),
        ],
    )
    def test_memoized_sinusoid_fit_equals_unmemoized(self, monkeypatch, column):
        frequencies = []
        original = trig._solve_fixed_frequency

        def counted(indices, values, frequency):
            frequencies.append(frequency)
            return original(indices, values, frequency)

        monkeypatch.setattr(trig, "_solve_fixed_frequency", counted)
        tally = Counter()
        memoized = fit_sinusoid(column, EPSILON, tally=tally)
        solved = list(frequencies)
        assert memoized == _reference_fit_sinusoid(column, EPSILON)
        # Each frequency is solved once per call, and the tally counts them.
        assert len(solved) == len(set(solved)) == tally["frequency_solves"]
        assert len(frequencies) - len(solved) > len(solved)


def _spelled(term):
    """A term with every numeric literal spelled with its type and sign."""
    return (repr(term.op), tuple(_spelled(child) for child in term.children))


class TestRenderMemo:
    @pytest.mark.parametrize(
        "form, signed",
        [
            (ConstantForm(0.0), ConstantForm(-0.0)),
            (LinearForm(0.0, 2.0), LinearForm(-0.0, 2.0)),
            (LinearForm(2.0, 0.0), LinearForm(2.0, -0.0)),
            (QuadraticForm(0.0, 1.0, 0.0), QuadraticForm(-0.0, 1.0, -0.0)),
            (RotationForm(6, 0, 0.0), RotationForm(6, 0, -0.0)),
            (SinusoidForm(1.0, 90.0, 0.0, 0.0), SinusoidForm(1.0, 90.0, -0.0, -0.0)),
            (MultilinearForm((0.0, 1.0), 0.0), MultilinearForm((-0.0, 1.0), -0.0)),
        ],
    )
    def test_equal_forms_render_alike(self, form, signed):
        # -0.0 == 0.0, so these share a memo entry: they must render alike.
        index = (Term("i"), Term("j")) if isinstance(form, MultilinearForm) else Term("i")
        assert form == signed and hash(form) == hash(signed)
        assert _spelled(form.to_term(index)) == _spelled(signed.to_term(index))
        solver = FunctionSolver()
        first = solver.render(form, index)
        assert solver.render(signed, index) is first
        assert solver.counts["render_memo_hits"] == 1

    def test_index_is_part_of_the_key(self):
        solver = FunctionSolver()
        form = LinearForm(2.0, 1.0)
        assert solver.render(form, Term("i")) != solver.render(form, Term("j"))
        assert solver.counts["render_memo_hits"] == 0


class TestMultilinear:
    def test_exact_grid(self):
        tuples = [(i, j) for i in range(2) for j in range(3)]
        values = [24.0 * i - 12.0 + 0.0 * j for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        assert isinstance(form, MultilinearForm)
        assert form.coefficients[0] == pytest.approx(24.0)
        assert form.intercept == pytest.approx(-12.0)

    def test_mixed_dependence(self):
        tuples = [(i, j) for i in range(3) for j in range(4)]
        values = [5.0 * i - 2.0 * j + 7.0 for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        assert form.max_residual(tuples, values) <= EPSILON

    def test_infeasible(self):
        tuples = [(i, j) for i in range(2) for j in range(2)]
        values = [0.0, 1.0, 1.0, 5.0]
        assert fit_multilinear(tuples, values, EPSILON) is None

    def test_renders_term_over_two_indices(self):
        tuples = [(i, j) for i in range(2) for j in range(2)]
        values = [10.0 * i + 3.0 * j + 1.0 for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        term = form.to_term([Term("i"), Term("j")])
        for (i, j), expected in zip(tuples, values):
            assert float(evaluate(term, {"i": i, "j": j})) == pytest.approx(expected)

    def test_constant_form(self):
        tuples = [(i,) for i in range(4)]
        form = fit_multilinear(tuples, [3.0, 3.0, 3.0, 3.0], EPSILON)
        assert form.is_constant()


@settings(max_examples=40)
@given(
    a=st.floats(min_value=-20, max_value=20, allow_nan=False),
    b=st.floats(min_value=-50, max_value=50, allow_nan=False),
    count=st.integers(min_value=2, max_value=12),
)
def test_linear_fit_recovers_exact_lines(a, b, count):
    """Any exact line is recovered within epsilon (property)."""
    values = [a * i + b for i in range(count)]
    form = fit_linear(values, EPSILON)
    assert form is not None
    assert form.max_residual(values) <= EPSILON


@settings(max_examples=40)
@given(
    a=st.integers(min_value=-10, max_value=10),
    b=st.integers(min_value=-10, max_value=10),
    c=st.integers(min_value=-20, max_value=20),
    count=st.integers(min_value=3, max_value=10),
)
def test_quadratic_fit_recovers_exact_polynomials(a, b, c, count):
    """Any exact quadratic is recovered within epsilon (property)."""
    values = [float(a * i * i + b * i + c) for i in range(count)]
    form = fit_quadratic(values, EPSILON)
    assert form is not None
    assert form.max_residual(values) <= EPSILON

"""Nested-loop inference (paper Section 5).

Function inference handles singly-indexed repetition; this component looks
for doubly- and triply-nested loops over the *outermost* affine layer of a
folded list.  It follows the paper's two-step search:

* **regular loops** — the list length ``n`` is m-factorized (m = 2, 3, trivial
  factors removed); each factorization yields m-index-sets (the Cartesian
  product of the per-dimension ranges, Fig. 13); the list elements are paired
  with those index tuples and the multilinear solver is asked for a closed
  form of every vector component.  On success a nested ``Fold`` of ``Fun``\\ s
  over explicit index lists is built (the Fig. 14 / Fig. 17 output shape)
  for the list's e-class.
* **irregular loops** — when no regular factorization fits, elements are
  regrouped by a shared coordinate of the outer vector; groups that admit a
  closed form become inner loops and the groups are concatenated.

Both shapes evaluate (via the map-concatenate convention of the LambdaCAD
evaluator) to a list equal, up to reordering, to the original — which is
semantics-preserving under the commutative fold operators they appear in.

Like function inference, the pass reads a quiescent e-graph (the pipeline
rebuilds it after function inference, so the determinizer reuses the
registered cost analysis) and writes every inferred loop as one batch at
the end, merging each into its list's e-class.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cad.build import concat, cons_list, fold, fun, int_list, mapi, nil, repeat
from repro.core.config import SynthesisConfig
from repro.core.determinize import DeterminizedList, Determinizer
from repro.core.function_inference import (
    InferenceRecord,
    PendingWrite,
    inference_counters,
    write_equivalences,
)
from repro.core.lists import ListReadError, find_fold_matches, read_list_elements
from repro.egraph.egraph import EGraph
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver
from repro.solvers.multilinear import fit_multilinear


# ---------------------------------------------------------------------------
# m-factorization and m-index-sets (paper Fig. 13)
# ---------------------------------------------------------------------------

def m_factorizations(n: int, m: int) -> List[Tuple[int, ...]]:
    """All ways to write ``n`` as an ordered product of ``m`` non-trivial factors.

    Trivial factors (1 and ``n`` itself in any position) are removed, as in
    the paper: they do not lead to interesting nested loops.
    """
    if m < 1 or n < 2:
        return []
    if m == 1:
        return [(n,)]
    results: List[Tuple[int, ...]] = []
    for first in range(2, n // 2 + 1):
        if n % first != 0:
            continue
        for rest in m_factorizations(n // first, m - 1):
            candidate = (first,) + rest
            if all(factor >= 2 for factor in candidate):
                results.append(candidate)
    # Deduplicate while keeping order (unique_perms in the paper).
    unique: List[Tuple[int, ...]] = []
    for candidate in results:
        if candidate not in unique:
            unique.append(candidate)
    return unique


def m_index_set(dimensions: Sequence[int]) -> List[Tuple[int, ...]]:
    """The Cartesian-product index tuples for the given loop bounds.

    For dimensions ``(2, 2)`` this returns ``[(0,0), (0,1), (1,0), (1,1)]`` —
    i.e. the two paper index sets ``[0;0;1;1]`` and ``[0;1;0;1]`` read
    column-wise.
    """
    ranges = [range(d) for d in dimensions]
    return [tuple(t) for t in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Loop inference proper
# ---------------------------------------------------------------------------

@dataclass
class LoopInference:
    """Searches folded lists for nested-loop structure."""

    egraph: EGraph
    config: SynthesisConfig
    #: Memoized per column, so one solver serves both passes of a phase.
    solver: FunctionSolver
    records: List[InferenceRecord] = field(default_factory=list)
    #: Filled by :meth:`run`; see :func:`inference_counters`.
    counters: Counter = field(default_factory=Counter)

    #: Index variable names per nesting level.
    _INDEX_NAMES = ("i", "j", "k")

    def run(self) -> int:
        """Infer nested loops for all folds; returns the number of successes.

        Folds are processed longest first.  A fold is skipped only when a
        superset fold was already solved by a *regular* nested loop (the
        sub-list is then just a slice of that loop); irregular successes do
        not suppress sub-folds, because a sub-list may still admit the more
        useful regular factorization (the dice's 3x3 pip grid inside a larger
        irregular face list is the canonical example).  Every attempt here is
        cheap — a few least-squares fits — so there is no quadratic blow-up.
        The inferred loops are written to the e-graph after the last fold,
        as one batch.
        """
        solver_start = dict(self.solver.counts)
        determinizer = Determinizer(self.egraph)
        work = []
        for _fold_class, function_class, _acc, list_class in find_fold_matches(self.egraph):
            if not self._commutative_function(function_class):
                continue
            try:
                element_classes = read_list_elements(self.egraph, list_class)
            except ListReadError:
                continue
            if len(element_classes) < 4:
                continue
            work.append((list_class, element_classes))
        work.sort(key=lambda item: -len(item[1]))

        successes = skipped = attempted = 0
        regular_covered: List[frozenset] = []
        pending: List[PendingWrite] = []
        for list_class, element_classes in work:
            element_set = frozenset(element_classes)
            if any(element_set <= done for done in regular_covered):
                skipped += 1
                continue
            attempted += 1
            built = None
            regular = False
            for determinized in determinizer.determinize_all(element_classes, max_variants=3):
                ordered = determinized.sorted()
                built = self._infer_regular(ordered)
                regular = built is not None
                if built is None:
                    built = self._infer_irregular(ordered)
                if built is not None:
                    break
            if built is None:
                continue
            term, record = built
            pending.append((list_class, [term], record))
            if regular:
                regular_covered.append(element_set)
            successes += 1
        written, subterm_hits = write_equivalences(
            self.egraph, pending, determinizer.known_class, self.records
        )
        self.counters = inference_counters(
            determinizer,
            self.solver,
            solver_start,
            folds=len(work),
            folds_skipped_covered=skipped,
            folds_attempted=attempted,
            folds_solved=successes,
            equivalences_written=written,
            batch_subterm_hits=subterm_hits,
        )
        return successes

    # -- shared helpers ---------------------------------------------------------------

    def _commutative_function(self, function_class: int) -> bool:
        for enode in self.egraph.nodes(function_class):
            if enode.is_leaf and enode.op in ("Union", "Inter"):
                return True
        return False

    def _outer_layers(
        self, determinized: DeterminizedList
    ) -> Optional[Tuple[str, List[Tuple[float, float, float]], Term, List[Tuple[str, Tuple[float, float, float]]]]]:
        """The outermost *varying* affine layer of a uniform element list.

        Reads the elements' carried affine chains.  Returns ``(op, vectors,
        remainder, constant_wrappers)`` where ``constant_wrappers`` are
        leading affine layers that are identical across every element (e.g.
        an identical ``Scale`` the determinizer happened to put outermost);
        they are re-applied around the loop body.  The layer below the
        varying one must be identical across elements, otherwise a single
        loop body cannot reproduce the list.
        """
        elements, chains = determinized.elements, determinized.chains
        if not elements:
            return None
        constant_wrappers: List[Tuple[str, Tuple[float, float, float]]] = []
        depth = 0
        while True:
            if any(len(layers) <= depth for layers, _core in chains):
                return None
            op = chains[0][0][depth][0]
            if any(layers[depth][0] != op for layers, _core in chains):
                return None
            vectors = [layers[depth][1] for layers, _core in chains]
            first_vector = vectors[0]
            constant_tolerance = max(self.config.epsilon, 1e-9)
            if all(
                all(abs(v[k] - first_vector[k]) <= constant_tolerance for k in range(3))
                for v in vectors
            ):
                # A constant layer: peel it off and look one level deeper.
                constant_wrappers.append((str(op), first_vector))
                depth += 1
                if depth > 6:
                    return None
                continue
            remainders = [_below_layer(element, depth) for element in elements]
            first = remainders[0]
            if any(r != first for r in remainders):
                return None
            return str(op), vectors, first, constant_wrappers

    # -- regular nested loops -----------------------------------------------------------

    def _infer_regular(
        self, determinized: DeterminizedList
    ) -> Optional[Tuple[Term, InferenceRecord]]:
        outer = self._outer_layers(determinized)
        if outer is None:
            return None
        op, vectors, remainder, wrappers = outer
        count = len(determinized)
        max_nesting = min(self.config.max_loop_nesting, 3)

        for nesting in range(2, max_nesting + 1):
            for dimensions in m_factorizations(count, nesting):
                index_tuples = m_index_set(dimensions)
                forms = []
                feasible = True
                for component in range(3):
                    values = [v[component] for v in vectors]
                    form = fit_multilinear(index_tuples, values, self.config.epsilon)
                    if form is None:
                        feasible = False
                        break
                    forms.append(form)
                if not feasible:
                    continue
                term = self._build_nested_fold(op, forms, remainder, dimensions, wrappers)
                record = InferenceRecord(
                    kind="nested-loop",
                    loop_bounds=tuple(dimensions),
                    function_kinds=tuple(f.kind for f in forms),
                    list_class=-1,
                    nesting=len(dimensions),
                )
                return term, record
        return None

    @staticmethod
    def _wrap_constant_layers(body: Term, wrappers: Sequence[Tuple[str, Tuple[float, float, float]]]) -> Term:
        """Re-apply peeled constant affine layers around a loop body."""
        for op, vector in reversed(list(wrappers)):
            body = Term(
                op,
                (Term.num(vector[0]), Term.num(vector[1]), Term.num(vector[2]), body),
            )
        return body

    def _build_nested_fold(
        self,
        op: str,
        forms: Sequence,
        remainder: Term,
        dimensions: Sequence[int],
        wrappers: Sequence[Tuple[str, Tuple[float, float, float]]] = (),
    ) -> Term:
        """The Fig. 14 output shape: nested Folds of Funs over index lists."""
        index_vars = tuple(Term(self._INDEX_NAMES[level]) for level in range(len(dimensions)))
        x, y, z = (self.solver.render(form, index_vars) for form in forms)
        body: Term = Term(op, (x, y, z, remainder))
        body = self._wrap_constant_layers(body, wrappers)
        # Innermost level first: Fold (Fun k -> body, Nil, [0..d-1]).
        for level in range(len(dimensions) - 1, -1, -1):
            body = fold(
                fun((self._INDEX_NAMES[level],), body),
                nil(),
                int_list(range(dimensions[level])),
            )
        return body

    # -- irregular loops ------------------------------------------------------------------

    def _infer_irregular(
        self, determinized: DeterminizedList
    ) -> Optional[Tuple[Term, InferenceRecord]]:
        elements = determinized.elements
        outer = self._outer_layers(determinized)
        if outer is None:
            return None
        op, vectors, remainder, wrappers = outer

        for grouping_component in range(3):
            groups = _group_vectors_by_component(
                vectors, grouping_component, epsilon=max(self.config.epsilon, 1e-6)
            )
            if len(groups) < 2 or all(len(members) < 2 for _v, members in groups):
                continue
            sizes = {len(members) for _value, members in groups}
            if len(sizes) == 1:
                # A regular grid — the regular path either handled it or the
                # data truly has no multilinear form; grouping will not help.
                continue
            parts: List[Term] = []
            kinds: List[str] = []
            usable = True
            for _value, members in groups:
                if len(members) < 2:
                    parts.append(cons_list([elements[index] for _v, index in members]))
                    continue
                member_vectors = [vector for vector, _index in members]
                function = self.solver.solve(member_vectors, is_rotation=(op == "Rotate"))
                if function is None:
                    usable = False
                    break
                x, y, z = self.solver.render_terms(function, Term("j"))
                body = Term(op, (x, y, z, Term("c")))
                body = self._wrap_constant_layers(body, wrappers)
                parts.append(mapi(fun(("j", "c"), body), repeat(remainder, len(members))))
                kinds.append(function.dominant_kind())
            if not usable or not kinds:
                continue
            combined = parts[0]
            for part in parts[1:]:
                combined = concat(combined, part)
            record = InferenceRecord(
                kind="irregular-loop",
                loop_bounds=tuple(len(members) for _v, members in groups),
                function_kinds=tuple(kinds),
                list_class=-1,
                nesting=2,
            )
            return combined, record
        return None


def _below_layer(element: Term, depth: int) -> Term:
    """The subterm under affine layer ``depth`` of ``element``'s chain."""
    for _ in range(depth + 1):
        element = element.children[3]
    return element


def _group_vectors_by_component(vectors, component: int, *, epsilon: float):
    """Group (vector, element-index) pairs by one coordinate of the vector.

    Mirrors :func:`repro.core.listmanip.group_by_component` but operates on
    the varying-layer vectors loop inference extracted (the elements' literal
    outermost layer may be a peeled constant wrapper).  Returns
    ``[(value, [(vector, index), ...]), ...]`` sorted by the shared value.
    """
    groups = []
    for index, vector in enumerate(vectors):
        value = vector[component]
        placed = False
        for key, members in groups:
            if abs(key - value) <= epsilon:
                members.append((vector, index))
                placed = True
                break
        if not placed:
            groups.append((value, [(vector, index)]))
    groups.sort(key=lambda pair: pair[0])
    return groups

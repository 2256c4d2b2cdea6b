"""Closed-form function inference over folded lists (paper Section 4).

For every ``Fold`` the rewrites introduced, this component:

1. reads and determinizes the list of affine-transformed CADs,
2. checks that the list is uniform (same affine signature per element, same
   core child — otherwise a ``Mapi`` would not be semantics-preserving),
3. extracts the per-layer vectors and asks the arithmetic solvers for a
   closed form of the index for every layer,
4. on success, records ``Mapi``-based terms equivalent to the list; once
   every fold has been tried, the pass adds them all to the e-graph and
   merges each into its list's e-class as one batch (paper Fig. 9,
   "function inference" step).

The pass only reads the e-graph until that final write: no e-node or merge
lands while folds are still being determinized, so the determinizer's memo
stays valid for the whole pass and every element is materialized (and its
affine chain parsed) once.

Two equivalent shapes are inserted: a single ``Mapi`` whose body nests all
affine layers (the gear output of Fig. 4), and a chain of nested ``Mapi``\\ s
with one layer each (the Fig. 10 output).  Cost-based extraction picks
whichever reads best.  If the whole list admits no closed form, inference
falls back to the longest contiguous run that does (this is how the noisy
Fig. 16 model gets a loop over its first two hexagons while the third stays
literal).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cad.build import cons_list, concat, fun, mapi, repeat
from repro.core.config import SynthesisConfig
from repro.core.determinize import DeterminizedList, Determinizer
from repro.core.lists import ListReadError, find_fold_matches, read_list_elements
from repro.core.listmanip import AffineChain
from repro.egraph.egraph import EGraph
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver, VectorFunction


@dataclass
class InferenceRecord:
    """What one successful inference produced (feeds Table 1's n-l / f columns)."""

    kind: str  # "mapi", "mapi-partial", or "repeat"
    loop_bounds: Tuple[int, ...]
    function_kinds: Tuple[str, ...]
    list_class: int
    nesting: int = 1

    def to_dict(self) -> dict:
        """JSON-able snapshot (tuples become lists)."""
        return {
            "kind": self.kind,
            "loop_bounds": list(self.loop_bounds),
            "function_kinds": list(self.function_kinds),
            "list_class": self.list_class,
            "nesting": self.nesting,
        }

    @staticmethod
    def from_dict(data: dict) -> "InferenceRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return InferenceRecord(
            kind=data["kind"],
            loop_bounds=tuple(data["loop_bounds"]),
            function_kinds=tuple(data["function_kinds"]),
            list_class=data["list_class"],
            nesting=data.get("nesting", 1),
        )


#: One inferred equivalence awaiting its pass's batch write: the list's
#: e-class, the terms equal to it, and the record describing them.
PendingWrite = Tuple[int, List[Term], InferenceRecord]


def write_equivalences(
    egraph: EGraph,
    pending: Sequence[PendingWrite],
    resolve: Callable[[Term], Optional[int]],
    records: List[InferenceRecord],
) -> Tuple[int, int]:
    """Write one pass's inferred lists as a batch.

    Each term is added over the classes ``resolve`` knows (the determinized
    elements and their cores are already e-classes; only the new list
    structure around them is added) and merged into its list's e-class.
    The batch keeps one ``Term -> class`` memo that every add fills and the
    resolver reads (through ``find``) after ``resolve``: the variants of a
    list, and the lists of one pass, share lambda bodies and index lists,
    and each distinct subterm is inserted once.  Only after the whole batch
    does each record learn its canonical list class and join ``records``.

    Returns how many terms were written and how many subterms the batch
    memo answered.
    """
    added: Dict[Term, int] = {}
    hits = 0

    def resolve_batch(term: Term) -> Optional[int]:
        nonlocal hits
        class_id = resolve(term)
        if class_id is None:
            class_id = added.get(term)
            if class_id is None:
                return None
            hits += 1
            class_id = egraph.find(class_id)
        return class_id

    written = 0
    for list_class, terms, _record in pending:
        for term in terms:
            egraph.merge(list_class, egraph.add_term_resolving(term, resolve_batch, added))
            written += 1
    for list_class, _terms, record in pending:
        record.list_class = egraph.find(list_class)
        records.append(record)
    return written, hits


def inference_counters(
    determinizer: Determinizer,
    solver: FunctionSolver,
    solver_start: Dict[str, int],
    **pass_counts: int,
) -> Counter:
    """One inference pass's counters (its span's attributes).

    ``solver_start`` is a copy of the shared solver's :attr:`counts` when
    the pass began, so each pass counts only its own solves and renders and
    the per-pass counters sum to the phase's totals.
    """
    return Counter(
        **pass_counts,
        materialize_calls=determinizer.materialize_calls,
        materialize_memo_hits=determinizer.materialize_memo_hits,
        known_class_hits=determinizer.known_class_hits,
        scratch_cost_tables=determinizer.scratch_cost_tables,
        **{name: total - solver_start[name] for name, total in solver.counts.items()},
    )


@dataclass
class LayerSolution:
    """A solved affine layer: the operator and its closed-form vector function."""

    op: str
    function: VectorFunction


@dataclass
class FunctionInference:
    """Runs function inference over every fold currently in the e-graph."""

    egraph: EGraph
    config: SynthesisConfig
    #: Memoized per column, so one solver serves both passes of a phase.
    solver: FunctionSolver
    records: List[InferenceRecord] = field(default_factory=list)
    #: Filled by :meth:`run`; see :func:`inference_counters`.
    counters: Counter = field(default_factory=Counter)

    def run(self) -> int:
        """Infer functions for all folds; returns the number of successes.

        Folds are processed longest-list first, and a fold whose elements are
        a subset of an already-solved fold's elements is skipped: the chains
        a flat trace produces contain every suffix of the full list as its
        own fold, and solving the suffixes adds nothing the full solution
        does not already expose.  The inferred lists are written to the
        e-graph after the last fold, as one batch.
        """
        solver_start = dict(self.solver.counts)
        determinizer = Determinizer(self.egraph)
        work = []
        for fold_class, function_class, _acc_class, list_class in find_fold_matches(self.egraph):
            if not self._foldable_function(function_class):
                continue
            try:
                element_classes = read_list_elements(self.egraph, list_class)
            except ListReadError:
                continue
            if len(element_classes) < 2:
                continue
            work.append((list_class, element_classes))
        work.sort(key=lambda item: -len(item[1]))

        successes = skipped = attempted = 0
        covered: List[frozenset] = []
        failed: List[frozenset] = []
        pending: List[PendingWrite] = []
        for list_class, element_classes in work:
            element_set = frozenset(element_classes)
            # Suffix folds of an already-solved longer chain add nothing and
            # are skipped — but only for long lists, where the quadratic
            # re-work would actually cost something.  Short sub-lists are
            # always attempted: a sub-group can have cleaner structure than
            # the (heuristically solved) enclosing list.
            if len(element_classes) > 8 and any(element_set <= done for done in covered):
                skipped += 1
                continue
            attempted += 1
            # When a superset already failed, its sub-lists will fail the
            # (cheap) full inference the same way; skip the more expensive
            # partial-run search for them to avoid quadratic re-work over the
            # many suffix folds a flat trace produces.
            allow_partial = not any(element_set <= bad for bad in failed)
            variants = determinizer.determinize_all(element_classes, max_variants=4)
            solved = False
            # Try every determinized variant: different affine orderings can
            # yield different (all correct) parameterizations, and the cost
            # function picks among them at extraction time.
            for determinized in variants:
                if self._infer_for_list(
                    list_class, determinized, pending, allow_partial=allow_partial
                ):
                    solved = True
            if solved:
                successes += 1
                covered.append(element_set)
            else:
                failed.append(element_set)
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

    # -- helpers -------------------------------------------------------------------

    def _foldable_function(self, function_class: int) -> bool:
        """The fold's function must be a commutative boolean operator leaf.

        Reordering and ``Repeat``-based regrouping are only semantics
        preserving when the combining operator does not care about order.
        """
        for enode in self.egraph.nodes(function_class):
            if enode.is_leaf and enode.op in ("Union", "Inter"):
                return True
        return False

    def _infer_for_list(
        self,
        list_class: int,
        determinized: DeterminizedList,
        pending: List[PendingWrite],
        *,
        allow_partial: bool = True,
    ) -> bool:
        """Infer closed forms for one determinized list; queue them on ``pending``."""
        orders: List[DeterminizedList] = [determinized]
        if self.config.enable_list_sorting:
            sorted_list = determinized.sorted()
            if sorted_list.elements != determinized.elements:
                orders.append(sorted_list)

        solved = False
        full_solved = False
        for order in orders:
            built = self._infer_full(order.chains)
            if built is not None:
                terms, record = built
                pending.append((list_class, terms, record))
                solved = True
                full_solved = True
                break

        if not allow_partial:
            return solved

        # Also look for solvable contiguous runs.  Even when the full list
        # admits a closed form, a run-based variant can be the better program
        # (the Fig. 16 noisy hexagons: an exact quadratic exists for all three
        # but the paper's preferred output loops over the first two only);
        # both variants go into the e-graph and extraction chooses.
        if not full_solved or len(determinized) <= 6:
            for order in orders:
                built = self._infer_partial(order)
                if built is not None:
                    terms, record = built
                    pending.append((list_class, terms, record))
                    solved = True
                    break
        return solved

    # -- full-list inference ----------------------------------------------------------

    def _infer_full(
        self, chains: Sequence[AffineChain]
    ) -> Optional[Tuple[List[Term], InferenceRecord]]:
        """Closed forms for a whole list, given its elements' affine chains."""
        decomposed = self._decompose(chains)
        if decomposed is None:
            return None
        layers, core = decomposed
        count = len(chains)

        if not layers:
            # No affine structure but all elements identical: a plain Repeat.
            return (
                [repeat(core, count)],
                InferenceRecord(
                    kind="repeat",
                    loop_bounds=(count,),
                    function_kinds=(),
                    list_class=-1,
                ),
            )

        solutions = self._solve_layers(layers)
        if solutions is None:
            return None

        variants = [self._build_single_mapi(solutions, core, count)]
        record = InferenceRecord(
            kind="mapi",
            loop_bounds=(count,),
            function_kinds=tuple(s.function.dominant_kind() for s in solutions),
            list_class=-1,
        )
        nested = self._build_nested_mapis(solutions, core, count)
        if nested is not None and nested not in variants:
            variants.append(nested)
        return variants, record

    def _decompose(
        self, chains: Sequence[AffineChain]
    ) -> Optional[Tuple[List[Tuple[str, List[Tuple[float, float, float]]]], Term]]:
        """Split uniform elements' chains into per-layer vector lists and the shared core."""
        signature = tuple(op for op, _v in chains[0][0])
        for layers, _core in chains:
            if tuple(op for op, _v in layers) != signature:
                return None
        first_core = chains[0][1]
        for _layers, core in chains:
            if core != first_core:
                return None
        layer_vectors: List[Tuple[str, List[Tuple[float, float, float]]]] = []
        for layer_index, op in enumerate(signature):
            vectors = [layers[layer_index][1] for layers, _core in chains]
            layer_vectors.append((op, vectors))
        return layer_vectors, first_core

    def _solve_layers(
        self, layers: Sequence[Tuple[str, List[Tuple[float, float, float]]]]
    ) -> Optional[List[LayerSolution]]:
        solutions: List[LayerSolution] = []
        for op, vectors in layers:
            function = self.solver.solve(vectors, is_rotation=(op == "Rotate"))
            if function is None:
                return None
            solutions.append(LayerSolution(op=op, function=function))
        return solutions

    def _build_single_mapi(
        self, solutions: Sequence[LayerSolution], core: Term, count: int
    ) -> Term:
        """One Mapi whose body nests every affine layer (Fig. 4 shape)."""
        index = Term("i")
        body: Term = Term("c")
        for solution in reversed(list(solutions)):
            x, y, z = self.solver.render_terms(solution.function, index)
            body = Term(solution.op, (x, y, z, body))
        return mapi(fun(("i", "c"), body), repeat(core, count))

    def _build_nested_mapis(
        self, solutions: Sequence[LayerSolution], core: Term, count: int
    ) -> Optional[Term]:
        """Nested Mapis, one per affine layer (Fig. 10 shape)."""
        if len(solutions) < 2:
            return None
        index = Term("i")
        current: Term = repeat(core, count)
        for solution in reversed(list(solutions)):
            x, y, z = self.solver.render_terms(solution.function, index)
            body = Term(solution.op, (x, y, z, Term("c")))
            current = mapi(fun(("i", "c"), body), current)
        return current

    # -- partial (contiguous-run) inference ----------------------------------------------

    def _promising_runs(self, chains: Sequence[AffineChain]) -> List[Tuple[int, int]]:
        """Maximal contiguous runs whose outer affine vectors step uniformly.

        Runs are detected with a cheap constant-first-difference test on the
        outermost affine vector (a linear progression steps by the same
        amount between consecutive elements), so the expensive solvers are
        only invoked on a handful of candidate runs instead of every O(n^2)
        slice.  Elements whose step differs start a new run; runs of a single
        step (two elements) are still considered — any two points lie on a
        line, which is exactly how the noisy Fig. 16 model keeps its first
        two hexagons in a loop.
        """
        count = len(chains)
        vectors = [layers[0][1] if layers else None for layers, _core in chains]

        def step(index: int):
            a, b = vectors[index], vectors[index + 1]
            if a is None or b is None:
                return None
            return tuple(b[k] - a[k] for k in range(3))

        def steps_equal(a, b) -> bool:
            if a is None or b is None:
                return False
            tolerance = max(self.config.epsilon * 4.0, 1e-6)
            return all(abs(x - y) <= tolerance for x, y in zip(a, b))

        runs: List[Tuple[int, int]] = []
        start = 0
        while start < count - 1:
            current_step = step(start)
            if current_step is None:
                start += 1
                continue
            end = start + 1
            while end < count - 1 and steps_equal(step(end), current_step):
                end += 1
            runs.append((start, end + 1))
            start = end
        # Longest candidates first; discard trivial or full-length runs.
        runs = [(s, e) for s, e in runs if 2 <= e - s < count]
        runs.sort(key=lambda pair: -(pair[1] - pair[0]))
        return runs[:8]

    def _infer_partial(
        self, determinized: DeterminizedList
    ) -> Optional[Tuple[List[Term], InferenceRecord]]:
        elements, chains = determinized.elements, determinized.chains
        count = len(elements)
        best: Optional[Tuple[int, int, Term, InferenceRecord]] = None
        for start, end in self._promising_runs(chains):
            built = self._infer_full(chains[start:end])
            if built is None:
                continue
            run_terms, record = built
            best = (start, end, run_terms[0], record)
            break
        if best is None:
            return None
        start, end, run_term, record = best
        parts: List[Term] = []
        if start > 0:
            parts.append(cons_list(elements[:start]))
        parts.append(run_term)
        if end < count:
            parts.append(cons_list(elements[end:]))
        combined = parts[0]
        for part in parts[1:]:
            combined = concat(combined, part)
        record.kind = "mapi-partial"
        return [combined], record

"""List determinization (paper Section 4.2, Fig. 5 line 5).

After rewriting, each element of a folded list lives in an e-class with many
equivalent variants — the affine reordering rules alone can create
exponentially many orderings of a nested transformation chain.  The function
solvers need one *concrete* affine-transformed CAD per element, and the
chains must be *uniform* across elements (same transformation types, in the
same order) or the layer-by-layer vector extraction is meaningless.

The determinizer implements the paper's heuristic: pick a representative for
the first element, record its chain signature (the sequence of affine
operators from the outside in), and then force every other element to a
variant with the same signature, searching its e-class for one.  Elements
whose class has no variant with that signature cause the whole signature to
be abandoned and the next candidate signature to be tried.

The affine-chain vocabulary, the per-term signature, and the
longest-first candidate ordering all come from the shared semantic
normalization layer (:mod:`repro.lang.normal`) — the same definitions the
cache's semantic fingerprints are built on.

Materialization is memoized per ``(class, signature)`` and the memo is
dropped whenever :attr:`EGraph.version` moves (any new e-node or merge), so
a memoized answer is always the one a fresh walk would give.  The inference
passes read a quiescent e-graph and write their equivalences as one batch
at the end, so within a pass the version never moves and every key is
materialized exactly once.  Each memo entry also holds the term's parsed
affine chain, built layer by layer as the term is; a
:class:`DeterminizedList` carries these chains next to its elements, so the
inference components never re-parse a materialized term.  Every term
materialized from a class is also remembered as *known* to live there
(:meth:`Determinizer.known_class`): the inference components insert lists
built from these terms with :meth:`EGraph.add_term_resolving`, which stops
at a known term instead of re-adding it node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.listmanip import AffineChain, sorted_order
from repro.csg.ops import affine_chain, affine_vector
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import ExtractionError, Extractor, ast_size_cost
from repro.lang.normal import AFFINE_OPS, affine_signature, signature_sort_key
from repro.lang.term import Term

#: A materialized term together with its parsed affine chain.
Materialized = Tuple[Term, AffineChain]


@dataclass
class DeterminizedList:
    """A concrete, uniform view of a folded list."""

    #: One concrete term per element, all sharing the same affine signature.
    elements: List[Term]
    #: The shared affine signature, outermost first (possibly empty).
    signature: Tuple[str, ...]
    #: E-class ids the elements came from (parallel to ``elements``).
    element_classes: List[int]
    #: Each element's affine chain ``(layers, core)`` as
    #: :func:`~repro.csg.ops.affine_chain` parses it, layers as a tuple
    #: (parallel to ``elements``).
    chains: List[AffineChain]

    def __len__(self) -> int:
        return len(self.elements)

    def sorted(self) -> "DeterminizedList":
        """This list sorted lexicographically by the elements' affine vectors.

        Elements, chains and classes are reordered together.
        """
        order = sorted_order(self.chains)
        return DeterminizedList(
            elements=[self.elements[index] for index in order],
            signature=self.signature,
            element_classes=[self.element_classes[index] for index in order],
            chains=[self.chains[index] for index in order],
        )


class Determinizer:
    """Chooses consistent concrete variants for list elements."""

    def __init__(self, egraph: EGraph, max_signature_depth: int = 4):
        self.egraph = egraph
        self.max_signature_depth = max_signature_depth
        self._extractor = Extractor(egraph, ast_size_cost)
        #: (class, signature) -> (term, chain) (or None), valid while the
        #: e-graph is at ``_memo_version``.
        self._memo: Dict[Tuple[int, Tuple[str, ...]], Optional[Materialized]] = {}
        self._memo_version = egraph.version
        #: Materialized term -> the class it came from; stays valid for the
        #: e-graph's lifetime (classes only grow), read via ``find``.
        self._sources: Dict[Term, int] = {}
        self.materialize_calls = 0
        self.materialize_memo_hits = 0
        self.known_class_hits = 0
        #: 1 when the extractor found no reusable cost analysis (the graph
        #: was not quiescent) and computed its cost table from scratch.
        self.scratch_cost_tables = int(self._extractor.scratch_table)

    def known_class(self, term: Term) -> Optional[int]:
        """The e-class ``term`` was materialized from, or ``None``.

        Shaped as the ``resolve`` argument of :meth:`EGraph.add_term_resolving`.
        """
        class_id = self._sources.get(term)
        if class_id is None:
            return None
        self.known_class_hits += 1
        return self.egraph.find(class_id)

    # -- public ------------------------------------------------------------------

    def determinize(self, element_classes: Sequence[int]) -> Optional[DeterminizedList]:
        """Produce a uniform concrete element list, or ``None`` if impossible."""
        variants = self.determinize_all(element_classes, max_variants=1)
        return variants[0] if variants else None

    def determinize_all(
        self, element_classes: Sequence[int], max_variants: int = 4
    ) -> List[DeterminizedList]:
        """Produce up to ``max_variants`` uniform concrete views of the list.

        Different affine orderings expose different vectors to the solvers —
        only the ordering matching the design's latent structure yields
        closed forms (e.g. Fig. 10's Translate/Rotate/Scale chain), so the
        arithmetic components try each returned variant in turn.
        """
        element_classes = [self.egraph.find(c) for c in element_classes]
        if not element_classes:
            return []

        variants: List[DeterminizedList] = []
        for signature in self._candidate_signatures(element_classes[0]):
            if len(variants) >= max_variants:
                break
            materialized = self._materialize_all(element_classes, signature)
            if materialized is not None:
                variants.append(
                    DeterminizedList(
                        elements=[term for term, _chain in materialized],
                        signature=signature,
                        element_classes=list(element_classes),
                        chains=[chain for _term, chain in materialized],
                    )
                )
        return variants

    # -- candidate signatures -----------------------------------------------------

    def _candidate_signatures(self, class_id: int) -> List[Tuple[str, ...]]:
        """Affine signatures available for the first element, longest first.

        Longer signatures are preferred because they expose more layers to
        the function solver (a chain ``Translate . Rotate . Scale`` gives
        three solvable layers; its collapsed variants give fewer).
        """
        signatures = set()
        self._collect_signatures(class_id, (), signatures, set())
        ordered = sorted(signatures, key=signature_sort_key)
        return ordered or [()]

    def _collect_signatures(
        self,
        class_id: int,
        prefix: Tuple[str, ...],
        accumulator: set,
        visiting: set,
    ) -> None:
        class_id = self.egraph.find(class_id)
        if len(prefix) >= self.max_signature_depth:
            accumulator.add(prefix)
            return
        key = (class_id, prefix)
        if key in visiting:
            return
        visiting.add(key)
        accumulator.add(prefix)
        for enode in self.egraph.nodes(class_id):
            if enode.op in AFFINE_OPS and len(enode.args) == 4:
                self._collect_signatures(
                    enode.args[3], prefix + (str(enode.op),), accumulator, visiting
                )

    # -- materialization ------------------------------------------------------------

    def _materialize_all(
        self, element_classes: Sequence[int], signature: Tuple[str, ...]
    ) -> Optional[List[Materialized]]:
        elements = []
        for class_id in element_classes:
            materialized = self._materialize(class_id, signature)
            if materialized is None:
                return None
            elements.append(materialized)
        return elements

    def _materialize(
        self, class_id: int, signature: Tuple[str, ...]
    ) -> Optional[Materialized]:
        """Extract a concrete term from ``class_id`` whose affine chain starts
        with exactly the operators of ``signature``, with its parsed chain."""
        self.materialize_calls += 1
        if self._memo_version != self.egraph.version:
            self._memo.clear()
            self._memo_version = self.egraph.version
        key = (self.egraph.find(class_id), signature)
        if key in self._memo:
            self.materialize_memo_hits += 1
            return self._memo[key]
        materialized = self._materialize_uncached(*key)
        self._memo[key] = materialized
        if materialized is not None:
            self._sources.setdefault(materialized[0], key[0])
        return materialized

    def _materialize_uncached(
        self, class_id: int, signature: Tuple[str, ...]
    ) -> Optional[Materialized]:
        if not signature:
            try:
                term = self._extractor.extract(class_id)
            except ExtractionError:
                return None
            # Reject terms that still start with an affine operator when an
            # empty signature was requested only if no alternative exists —
            # uniformity matters more than minimality, so accept what we got.
            layers, core = affine_chain(term)
            return term, (tuple(layers), core)
        head = signature[0]
        for enode in self.egraph.nodes(class_id):
            if enode.op != head or len(enode.args) != 4:
                continue
            vector_terms = []
            ok = True
            for arg in enode.args[:3]:
                try:
                    vector_terms.append(self._extractor.extract(arg))
                except ExtractionError:
                    ok = False
                    break
            if not ok:
                continue
            child = self._materialize(enode.args[3], signature[1:])
            if child is None:
                continue
            child_term, (child_layers, core) = child
            term = Term(head, tuple(vector_terms) + (child_term,))
            return term, (((head, affine_vector(term)),) + child_layers, core)
        return None


def chain_uniform(elements: Sequence[Term]) -> bool:
    """True when all elements share the same affine-operator signature."""
    return len({affine_signature(element) for element in elements}) <= 1

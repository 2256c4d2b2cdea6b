"""List manipulation in the context of a Fold (paper Section 4.3, Fig. 11/12).

Once a list has been determinized, Szalinski may reorder it to help the
function solver find a closed form: lexicographic sorting by the affine
vectors, regrouping by the transformed child, and regrouping by a common
coordinate value.  Reordering is only applied under a ``Fold`` whose operator
is commutative (``Union``/``Inter``), where it is semantics-preserving.

Two layers are provided:

* pure-term helpers (:func:`sort_elements`, :func:`group_by_child`,
  :func:`group_by_component`) over lists of element terms, and
  :func:`sorted_order`, the same sort over already-parsed affine chains
  (what :meth:`~repro.core.determinize.DeterminizedList.sorted` uses on the
  determinized working list);
* :func:`apply_list_manipulation`, which mirrors the paper's algorithm
  (Fig. 12) on the e-graph itself: it builds the reordered spine, wraps it in
  a new ``Fold`` e-node, and merges that node into the e-class of the
  original fold.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph, ENode
from repro.core.lists import add_term_list
from repro.lang.term import Term

#: An element's parsed affine chain: ``(layers, core)`` with ``layers`` the
#: outermost-first ``(op, (x, y, z))`` pairs (see :func:`affine_chain`).
AffineChain = Tuple[Tuple[Tuple[str, Tuple[float, float, float]], ...], Term]


def _sort_key(chain: AffineChain) -> Tuple:
    """Lexicographic key over a chain's affine vectors, outermost first."""
    layers, core = chain
    vectors = tuple(vector for _op, vector in layers)
    return (vectors, str(core.op))


def sorted_order(chains: Sequence[AffineChain]) -> List[int]:
    """The (stable) order that sorts elements by their parsed affine chains."""
    return sorted(range(len(chains)), key=lambda index: _sort_key(chains[index]))


def sort_elements(elements: Sequence[Term]) -> List[Term]:
    """Sort elements lexicographically by their affine-transformation vectors."""
    order = sorted_order([affine_chain(element) for element in elements])
    return [elements[index] for index in order]


def group_by_child(elements: Sequence[Term]) -> Dict[Term, List[Term]]:
    """Group elements by the core child under their affine chains."""
    groups: Dict[Term, List[Term]] = {}
    for element in elements:
        _layers, core = affine_chain(element)
        groups.setdefault(core, []).append(element)
    return groups


def group_by_component(
    elements: Sequence[Term], component: int, *, epsilon: float = 1e-6
) -> List[Tuple[float, List[Term]]]:
    """Group elements by one coordinate of their outermost affine vector.

    Elements without an affine chain are ignored.  Groups are returned sorted
    by the shared coordinate value; two values within ``epsilon`` of each
    other land in the same group (decompiler noise tolerance).
    """
    groups: List[Tuple[float, List[Term]]] = []
    for element in elements:
        layers, _core = affine_chain(element)
        if not layers:
            continue
        value = layers[0][1][component]
        placed = False
        for index, (key, members) in enumerate(groups):
            if abs(key - value) <= epsilon:
                members.append(element)
                placed = True
                break
        if not placed:
            groups.append((value, [element]))
    groups.sort(key=lambda pair: pair[0])
    return groups


def apply_list_manipulation(
    egraph: EGraph,
    fold_class: int,
    function_class: int,
    accumulator_class: int,
    sorted_elements: Sequence[Term],
) -> int:
    """Merge a ``Fold`` over the reordered list into the original fold's e-class.

    Implements the paper's ``manip`` (Fig. 12): make the spine for the sorted
    value, build a ``Fold`` e-node over it with the original function and
    accumulator classes, create its e-class, and merge with the original.
    Returns the id of the new spine's e-class.
    """
    spine_id = add_term_list(egraph, list(sorted_elements))
    new_fold = egraph.add_enode(
        ENode(
            "Fold",
            (egraph.find(function_class), egraph.find(accumulator_class), spine_id),
        )
    )
    egraph.merge(fold_class, new_fold)
    return spine_id

"""Extraction of (top-k) best terms from an e-graph.

After saturation, every e-class represents many equivalent programs; a cost
function picks which ones to return.  The paper's default cost is the number
of AST nodes; the alternative ``reward-loops`` cost discounts loop
combinators (Section 6.1, "Cost function robustness").  Because there is no
single right parameterization, Szalinski returns the top-k programs
(Section 5.1) so the user can choose.

The stack has two layers:

* :class:`CostAnalysis` — an e-class :class:`~repro.egraph.egraph.Analysis`
  holding ``(best cost, witness e-node)`` per class, maintained
  *incrementally* through ``add_enode``/``merge``/``rebuild``.  When the
  runner registers it, post-saturation single-best extraction degenerates to
  an O(answer) walk over the witnesses (:class:`Extractor` reuses the data
  instead of recomputing a fixpoint).
* :class:`TopKExtractor` — **lazy k-best candidate heaps** per e-class
  (Eppstein-style, as in Huang & Chiang's lazy k-best parsing), generalized
  to cyclic e-graphs: only *realizable* derivations are enumerated, in cost
  order.  "Realizable" here means **acyclic**: a derivation may not revisit
  an e-class on any root-to-leaf path — the standard e-graph extraction
  semantics, under which the derivation space is finite and best costs are
  well-defined.  (A discount cost over an equivalence cycle can denote
  finite unfoldings of unboundedly decreasing cost with an unattained
  infimum — ``Mapi(Mapi(...))`` towers under ``reward-loops`` — so
  *cheapest represented term* is not even well-defined there; cheapest
  acyclic derivation is, and is what every query below returns.)  The
  path restriction is enforced *by construction*: revisits can only
  happen inside a strongly connected component of the class graph, so each
  candidate stream carries the set of same-SCC ancestor classes it must
  avoid and descends into children with that set extended.  Outside
  non-trivial SCCs the set is always empty and streams are shared
  context-free.  This makes non-monotone costs (``reward-loops``) and
  indirect equivalence cycles *correct* instead of detected-and-rejected —
  an unrealizable cyclic "best" simply never appears in any stream, so no
  well-foundedness guards or cycle errors are needed.

Cost functions must be monotone in their child costs (nondecreasing in each
argument — both bundled functions are strictly increasing), which is what
keeps each stream's emissions sorted.  They need *not* satisfy
``f(...) >= max(child costs)``: a discounted parent cheaper than its child
is exactly the ``reward-loops`` case the lazy heaps exist for.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import Analysis, EGraph, ENode
from repro.lang.term import Term

#: A cost function maps (operator, children costs) to a cost.
CostFunction = Callable[[object, Sequence[float]], float]


def ast_size_cost(op: object, child_costs: Sequence[float]) -> float:
    """The paper's default cost: one per AST node."""
    return 1.0 + sum(child_costs)


class ExtractionError(RuntimeError):
    """Raised when no realizable term exists for the requested e-class."""


@dataclass(frozen=True, slots=True)
class RankedTerm:
    """A term together with its cost (and its rank after sorting)."""

    cost: float
    term: Term


# ---------------------------------------------------------------------------
# The cost analysis (incremental best cost + witness per e-class)
# ---------------------------------------------------------------------------


class CostAnalysis(Analysis):
    """Per-class ``(best cost, witness e-node)`` under a cost function.

    ``make`` prices an e-node from its children's best costs; ``merge`` keeps
    the cheaper side (ties keep the first argument, which is deterministic
    for a given run).  Registered on an e-graph — typically by the runner,
    so it rides along during saturation — it turns post-hoc extraction
    fixpoints into constant-time reads; :class:`Extractor` picks it up
    automatically when its cost function matches.

    The analysis is a pure least-fixpoint: on an equivalence cycle that
    undercuts every realizable term (possible only when a node can be
    cheaper than its child, e.g. ``reward-loops``), the stored cost is a
    *lower bound* whose witness walk revisits a class.  Consumers detect
    that and fall back to the k-best enumeration, which is
    correct-by-construction (see the module docstring).
    """

    def __init__(self, cost_function: CostFunction = ast_size_cost, key: Optional[str] = None):
        self.cost_function = cost_function
        if key is None:
            name = getattr(cost_function, "__name__", hex(id(cost_function)))
            key = f"cost:{name}"
        self.key = key

    def make(self, egraph: EGraph, enode: ENode) -> Optional[Tuple[float, ENode]]:
        child_costs: List[float] = []
        for arg in enode.args:
            data = egraph.analysis_data(arg, self.key)
            if data is None:
                return None
            child_costs.append(data[0])
        return (self.cost_function(enode.op, child_costs), enode)

    def merge(self, a: Tuple[float, ENode], b: Tuple[float, ENode]) -> Tuple[float, ENode]:
        return a if a[0] <= b[0] else b


# ---------------------------------------------------------------------------
# Single-best extraction (analysis view, with a k-best fallback for cycles)
# ---------------------------------------------------------------------------


class _CyclicWitness(Exception):
    """Internal: the analysis witness walk revisited a class."""


class Extractor:
    """Single-best extraction over :class:`CostAnalysis` data.

    When the e-graph already carries a registered, quiescent
    :class:`CostAnalysis` for the *same* cost function, its data is reused
    directly — extraction is then an O(answer) witness walk with no
    per-query fixpoint at all.  Otherwise the same best-cost table is
    computed once here with a parent-driven worklist (seeded at leaves,
    propagating improvements through :meth:`EGraph.parent_enodes`).

    Best costs are least-fixpoint values; if the best witness derivation
    revisits a class (non-monotone cost + equivalence cycle), the query
    falls back to the lazy k-best enumeration and returns the cheapest
    *realizable* term instead — no error path remains for cycles.
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction = ast_size_cost):
        self.egraph = egraph
        self.cost_function = cost_function
        self._analysis = self._registered_analysis()
        #: True when no reusable analysis was registered and the cost table
        #: was computed here from scratch.
        self.scratch_table = self._analysis is None
        self._best: Optional[Dict[int, Tuple[float, ENode]]] = None
        if self.scratch_table:
            self._best = {}
            self._compute()
        self._term_memo: Dict[int, Term] = {}
        self._resolved: Dict[int, RankedTerm] = {}
        self._kbest: Optional[_KBestEngine] = None

    # -- cost table -------------------------------------------------------------

    def _registered_analysis(self) -> Optional[CostAnalysis]:
        """A reusable registered analysis, or None (compute from scratch).

        Reuse requires the same cost function *and* a quiescent graph —
        with merges or analysis propagation still pending the stored data
        may be stale, so a mid-rebuild caller gets the scratch path.
        """
        if self.egraph._pending or self.egraph._analysis_pending:
            return None
        for analysis in self.egraph.analyses:
            if isinstance(analysis, CostAnalysis) and analysis.cost_function is self.cost_function:
                return analysis
        return None

    def _compute(self) -> None:
        find = self.egraph.find
        worklist: deque = deque()
        queued: Set[int] = set()

        def update(class_id: int, cost: float, enode: ENode) -> None:
            current = self._best.get(class_id)
            if current is None or cost < current[0]:
                self._best[class_id] = (cost, enode)
                if class_id not in queued:
                    queued.add(class_id)
                    worklist.append(class_id)

        # Seed: every leaf e-node gives its class a first (finite) cost.
        # (Leaves are found on the flat representation — one int-length
        # check per node — and decoded only when they actually seed.)
        decode_op = self.egraph.symbols.op
        for eclass in self.egraph.classes():
            class_id = find(eclass.id)
            for node in eclass.flat:
                if len(node) == 1:
                    op = decode_op(node[0])
                    update(class_id, self.cost_function(op, ()), ENode(op))

        # Propagate improvements to parents until no class changes.  On a
        # discount cycle the improvements form a geometric series that
        # reaches its float fixpoint after finitely many strict updates, so
        # the loop terminates without any well-foundedness guard.
        while worklist:
            class_id = worklist.popleft()
            queued.discard(class_id)
            for parent_node, parent_id in self.egraph.parent_enodes(class_id):
                cost = self._enode_cost(parent_node)
                if cost is not None:
                    update(parent_id, cost, parent_node)

    def _enode_cost(self, enode: ENode) -> Optional[float]:
        child_costs = []
        for arg in enode.args:
            entry = self._best.get(self.egraph.find(arg))
            if entry is None:
                return None
            child_costs.append(entry[0])
        return self.cost_function(enode.op, child_costs)

    def _best_entry(self, class_id: int) -> Optional[Tuple[float, ENode]]:
        """The (least-fixpoint cost, witness) pair for a canonical id."""
        if self._analysis is not None:
            return self.egraph.analysis_data(class_id, self._analysis.key)
        return self._best.get(class_id)

    # -- queries ----------------------------------------------------------------

    def cost_of(self, class_id: int) -> float:
        """The cost of ``class_id``'s cheapest acyclic derivation.

        Not a lower bound over every *represented* term: a discount cost
        over an equivalence cycle denotes cyclic-derivation unfoldings that
        can undercut this value (see the module docstring).
        """
        return self._resolve(class_id).cost

    def extract(self, class_id: int) -> Term:
        """The term of ``class_id``'s cheapest acyclic derivation."""
        return self._resolve(class_id).term

    def _resolve(self, class_id: int) -> RankedTerm:
        class_id = self.egraph.find(class_id)
        resolved = self._resolved.get(class_id)
        if resolved is not None:
            return resolved
        entry = self._best_entry(class_id)
        if entry is None:
            raise ExtractionError(f"no extractable term for e-class {class_id}")
        try:
            resolved = RankedTerm(entry[0], self._walk(class_id, set()))
        except _CyclicWitness:
            # The fixpoint best is an unrealizable cycle: enumerate
            # realizable derivations instead (rare; only non-monotone costs
            # over equivalence cycles reach this).
            if self._kbest is None:
                self._kbest = _KBestEngine(self.egraph, self.cost_function)
            best = self._kbest.stream(class_id).get(0)
            if best is None:
                raise ExtractionError(
                    f"no extractable term for e-class {class_id}"
                ) from None
            resolved = best
        self._resolved[class_id] = resolved
        return resolved

    def _walk(self, class_id: int, path: Set[int]) -> Term:
        """Materialize the witness derivation, failing on a class revisit."""
        class_id = self.egraph.find(class_id)
        memoized = self._term_memo.get(class_id)
        if memoized is not None:
            return memoized
        if class_id in path:
            raise _CyclicWitness
        entry = self._best_entry(class_id)
        if entry is None:
            raise ExtractionError(f"no extractable term for e-class {class_id}")
        path.add(class_id)
        try:
            _, enode = entry
            term = Term(enode.op, tuple(self._walk(arg, path) for arg in enode.args))
        finally:
            path.discard(class_id)
        self._term_memo[class_id] = term
        return term


# ---------------------------------------------------------------------------
# Lazy k-best candidate heaps (Eppstein-style, cycle-safe)
# ---------------------------------------------------------------------------


class _Stream:
    """Derivations of one e-class in nondecreasing cost order, lazily.

    ``banned`` is the set of same-SCC ancestor classes this stream's
    derivations must avoid (always empty outside non-trivial SCCs).  The
    frontier heap holds candidates ``(cost, seq, enode index, child
    ranks)``; popping a candidate emits its term and pushes its rank
    successors — the classic lazy k-best step, except that candidates whose
    e-node descends into a banned class never enter the heap, so every
    emission is realizable and acyclic by construction.
    """

    __slots__ = ("engine", "class_id", "banned", "entries", "_nodes", "_heap",
                 "_pushed", "_seen_terms", "_initialized")

    def __init__(self, engine: "_KBestEngine", class_id: int, banned: frozenset):
        self.engine = engine
        self.class_id = class_id
        self.banned = banned
        #: Emitted derivations: distinct terms, nondecreasing cost.
        self.entries: List[RankedTerm] = []
        self._nodes: List[Tuple[ENode, List["_Stream"]]] = []
        self._heap: List[Tuple[float, int, int, Tuple[int, ...]]] = []
        self._pushed: Set[Tuple[int, Tuple[int, ...]]] = set()
        self._seen_terms: Set[Term] = set()
        self._initialized = False

    def _init(self) -> None:
        self._initialized = True
        egraph = self.engine.egraph
        find = egraph.find
        blocked = self.banned | {self.class_id}
        seen_nodes: Set[ENode] = set()
        for enode in egraph.nodes(self.class_id):
            enode = enode.canonicalize(find)
            if enode in seen_nodes:
                continue
            seen_nodes.add(enode)
            if any(find(arg) in blocked for arg in enode.args):
                continue
            children = [self.engine.stream(arg, blocked) for arg in enode.args]
            self._nodes.append((enode, children))
        for index in range(len(self._nodes)):
            self._push(index, (0,) * len(self._nodes[index][1]))

    def _push(self, index: int, ranks: Tuple[int, ...]) -> None:
        key = (index, ranks)
        if key in self._pushed:
            return
        self._pushed.add(key)
        enode, children = self._nodes[index]
        child_costs = []
        for child, rank in zip(children, ranks):
            entry = child.get(rank)
            if entry is None:
                return  # child stream exhausted below this rank
            child_costs.append(entry.cost)
        cost = self.engine.cost_function(enode.op, child_costs)
        heapq.heappush(self._heap, (cost, next(self.engine.seq), index, ranks))

    def get(self, rank: int) -> Optional[RankedTerm]:
        """The ``rank``-th cheapest distinct term, or None past the end."""
        if not self._initialized:
            self._init()
        while len(self.entries) <= rank and self._heap:
            cost, _, index, ranks = heapq.heappop(self._heap)
            enode, children = self._nodes[index]
            term = Term(
                enode.op,
                tuple(child.entries[r].term for child, r in zip(children, ranks)),
            )
            # Successors always expand the frontier, even when the popped
            # term turns out to be a duplicate.
            for position in range(len(ranks)):
                bumped = list(ranks)
                bumped[position] += 1
                self._push(index, tuple(bumped))
            if term not in self._seen_terms:
                self._seen_terms.add(term)
                self.entries.append(RankedTerm(cost, term))
        return self.entries[rank] if rank < len(self.entries) else None


class _KBestEngine:
    """Shared stream registry + SCC index for one (e-graph, cost fn) pair.

    Streams are memoized on ``(class id, banned set)`` after intersecting
    the inherited banned set with the class's *cycle set* — the members of
    its strongly connected component when that SCC is non-trivial, else the
    empty set.  A banned ancestor outside the class's SCC can never be
    reached again (the SCC condensation is acyclic), so dropping it is
    sound and collapses almost every request onto the context-free stream.
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction):
        self.egraph = egraph
        self.cost_function = cost_function
        self.seq = itertools.count()  # heap tiebreaker: deterministic FIFO
        self._streams: Dict[Tuple[int, frozenset], _Stream] = {}
        self._children: Dict[int, List[int]] = {}
        self._cycle_sets: Dict[int, frozenset] = {}
        self._scc_index: Dict[int, int] = {}
        self._scc_low: Dict[int, int] = {}
        self._scc_counter = 0

    def stream(self, class_id: int, banned: frozenset = frozenset()) -> _Stream:
        class_id = self.egraph.find(class_id)
        banned = banned & self._cycle_set(class_id)
        key = (class_id, banned)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(self, class_id, banned)
        return stream

    # -- SCC index --------------------------------------------------------------

    def _child_classes(self, class_id: int) -> List[int]:
        children = self._children.get(class_id)
        if children is None:
            find = self.egraph.find
            children = self._children[class_id] = list(
                {find(arg) for node in self.egraph.flat_nodes(class_id) for arg in node[1:]}
            )
        return children

    def _cycle_set(self, class_id: int) -> frozenset:
        cached = self._cycle_sets.get(class_id)
        if cached is not None:
            return cached
        self._run_tarjan(class_id)
        return self._cycle_sets[class_id]

    def _run_tarjan(self, start: int) -> None:
        """Iterative Tarjan from ``start``; finished classes are skipped.

        Incremental restarts are sound: any cycle through an already
        finished class is fully contained in the subgraph that earlier run
        explored, so treating finished classes as closed cannot miss SCC
        members.
        """
        index = self._scc_index
        low = self._scc_low
        tarjan_stack: List[int] = []
        on_stack: Set[int] = set()

        index[start] = low[start] = self._scc_counter
        self._scc_counter += 1
        tarjan_stack.append(start)
        on_stack.add(start)
        frames: List[List] = [[start, self._child_classes(start), 0]]
        while frames:
            frame = frames[-1]
            node, children, position = frame
            advanced = False
            while position < len(children):
                child = children[position]
                position += 1
                frame[2] = position
                if child in self._cycle_sets and child not in on_stack:
                    continue  # finished by an earlier run
                if child not in index:
                    index[child] = low[child] = self._scc_counter
                    self._scc_counter += 1
                    tarjan_stack.append(child)
                    on_stack.add(child)
                    frames.append([child, self._child_classes(child), 0])
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members: Set[int] = set()
                while True:
                    member = tarjan_stack.pop()
                    on_stack.discard(member)
                    members.add(member)
                    if member == node:
                        break
                nontrivial = len(members) > 1 or node in self._child_classes(node)
                cycle = frozenset(members) if nontrivial else frozenset()
                for member in members:
                    self._cycle_sets[member] = cycle


class TopKExtractor:
    """Extraction of the k cheapest distinct realizable terms per e-class.

    A thin facade over the lazy stream machinery (see the module
    docstring): nothing is computed until a query forces it, and a query
    for class ``c`` touches only classes reachable from ``c`` — the old
    whole-graph candidate-table fixpoint (and its ``max_rounds`` safety
    valve and cube-pruning rank-monotonicity assumption) is gone.

    ``roots`` is accepted for API compatibility; enumeration is lazy per
    queried class, so no reachability restriction is needed any more.
    """

    def __init__(
        self,
        egraph: EGraph,
        cost_function: CostFunction = ast_size_cost,
        k: int = 5,
        roots: Optional[Sequence[int]] = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.egraph = egraph
        self.cost_function = cost_function
        self.k = k
        self._engine = _KBestEngine(egraph, cost_function)

    # -- queries -----------------------------------------------------------------

    def extract_top_k(self, class_id: int) -> List[RankedTerm]:
        """Up to k cheapest distinct realizable terms, best first.

        Fewer than k entries come back when the class offers fewer distinct
        realizable terms (e.g. every other candidate descends into an
        equivalence cycle).
        """
        stream = self._engine.stream(class_id)
        entries: List[RankedTerm] = []
        for rank in range(self.k):
            entry = stream.get(rank)
            if entry is None:
                break
            entries.append(entry)
        if not entries:
            raise ExtractionError(f"no extractable term for e-class {class_id}")
        return entries

    def best(self, class_id: int) -> RankedTerm:
        """The single cheapest realizable entry for ``class_id``."""
        return self.extract_top_k(class_id)[0]

    def best_per_enode(self, class_id: int) -> List[RankedTerm]:
        """The cheapest term rooted at each distinct e-node of ``class_id``.

        Whereas :meth:`extract_top_k` returns the k globally cheapest terms
        (which for CAD models are often near-identical affine reorderings of
        one another), this query returns one representative per alternative
        the e-class actually offers at its root — e.g. the original boolean
        chain, the affine-lifted variant, and the ``Fold``-based structured
        variant each contribute their own candidate.  The pipeline combines
        both views to build a useful top-k (see ``repro.core.pipeline``).
        """
        class_id = self.egraph.find(class_id)
        find = self.egraph.find
        blocked = frozenset((class_id,))
        results: List[RankedTerm] = []
        seen: Set[Term] = set()
        seen_nodes: Set[ENode] = set()
        for enode in self.egraph.nodes(class_id):
            enode = enode.canonicalize(find)
            if enode in seen_nodes:
                continue
            seen_nodes.add(enode)
            child_entries = []
            missing = False
            for arg in enode.args:
                child = self._engine.stream(arg, blocked).get(0)
                if child is None:
                    missing = True
                    break
                child_entries.append(child)
            if missing:
                continue
            cost = self.cost_function(enode.op, [c.cost for c in child_entries])
            term = Term(enode.op, tuple(c.term for c in child_entries))
            if term in seen:
                continue
            seen.add(term)
            results.append(RankedTerm(cost, term))
        results.sort(key=lambda entry: entry.cost)
        return results

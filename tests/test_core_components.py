"""Unit tests for the core components: lists, determinizer, list manipulation,
cost functions, and program analysis."""

from collections import Counter

import pytest

from repro.benchsuite.models import fig2_translated_cubes
from repro.benchsuite.suite import get_benchmark
from repro.cad.build import cons_list, fold_union, fun, int_list, mapi, repeat, fold, nil
from repro.core.analysis import find_loops, function_kinds
from repro.core.cost import COST_FUNCTIONS, ast_size_cost_fn, get_cost_function, reward_loops_cost_fn
import repro.core.determinize as determinize_module
import repro.core.function_inference as function_inference_module
import repro.core.loop_inference as loop_inference_module
from repro.core.determinize import Determinizer, chain_uniform
from repro.core.function_inference import FunctionInference
from repro.core.loop_inference import LoopInference
from repro.core.lists import (
    ListReadError,
    add_cons_spine,
    add_term_list,
    find_fold_matches,
    read_list_elements,
)
from repro.core.listmanip import apply_list_manipulation, group_by_component, sort_elements
from repro.core.pipeline import synthesize
from repro.core.rules import default_rules
from repro.csg.build import cube, rotate, scale, sphere, translate, union, union_all, unit
from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import ExtractionError, Extractor
from repro.egraph.runner import Runner
from repro.lang.term import Term
from repro.obs.trace import Tracer
from repro.solvers.forms import (
    ClosedForm,
    ConstantForm,
    LinearForm,
    QuadraticForm,
    RotationForm,
    SinusoidForm,
)
from repro.solvers.multilinear import MultilinearForm

FORM_CLASSES = (
    ConstantForm,
    LinearForm,
    QuadraticForm,
    RotationForm,
    SinusoidForm,
    MultilinearForm,
)


class TestListSpines:
    def test_read_simple_spine(self):
        egraph = EGraph()
        spine = add_term_list(egraph, [cube(), sphere(), unit()])
        elements = read_list_elements(egraph, spine)
        assert len(elements) == 3
        assert egraph.nodes(elements[0])[0].op == "Cube"

    def test_read_with_concat_and_repeat(self):
        egraph = EGraph()
        left = add_term_list(egraph, [cube()])
        right = egraph.add_term(repeat(sphere(), 3))
        spine = egraph.add_enode(ENode("Concat", (left, right)))
        elements = read_list_elements(egraph, spine)
        assert len(elements) == 4

    def test_read_prefers_longest_variant(self):
        egraph = EGraph()
        long_spine = add_term_list(egraph, [cube(), sphere(), unit()])
        short_spine = add_term_list(egraph, [cube()])
        egraph.merge(long_spine, short_spine)
        egraph.rebuild()
        assert len(read_list_elements(egraph, long_spine)) == 3

    def test_read_non_list_raises(self):
        egraph = EGraph()
        root = egraph.add_term(cube())
        with pytest.raises(ListReadError):
            read_list_elements(egraph, root)

    def test_find_fold_matches(self):
        egraph = EGraph()
        egraph.add_term(fold_union(cons_list([cube(), sphere()])))
        matches = find_fold_matches(egraph)
        assert len(matches) == 1
        _fold, function, _acc, list_class = matches[0]
        assert egraph.nodes(function)[0].op == "Union"
        assert len(read_list_elements(egraph, list_class)) == 2

    def test_add_cons_spine_round_trip(self):
        egraph = EGraph()
        ids = [egraph.add_term(cube()), egraph.add_term(sphere())]
        spine = add_cons_spine(egraph, ids)
        assert read_list_elements(egraph, spine) == [egraph.find(i) for i in ids]


class TestDeterminizer:
    def _folded_egraph(self, elements):
        egraph = EGraph()
        root = egraph.add_term(union_all(elements))
        Runner(default_rules()).run(egraph)
        matches = find_fold_matches(egraph)
        assert matches
        # Longest list corresponds to the full chain.
        best = max(matches, key=lambda m: len(read_list_elements(egraph, m[3])))
        return egraph, read_list_elements(egraph, best[3])

    def test_uniform_signature_chosen(self):
        elements = [translate(2.0 * i, 0, 0, rotate(0, 0, 10.0 * i, cube())) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        determinized = Determinizer(egraph).determinize(element_classes)
        assert determinized is not None
        assert chain_uniform(determinized.elements)
        assert len(determinized.signature) >= 1

    def test_prefers_longer_signature(self):
        elements = [translate(2.0 * i, 0, 0, scale(1.0 + i, 1, 1, cube())) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        determinized = Determinizer(egraph).determinize(element_classes)
        # Both the Translate . Scale and its reordered / collapsed variants
        # exist; the determinizer should keep the two-layer view.
        assert len(determinized.signature) == 2

    def test_empty_input(self):
        egraph = EGraph()
        assert Determinizer(egraph).determinize([]) is None

    def test_merged_variant_invalidates_the_memo(self):
        # The first element offers a Rotate signature the second lacks, so
        # the memo records "no Rotate view" for the second class.  Merging
        # an (identity) Rotate variant into it must make the signature
        # available: a memo that survived the merge would still say no.
        egraph = EGraph()
        first = egraph.add_term(rotate(0, 0, 10, cube()))
        second = egraph.add_term(translate(2, 0, 0, cube()))
        determinizer = Determinizer(egraph)
        before = determinizer.determinize_all([first, second])
        assert [v.signature for v in before] == [()]
        calls = determinizer.materialize_calls
        assert [v.signature for v in determinizer.determinize_all([first, second])] == [()]
        assert determinizer.materialize_memo_hits == determinizer.materialize_calls - calls

        variant = egraph.add_term(rotate(0, 0, 0, translate(2, 0, 0, cube())))
        egraph.merge(second, variant)
        egraph.rebuild()
        after = determinizer.determinize_all([first, second])
        assert [v.signature for v in after] == [("Rotate",), ()]
        assert after[0].elements[1] == rotate(0, 0, 0, translate(2, 0, 0, cube()))
        fresh = Determinizer(egraph).determinize_all([first, second])
        assert [v.elements for v in after] == [v.elements for v in fresh]

    def test_known_class_maps_materialized_terms_to_their_class(self):
        elements = [translate(2.0 * i, 0, 0, cube()) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        determinizer = Determinizer(egraph)
        determinized = determinizer.determinize(element_classes)
        for term, class_id in zip(determinized.elements, determinized.element_classes):
            assert determinizer.known_class(term) == egraph.find(class_id)
            assert egraph.lookup_term(term) == egraph.find(class_id)
        assert determinizer.known_class(sphere()) is None
        assert determinizer.known_class_hits == len(determinized)

    def test_extraction_error_abandons_the_signature(self, monkeypatch):
        # A class with no extractable term only rules out that signature.
        def no_term(self, class_id):
            raise ExtractionError(f"no extractable term for e-class {class_id}")

        elements = [translate(2.0 * i, 0, 0, cube()) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        monkeypatch.setattr(Extractor, "extract", no_term)
        assert Determinizer(egraph).determinize(element_classes) is None

    def test_other_inference_errors_propagate_out_of_synthesize(self, monkeypatch):
        # Only ExtractionError means "no term"; any other error is a bug in
        # the inference layer and must surface instead of being swallowed.
        class BrokenExtractor(Extractor):
            def extract(self, class_id):
                raise ZeroDivisionError("extractor bug")

        monkeypatch.setattr(determinize_module, "Extractor", BrokenExtractor)
        with pytest.raises(ZeroDivisionError, match="extractor bug"):
            synthesize(fig2_translated_cubes(5))


def _grid(columns: int, rows: int) -> Term:
    """A flat union of cubes on a regular grid: both passes infer something."""
    return union_all(
        [translate(2.0 * i, 3.0 * j, 0, cube()) for i in range(columns) for j in range(rows)]
    )


class TestInferencePasses:
    """Each inference pass reads a quiescent e-graph, then writes one batch."""

    def test_writes_come_after_the_last_determinization(self, monkeypatch):
        events = []

        def spy(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                events.append(label)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("merge", "add_term", "add_term_resolving", "add_enode"):
            spy(EGraph, name, "write")
        spy(Determinizer, "determinize_all", "read")
        for component in (FunctionInference, LoopInference):
            original_run = component.run

            def run(self, _original=original_run, _name=component.__name__):
                events.append(("start", _name))
                try:
                    return _original(self)
                finally:
                    events.append(("end", _name))

            monkeypatch.setattr(component, "run", run)

        tracer = Tracer()
        synthesize(_grid(3, 2), tracer=tracer)
        passes = {}
        for index, event in enumerate(events):
            if isinstance(event, tuple):
                kind, name = event
                passes.setdefault(name, {})[kind] = index
        assert set(passes) == {"FunctionInference", "LoopInference"}
        for name, bounds in passes.items():
            inside = events[bounds["start"] + 1 : bounds["end"]]
            last_read = max(i for i, e in enumerate(inside) if e == "read")
            writes = [i for i, e in enumerate(inside) if e == "write"]
            assert writes, name
            assert min(writes) > last_read, name
        written = {
            span["name"]: span["attrs"]["equivalences_written"]
            for span in tracer.export()
            if span["name"] in ("function_inference", "loop_inference")
        }
        assert written["function_inference"] > 0 and written["loop_inference"] > 0

    def test_each_key_is_materialized_once_per_pass(self, monkeypatch):
        # Suffix folds of the chain determinize the same element classes
        # again; a write landing mid-pass would move the e-graph's version,
        # drop the memo and materialize those keys a second time.
        keys = {}
        original = Determinizer._materialize

        def materialize(self, class_id, signature):
            keys.setdefault(id(self), set()).add((self.egraph.find(class_id), signature))
            return original(self, class_id, signature)

        monkeypatch.setattr(Determinizer, "_materialize", materialize)
        tracer = Tracer()
        synthesize(fig2_translated_cubes(6), tracer=tracer)
        spans = [
            span["attrs"]
            for span in tracer.export()
            if span["name"] in ("function_inference", "loop_inference")
        ]
        assert len(spans) == len(keys) == 2
        for attrs, distinct in zip(spans, keys.values()):
            assert attrs["materialize_memo_hits"] > 0
            assert attrs["materialize_calls"] - attrs["materialize_memo_hits"] == len(distinct)

    @pytest.mark.parametrize("name", ["hc-bits", "relay-box", "card-org"])
    def test_carried_chains_match_a_fresh_parse(self, monkeypatch, name):
        # Differential oracle: every chain the determinizer carries is what
        # affine_chain would parse from its element, also once sorted.
        checked = []
        original = Determinizer.determinize_all

        def determinize_all(self, element_classes, max_variants=4):
            variants = original(self, element_classes, max_variants)
            for variant in variants:
                for view in (variant, variant.sorted()):
                    assert len(view.chains) == len(view.elements)
                    for element, (layers, core) in zip(view.elements, view.chains):
                        fresh_layers, fresh_core = affine_chain(element)
                        assert (layers, core) == (tuple(fresh_layers), fresh_core)
                sorted_view = variant.sorted()
                assert sorted_view.elements == sort_elements(variant.elements)
                # Elements travel with their classes.
                assert Counter(zip(sorted_view.elements, sorted_view.element_classes)) == Counter(
                    zip(variant.elements, variant.element_classes)
                )
                checked.append(len(variant))
            return variants

        monkeypatch.setattr(Determinizer, "determinize_all", determinize_all)
        synthesize(get_benchmark(name).build())
        assert checked


class TestInferenceMemos:
    """Each pass's batch write and each phase's renders do their work once."""

    @pytest.mark.parametrize("name", ["gear", "hc-bits"])
    def test_batch_adds_each_distinct_subterm_once(self, monkeypatch, name):
        batches = []
        original_write = function_inference_module.write_equivalences
        original_add = EGraph.add_enode

        def write(egraph, pending, resolve, records):
            # The distinct subterms the resolver does not know, found by
            # walking every queued term down to its known subterms.
            unresolved = set()

            def walk(term):
                if resolve(term) is None and term not in unresolved:
                    unresolved.add(term)
                    for child in term.children:
                        walk(child)

            for _list_class, terms, _record in pending:
                for term in terms:
                    walk(term)
            adds = []

            def add_enode(self, enode):
                adds.append(enode)
                return original_add(self, enode)

            monkeypatch.setattr(EGraph, "add_enode", add_enode)
            try:
                written = original_write(egraph, pending, resolve, records)
            finally:
                monkeypatch.setattr(EGraph, "add_enode", original_add)
            batches.append((len(adds), len(unresolved), written))
            return written

        for module in (function_inference_module, loop_inference_module):
            monkeypatch.setattr(module, "write_equivalences", write)
        tracer = Tracer()
        synthesize(get_benchmark(name).build(), tracer=tracer)
        hits = [
            span["attrs"]["batch_subterm_hits"]
            for span in tracer.export()
            if span["name"] in ("function_inference", "loop_inference")
        ]
        assert len(batches) == len(hits) == 2
        for (adds, distinct, (written, subterm_hits)), span_hits in zip(batches, hits):
            assert adds == distinct
            assert subterm_hits == span_hits
        # The function pass shares lambda bodies between its variants.
        assert batches[0][2][1] > 0

    @pytest.mark.parametrize("name", ["gear", "dice"])
    def test_each_form_is_rendered_once_per_phase(self, monkeypatch, name):
        renders = Counter()
        ranking = []
        original_complexity = ClosedForm.complexity

        def complexity(self):
            # Ranking sizes candidates by rendering them; that is not one
            # of the inferred terms' renders.
            ranking.append(self)
            try:
                return original_complexity(self)
            finally:
                ranking.pop()

        monkeypatch.setattr(ClosedForm, "complexity", complexity)
        for form_class in FORM_CLASSES:
            original = form_class.to_term

            def to_term(self, index, _original=original):
                if not ranking:
                    renders[(self, index)] += 1
                return _original(self, index)

            monkeypatch.setattr(form_class, "to_term", to_term)
        tracer = Tracer()
        synthesize(get_benchmark(name).build(), tracer=tracer)
        assert renders and max(renders.values()) == 1
        (determinize,) = [s for s in tracer.export() if s["name"] == "determinize"]
        assert determinize["attrs"]["render_memo_hits"] > 0


class TestListManipulation:
    def test_sort_elements_lexicographic(self):
        elements = [
            translate(3.0, 0, 0, cube()),
            translate(1.0, 0, 0, cube()),
            translate(2.0, 0, 0, cube()),
        ]
        ordered = sort_elements(elements)
        xs = [e.children[0].value for e in ordered]
        assert xs == [1.0, 2.0, 3.0]

    def test_group_by_component(self):
        elements = [
            translate(0.0, 1.0, 0, cube()),
            translate(0.0, 2.0, 0, cube()),
            translate(5.0, 3.0, 0, cube()),
        ]
        groups = group_by_component(elements, 0)
        assert [len(members) for _value, members in groups] == [2, 1]

    def test_group_by_component_merges_within_epsilon(self):
        elements = [
            translate(1.0, 0, 0, cube()),
            translate(1.0000001, 1, 0, cube()),
        ]
        groups = group_by_component(elements, 0, epsilon=1e-3)
        assert len(groups) == 1

    def test_apply_list_manipulation_merges_sorted_fold(self):
        egraph = EGraph()
        elements = [translate(float(3 - i), 0, 0, cube()) for i in range(3)]
        fold_term = fold_union(cons_list(elements))
        fold_class = egraph.add_term(fold_term)
        matches = find_fold_matches(egraph)
        _fold, function, acc, _list_class = matches[0]
        spine = apply_list_manipulation(egraph, fold_class, function, acc, sort_elements(elements))
        egraph.rebuild()
        # The fold class now also contains a Fold over the sorted spine.
        folds = [n for n in egraph.nodes(fold_class) if n.op == "Fold"]
        assert len(folds) >= 2
        assert read_list_elements(egraph, spine)


class TestCostFunctions:
    def test_registry(self):
        assert set(COST_FUNCTIONS) == {"ast-size", "reward-loops"}
        assert get_cost_function("ast-size") is ast_size_cost_fn
        with pytest.raises(KeyError):
            get_cost_function("bogus")

    def test_ast_size_counts_nodes(self):
        assert ast_size_cost_fn("Union", [1.0, 1.0]) == 3.0

    def test_reward_loops_discounts_loop_subtrees(self):
        plain = ast_size_cost_fn("Mapi", [20.0, 10.0])
        discounted = reward_loops_cost_fn("Mapi", [20.0, 10.0])
        assert discounted < plain

    def test_reward_loops_neutral_elsewhere(self):
        assert reward_loops_cost_fn("Union", [5.0, 5.0]) == ast_size_cost_fn("Union", [5.0, 5.0])


class TestProgramAnalysis:
    def test_single_mapi_loop(self):
        program = fold_union(
            mapi(fun(("i", "c"), Term("c")), repeat(cube(), 60))
        )
        loops = find_loops(program)
        assert len(loops) == 1
        assert loops[0].bounds == (60,)
        assert loops[0].label() == "n1,60"

    def test_nested_fold_loops(self):
        inner = fold(fun(("j",), translate(1, 2, 3, cube())), nil(), int_list(range(3)))
        outer = fold(fun(("i",), inner), nil(), int_list(range(2)))
        program = fold_union(outer)
        loops = find_loops(program)
        assert loops and loops[0].nesting == 2
        assert loops[0].bounds == (2, 3)

    def test_no_loops(self):
        assert find_loops(union(cube(), sphere())) == []

    def test_function_kinds_d1(self):
        program = mapi(
            fun(("i", "c"), Term("Translate", (Term.parse("(Mul 2 i)"), Term.num(0), Term.num(0), Term("c")))),
            repeat(cube(), 4),
        )
        assert function_kinds(program) == ["d1"]

    def test_function_kinds_d2_and_theta(self):
        quadratic_body = Term.parse("(Translate (Mul 2 (Mul i i)) 0 0 c)")
        trig_body = Term.parse("(Translate (Sin (Mul 90 i)) 0 0 c)")
        program = union(
            fold_union(mapi(Term("Fun", (Term("i"), Term("c"), quadratic_body)), repeat(cube(), 3))),
            fold_union(mapi(Term("Fun", (Term("i"), Term("c"), trig_body)), repeat(cube(), 3))),
        )
        kinds = function_kinds(program)
        assert "d2" in kinds and "theta" in kinds

"""Unit tests for the core components: lists, determinizer, list manipulation,
cost functions, and program analysis."""

import pytest

from repro.benchsuite.models import fig2_translated_cubes
from repro.cad.build import cons_list, fold_union, fun, int_list, mapi, repeat, fold, nil
from repro.core.analysis import find_loops, function_kinds
from repro.core.cost import COST_FUNCTIONS, ast_size_cost_fn, get_cost_function, reward_loops_cost_fn
import repro.core.determinize as determinize_module
from repro.core.determinize import Determinizer, chain_uniform
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
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import ExtractionError, Extractor
from repro.egraph.runner import Runner
from repro.lang.term import Term


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

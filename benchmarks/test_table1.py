"""Table 1 — the main evaluation over the 16-model benchmark suite.

The paper reports, per model, the input/output sizes, primitive counts,
depths, loop structure, function class, synthesis time, and the rank of the
structured program; and in aggregate a 64% average size reduction with
structure exposed for 81% (13/16) of the models.  This harness re-runs the
whole suite and checks those aggregate shapes; per-model rows are printed so
they can be compared side by side with the paper's table (see
README.md, "Table 1 reproduction").

``tests/golden/table1_topk.json`` pins every model's top-k output exactly
(rank, cost and canonical text of each candidate, plus the ``n-l`` and ``f``
columns), so a change that alters any result fails loudly.  After an
intended output change, regenerate it with
``PYTHONPATH=src python benchmarks/test_table1.py``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.benchsuite.table1 import (
    average_size_reduction,
    format_table,
    row_from_result,
    run_benchmark,
    structure_exposure_rate,
)
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text

pytestmark = pytest.mark.table1

#: Models the paper reports as exposing structure under the default cost.
_STRUCTURED = [b for b in BENCHMARKS if b.expects_structure]
#: Models with no repetitive structure (output should stay flat).
_UNSTRUCTURED = [b for b in BENCHMARKS if not b.expects_structure]


_GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "table1_topk.json"


def _run_suite():
    """Synthesize every model once (as ``run_table1`` does), keeping results."""
    rows, results = [], {}
    for benchmark in BENCHMARKS:
        config = SynthesisConfig(cost_function=benchmark.cost_function)
        flat = benchmark.build()
        start = time.perf_counter()
        result = synthesize(flat, config)
        rows.append(row_from_result(benchmark, result, time.perf_counter() - start))
        results[benchmark.name] = result
    return rows, results


def topk_pins(results) -> dict:
    """Each model's exact top-k output, in the golden file's layout."""
    return {
        name: {
            "loops": result.loop_summary(),
            "functions": result.function_summary(),
            "candidates": [
                {"rank": c.rank, "cost": c.cost, "term": canonical_term_text(c.term)}
                for c in result.candidates
            ],
        }
        for name, result in results.items()
    }


@pytest.fixture(scope="module")
def table1_run():
    """Run the full suite once and share rows and results across assertions."""
    rows, results = _run_suite()
    print()
    print(format_table(rows))
    return rows, results


@pytest.fixture(scope="module")
def table1_rows(table1_run):
    return table1_run[0]


class TestTable1Aggregates:
    def test_average_size_reduction_matches_paper_shape(self, table1_rows, benchmark):
        # Paper: 64% average reduction.  The suite is a re-creation, so we
        # check the shape: a large average reduction, well above 40%.
        reduction = benchmark(average_size_reduction, table1_rows)
        assert reduction >= 0.40

    def test_structure_exposed_for_most_models(self, table1_rows):
        # Paper: 81% (13 of 16).
        rate = structure_exposure_rate(table1_rows)
        assert rate >= 12 / 16

    def test_every_expectation_matches(self, table1_rows):
        mismatched = [row.name for row in table1_rows if not row.matches_expectation]
        assert not mismatched, f"structure expectation mismatches: {mismatched}"

    def test_structured_programs_rank_in_top5(self, table1_rows):
        # Paper: the structured program is always within the top-5 returned.
        ranked = [row for row in table1_rows if row.exposes_structure]
        assert ranked
        assert all(row.rank is not None and row.rank <= 5 for row in ranked)

    def test_output_depth_reduced_on_average(self, table1_rows):
        # Paper: mean output depth drops by ~40%.
        structured_rows = [r for r in table1_rows if r.exposes_structure]
        mean_input = sum(r.input_depth for r in structured_rows) / len(structured_rows)
        mean_output = sum(r.output_depth for r in structured_rows) / len(structured_rows)
        assert mean_output < mean_input

    def test_primitive_counts_reduced(self, table1_rows):
        # Paper: #o-p is ~65% smaller than #i-p on average.
        total_in = sum(r.input_primitives for r in table1_rows)
        total_out = sum(r.output_primitives for r in table1_rows)
        assert total_out < total_in * 0.7

    def test_runtime_bounded(self, table1_rows):
        # Paper: every model finishes within 5 minutes.
        assert all(row.seconds < 300.0 for row in table1_rows)


class TestGoldenPins:
    def test_topk_matches_golden_pins(self, table1_run):
        golden = json.loads(_GOLDEN.read_text())
        actual = topk_pins(table1_run[1])
        assert sorted(actual) == sorted(golden)
        changed = [name for name in golden if actual[name] != golden[name]]
        assert not changed, f"top-k output differs from the golden pins: {changed}"


class TestIndividualRows:
    @pytest.mark.parametrize(
        "name", [b.name for b in _STRUCTURED], ids=[b.name for b in _STRUCTURED]
    )
    def test_structured_models_expose_structure(self, name, table1_rows):
        row = next(r for r in table1_rows if name in r.name)
        assert row.exposes_structure
        assert row.loops != "-"
        assert row.functions != "-"

    @pytest.mark.parametrize(
        "name", [b.name for b in _UNSTRUCTURED], ids=[b.name for b in _UNSTRUCTURED]
    )
    def test_unstructured_models_stay_flat(self, name, table1_rows):
        row = next(r for r in table1_rows if name in r.name)
        assert not row.exposes_structure
        # The paper reports identical (or near identical) sizes for these.
        assert row.output_nodes <= row.input_nodes

    def test_gear_row_shape(self, table1_rows):
        row = next(r for r in table1_rows if "gear" in r.name)
        assert row.loops == "n1,60"
        assert "d1" in row.functions
        assert row.rank == 1
        assert row.size_reduction > 0.85


class TestSingleModelTiming:
    """Per-model timing rows (pytest-benchmark) for a representative subset."""

    @pytest.mark.parametrize("name", ["card-org", "relay-box", "hc-bits"])
    def test_benchmark_single_model(self, benchmark, name):
        bench_model = get_benchmark(name)
        flat = bench_model.build()
        row = benchmark(lambda: run_benchmark(bench_model))
        assert row.exposes_structure == bench_model.expects_structure


if __name__ == "__main__":
    _GOLDEN.write_text(
        json.dumps(topk_pins(_run_suite()[1]), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {_GOLDEN}", file=sys.stderr)

"""Correctness checks, run outside every timed region.

A program is correct when ``verify.validate_synthesis`` accepts it: the
program is unrolled through the independent ``cad.evaluator`` and compared
with its input.  Table 1 rows are also held to the suite's hand-written
expectations (``expects_structure`` and ``expected_nesting``).  Function
kinds are recorded but not checked: hc-bits admits both ``d1`` and
``theta``, as the suite's own note says.

Validating a program costs up to a second, and the same input always
yields the same program, so each ``(input, output)`` pair is validated once
per run; the pairs already accepted are shared between passes through a
small JSON file in the run's work directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Set


class Validated:
    """The ``(input, output)`` fingerprint pairs accepted so far in this run."""

    def __init__(self, path: Path, force: bool = False):
        self.path = path
        #: Validate every program even if it was accepted before (traced
        #: passes do, so ``verify.validate_s`` measures a full check).
        self.force = force
        self.pairs: Set[str] = set()
        if path.exists():
            self.pairs = set(json.loads(path.read_text()))

    def save(self) -> None:
        self.path.write_text(json.dumps(sorted(self.pairs)))

    def check(self, name: str, input_term, output_term) -> List[str]:
        """Failures (empty when valid) of one synthesized program."""
        from repro.lang.canon import term_fingerprint
        from repro.verify import validate

        pair = f"{term_fingerprint(input_term)}:{term_fingerprint(output_term)}"
        if pair in self.pairs and not self.force:
            return []
        # Looked up on the module so the traced run's timer applies.
        report = validate.validate_synthesis(input_term, output_term)
        if not report.valid:
            return [f"{name}: program does not unroll to its input ({report.error or 'mismatch'})"]
        self.pairs.add(pair)
        return []


def table1_expectations(benchmark, result) -> List[str]:
    """Failures of a Table 1 row against the suite's expectations."""
    from repro.core.analysis import find_loops

    failures = []
    exposes = result.exposes_structure()
    if exposes != benchmark.expects_structure:
        failures.append(
            f"{benchmark.name}: structure exposed={exposes}, "
            f"suite expects {benchmark.expects_structure}"
        )
    elif exposes:
        nesting = max((loop.nesting for loop in find_loops(result.output_term())), default=0)
        if nesting != benchmark.expected_nesting:
            failures.append(
                f"{benchmark.name}: loop nesting {nesting}, "
                f"suite expects {benchmark.expected_nesting}"
            )
    return failures

"""Outside-in layer timers for the traced run.

Every layer is a public function or method of the package under test.  The
benchmark swaps the attribute for a timer at run time; no source file
changes.  Two rules keep the timers honest:

* **Reentrancy guard.**  A layer that is already on the timer stack is not
  timed again, so recursive calls (``EGraph.add_term``) and layers that call
  their own siblings (``determinize_all`` -> ``determinize``) count once.
* **Swap-out while running.**  While the outermost call of a layer runs,
  the original function is put back on its owner, so recursive calls go
  straight to the original and pay no wrapper cost at all.

Self time is a span's time minus the time of the timed layers nested in it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerClock:
    """Accumulates total time, self time and outermost call counts per layer."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Open spans: [layer, start, seconds covered by timed children].
        self._stack: List[list] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._restore: List[Callable[[], None]] = []

    def active(self, layer: str) -> bool:
        return self._active[layer] > 0

    def push(self, layer: str) -> None:
        self._active[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self) -> None:
        layer, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._active[layer] -= 1
        self.total[layer] += elapsed
        self.self_time[layer] += elapsed - children
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every outermost call of ``owner.attr`` under ``layer``."""
        original = owner.__dict__[attr]
        clock = self

        def timed(*args, **kwargs):
            if clock.active(layer):
                return original(*args, **kwargs)
            setattr(owner, attr, original)
            clock.push(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                clock.pop()
                setattr(owner, attr, timed)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, timed)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    def attributed_seconds(self) -> float:
        """Seconds covered by some timed layer so far (self times never overlap)."""
        return sum(self.self_time.values())


def install_pipeline_layers(clock: LayerClock) -> None:
    """Wrap the pipeline layers: scad, egraph, core, solvers, verify."""
    from repro.benchsuite import suite
    from repro.core.determinize import Determinizer
    from repro.core.function_inference import FunctionInference
    from repro.core.loop_inference import LoopInference
    from repro.egraph.egraph import EGraph
    from repro.egraph.extract import TopKExtractor
    from repro.egraph.runner import Runner
    from repro.scad import flatten
    from repro.solvers.closed_form import FunctionSolver
    from repro.verify import validate

    def count_solution(result) -> None:
        if result is not None:
            clock.counters["solvers.solutions"] += 1

    # The suite imported flatten_source by name, so both bindings are wrapped.
    clock.wrap(flatten, "flatten_source", "scad.flatten")
    clock.wrap(suite, "flatten_source", "scad.flatten")
    clock.wrap(validate, "validate_synthesis", "verify.validate")
    clock.wrap(EGraph, "add_term", "egraph.add_term")
    clock.wrap(Runner, "run", "egraph.saturate")
    for method in ("__init__", "best_per_enode", "extract_top_k"):
        clock.wrap(TopKExtractor, method, "egraph.extract")
    clock.wrap(FunctionInference, "run", "core.function_inference")
    clock.wrap(LoopInference, "run", "core.loop_inference")
    for method in ("determinize", "determinize_all"):
        clock.wrap(Determinizer, method, "core.determinize")
    clock.wrap(FunctionSolver, "solve", "solvers.solve", on_result=count_solution)


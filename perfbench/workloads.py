"""Workload definitions: which models run, with which config, in which order.

Everything here is a pure function of the seed, so the same seed always
builds the same inputs.  The package under test is imported lazily, after
``run.py``/``child.py`` have put ``src`` on the path.
"""

from __future__ import annotations

import random
from typing import List, Tuple

WORKLOADS = ("table1-cold", "saturate-expansive")

#: The saturation-bound ablation of ``benchmarks/test_ablations.py``: five of
#: these six stop at the node limit.  Both arithmetic components stay off,
#: so ``core`` and ``solvers`` do no work on this workload.
EXPANSIVE_MODELS = ("gear", "rasp-pie", "dice", "sd-rack", "card-org", "hc-bits")
EXPANSIVE_MAX_ENODES = 20_000


def shuffled(names, seed: int) -> List[str]:
    """``names`` in a seeded order (order does not change the work done)."""
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def table1_names(workload: str, seed: int) -> List[str]:
    """Model order of a workload: its models in a seeded order."""
    from repro.benchsuite.suite import benchmark_names

    if workload == "saturate-expansive":
        return shuffled(EXPANSIVE_MODELS, seed)
    return shuffled(benchmark_names(), seed)


def config_for(workload: str, benchmark):
    """The synthesis config a model runs with in a workload."""
    from repro.core.config import SynthesisConfig

    if workload == "saturate-expansive":
        categories = tuple(SynthesisConfig().rule_categories) + ("boolean-expansive",)
        return SynthesisConfig(
            cost_function=benchmark.cost_function,
            max_enodes=EXPANSIVE_MAX_ENODES,
            enable_function_inference=False,
            enable_loop_inference=False,
            rule_categories=categories,
        )
    return SynthesisConfig(cost_function=benchmark.cost_function)


def build_inputs(workload: str, seed: int) -> List[Tuple[object, object, object]]:
    """``(benchmark, flat term, config)`` per model, in run order."""
    from repro.benchsuite.suite import get_benchmark

    inputs = []
    for name in table1_names(workload, seed):
        benchmark = get_benchmark(name)
        inputs.append((benchmark, benchmark.build(), config_for(workload, benchmark)))
    return inputs

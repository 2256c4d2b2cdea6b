"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (Section 6); see README.md, "Table 1 reproduction", for the
experiment index and the known divergences from the paper.  ``pytest-benchmark`` provides the timing
machinery; the assertions in each benchmark check the *shape* of the paper's
result (who wins, what structure is recovered), not absolute numbers.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.core.config import SynthesisConfig


@pytest.fixture
def paper_config() -> SynthesisConfig:
    """The configuration matching the paper's evaluation setup."""
    return SynthesisConfig(epsilon=1e-3, top_k=5)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table1: benchmarks reproducing rows of Table 1"
    )
    config.addinivalue_line(
        "markers", "figure: benchmarks reproducing figure examples"
    )

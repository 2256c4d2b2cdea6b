"""Cache entries written by an older payload format miss instead of failing.

Removing a field that never entered the cache key (``SynthesisConfig``
fields excluded from ``semantic_dict``, ``IterationReport`` counters) leaves
entries written before the removal reachable under unchanged keys, while
``SynthesisResult.from_dict`` rightly rejects them.  Both cache-hit paths —
``SynthesisService.run_batch`` and the daemon — must treat such an entry as
a miss: recompute, succeed, and overwrite it.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult
from repro.csg.build import translate, union_all, unit
from repro.csg.pretty import format_term
from repro.service import ResultCache, SynthesisDaemon, SynthesisJob, SynthesisService
from repro.service.cache import cache_key, semantic_cache_key
from repro.service.protocol import DaemonClient


def _chain(n, order=None):
    order = range(n) if order is None else order
    return union_all([translate(2.0 * (i + 1), 0.0, 0.0, unit()) for i in order])


def _age_entries(cache_dir):
    """Rewrite every stored payload with fields a former version carried."""
    paths = sorted(Path(cache_dir).glob("*/*.json"))
    assert paths
    for path in paths:
        payload = json.loads(path.read_text())
        payload["config"]["retired_knob"] = 2
        for report in payload["run_reports"]:
            for iteration in report["iterations"]:
                iteration.update(retired_counter=1, retired_timings=[0.01])
        path.write_text(json.dumps(payload))
    return paths


def _rebuilds(path):
    SynthesisResult.from_dict(json.loads(path.read_text()))
    return True


def _warm(cache_dir, term):
    report = SynthesisService(worker_count=0, cache=ResultCache(cache_dir)).run_batch(
        [SynthesisJob(name="warm", term=term)]
    )
    assert report.results[0].ok
    return _age_entries(cache_dir)


def test_run_batch_recomputes_and_overwrites_a_stale_entry(tmp_path):
    (path,) = _warm(tmp_path, _chain(3))
    with pytest.raises((TypeError, ValueError)):  # from_dict stays strict
        _rebuilds(path)
    cache = ResultCache(tmp_path)
    report = SynthesisService(worker_count=0, cache=cache).run_batch(
        [SynthesisJob(name="stale", term=_chain(3))]
    )
    (outcome,) = report.results
    assert outcome.ok and not outcome.cached
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    assert _rebuilds(path)

    warm = ResultCache(tmp_path)
    (again,) = SynthesisService(worker_count=0, cache=warm).run_batch(
        [SynthesisJob(name="fresh", term=_chain(3))]
    ).results
    assert again.cached and again.cache_tier == "exact"
    assert again.result.candidates == outcome.result.candidates


def test_stale_entry_behind_a_semantic_pointer_misses(tmp_path):
    (path,) = _warm(tmp_path, _chain(3))
    respelled = _chain(3, order=(2, 1, 0))
    cache = ResultCache(tmp_path)
    exact_key = cache_key(respelled, SynthesisConfig())
    semantic_key = semantic_cache_key(respelled, SynthesisConfig())
    assert exact_key not in cache
    assert cache.lookup_result(exact_key, semantic_key) == (None, None, None)
    assert not path.exists()
    assert cache.misses == 1 and cache.hits == 0

    (outcome,) = SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
        [SynthesisJob(name="respelled", term=respelled)]
    ).results
    assert outcome.ok and not outcome.cached


def test_daemon_recomputes_and_overwrites_a_stale_entry(tmp_path):
    (path,) = _warm(tmp_path / "cache", _chain(3))
    sock_dir = Path(tempfile.mkdtemp(prefix="szd.", dir="/tmp"))
    daemon = SynthesisDaemon(
        sock_dir / "d.sock", worker_count=1, cache=ResultCache(tmp_path / "cache")
    )
    daemon.start()
    try:
        spec = {"name": "c3", "term": format_term(_chain(3))}
        with DaemonClient(daemon.socket_path) as client:
            (stale,) = client.submit_and_wait([spec])
            (warm,) = client.submit_and_wait([spec])
            health = client.health()
    finally:
        daemon.shutdown(drain=False)
        shutil.rmtree(sock_dir, ignore_errors=True)
    assert stale["status"] == "succeeded" and not stale["cached"]
    assert warm["cached"] and warm["cache_tier"] == "exact"
    assert health["jobs"]["failed"] == 0
    assert _rebuilds(path)

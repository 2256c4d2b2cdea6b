"""Result-cache disk writes that fail (a full or read-only directory).

The cache keeps serving from memory, so neither a computed batch nor the
daemon's pool scheduler thread, where the daemon stores results, goes down.
"""

import errno
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.csg.build import translate, union_all, unit
from repro.csg.pretty import format_term
from repro.service import ResultCache, SynthesisDaemon, SynthesisJob, SynthesisService
from repro.service.protocol import DaemonClient


def _chain(n: int):
    """A small flat union chain (fast to synthesize)."""
    return union_all([translate(2.0 * (i + 1), 0.0, 0.0, unit()) for i in range(n)])


@pytest.fixture
def full_disk(monkeypatch):
    """Every disk-tier payload write fails as on a full filesystem."""

    def no_space(self, key, payload):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ResultCache, "_write_disk", no_space)


def test_failed_write_is_counted_and_served_from_memory(tmp_path):
    cache = ResultCache(tmp_path)
    key = "a" * 64
    # A directory where the entry file belongs makes the final rename fail.
    (tmp_path / key[:2] / f"{key}.json").mkdir(parents=True)
    cache.put(key, {"v": 1}, semantic_key="b" * 64)
    assert cache.stats()["write_failures"] == 1
    assert cache.get(key) == {"v": 1}
    assert cache.lookup("0" * 64, "b" * 64) == ({"v": 1}, "semantic")
    # Neither a stray temporary file nor a dangling semantic pointer is left.
    assert list(tmp_path.rglob("*.tmp.*")) == []
    assert not (tmp_path / "sem").exists()


def test_batch_returns_every_success_while_writes_fail(tmp_path, full_disk):
    cache = ResultCache(tmp_path / "cache")
    jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4)]
    report = SynthesisService(worker_count=1, cache=cache).run_batch(jobs)
    assert [r.ok for r in report.results] == [True, True]
    assert report.cache["write_failures"] == 2
    rerun = SynthesisService(worker_count=0, cache=cache).run_batch(
        [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4)]
    )
    assert rerun.hit_rate == 1.0  # the memory tier still holds both


def test_daemon_serves_two_jobs_while_writes_fail(full_disk):
    sock_dir = Path(tempfile.mkdtemp(prefix="szd.", dir="/tmp"))
    daemon = SynthesisDaemon(
        sock_dir / "d.sock", worker_count=1, cache=ResultCache(sock_dir / "cache")
    )
    daemon.start()
    try:
        for n in (3, 4):
            with DaemonClient(daemon.socket_path, timeout=30.0) as client:
                (result,) = client.submit_and_wait(
                    [{"name": f"c{n}", "term": format_term(_chain(n))}]
                )
            assert result["status"] == "succeeded"
        with DaemonClient(daemon.socket_path, timeout=30.0) as client:
            stats = client.stats()
        assert stats["workers"]["queue_depth"] == 0
        assert stats["cache"]["write_failures"] == 2
    finally:
        daemon.shutdown(drain=False)
        shutil.rmtree(sock_dir, ignore_errors=True)

"""The batch synthesis service: cache check → worker fan-out → report.

:class:`SynthesisService` is the orchestration layer the CLI and the Table 1
harness sit on.  For every submitted job it:

1. probes the content-addressed :class:`~repro.service.cache.ResultCache`
   (when one is attached) — a hit short-circuits the job entirely and is
   reported with ``cached=True``;
2. coalesces misses that share a cache key — one representative executes
   and its duplicates are served the same outcome (``cache_tier="batch"``)
   without running;
3. dispatches the representatives to a
   :class:`~repro.service.worker.ResidentPool` (``worker_count >= 1``) or
   the inline executor (``worker_count == 0``), streaming
   :class:`~repro.service.job.JobEvent`\\ s to the caller on the calling
   thread;
4. writes every fresh success back into the cache and assembles a
   :class:`BatchReport` with per-job outcomes in submission order.

Failures never propagate: a job that raises, crashes its worker, or blows
its timeout is a failed entry in the report, and the rest of the batch is
unaffected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from queue import SimpleQueue
from typing import Dict, List, Optional, Sequence

from repro.obs.histogram import MetricsAggregator
from repro.service.cache import ResultCache, cache_key, semantic_cache_key
from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob
from repro.service.queue import JobQueue
from repro.service.worker import EventCallback, ResidentPool, run_jobs_inline, _emit


@dataclass
class BatchReport:
    """Everything one batch run produced."""

    #: Per-job outcomes, in submission order (not completion order).
    results: List[JobResult]
    #: Wall-clock seconds for the whole batch.
    seconds: float = 0.0
    #: Worker processes used (0 = inline execution).
    worker_count: int = 0
    #: Cache counter snapshot for this run ({} when no cache was attached).
    cache: Dict[str, object] = field(default_factory=dict)
    #: Latency snapshot (``MetricsAggregator.snapshot()``) for this service's
    #: lifetime so far; per-phase families are populated when tracing is on.
    metrics: Dict[str, object] = field(default_factory=dict)

    # -- accessors -------------------------------------------------------------

    @property
    def succeeded(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def exact_hits(self) -> int:
        """Jobs served by the exact (byte-identical input) cache level."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "exact")

    @property
    def semantic_hits(self) -> int:
        """Jobs served by the semantic (normalized-key) cache level."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "semantic")

    @property
    def batch_hits(self) -> int:
        """Jobs coalesced onto an identical job within the same batch."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "batch")

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the cache (0.0 without a cache)."""
        return self.cache_hits / len(self.results) if self.results else 0.0

    def result_for(self, name: str) -> Optional[JobResult]:
        """The first job result with the given name, if any."""
        for result in self.results:
            if result.name == name:
                return result
        return None

    def to_dict(self) -> dict:
        """JSON-able report (per-job outcomes are compact summaries)."""
        return {
            "seconds": self.seconds,
            "worker_count": self.worker_count,
            "jobs": len(self.results),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "exact_hits": self.exact_hits,
            "semantic_hits": self.semantic_hits,
            "batch_hits": self.batch_hits,
            "hit_rate": self.hit_rate,
            "cache": self.cache,
            "metrics": self.metrics,
            "results": [result.to_dict() for result in self.results],
        }


class SynthesisService:
    """Throughput-oriented front end over the one-shot synthesis pipeline."""

    def __init__(
        self,
        worker_count: int = 0,
        cache: Optional[ResultCache] = None,
        on_event: Optional[EventCallback] = None,
        trace: bool = False,
    ):
        if worker_count < 0:
            raise ValueError("worker_count must be >= 0")
        self.worker_count = worker_count
        self.cache = cache
        self.on_event = on_event
        #: When True every executed job runs with per-phase span tracing and
        #: ships its trace back on :attr:`JobResult.trace`; the trace flag is
        #: not part of the cache identity.
        self.trace = trace
        #: Streaming latency histograms over this service's lifetime (per
        #: phase / per model / per cache tier); snapshotted into every
        #: :attr:`BatchReport.metrics`.
        self.metrics = MetricsAggregator()

    def run_batch(self, jobs: Sequence[SynthesisJob]) -> BatchReport:
        """Run a batch of jobs and return their outcomes in submission order.

        Raises :class:`ValueError` when two jobs share a ``job_id`` —
        results are keyed by id, so duplicates would silently clobber one
        outcome and report the other twice.
        """
        jobs = [self._normalize(job) for job in jobs]
        if self.trace:
            jobs = [job if job.trace else replace(job, trace=True) for job in jobs]
        self._reject_duplicate_ids(jobs)
        start = time.perf_counter()
        results: Dict[str, JobResult] = {}

        to_run: List[SynthesisJob] = []
        keys: Dict[str, str] = {}
        semantic_keys: Dict[str, Optional[str]] = {}
        #: Within-batch coalescing: first job seen per cache key runs, the
        #: rest are served its outcome (the key folds in the config and the
        #: clamped timeout, so only genuinely interchangeable jobs merge).
        primary_for_key: Dict[str, str] = {}
        followers: Dict[str, List[SynthesisJob]] = {}
        for job in jobs:
            key = cache_key(job.term, job.config)
            keys[job.job_id] = key
            if self.cache is not None:
                # The semantic key is only derived when the tier is on —
                # normalization walks the whole term, and --no-semantic-cache
                # should not pay for it.
                semantic_key = (
                    semantic_cache_key(job.term, job.config)
                    if self.cache.semantic
                    else None
                )
                semantic_keys[job.job_id] = semantic_key
                lookup_start = time.perf_counter()
                payload, result, tier = self.cache.lookup_result(key, semantic_key)
                if payload is not None:
                    self.metrics.ingest(
                        model=job.name,
                        seconds=time.perf_counter() - lookup_start,
                        cache_tier=tier,
                    )
                    results[job.job_id] = JobResult(
                        job_id=job.job_id,
                        name=job.name,
                        status=JobStatus.SUCCEEDED,
                        result=result,
                        cached=True,
                        cache_tier=tier,
                    )
                    _emit(
                        self.on_event,
                        JobEvent("cache-hit", job.job_id, job.name, message=tier),
                    )
                    continue
            primary_id = primary_for_key.get(key)
            if primary_id is not None:
                followers.setdefault(primary_id, []).append(job)
                continue
            primary_for_key[key] = job.job_id
            to_run.append(job)

        if to_run:
            if self.worker_count == 0:
                executed = run_jobs_inline(to_run, self.on_event)
            else:
                executed = self._run_on_pool(to_run)
            for job in to_run:
                outcome = executed[job.job_id]
                results[job.job_id] = outcome
                self.metrics.ingest(
                    model=job.name, seconds=outcome.seconds, trace=outcome.trace
                )
                if self.cache is not None and outcome.ok:
                    # The worker already shipped the result as its to_dict()
                    # form; store that verbatim instead of re-serializing.
                    payload = outcome.result_payload or outcome.result.to_dict()
                    self.cache.put(
                        keys[job.job_id], payload, semantic_keys[job.job_id]
                    )
                for follower in followers.get(job.job_id, ()):
                    results[follower.job_id] = self._follower_result(follower, outcome)
                    if outcome.ok:
                        # The follower's effective latency is the primary's
                        # execution it waited on.
                        self.metrics.ingest(
                            model=follower.name,
                            seconds=outcome.seconds,
                            cache_tier="batch",
                        )
                    _emit(
                        self.on_event,
                        JobEvent(
                            "cache-hit" if outcome.ok else "failed",
                            follower.job_id,
                            follower.name,
                            message="batch" if outcome.ok else outcome.error_summary(),
                        ),
                    )

        return BatchReport(
            results=[results[job.job_id] for job in jobs],
            seconds=time.perf_counter() - start,
            worker_count=self.worker_count,
            cache=self.cache.stats() if self.cache is not None else {},
            metrics=self.metrics.snapshot(),
        )

    def _run_on_pool(self, jobs: Sequence[SynthesisJob]) -> Dict[str, JobResult]:
        """Fan ``jobs`` out over a :class:`ResidentPool` started for this batch.

        Submission is in scheduling order, because the pool may start the
        first job before later ones arrive.  Events are relayed through a
        queue so ``on_event`` runs on the calling thread; if the wait raises,
        the pool is force-stopped so no worker outlives the batch.
        """
        updates: SimpleQueue = SimpleQueue()
        pool = ResidentPool(min(self.worker_count, len(jobs))).start()
        results: Dict[str, JobResult] = {}
        try:
            for job in JobQueue(jobs).drain():
                pool.submit(job, lambda _job, result: updates.put(result), updates.put)
            while len(results) < len(jobs):
                update = updates.get()
                if isinstance(update, JobEvent):
                    _emit(self.on_event, update)
                else:
                    results[update.job_id] = update
        except BaseException:
            pool.shutdown(drain=False)
            raise
        pool.shutdown(drain=True)
        return results

    @staticmethod
    def _reject_duplicate_ids(jobs: Sequence[SynthesisJob]) -> None:
        """Fail fast on colliding job ids instead of corrupting the report."""
        seen: Dict[str, int] = {}
        for job in jobs:
            seen[job.job_id] = seen.get(job.job_id, 0) + 1
        duplicates = sorted(job_id for job_id, count in seen.items() if count > 1)
        if duplicates:
            raise ValueError(
                f"duplicate job ids in batch: {', '.join(duplicates)} — "
                "results are keyed by job_id, so duplicates would clobber "
                "each other; give each job a unique id (or let it default)"
            )

    @staticmethod
    def _follower_result(job: SynthesisJob, primary: JobResult) -> JobResult:
        """The outcome a coalesced duplicate reports.

        The follower never ran: on success it is served the primary's
        payload exactly like a cache hit (``cache_tier="batch"``); a failed
        or timed-out primary is mirrored (an identical job would have met
        the identical fate), with the error annotated so the report shows
        where the single execution happened.
        """
        if primary.ok:
            return JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.SUCCEEDED,
                result=primary.result,
                cached=True,
                cache_tier="batch",
                result_payload=primary.result_payload,
            )
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            status=primary.status,
            error=(
                f"coalesced with identical job {primary.job_id}, which "
                f"{primary.status.value}:\n{primary.error or ''}"
            ),
        )

    @staticmethod
    def _normalize(job: SynthesisJob) -> SynthesisJob:
        """Fold a job's timeout into its config *before* cache keying.

        The timeout clamps the saturation fuel (``max_seconds``) inside the
        worker, which can change the synthesized result — so it must be part
        of the cache identity.  Normalizing here means a timeout-truncated
        run is stored under the clamped config's key and can never be served
        to a later run with a bigger budget.
        """
        if job.timeout is None or job.timeout >= job.config.max_seconds:
            return job
        return replace(job, config=replace(job.config, max_seconds=job.timeout))

    # -- convenience -----------------------------------------------------------

    def run_files(self, paths: Sequence, config=None, **job_kwargs) -> BatchReport:
        """Batch-synthesize a list of flat-CSG files."""
        jobs = [SynthesisJob.from_file(path, config, **job_kwargs) for path in paths]
        return self.run_batch(jobs)

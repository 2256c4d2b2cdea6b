"""One measured pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so no pass inherits the heap,
interning tables or allocator state of an earlier one (within one process
the Table 1 suite slows down pass after pass).  The pass prints one JSON
object on its last stdout line: its set-up time, wall time, per-model
latencies, failures, output size and peak memory, plus the layer metrics
when ``--trace 1``.  Times are rescaled to the nominal host speed of
``hostref.py``; the raw figures travel alongside.

Run by hand from the repository root, e.g.::

    python3 perfbench/child.py --workload table1-cold --seed 1 --trace 1 \
        --work .perfbench_work/manual --spawned 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import Validated, table1_expectations  # noqa: E402
from hostref import HostSpeed  # noqa: E402
from layers import LayerClock, install_pipeline_layers  # noqa: E402
from workloads import build_inputs  # noqa: E402

#: Kernel samples a set-up-only pass takes to rescale its set-up time.
SETUP_ONLY_SAMPLES = 5


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(speed: HostSpeed) -> float:
    """Peak RSS of this process so far, without the host-speed kernel's
    arrays; read right after the timed region."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - speed.resident_mb


def span_seconds(spans) -> dict:
    """Summed durations of the saturation runner's phase spans."""
    totals = {"search": 0.0, "apply": 0.0, "rebuild": 0.0}
    for span in spans:
        if span.get("name") in totals:
            totals[span["name"]] += span["end"] - span["start"]
    return totals


def pipeline_layers(clock: LayerClock, results, spans, wall: float, attributed: float) -> dict:
    """Layer metrics of a pass over the in-process pipeline (raw seconds)."""
    metrics = {}
    for layer in ("core.function_inference", "core.loop_inference"):
        metrics[f"{layer}_s"] = clock.total.get(layer, 0.0)
        metrics[f"{layer}_self_s"] = clock.self_time.get(layer, 0.0)
    for layer in (
        "core.determinize", "solvers.solve", "egraph.add_term", "egraph.saturate",
        "egraph.extract", "scad.flatten", "verify.validate",
    ):
        metrics[f"{layer}_s"] = clock.total.get(layer, 0.0)
    for layer in ("core.determinize", "solvers.solve", "egraph.add_term"):
        metrics[f"{layer}_calls"] = clock.calls.get(layer, 0)
    solves = clock.calls.get("solvers.solve", 0)
    metrics["solvers.solved_ratio"] = (
        clock.counters.get("solvers.solutions", 0) / solves if solves else 0.0
    )
    for name, seconds in span_seconds(spans).items():
        metrics[f"egraph.{name}_s"] = seconds
    reports = [report for result in results for report in result.run_reports]
    matches = sum(sum(it.matches.values()) for r in reports for it in r.iterations)
    firings = sum(r.total_firings for r in reports)
    metrics["egraph.enodes"] = sum(r.iterations[-1].enodes_after for r in reports if r.iterations)
    metrics["egraph.iterations"] = sum(len(r.iterations) for r in reports)
    metrics["egraph.applied_ratio"] = firings / matches if matches else 0.0
    metrics["core.inference_records"] = sum(len(r.inference_records) for r in results)
    metrics["unattributed_s"] = wall - attributed
    return metrics


def run_table1_cold(args, clock, validated, ready):
    """The Table 1 suite through ``batch --suite --jobs 0``'s service path.

    Each model is its own ``run_batch`` call, so the host-speed kernel can
    run between models; the jobs are distinct, so one call per job does
    the same work as one call for all.
    """
    from repro.service.job import SynthesisJob
    from repro.service.service import SynthesisService

    inputs = build_inputs(args.workload, args.seed)
    jobs = [SynthesisJob(name=b.name, term=term, config=config) for b, term, config in inputs]
    service = SynthesisService(worker_count=0, trace=clock is not None)
    speed = ready()
    before = clock.attributed_seconds() if clock else 0.0
    seconds = []
    job_results = []
    for job in jobs:
        start = time.perf_counter()
        batch = service.run_batch([job])
        seconds.append(time.perf_counter() - start)
        job_results.extend(batch.results)
        speed.sample()
    rss = peak_rss_mb(speed)
    attributed = (clock.attributed_seconds() - before) if clock else 0.0

    failures = []
    failed = 0
    nodes = 0
    kinds = {}
    results = []
    for (benchmark, term, _config), job in zip(inputs, job_results):
        problems = []
        if not job.ok or job.result is None:
            problems.append(f"{benchmark.name}: job {job.status.value}: {job.error_summary()}")
        else:
            results.append(job.result)
            nodes += job.result.output_metrics().nodes
            kinds[benchmark.name] = job.result.function_summary()
            problems += validated.check(benchmark.name, term, job.result.output_term())
            problems += table1_expectations(benchmark, job.result)
        if problems:
            failed += 1
            failures += problems
    pass_result = {
        "op_seconds": seconds,
        "peak_rss_mb": rss,
        "latencies": [job.seconds for job in job_results],
        "attempted": len(inputs),
        "failed": failed,
        "failures": failures,
        "output_nodes": nodes,
        "info": {"function_kinds": kinds},
    }
    if clock is not None:
        spans = [span for job in job_results for span in (job.trace or ())]
        layers = pipeline_layers(clock, results, spans, sum(seconds), attributed)
        # Service time around each job: the job's wall time minus the
        # synthesis seconds it reports itself.
        layers["service.dispatch_s"] = sum(job.seconds - job.result.seconds for job in
                                           job_results if job.ok and job.result is not None)
        pass_result["layers"] = layers
    return pass_result


def run_saturate_expansive(args, clock, validated, ready):
    """Rewrites-only ablation with the expansive boolean rules, via ``synthesize``."""
    from repro.core.pipeline import synthesize
    from repro.obs.trace import Tracer

    inputs = build_inputs(args.workload, args.seed)
    speed = ready()
    before = clock.attributed_seconds() if clock else 0.0
    latencies, results, spans = [], [], []
    for _benchmark, term, config in inputs:
        tracer = Tracer() if clock is not None else None
        begin = time.perf_counter()
        results.append(synthesize(term, config, tracer=tracer))
        latencies.append(time.perf_counter() - begin)
        speed.sample()
        if tracer is not None:
            spans.extend(tracer.export())
    rss = peak_rss_mb(speed)
    attributed = (clock.attributed_seconds() - before) if clock else 0.0
    failures = []
    failed = 0
    for (benchmark, term, _config), result in zip(inputs, results):
        problems = [] if result.candidates else [f"{benchmark.name}: no candidates"]
        if result.candidates:
            problems += validated.check(benchmark.name, term, result.output_term())
        if problems:
            failed += 1
            failures += problems
    pass_result = {
        "op_seconds": latencies,
        "peak_rss_mb": rss,
        "latencies": latencies,
        "attempted": len(inputs),
        "failed": failed,
        "failures": failures,
        "output_nodes": sum(r.output_metrics().nodes for r in results if r.candidates),
        "info": {"stop_reasons": [r.run_reports[0].stop_reason.value for r in results]},
    }
    if clock is not None:
        pass_result["layers"] = pipeline_layers(
            clock, results, spans, sum(latencies), attributed
        )
    return pass_result


class SetupDone(Exception):
    """Raised by ``ready()`` in a set-up-only pass."""


RUNNERS = {
    "table1-cold": run_table1_cold,
    "saturate-expansive": run_saturate_expansive,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory of the run")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when set-up is done and report only setup_s")
    args = parser.parse_args()

    clock = LayerClock() if args.trace else None
    if clock is not None:
        # Installed before the inputs are built so scad.flatten is timed.
        install_pipeline_layers(clock)
    validated = Validated(Path(args.work) / "validated.json", force=bool(args.trace))
    setup = {}

    def ready() -> HostSpeed:
        """End set-up; return the host-speed kernel with its first sample."""
        setup["s"] = time.monotonic() - args.spawned
        setup["speed"] = HostSpeed()
        setup["speed"].sample(SETUP_ONLY_SAMPLES if args.setup_only else 1)
        if args.setup_only:
            raise SetupDone
        return setup["speed"]

    try:
        pass_result = RUNNERS[args.workload](args, clock, validated, ready)
    except SetupDone:
        speed = setup["speed"]
        print(json.dumps({"setup_s": setup["s"] * speed.scale(), "raw_setup_s": setup["s"]}))
        return 0
    validated.save()
    speed = setup["speed"]
    pass_result.update({
        "setup_s": setup["s"] * speed.scale(),
        "raw_setup_s": setup["s"],
        "wall_s": speed.rescaled(pass_result["op_seconds"]),
        "raw_wall_s": sum(pass_result["op_seconds"]),
        "host_scale": speed.scale(),
    })
    if clock is not None:
        clock.unwrap_all()
    print(json.dumps(pass_result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

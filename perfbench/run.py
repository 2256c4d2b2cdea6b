"""Layered benchmark of the Szalinski reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``):

* ``table1-cold`` — the 16 Table 1 models, one at a time, in one process,
  no cache (``batch --suite --jobs 0``);
* ``saturate-expansive`` — six models under the rewrites-only ablation with
  the expansive boolean rules and a 20k e-node limit.

Each pass runs in a fresh process (``child.py``); passes repeat until
``--seconds`` is used up and every metric is the median over passes.  Time
metrics are rescaled to a nominal host speed measured between operations
(``hostref.py``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced, and it carries the per-layer metrics, the raw (unscaled) times,
the unattributed time and the tracing overhead.  The line before it is a
host stamp (cores, load, the kernel time of ``hostref.py``, versions,
source digest, seed).  Correctness is checked outside every timed region;
failures are listed on stderr and counted in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import percentile  # noqa: E402
from hostref import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run must end within this many seconds, set-up and checks included.
RUN_LIMIT_S = 170.0
#: ``setup_s`` is the median of at least this many set-ups: the measured
#: passes' own, topped up by set-up-only passes.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "output_nodes": "count",
    "peak_rss_mb": "MB",
}

#: Per-model latency percentiles are ungated: a model is one short
#: sample of a host whose speed moves from second to second.
PER_LAYER = {
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "core.function_inference_s": "s",
    "core.function_inference_self_s": "s",
    "core.loop_inference_s": "s",
    "core.loop_inference_self_s": "s",
    "core.determinize_s": "s",
    "core.determinize_calls": "count",
    "solvers.solve_s": "s",
    "solvers.solve_calls": "count",
    "solvers.solved_ratio": "ratio",
    "egraph.add_term_s": "s",
    "egraph.add_term_calls": "count",
    "core.inference_records": "count",
    "egraph.saturate_s": "s",
    "egraph.search_s": "s",
    "egraph.apply_s": "s",
    "egraph.rebuild_s": "s",
    "egraph.extract_s": "s",
    "egraph.enodes": "count",
    "egraph.iterations": "count",
    "egraph.applied_ratio": "ratio",
    "scad.flatten_s": "s",
    "service.dispatch_s": "s",
    "verify.validate_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.host_scale": "ratio",
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "unattributed_s": "s",
    "fail_frac": "ratio",
}


class PassError(RuntimeError):
    """A pass crashed or printed no result."""


def source_digest() -> str:
    """SHA-256 over the package sources (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_stamp(args) -> dict:
    speed = HostSpeed()
    speed.sample(5)
    kernel_s = statistics.median(speed.samples)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "kernel_s": kernel_s,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stop_group(pgid: int) -> None:
    """Kill what is left of a pass's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pass(args, work: Path, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """Run one pass of the workload in a fresh process group."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--work", str(work),
        "--spawned", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(child.pid)
        child.communicate()
        raise PassError(f"{args.workload} pass exceeded the run's time limit")
    finally:
        stop_group(child.pid)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise PassError(f"{args.workload} pass exited with {child.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def run_passes(args, work: Path) -> list:
    """Passes until the time is used; traced runs alternate untraced/traced."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append((traced, run_pass(args, work, traced, deadline)))
        done = time.monotonic() - start >= args.seconds
        kinds = {t for t, _ in passes}
        if done and (not args.trace or kinds == {False, True}):
            return passes


def setup_samples(args, work: Path, passes) -> list:
    """The passes' set-up times, topped up to SETUP_SAMPLES by set-up-only passes."""
    samples = [result["setup_s"] for _traced, result in passes]
    deadline = time.monotonic() + RUN_LIMIT_S / 4
    while len(samples) < SETUP_SAMPLES:
        samples.append(
            run_pass(args, work, False, deadline, setup_only=True)["setup_s"]
        )
    return samples


def end_to_end(passes, setups) -> dict:
    """Each end-to-end metric as its median over passes."""
    metrics = {
        name: {
            "value": statistics.median(result[name] for _traced, result in passes),
            "unit": unit,
        }
        for name, unit in END_TO_END.items()
        if name != "setup_s"
    }
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": END_TO_END["setup_s"]}
    return metrics


def per_layer(passes, attempted: int, failed: int) -> dict:
    traced = [result for is_traced, result in passes if is_traced]
    plain = [result for is_traced, result in passes if not is_traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        series = [result["layers"].get(name, 0.0) for result in traced]
        metrics[name] = {"value": statistics.median(series) if series else 0.0, "unit": unit}
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    metrics["bench.trace_overhead_s"]["value"] = overhead
    for name, key in (
        ("bench.host_scale", "host_scale"), ("raw.wall_s", "raw_wall_s"),
        ("raw.setup_s", "raw_setup_s"),
    ):
        metrics[name]["value"] = statistics.median(r[key] for r in plain)
    # Per-model latencies (raw seconds) come from the untraced passes.
    latencies = [t for result in plain for t in result["latencies"]]
    metrics["latency_p50_s"]["value"] = statistics.median(latencies)
    metrics["latency_p95_s"]["value"] = percentile(latencies, 0.95)
    metrics["fail_frac"]["value"] = failed / attempted
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps({"host": host_stamp(args)}), flush=True)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        passes = run_passes(args, work)
        setups = [] if args.trace else setup_samples(args, work, passes)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(result["attempted"] for _, result in passes)
    failed = sum(result["failed"] for _, result in passes)
    for _, result in passes:
        for failure in result["failures"]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for index, (traced, result) in enumerate(passes):
        info = {k: result.get(k) for k in
                ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "host_scale", "info")}
        print(json.dumps({"pass": index, "traced": traced, **info}))
    metrics = per_layer(passes, attempted, failed) if args.trace else end_to_end(passes, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

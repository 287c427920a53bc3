"""What runs inside a workload's own interpreter.

Three entry points, each called once per fresh process by ``run.py``:

- :func:`setup_only` builds the workload and exits — the parent times
  the whole launch, which is ``setup_s``;
- :func:`measure` builds it, runs one untimed warm-up pass, then timed
  passes until ``seconds`` have been measured, then the correctness
  checks, and reports the end-to-end numbers with tracing off;
- :func:`trace` runs one untraced and one traced pass (their ratio is
  ``trace.overhead_ratio``) and returns the spans.

Every job and check runs under :func:`guarded`: a wall-clock deadline,
and a failure or timeout is recorded and counted, never raised. Every
job of a pass sits between two samples of the host-speed reference
(``calibrate.py``); ``wall_s`` and ``cpu_s`` are in calibrated seconds,
the raw ones travel beside them as ``raw_wall_s`` and ``raw_cpu_s``.
"""

from __future__ import annotations

import multiprocessing
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager

import workloads
from calibrate import REFERENCE_S, calibrated, sample
from tracing import Tracer, layers_table

__all__ = [
    "JobTimeout",
    "guarded",
    "cpu_seconds",
    "summary",
    "setup_only",
    "measure",
    "trace",
]

#: Wall-clock deadline of one job or check. Jobs are sized to well
#: under a second; this only has to catch a hang.
JOB_DEADLINE_S = 30.0


class JobTimeout(Exception):
    """A job exceeded :data:`JOB_DEADLINE_S`."""


@contextmanager
def _deadline(name: str, seconds: float):
    """``SIGALRM`` guard (main thread, POSIX); a no-op elsewhere."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        raise JobTimeout(f"{name} exceeded {seconds:g} s wall-clock")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _reap_children() -> int:
    """Terminate and join forked shard children a failed job left."""
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
    for child in leftover:
        child.join(timeout=5.0)
    return len(leftover)


def guarded(job, tracer=None, deadline: float = JOB_DEADLINE_S) -> dict:
    """Run one job; never raises. Returns its record."""
    record = {"name": job.name, "ops": job.ops, "ok": False, "error": None}
    start = time.perf_counter()
    try:
        with _deadline(job.name, deadline):
            record["outcome"] = job.run(tracer)
        record["ok"] = True
    except Exception as exc:  # the run must go on; the failure counts
        record["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        orphans = _reap_children()
        if orphans:
            record["error"] += f" ({orphans} shard children reaped)"
    record["seconds"] = time.perf_counter() - start
    return record


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def summary(values: list[float]) -> dict:
    """Median with min, max and n (n is too small for a percentile)."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


class _Ledger:
    """Attempted/failed operations, first digests, failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.counts: dict[str, dict] = {}

    def fail(self, name: str, ops: int, error: str) -> None:
        self.failed += ops
        self.failures.append({"job": name, "error": error})

    def record(self, rec: dict) -> None:
        """Count a job; its digest must repeat across passes."""
        self.attempted += rec["ops"]
        if not rec["ok"]:
            self.fail(rec["name"], rec["ops"], rec["error"])
            return
        outcome = rec["outcome"]
        first = self.digests.setdefault(rec["name"], outcome.digest)
        if outcome.counts:
            self.counts[rec["name"]] = outcome.counts
        if first != outcome.digest:
            self.fail(
                rec["name"],
                rec["ops"],
                f"sim_digest drifted between repetitions: {first} -> "
                f"{outcome.digest}",
            )


def _run_pass(workload, ledger: _Ledger, tracer=None) -> dict:
    """One pass over the job list; calibrated and raw wall and cpu.

    A reference sample is taken before the first job and after each
    one, so a job is scaled by the host speed measured right around it.
    """
    start = time.perf_counter()
    records = []
    wall = cpu = raw_wall = raw_cpu = 0.0
    after = sample()
    references = [after]
    for job in workload.jobs():
        before = after
        job_cpu = cpu_seconds()
        rec = guarded(job, tracer)
        job_cpu = cpu_seconds() - job_cpu
        after = sample()
        references.append(after)
        records.append(rec)
        raw_wall += rec["seconds"]
        raw_cpu += job_cpu
        wall += calibrated(rec["seconds"], before, after)
        cpu += calibrated(job_cpu, before, after)
    for rec in records:
        ledger.record(rec)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "reference_s": statistics.mean(references),
        "elapsed_s": time.perf_counter() - start,
        "jobs": {rec["name"]: rec["seconds"] for rec in records},
        "outcomes": {
            rec["name"]: rec["outcome"] for rec in records if rec["ok"]
        },
    }


def setup_only(name: str, seed: int, scale: float) -> None:
    """Everything before the first timed call, then exit."""
    workloads.build(name, seed, scale).close()


def measure(
    name: str, seed: int, seconds: float, scale: float, min_passes: int
) -> dict:
    """Warm-up pass, timed passes, checks; tracing off throughout."""
    started = time.perf_counter()
    workload = workloads.build(name, seed, scale)
    setup_in_process = time.perf_counter() - started
    ledger = _Ledger()
    try:
        _run_pass(workload, ledger)  # warm-up: caches, lazy imports
        passes = []
        measured = 0.0
        while measured < seconds or len(passes) < min_passes:
            passes.append(_run_pass(workload, ledger))
            measured += passes[-1]["elapsed_s"]
        peak_rss = _peak_rss_mb()
        checks = {}
        for check in workload.checks(passes[-1]["outcomes"]):
            rec = guarded(check)
            ledger.record(rec)
            checks[rec["name"]] = "ok" if rec["ok"] else rec["error"]
        sizes = workload.pass_sizes()
    finally:
        workload.close()
    return {
        "workload": name,
        "seed": seed,
        "end_to_end": {
            "wall_s": summary([p["wall_s"] for p in passes]),
            "cpu_s": summary([p["cpu_s"] for p in passes]),
            "peak_rss_mb": summary([peak_rss]),
        },
        "host": {
            "raw_wall_s": summary([p["raw_wall_s"] for p in passes]),
            "raw_cpu_s": summary([p["raw_cpu_s"] for p in passes]),
            "reference_s": summary([p["reference_s"] for p in passes]),
            "nominal_reference_s": REFERENCE_S,
        },
        "job_seconds": {
            job: statistics.median(p["jobs"][job] for p in passes)
            for job in passes[0]["jobs"]
        },
        "setup_in_process_s": setup_in_process,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "checks": checks,
        "sim_digest": ledger.digests,
        "exact_counts": ledger.counts,
        "pass_sizes": sizes,
    }


def trace(name: str, seed: int, scale: float) -> dict:
    """One untraced and one traced pass; spans leave at exit only."""
    workload = workloads.build(name, seed, scale)
    ledger = _Ledger()
    tracer = Tracer()
    try:
        _run_pass(workload, ledger)  # warm-up
        plain = _run_pass(workload, ledger)
        traced = _run_pass(workload, ledger, tracer)
    finally:
        workload.close()
    return {
        "workload": name,
        "seed": seed,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "overhead_ratio": traced["wall_s"] / plain["wall_s"],
        "layers": layers_table(tracer.spans),
        "spans": [span.to_dict() for span in tracer.spans],
        "sim_digest": ledger.digests,
    }

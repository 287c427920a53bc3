"""The repo benchmark: one command, six workloads, every metric by name.

Two ways in (README.md in this directory has the glossary)::

    # the whole suite: end-to-end metrics of every workload, the
    # per-layer probes, every correctness check; --trace adds a traced
    # pass per workload (Chrome trace + layers table)
    python benchmarks/suite/run.py [--seed 17] [--workload NAME ...]
        [--trace] [--quick] [--out DIR]

    # one measured run, as the benchmark driver calls it; the last
    # line of stdout is one JSON object
    python benchmarks/suite/run.py --workload NAME --seed N
        --seconds S --trace 0|1

    python benchmarks/suite/run.py --compare A.json B.json

This process only orchestrates: every workload, and the probes, run in
a fresh single-threaded interpreter of their own (``--child``). All
timings are host time, wall, CPU and set-up seconds scaled by the
host-speed reference of ``calibrate.py``; simulated statistics are hashed
into per-job ``sim_digest``s that must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreter launches behind one ``setup_s``: four before the
#: measuring child and three after it, so that the median straddles
#: the same stretch of host time as the passes it is reported with.
SETUP_LAUNCHES = 7
#: Timed passes a run needs even when ``--seconds`` is already used up.
MIN_PASSES = 3
#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: ``--quick``: pass sizes, timed seconds per workload.
QUICK_SCALE = 0.2
QUICK_SECONDS = 1.0
RESULT_MARK = "@@RESULT "

#: Span names of the traced run; each has a ``trace.share.<name>``.
TRACE_LAYERS = (
    "harness",
    "workload.generate",
    "workload.datagen",
    "analysis.preflight",
    "sps.physical.from_logical",
    "sps.placement.place",
    "sps.engine.init",
    "sps.engine.run",
    "sps.operators",
    "sps.metrics.aggregate",
    "sps.analytic.estimate",
    "elastic.policy_comparison",
    "storage.insert",
    "storage.find",
    "ml.encode",
    "ml.fit.LR",
    "ml.fit.MLP",
    "ml.fit.RF",
    "ml.fit.GNN",
    "ml.evaluate",
)


def _die(message: str, code: int = 2):
    print(f"benchmarks/suite: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_spec() -> dict:
    """``BENCHMARK.json``: names, units, directions and bounds."""
    if not SPEC_PATH.is_file():
        _die(f"{SPEC_PATH} is missing")
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ child


def _child(args) -> int:
    """Body of a ``--child`` interpreter; prints one marked JSON line."""
    sys.path.insert(0, str(SRC))
    import measure

    if args.child == "setup":
        measure.setup_only(args.workload[0], args.seed, args.scale)
        return 0
    if args.child == "measure":
        result = measure.measure(
            args.workload[0],
            args.seed,
            args.seconds,
            args.scale,
            1 if args.scale < 1.0 else MIN_PASSES,
        )
    elif args.child == "trace":
        result = measure.trace(args.workload[0], args.seed, args.scale)
    else:
        import probes

        result = probes.run_probes(args.seed, args.scale)
    print(RESULT_MARK + json.dumps(result, default=repr), flush=True)
    return 0


def _spawn(mode: str, workload: str | None, seed, seconds, scale):
    """Launch a child in its own session; returns the ``Popen``."""
    command = [
        sys.executable,
        str(SUITE / "run.py"),
        "--child", mode,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--scale", str(scale),
    ]
    if workload is not None:
        command += ["--workload", workload]
    # Single-threaded by protocol: keep BLAS pools from spreading the
    # numpy-heavy workloads over the second core.
    env = dict(os.environ)
    for pool in ("OMP", "OPENBLAS", "MKL"):
        env[f"{pool}_NUM_THREADS"] = "1"
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )


def _finish(process, what: str) -> str:
    """Wait for a child; on timeout kill its whole process group."""
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout, Ctrl-C or SIGTERM: no orphans on any exit path —
        # the group holds the child and any shard it forked.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{what} exited with code {process.returncode}")
    return stdout


def run_child(mode, workload, seed, seconds=0.0, scale=1.0) -> dict:
    """Run a child to completion and parse its result line."""
    what = f"{mode} child" + (f" of {workload}" if workload else "")
    stdout = _finish(_spawn(mode, workload, seed, seconds, scale), what)
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_MARK):
            return json.loads(line[len(RESULT_MARK):])
    raise RuntimeError(f"{what} printed no result")


def time_setups(workload: str, seed: int, scale: float, launches: int):
    """Whole fresh-interpreter set-up launches: (calibrated, raw) s."""
    from calibrate import calibrated, sample

    walls = []
    sample()  # the first call pays for lazy set-up inside numpy
    after = sample()
    for _ in range(launches):
        before = after
        start = time.perf_counter()
        _finish(_spawn("setup", workload, seed, 0.0, scale), "setup child")
        raw = time.perf_counter() - start
        after = sample()
        walls.append((calibrated(raw, before, after), raw))
    return walls


# --------------------------------------------------------------- measuring


def _summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def run_end_to_end(workload, seed, seconds, scale, launches) -> dict:
    """Set-up launches around the measuring child of one workload."""
    before = launches - launches // 2
    walls = time_setups(workload, seed, scale, before)
    result = run_child("measure", workload, seed, seconds, scale)
    walls += time_setups(workload, seed, scale, launches - before)
    result["end_to_end"]["setup_s"] = _summary([w[0] for w in walls])
    result["host"]["raw_setup_s"] = _summary([w[1] for w in walls])
    return result


def run_per_layer(workload, seed, scale) -> dict:
    """Traced pass of ``workload`` plus the probes; flat per-layer map."""
    traced = run_child("trace", workload, seed, scale=scale)
    probed = run_child("probes", None, seed, scale=scale)
    values = dict(probed["metrics"])
    values["trace.overhead_ratio"] = traced["overhead_ratio"]
    for layer in TRACE_LAYERS:
        row = traced["layers"].get(layer)
        values[f"trace.share.{layer}"] = row["share"] if row else 0.0
    unknown = sorted(set(traced["layers"]) - set(TRACE_LAYERS))
    failures = traced["failures"] + probed["failures"]
    if unknown:
        failures.append(
            {"job": "trace", "error": f"spans outside TRACE_LAYERS: {unknown}"}
        )
    return {
        "values": values,
        "traced": traced,
        "probe_seconds": probed["seconds"],
        "attempted": traced["attempted"] + probed["attempted"],
        "failed": traced["failed"] + probed["failed"] + bool(unknown),
        "failures": failures,
    }


def with_units(values: dict, metrics: list[dict], what: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    declared = {m["name"]: m["unit"] for m in metrics}
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise RuntimeError(
            f"{what} metrics differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared.items()
    }


def manifest(seed: int, scale: float, seconds: float) -> dict:
    """Which code, seed, host and versions produced the numbers."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from repro.core.perf import calibration_details

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "host.cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heap_calibration": calibration_details(iterations=100_000),
        "setup_launches": SETUP_LAUNCHES,
        "min_passes": MIN_PASSES,
    }


# ---------------------------------------------------------------- printing


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    passes = result["end_to_end"]["wall_s"]["n"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"({passes} timed passes)")
    for name, unit in units.items():
        stat = result["end_to_end"][name]
        print(
            f"  {name:12s} {stat['median']:10.4f} {unit:3s} "
            f"min {stat['min']:.4f} max {stat['max']:.4f} n {stat['n']}"
        )
    nominal = result["host"]["nominal_reference_s"]
    for name, stat in result["host"].items():
        if isinstance(stat, dict):
            print(
                f"  {name:12s} {stat['median']:10.4f} s   "
                f"min {stat['min']:.4f} max {stat['max']:.4f} "
                + (f"(nominal {nominal:g})" if name == "reference_s"
                   else "(as measured)")
            )
    share = result["failed"] / max(result["attempted"], 1)
    print(f"  {'fail_share':12s} {share:10.4f}     "
          f"{result['failed']} failed of {result['attempted']} operations")
    for job, digest in result["sim_digest"].items():
        print(f"  sim_digest   {digest}  {job}")
    for name, verdict in result["checks"].items():
        print(f"  {name}: {verdict}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['job']}: {failure['error']}")


def print_per_layer(values: dict, spec: dict) -> None:
    print("== per-layer")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in values:
            print(f"  {name:46s} {_fmt(values[name]):>14s} {metric['unit']}")


def print_layers(workload: str, traced: dict) -> None:
    print(f"== layers of {workload} (traced pass, self time; "
          f"trace.overhead_ratio {traced['overhead_ratio']:.3f})")
    rows = sorted(
        traced["layers"].items(), key=lambda item: -item[1]["self_s"]
    )
    for name, row in rows:
        print(f"  {name:28s} {row['self_s']:9.4f} s  "
              f"{100 * row['share']:5.1f} %  {row['spans']} spans")


# ------------------------------------------------------------------- modes


def driver_mode(args, spec: dict) -> int:
    """One workload, one JSON object on the last line of stdout."""
    workload = args.workload[0]
    if args.trace:
        layer = run_per_layer(workload, args.seed, args.scale)
        print_layers(workload, layer["traced"])
        print_per_layer(layer["values"], spec)
        for failure in layer["failures"]:
            print(f"  FAILED {failure['job']}: {failure['error']}")
        metrics = with_units(layer["values"], spec["per_layer"], "per-layer")
        attempted, failed = layer["attempted"], layer["failed"]
    else:
        result = run_end_to_end(
            workload, args.seed, args.seconds, args.scale, SETUP_LAUNCHES
        )
        print_end_to_end(result, spec)
        medians = {
            name: stat["median"]
            for name, stat in result["end_to_end"].items()
        }
        metrics = with_units(medians, spec["end_to_end"], "end-to-end")
        attempted, failed = result["attempted"], result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def suite_mode(args, spec: dict) -> int:
    """Every selected workload, the probes, optionally the traces."""
    started = time.perf_counter()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    launches = 1 if args.quick else SETUP_LAUNCHES
    document = {
        "manifest": manifest(args.seed, args.scale, args.seconds),
        "workloads": {},
    }
    failed = 0
    lost = []

    def attempt(what, call, *call_args, **call_kwargs):
        """A child that dies or hangs is one failed operation."""
        try:
            return call(*call_args, **call_kwargs)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            lost.append(f"{what}: {exc}")
            print(f"== {what} FAILED: {exc}")
            return None

    for name in names:
        result = attempt(
            name, run_end_to_end,
            name, args.seed, args.seconds, args.scale, launches,
        )
        if result is not None:
            print_end_to_end(result, spec)
            failed += result["failed"]
            document["workloads"][name] = result
    probed = attempt(
        "probes", run_child, "probes", None, args.seed, scale=args.scale
    ) or {"metrics": {}, "failed": 0, "failures": []}
    failed += probed["failed"]
    values = probed["metrics"]
    spans = {}
    for name in names if args.trace else ():
        traced = attempt(
            f"trace of {name}", run_child,
            "trace", name, args.seed, scale=args.scale,
        )
        if traced is not None and name in document["workloads"]:
            failed += traced["failed"]
            spans[name] = traced.pop("spans")
            print_layers(name, traced)
            document["workloads"][name]["trace"] = traced
    print_per_layer(values, spec)
    for failure in probed["failures"]:
        print(f"  FAILED {failure['job']}: {failure['error']}")
    failed += len(lost)
    document["manifest"]["lost_children"] = lost
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    document["per_layer"] = {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in values.items()
    }
    document["manifest"]["total_wall_s"] = time.perf_counter() - started
    print(f"== total {document['manifest']['total_wall_s']:.1f} s, "
          f"{failed} failed operations")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"suite-seed{args.seed}.json"
        path.write_text(json.dumps(document, indent=1, default=repr) + "\n")
        print(f"wrote {path}")
        if spans:
            write_chrome_trace(out / f"trace-seed{args.seed}.json", spans)
    return 1 if failed else 0


def write_chrome_trace(path: Path, spans_by_workload: dict) -> None:
    from tracing import chrome_trace

    path.write_text(json.dumps(chrome_trace(spans_by_workload)) + "\n")
    print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")


def compare_mode(args, spec: dict) -> int:
    from compare import compare, render

    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    result = compare(a, b, spec)
    print(render(result))
    return result["exit_code"]


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", metavar="NAME")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (driver mode)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="< 30 s smoke; never for recorded numbers")
    parser.add_argument("--out", metavar="DIR",
                        help="write the result file (and trace) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "measure", "trace", "probes"))
    parser.add_argument("--scale", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"the program under test is missing: {SRC / 'repro'}")
    if args.child:
        return _child(args)
    spec = load_spec()
    if args.compare:
        return compare_mode(args, spec)
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or []:
        if name not in known:
            _die(f"unknown workload {name!r}; choose from {known}")
    driver = args.seconds is not None
    if args.scale is None:
        args.scale = QUICK_SCALE if args.quick else 1.0
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick else float(spec["run_seconds"])
        )
    if driver:
        if not args.workload or len(args.workload) != 1:
            _die("--seconds (driver mode) needs exactly one --workload")
        return driver_mode(args, spec)
    return suite_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())

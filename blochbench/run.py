"""blochprop benchmark: closed-loop CLI workloads with checked outputs.

Run from the root of a source checkout:

    python3 blochbench/run.py --workload search --seed 1 --seconds 30 --trace 0

One single-threaded client drives ``blochprop.cli.main`` in-process, issuing
the next op only after the previous one has finished, with stdout and stderr
captured.  A workload is a fixed list of ops drawn from ``--seed`` (see
workloads.py).  The run repeats passes over that list until ``--seconds``
would be exceeded (at least the workload's minimum number of passes), checks
every op's outputs against closed forms outside the timed region, and
requires every pass to produce the same output bytes.

All reported times are calibrated seconds (see calibrate.py): each measured
time is scaled by how fast the machine ran a fixed kernel around it.  Raw
seconds are in the report line.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median, over
fresh interpreters, of the time to import blochprop and blochprop.cli),
``wall_s`` (median time of one pass over the op list), ``op_p50_s`` and
``op_p90_s`` (per-op latency percentiles over every op of every pass),
``peak_rss_mib`` and ``ok_ops_ratio`` (1 - failed / attempted).  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics of one
pass (counts are exact, times are medians over the traced passes) and the
tracing overhead.

The package is imported from ``src/`` of the checkout and nothing is
installed.  The last line of stdout is the result object; the line before it
is a report with the environment, sample counts, raw times and the output
digest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import calibrate
from spans import Tracer, layer_metrics, unit
from workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "blochprop"
WORKDIR = "blochbench/.work"
SETUP_PROBES = 5
# passes stop being added once the run has measured this long, whatever the
# workload's minimum, so that a run always ends well inside three minutes
MEASURE_LIMIT_S = 120.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SETUP_PROBE = (
    "import time\n"
    "from calibrate import import_calibration_s\n"
    "before = import_calibration_s()\n"
    "t0 = time.perf_counter()\n"
    "import blochprop, blochprop.cli\n"
    "seconds = time.perf_counter() - t0\n"
    "after = import_calibration_s()\n"
    "print(repr(seconds), repr((before + after) / 2), blochprop.__file__)\n"
)


def _package_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def measure_setup(probes: int) -> list[tuple[float, float]]:
    """(raw seconds, calibration seconds) of importing blochprop and
    blochprop.cli, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=ROOT,
            env=_package_env(),
            capture_output=True,
            text=True,
            timeout=30,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, cal, path = proc.stdout.split(maxsplit=2)
        if Path(path.strip()).resolve().parent != PACKAGE_DIR.resolve():
            raise RuntimeError(f"set-up probe imported blochprop from {path.strip()}")
        times.append((float(seconds), float(cal)))
    return times


def calibrated(seconds: float, cal: float) -> float:
    return seconds * calibrate.NOMINAL_S / cal


def import_cli():
    sys.path.insert(0, str(SRC))
    import blochprop
    import blochprop.cli

    if Path(blochprop.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise RuntimeError(f"imported blochprop from {blochprop.__file__}, not {PACKAGE_DIR}")
    return blochprop.cli


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def run_call(cli, argv) -> tuple[float, int | None, str, str | None]:
    """One timed cli.main call: (seconds, exit code, stdout, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an exception escaping cli.main fails the op, not the run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, rc, out.getvalue(), error


def run_op(cli, op) -> tuple[float, str | None, bytes, int]:
    """Latency, failure reason (None if the op passed), output digest, bytes written."""
    latency = 0.0
    results = []
    errors = []
    digest = hashlib.sha256()
    written = 0
    for call in op.calls:
        seconds, rc, stdout, error = run_call(cli, call.argv)
        latency += seconds
        data = b""
        if call.output is not None and os.path.exists(call.output):
            data = Path(call.output).read_bytes()
            os.remove(call.output)
        written += len(data)
        for part in (str(rc).encode(), stdout.encode(), data):
            digest.update(len(part).to_bytes(8, "little") + part)
        results.append((rc, stdout, data))
        if error is not None:
            errors.append(error)
    if errors:
        reason = errors[0]
    else:
        try:
            reason = op.check(results)
        except Exception as exc:  # malformed output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
    return latency, reason, digest.digest(), written


def run_pass(cli, ops) -> dict:
    """One pass over ``ops`` with a calibration before and after each op.

    Op i runs between calibrations i and i+1 and is scaled by the median of
    calibrations i-1 .. i+2, so that one calibration that falls in a brief
    change of machine speed does not set the op's time.
    """
    raw = []
    cals = [calibrate.calibration_s()]
    failures = []
    digest = hashlib.sha256()
    written = 0
    for i, op in enumerate(ops):
        latency, reason, op_digest, nbytes = run_op(cli, op)
        cals.append(calibrate.calibration_s())
        raw.append(latency)
        digest.update(op_digest)
        written += nbytes
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    latencies = [
        calibrated(seconds, statistics.median(cals[max(0, i - 1) : i + 3]))
        for i, seconds in enumerate(raw)
    ]
    return {
        "raw_latencies": raw,
        "latencies": latencies,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "cals": cals,
        "failures": failures,
        "digest": digest.hexdigest(),
        "bytes": written,
    }


def measure(cli, workload, ops, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Passes over ``ops`` until the next would end after ``seconds``; odd passes traced."""
    # a traced run needs one untraced and one traced pass, however slow
    floor = 2 if tracer else 1
    min_passes = max(workload.min_passes, floor)
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = run_pass(cli, ops)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            cal = statistics.median(record["cals"])
            record["layers"] = {
                name: calibrated(value, cal) if unit(name) in ("s", "us") else value
                for name, value in layer_metrics(tracer.stats, record["bytes"]).items()
            }
        passes.append(record)
        elapsed = perf_counter() - start
        projected = elapsed + elapsed / len(passes)
        if len(passes) >= floor and (
            projected > MEASURE_LIMIT_S or (len(passes) >= min_passes and projected > seconds)
        ):
            return passes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blochprop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no blochprop sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # one client thread; never more than nproc

    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(SETUP_PROBES)
    cli = import_cli()
    env = environment()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        ops = make_ops(workload, args.seed, WORKDIR)
        tracer = Tracer() if args.trace else None
        t0 = perf_counter()
        passes = measure(cli, workload, ops, args.seconds, tracer)
        measured_s = perf_counter() - t0
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [x for p in plain for x in p["latencies"]]
    raw_latencies = [x for p in plain for x in p["raw_latencies"]]
    cals = [c for p in passes for c in p["cals"]]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        failures.append(f"passes over the same ops wrote different bytes: {digests}")
    for reason in failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)

    wall_s = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        names = traced[0]["layers"]
        metrics = {
            name: _metric(statistics.median(p["layers"][name] for p in traced), unit(name))
            for name in names
        }
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = _metric(traced_wall, "s")
        metrics["trace.untraced_wall_s"] = _metric(wall_s, "s")
        metrics["trace.overhead_s"] = _metric(traced_wall - wall_s, "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(calibrated(s, c) for s, c in setup), "s"),
            "wall_s": _metric(wall_s, "s"),
            "op_p50_s": _metric(statistics.median(latencies), "s"),
            "op_p90_s": _metric(statistics.quantiles(latencies, n=10, method="inclusive")[-1], "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_ops_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }

    report = {
        "benchmark": "blochbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "traced_passes": len(traced),
        "measured_s": measured_s,
        "samples": {
            "setup_s": len(setup),
            "wall_s": len(plain),
            "op_latency": len(latencies),
        },
        "failed_ops_ratio": failed / attempted,
        "raw_s": {
            "setup_s": statistics.median(s for s, _ in setup) if setup else None,
            "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "op_p50_s": statistics.median(raw_latencies),
            "op_p90_s": statistics.quantiles(raw_latencies, n=10, method="inclusive")[-1],
        },
        "calibration_s": {
            "nominal": calibrate.NOMINAL_S,
            "median": statistics.median(cals),
            "min": min(cals),
            "max": max(cals),
            "samples": len(cals),
        },
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "absent": tracer.absent if tracer else [],
        "failures": failures[:10],
    }
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

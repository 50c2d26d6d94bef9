"""Benchmark of levelkgp: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 7 --seconds 20 --trace 0

Workloads are ``desk``, ``state_models`` and ``population`` (see
``workloads.py`` and ``README.md``).  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run, whose spans are also
written to ``.bench_build/traces/``.  The program is used from
``src/`` of the checkout, byte-compiled before anything is timed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CONFIG = ROOT / "configs" / "desk.json"
BLAS_THREADS = "1"
STARTUP_PROBES = 11
# interpreter start, import and config load, in a fresh process
PROBE = (
    "import time, levelkgp; from levelkgp.config import MasterConfig; "
    "MasterConfig.from_json({config!r}); print(repr(time.time()))"
)

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# numpy reads the thread settings when first imported
from speed import SpeedMeter, rates  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "state_models", "population"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def startup_probes(meter) -> list[tuple[float, float]]:
    """Clock intervals from spawning a Python process to a loaded config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = []
    for _ in range(STARTUP_PROBES):
        meter.tick()
        begin, begin_wall = time.perf_counter(), time.time()
        done = subprocess.run(
            [sys.executable, "-c", PROBE.format(config=str(CONFIG))],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        spans.append((begin, begin + float(done.stdout.strip()) - begin_wall))
    meter.sample()
    return spans


def present(metrics: dict) -> dict:
    """The metrics that have samples.  A pass whose output check failed
    gives none, and its failure is already counted."""
    return {name: (value, unit) for name, (value, unit) in metrics.items() if value is not None}


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(ctx, startup) -> dict:
    m, meter = ctx.measure, ctx.meter
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = statistics.median(meter.scaled(lo, hi) for lo, hi in startup)
    setup += sum(meter.scaled(lo, hi) for lo, hi in m.setup)
    return present({
        "pipeline_s": (median(meter.scaled(lo, hi) for lo, hi in m.passes), "s"),
        "models_per_s": (median(rates(m.model_samples, meter)), "1/s"),
        "drivers_per_s": (median(rates(m.driver_samples, meter)), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    })


def unscaled(ctx, startup) -> dict:
    """The same timings in plain wall seconds, for the printed summary."""
    m = ctx.measure
    return present({
        "wall pipeline_s": (median(hi - lo for lo, hi in m.passes), "s"),
        "wall models_per_s": (median(rates(m.model_samples)), "1/s"),
        "wall drivers_per_s": (median(rates(m.driver_samples)), "1/s"),
        "wall startup_s": (median(hi - lo for lo, hi in startup), "s"),
        "speed factor p50": (statistics.median(ctx.meter.factors), "1"),
    })


def science(ctx) -> dict:
    m = ctx.measure
    return present({
        "level_err_p50": (median(m.level_errors), "level"),
        "explained_pct": (statistics.fmean(m.explained) if m.explained else None, "%"),
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levelkgp" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"error: no levelkgp sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import layers
    import workloads

    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meter = SpeedMeter()
    try:
        if args.trace:  # not scaled, and with no start-up probes
            ctx = workloads.run(args.workload, ROOT, work, args.seed, args.seconds, True, meter)
        else:
            # the probes take their samples between child processes: a timer
            # sample taken while a child runs would not be the child's pause
            startup = startup_probes(meter)
            with meter.periodic():
                ctx = workloads.run(args.workload, ROOT, work, args.seed, args.seconds, False, meter)
        ops = ctx.ops
        if args.trace:
            ctx.tracer.write(BUILD / "traces" / f"{args.workload}-seed{args.seed}.csv.gz")
            try:
                metrics = layers.layer_metrics(ctx.tracer, ctx.counters)
            except (ValueError, ZeroDivisionError, AttributeError) as exc:
                # a layer without samples: only after a failed check
                if not ops.failed:
                    raise
                ops.check(False, f"per-layer metrics: {type(exc).__name__}: {exc}")
                metrics = {}
            metrics.update(science(ctx))
        else:
            metrics = end_to_end(ctx, startup)
            extra = {**unscaled(ctx, startup), **science(ctx)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} passes {ctx.passes} "
          f"trace {args.trace} blas_threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in extra.items():
            print(f"{name} {value:.6g} {unit}")
    print(f"failed_ops {ops.failed} of {ops.attempted} ops")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

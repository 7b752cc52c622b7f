"""Benchmark of the synvec pipeline, end to end and layer by layer.

Run from the root of a synvec checkout:

    python3 perfbench/run.py --workload train-e2e --seed 1 --seconds 50 --trace 0

The program is imported from `./src`; nothing needs installing. Inputs are
generated from `--seed` under `./.bench_work/` and removed afterwards. The
last line of standard output is the result object; the line before it
holds the run's details (environment, sample counts, named metrics and
every correctness check). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up runs this often before the timed phase and once after each pass,
# so that its median spans the same stretch of the run as the passes do.
SETUP_BEFORE = 3
MODULES = ("augment", "cli", "corpus", "embed_io", "eval_extrinsic", "eval_intrinsic",
           "lexicon", "pairgen", "seeds", "sgns", "transport")
# Quality figures each workload reports, traced run only; 0 where not produced.
QUALITY = {"syn_gap": ("eval_intrinsic.syn_gap", "cosine"),
           "knn_accuracy": ("eval_extrinsic.knn_accuracy", "ratio")}


def import_program():
    src = Path.cwd() / "src"
    if not (src / "synvec" / "__init__.py").is_file():
        sys.exit(f"run.py: {src}/synvec not found; run from the root of a synvec checkout")
    sys.path.insert(0, str(src))
    package = importlib.import_module("synvec")
    for name in MODULES:
        importlib.import_module(f"synvec.{name}")
    return package


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). Below 40 samples that percentile would fall under
    p75, so the maximum stands in for it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, work: Path, seconds: float, tracer, set_up):
    """Timed passes until `seconds` is spent, at least two, with a call of
    `set_up` between each two. With a tracer, passes alternate untraced and
    traced, starting untraced.

    Returns the passes and the peak resident memory in MB after the first
    one: set-up plus one pass is the footprint of the job; later passes
    repeat it and add only what the allocator kept from earlier ones.
    """
    from workloads import plain_call

    passes = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        directory = work / f"pass{index}"
        directory.mkdir()
        if traced:
            tracer.install(run=index)
        begin = time.perf_counter()
        try:
            result = workload.run_pass(directory, tracer.call if traced else plain_call)
        finally:
            if traced:
                tracer.uninstall()
        result.wall, result.traced = time.perf_counter() - begin, traced
        if passes:
            shutil.rmtree(work / f"pass{index - 1}")
        passes.append(result)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + result.wall / 2 >= seconds:
            return passes, peak_rss_mb
        set_up()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-e2e", "wmd-knn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; below 1 only for the smoke test")
    args = parser.parse_args(argv)

    # Single-threaded BLAS, set before anything imports numpy.
    os.environ.update({var: "1" for var in THREAD_VARS})
    program = import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](program, args.seed, args.scale)
    root = Path.cwd() / ".bench_work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=root))
    tracer = Tracer(program) if args.trace else None
    setup_s = []

    def set_up():
        """Set up afresh; the passes after it use the new inputs."""
        directory = work / f"setup{len(setup_s)}"
        directory.mkdir()
        begin = time.perf_counter()
        workload.setup(directory)
        setup_s.append(time.perf_counter() - begin)
        if len(setup_s) > 1:
            shutil.rmtree(work / f"setup{len(setup_s) - 2}")

    try:
        # The program prints a progress line per subcommand; keep stdout for the result.
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(SETUP_BEFORE):
                set_up()
            passes, peak_rss_mb = measure(workload, work, args.seconds, tracer, set_up)
            checks = workload.checks(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()

    failed = [name for name, ok in checks if not ok]
    timed = [p for p in passes if not p.traced]
    samples = workload.latency_samples(timed)
    tail_ms, tail_pct = tail(samples)
    throughput = sum(p.work for p in timed) / sum(p.wall for p in timed)
    quality = passes[-1].quality
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": environment(),
        "pass_walls_s": [p.wall for p in passes], "traced_passes": len(passes) - len(timed),
        "setup_s_samples": setup_s,
        workload.throughput_name: throughput,
        "op_latency": {"samples": len(samples), "tail_percentile": tail_pct,
                       "sample": workload.sample},
        "quality": quality,
        "checks": dict(checks),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "work_per_s": (throughput, "1/s"),
            "op_ms_p50": (statistics.median(samples), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
        }
    else:
        traced = [p for p in passes if p.traced]
        metrics = tracer.metrics([p.wall for p in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in timed) - 1.0,
            "ratio")
        for key, (name, unit) in QUALITY.items():
            metrics[name] = (quality.get(key, 0.0), unit)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the wogma package: training, online detection and evaluation.

Run from the repository root:

    python3 benchmarks/run.py --workload train-acceptance --seed 1 --seconds 15 --trace 0

It imports the package from `src/` next to this directory, builds the
workload's inputs from the seed, measures for about `--seconds` seconds in
this one process and checks the program's outputs. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics of a traced
run with `--trace 1` (its spans go to `.bench_out/`). Earlier lines name the
environment and each figure with its unit.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse      # noqa: E402  (the BLAS thread count is fixed before numpy loads)
import ctypes        # noqa: E402
import json          # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import shutil        # noqa: E402
import statistics    # noqa: E402
import sys           # noqa: E402
import tempfile      # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-acceptance", "train-paper", "detect-stream", "eval-files")


def blas_environment(numpy) -> dict:
    """Name and version of numpy's BLAS and the thread count it reports."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    return {"blas": f"{blas['name']} {blas['version']}", "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "wogma" / "__init__.py").is_file():
        print(f"error: no wogma package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import numpy

    import workloads
    from spans import Tracer

    environment = {"python": platform.python_version(), "numpy": numpy.__version__,
                   **blas_environment(numpy), "cores": len(os.sched_getaffinity(0))}
    if environment["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {environment['blas_threads']} threads, not {BLAS_THREADS}",
              file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        run = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir)
    if not run.done:
        print("error: no unit of work completed: " + "; ".join(run.problems), file=sys.stderr)
        return 1
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = run.pace.scale()
    end_to_end = dict(run.end_to_end(scale), peak_rss_mb=(peak_rss_mb, "MB"))
    metrics = end_to_end if tracer is None else run.per_layer(scale)
    kernels = ", ".join(f"{name} {statistics.median(times) * 1e3:.3f} ms (nominal "
                        f"{run.pace.NOMINAL_S[name] * 1e3} ms)"
                        for name, times in sorted(run.pace.samples.items()))
    print(f"machine scale = {scale:.4f} from the {run.pace.kernel} kernel; kernels: {kernels}")
    for name, (value, unit) in {**end_to_end, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in {**run.end_to_end(1.0), **run.figures}.items():
        print(f"wall clock: {name} = {value:.6g} {unit}")
    print(f"attempted = {run.attempted} {run.unit}s, failed = {run.failed}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

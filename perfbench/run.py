"""Run one workload of the charnmt benchmark and print its result.

    python3 perfbench/run.py --workload train-base --seed 1 --seconds 15 --trace 0

Run from the root of a charnmt checkout: the benchmark imports the package
from `src/` beside this directory and exits with status 2 when it is absent.
BLAS and OpenMP are pinned to one thread before numpy is imported.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. The line before it records the
environment, the sample counts and any failed check. See README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input and model for smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "charnmt" / "__init__.py").is_file():
        print(f"charnmt sources not found at {SRC}; run from a charnmt checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    tracer = Tracer() if args.trace else None
    ledger = workloads.Ledger()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, sizes, work, ledger, tracer=tracer)
    except Exception:
        # an operation raised: report the counts, but no metrics
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"environment": environment(args), "samples": outcome.samples,
                      "quality": ledger.quality, "problems": ledger.problems}))
    print(json.dumps({"correct": not ledger.problems and ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

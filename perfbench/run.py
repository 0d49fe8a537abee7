"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_queries --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same work once untraced and once with layer
spans recorded, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller report and
the recorded spans are written under ``.perfbench/`` in the checkout.
See ``perfbench/README.md`` for what each workload and metric means.
"""

import os
import sys

# One single-threaded process per workload: pin BLAS threads before
# numpy loads, so numpy never competes with the measured thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper_queries", "traffic", "lifecycle")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if os.environ.get("REPRO_SCALAR_KERNELS"):
        return fail(
            "REPRO_SCALAR_KERNELS is set; the benchmark measures the "
            "default vectorized kernels only"
        )
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import repro.obs.trace as obs
        from repro.core import kernels
    except ImportError as exc:
        return fail(f"cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        return fail(f"imported repro from {repro.__file__}, not from {src}")
    if not kernels.vectorized():
        return fail("the scalar kernels are selected")
    if obs.ACTIVE is not None:
        return fail("the program's span tracer is switched on")

    import measure
    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with measure.Calibrator() as cal:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), cal, out_dir
        )
    if obs.ACTIVE is not None:
        return fail("the program's span tracer was switched on during the run")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in outcome.metrics:
            return fail(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": outcome.metrics[name], "unit": metric["unit"]}
    correct = outcome.failed == 0 and not outcome.problems

    env = measure.environment()
    env["median_probe_ms"] = cal.median_probe_ms()
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in outcome.details.items():
        print(f"# {key}: {value}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "details": outcome.details,
        "problems": outcome.problems,
        "result": {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    print(json.dumps(report["result"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""nadex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (see workloads.py): train_paper, train_narrow.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps nadex's public functions, records spans and reports
the per-layer metrics. Lines starting with '#' describe the run; the last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (provenance, metrics and, when traced, every span) is
written to ``.perfbench_out/``. Compare two records with compare.py.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def cap_blas_threads():
    """BLAS threads capped at the cores this process may use (a lower
    OPENBLAS_NUM_THREADS is kept). Must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        asked = cores
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(asked, cores)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nadex", "__init__.py")):
        print(f"error: nadex sources not found under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, SRC)

    import harness
    import provenance
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = provenance.collect(ROOT)
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.why}")

    tracer = Tracer() if args.trace else None
    metrics, tally = harness.run(workload, args.seed, args.seconds, tracer,
                                 OUT_DIR)
    units = harness.LAYER_UNITS if tracer else harness.E2E_UNITS
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for what in tally.failures[:20]:
        print(f"# FAILED: {what}")
    print(f"# error_rate: {len(tally.failures) / tally.attempted!r} "
          f"({len(tally.failures)} of {tally.attempted} operations)")
    if workload.name == "train_paper" and tracer is None:
        print(f"# train_step_ms.p50 {metrics['train_step_ms.p50']:.1f} "
              f"(ROADMAP baseline for this config: 3315 ms/step)")

    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "provenance": prov, **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""voxlab benchmark.

    python3 voxbench/run.py --workload vox_readme --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed),
then runs a fixed number of units, sized so that the run takes about
``--seconds`` on a 2-core host; the first units are the workload's fixed
quality set.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced sweeps of the quality set and prints the
per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last stdout line is one JSON object; a full record
goes to ``.bench_out/`` in the checkout.  See voxbench/README.md.
"""

import os

# Before numpy loads: one BLAS thread, and one sampler thread, because
# VOXLAB_THREADS > 1 changes the sampled episodes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["VOXLAB_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p, p.parse_args(argv)


def environment(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "VOXLAB_THREADS": os.environ["VOXLAB_THREADS"],
        "seed": seed,
    }


def main(argv=None):
    parser, args = parse_args(argv)
    if not (SRC / "voxlab" / "__init__.py").is_file():
        print(f"error: no voxlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wl
    from tracing import Tracer, layer_metrics

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_of = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(np, args.seed)}
    OUT.mkdir(exist_ok=True)
    try:
        setup_times, inputs = wl.set_up(workload, args.seed)
        if args.trace:
            tracer = Tracer()
            outcomes, overhead, extra = wl.traced_run(workload, inputs,
                                                      args.seconds, tracer)
            metrics = layer_metrics(tracer, units_of,
                                    len(extra["traced_sweep_s"]), overhead)
            tracer.save(OUT / f"{args.workload}.spans.npz")
            extra["spans"] = tracer.stats()
        else:
            outcomes, metrics, extra = wl.timed_run(workload, inputs, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
    except wl.GateError as exc:
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    missing = set(units_of) - set(metrics)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")

    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    record.update(extra, setup_s=setup_times, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, metrics=metrics)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    summary = {k: record[k] for k in ("digest", "fail_frac", "sweep_s")
               if k in record}
    summary.update({k: metrics[k] for k in ("run_s.p50", "reward_gap")
                    if k in metrics})
    print(f"voxbench {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(summary)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Dispatch benchmark for cellflex: runs one workload and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload gain --seed 1 --seconds 30 --trace 0

Workloads: gain, reduction, toy_oracle (see bench/README.md).  The package is
imported from ``src/`` next to this directory, never from site-packages.

``--trace 0`` runs the workload once without tracing and reports the
end-to-end metrics.  ``--trace 1`` runs it untraced and then traced with the
same seed, requires both output digests to match, and reports the per-layer
metrics; spans go to ``.bench_out/spans_<workload>_<seed>.json``.

Every line but the last is for people.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import os

# Single-threaded numerics, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units
OUT_ROOT = ROOT / ".bench_out"


def _import_package():
    """Import cellflex from the checkout's src/, or return None."""
    if not (SRC / "cellflex" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cellflex
    if Path(cellflex.__file__).resolve().parent.parent != SRC.resolve():
        return None
    return cellflex


def _environment():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(workloads, probe, args):
    restore = probe.install()
    try:
        return workloads.run_workload(args.workload, args.seed, args.seconds,
                                      probe, OUT_ROOT)
    finally:
        restore()


def _report_metrics(values, listed):
    """Print the listed metrics and return them in the result's format."""
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        print(f"{m['name']}: {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def _print_run(label, result, report):
    print(f"[{label}] ops {result.attempted}, failed {result.failed}, "
          f"step_fail_frac {result.failed / result.attempted:.4g} (1), "
          f"digest sha256:{result.digest}")
    checks = ", ".join(
        f"{kind} {n - result.checks.failed.get(kind, 0)}/{n}"
        for kind, n in sorted(result.checks.run.items()))
    print(f"[{label}] checks passed: {checks}")
    for msg in result.checks.messages:
        print(f"[{label}] CHECK FAILED {msg}")
    op = sorted(result.op_s)
    print(f"[{label}] setup repeats s: "
          + " ".join(f"{v:.4f}" for v in result.setup_s))
    print(f"[{label}] op_s: " + " ".join(f"{v:.4f}" for v in result.op_s))
    if op:
        print(f"[{label}] op_s min {op[0]:.4f}, max {op[-1]:.4f}")
    t = report.tail(result.op_s)
    if t is None:
        print(f"[{label}] step_s_tail: n/a (s) - {len(op)} samples, a tail "
              f"needs 10 beyond it")
    else:
        pct, value, n = t
        print(f"[{label}] step_s_tail: p{pct} = {value:.4f} s "
              f"({n} samples, 10 beyond)")
    for name, value in result.quality.items():
        print(f"[{label}] {name}: {value:.9g} ({report.QUALITY_UNITS[name]})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_package() is None:
        print(f"bench: cellflex sources not found under {SRC}", file=sys.stderr)
        return 2
    import report
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    OUT_ROOT.mkdir(exist_ok=True)
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{workloads.n_ops(args.workload, args.seconds)} ops, "
          f"trace {args.trace}")

    untraced = _run(workloads, tracing.StepClock(), args)
    _print_run("untraced", untraced, report)
    metrics = _report_metrics(report.end_to_end(untraced, _peak_rss_mb()),
                              spec["end_to_end"])
    attempted, failed = untraced.attempted, untraced.failed

    if args.trace:
        tracer = tracing.Tracer()
        traced = _run(workloads, tracer, args)
        _print_run("traced", traced, report)
        same = traced.digest == untraced.digest
        print(f"digest traced == untraced: {same}")
        attempted += traced.attempted
        failed += traced.failed if same else traced.attempted
        layers, extra = report.per_layer(tracer, traced, untraced)
        metrics = _report_metrics(layers, spec["per_layer"])
        grid_us = extra["oracle.grid_us_per_eval"]
        print("oracle.grid_us_per_eval: "
              + (f"{grid_us:.6g} us" if grid_us is not None
                 else "n/a (us) - no grid search in this workload"))
        print(f"tracing overhead: run_s {traced.run_s:.4f} s traced vs "
              f"{untraced.run_s:.4f} s untraced "
              f"({layers['trace.overhead_frac']:+.1%})")
        print(f"operation time: {sum(traced.op_s):.4f} s traced vs "
              f"{sum(untraced.op_s):.4f} s untraced")
        acc = extra["account"]
        print(f"step account: {acc['steps']} steps, {acc['total_ms']:.1f} ms "
              f"in dispatch.step spans; residual {acc['residual_ms']:.3f} ms")
        for part, ms in acc["parts_ms"].items():
            print(f"  {part}: {ms:.1f} ms ({ms / acc['total_ms']:.1%})")
        spans_path = OUT_ROOT / f"spans_{args.workload}_{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": tracer.dump()}, fh)
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

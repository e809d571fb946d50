"""Run one workload on several seeds and print each metric's spread.

Run from the repository root, for example:

    python3 bench/spread.py --workload gain --seconds 30 --seeds 1 2 3 4 5

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  End-to-end metrics are compared with their bound from
BENCHMARK.json: a steady benchmark keeps each spread, set-up time aside,
below a third of the bound.  Quality metrics, which are not bounded, are
shown for reference.

``--json PATH`` stores the runs and their spreads under the workload's name
in PATH (other workloads already in the file are kept); ``--trace-seed N``
adds one ``--trace 1`` run's per-layer metrics.  bench/baseline.json was
made this way.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("track_ok_frac", "mean_of", "cost_eur", "oracle_gap_max")


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in QUALITY:
        m = re.search(rf"^\[untraced\] {name}: (\S+)", proc.stdout, re.M)
        if m:
            values[name] = float(m.group(1))
    env = json.loads(re.search(r"^env (.*)$", proc.stdout, re.M).group(1))
    return result, values, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs, extras = [], []
    for seed in args.seeds:
        result, values, env = run_once(args.workload, seed, args.seconds)
        runs.append(values)
        extras.append({"seed": seed, "env": env, "correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"]})
        print(f"seed {seed}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for name in runs[0] if len(runs) > 1 else ():
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound}: " + ("steady" if spread < bound / 3
                                  else "within bound" if spread <= bound
                                  else "TOO WIDE"))
        print(f"{name}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.3f} {verdict}")

    if args.json is None:
        return 0
    entry = {"seconds": args.seconds,
             "runs": [dict(r, **x) for r, x in zip(runs, extras)],
             "spread": summary}
    if args.trace_seed is not None:
        result, values, env = run_once(args.workload, args.trace_seed,
                                       args.seconds, trace=1)
        entry["traced"] = dict(values, seed=args.trace_seed, env=env,
                               correct=result["correct"],
                               attempted=result["attempted"],
                               failed=result["failed"])
    doc = json.loads(args.json.read_text()) if args.json.exists() else {}
    doc[args.workload] = entry
    args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Plot a dispatch run from its CSV outputs.

Reads the dispatch.csv (and, when present, iterations.csv) written by
``cellflex dispatch`` and renders a three-panel figure: realized vs requested
PCC change, per-technology shares, and the optimizer's global-best trace per
step.  Requires matplotlib.
"""

import argparse
import csv
import pathlib
import sys


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run_dir", type=pathlib.Path,
                        help="directory holding dispatch.csv")
    parser.add_argument("--out", default=None,
                        help="output image path (default: <run_dir>/dispatch.png)")
    args = parser.parse_args(argv)

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; install it to use this script "
              "(pip install matplotlib)", file=sys.stderr)
        return 1

    steps = read_csv(args.run_dir / "dispatch.csv")
    if not steps:
        print(f"no rows in {args.run_dir}/dispatch.csv", file=sys.stderr)
        return 1
    t_min = [row["t_s"] / 60.0 for row in steps]

    iters_path = args.run_dir / "iterations.csv"
    iters = read_csv(iters_path) if iters_path.is_file() else []

    n_panels = 3 if iters else 2
    fig, axes = plt.subplots(n_panels, 1, figsize=(8, 3 * n_panels),
                             sharex=False)

    ax = axes[0]
    ax.plot(t_min, [r["dp_pcc_kw"] for r in steps], label="dP realized [kW]")
    ax.plot(t_min, [r["dp_target_kw"] for r in steps], "--",
            label="dP requested [kW]")
    ax.plot(t_min, [r["dq_pcc_kvar"] for r in steps],
            label="dQ realized [kVAr]")
    ax.plot(t_min, [r["dq_target_kvar"] for r in steps], "--",
            label="dQ requested [kVAr]")
    ax.set_xlabel("time [min]")
    ax.set_ylabel("PCC change")
    ax.legend(loc="best", fontsize=8)
    ax.grid(alpha=0.3)

    ax = axes[1]
    for key, label in (("share_bes", "batteries"), ("share_ehp", "heat pumps"),
                       ("share_bev", "EVs"), ("share_inv_q", "inverters (Q)")):
        ax.plot(t_min, [r[key] for r in steps], label=label)
    ax.set_xlabel("time [min]")
    ax.set_ylabel("share of request")
    ax.legend(loc="best", fontsize=8)
    ax.grid(alpha=0.3)

    if iters:
        ax = axes[2]
        by_step = {}
        for row in iters:
            by_step.setdefault(int(row["step"]), []).append(
                row["of_global_best"])
        for step, trace in sorted(by_step.items()):
            ax.plot(trace, alpha=0.5, linewidth=0.8)
        ax.set_xlabel("Basin Hopping iteration")
        ax.set_ylabel("global best OF")
        ax.set_yscale("log")
        ax.grid(alpha=0.3)

    fig.tight_layout()
    out = pathlib.Path(args.out) if args.out else args.run_dir / "dispatch.png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Deterministic CSV/JSON writers for dispatch and temperature-panel results.

All numbers are formatted with %.9g and files use fixed "\n" newlines, so a
re-run with the same seed produces byte-identical output.  No wall-clock
timestamps are ever written.
"""

import json

__all__ = ["write_dispatch_csv", "write_iterations_csv",
           "write_summary_json", "summary_dict", "write_panel"]

DISPATCH_COLUMNS = (
    "t_s", "p_pcc_kw", "q_pcc_kvar", "dp_target_kw", "dq_target_kvar",
    "dp_pcc_kw", "dq_pcc_kvar", "share_bes", "share_ehp", "share_bev",
    "share_inv_q", "cost_eur", "of",
)

ITERATION_COLUMNS = (
    "step", "iteration", "of_local", "of_global_best", "step_size", "accepted",
)


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def write_dispatch_csv(run, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DISPATCH_COLUMNS) + "\n")
        for st in run.steps:
            row = (st.t_s, st.pcc_p_kw, st.pcc_q_kvar,
                   st.dp_target_kw, st.dq_target_kvar,
                   st.dp_pcc_kw, st.dq_pcc_kvar,
                   st.shares["bes"], st.shares["ehp"], st.shares["bev"],
                   st.shares["inv_q"], st.cost_eur, st.of)
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_iteration_blocks(path, key_column, blocks):
    """One row per Basin Hopping iteration; ``blocks`` yields
    ``(key, iterations)`` and the key fills the first column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join((key_column,) + ITERATION_COLUMNS[1:]) + "\n")
        for key, records in blocks:
            for rec in records:
                row = (key, rec.iteration, rec.of_local,
                       rec.of_global_best, rec.step_size, rec.accepted)
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_iterations_csv(run, path):
    _write_iteration_blocks(path, "step",
                            ((st.index, st.iterations) for st in run.steps))


def summary_dict(run):
    dp_errs = [abs(st.dp_pcc_kw - st.dp_target_kw) for st in run.steps]
    dq_errs = [abs(st.dq_pcc_kvar - st.dq_target_kvar) for st in run.steps]
    n = len(run.steps)
    last = run.steps[-1] if run.steps else None
    bh_iters = [len(st.iterations) - 1 for st in run.steps]
    return {
        "scenario": run.scenario_name,
        "request": {"dp_kw": run.request.dp_kw, "dq_kvar": run.request.dq_kvar},
        "optimizer": {
            "temperature": run.config.temperature,
            "n_iter": run.config.n_iter,
            "step_size": run.config.step_size,
            "seed": run.config.seed,
            "nm_maxfev": run.config.nm.maxfev,
        },
        "n_steps": n,
        "search": {
            "evaluations": sum(st.n_evals for st in run.steps),
            "start_evaluations": sum(st.start_evals for st in run.steps),
            "bh_iterations_mean": sum(bh_iters) / n if n else 0.0,
            "bh_iterations_max": max(bh_iters, default=0),
            # steps where Basin Hopping found a candidate below its start
            "bh_improved_steps": sum(
                st.iterations[-1].of_global_best < st.iterations[0].of_local
                for st in run.steps),
        },
        "reference_pcc": {"p_kw": run.ref_pcc_p_kw,
                          "q_kvar": run.ref_pcc_q_kvar},
        "tracking": {
            "max_abs_dp_err_kw": max(dp_errs) if dp_errs else 0.0,
            "max_abs_dq_err_kvar": max(dq_errs) if dq_errs else 0.0,
            "mean_abs_dp_err_kw": sum(dp_errs) / n if n else 0.0,
            "mean_abs_dq_err_kvar": sum(dq_errs) / n if n else 0.0,
            "frac_dp_within_0p1_kw":
                sum(1 for e in dp_errs if e <= 0.1) / n if n else 0.0,
            "frac_dq_within_0p05_kvar":
                sum(1 for e in dq_errs if e <= 0.05) / n if n else 0.0,
        },
        "totals": {
            "cost_eur": sum(st.cost_eur for st in run.steps),
            "mean_of": sum(st.of for st in run.steps) / n if n else 0.0,
        },
        "final_shares": dict(last.shares) if last else {},
        "all_steps_feasible": all(st.feasible for st in run.steps),
    }


def _write_json(data, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_json(run, path):
    _write_json(summary_dict(run), path)


def write_panel(temperatures, seeds, means, results, out_dir):
    """Write a temperature panel to ``out_dir`` and return its summary.

    ``sweep_summary.json`` holds, keyed by each temperature's %g tag, the
    mean candidate OF and, over the seeds, the lowest final global best, the
    mean acceptance rate and the total evaluations.  Each temperature's
    ``iterations_T<tag>.csv`` ("." written as "p") has one block of rows
    per seed.
    """
    summary = {}
    for t_bh, mean, row in zip(temperatures, means, results):
        summary[f"{t_bh:g}"] = {
            "mean_of_local": mean,
            "final_of_global_best": min(r.iterations[-1].of_global_best
                                        for r in row),
            "acceptance_rate": sum(r.acceptance_rate for r in row) / len(row),
            "evaluations": sum(r.n_evals for r in row),
        }
        tag = f"{t_bh:g}".replace(".", "p")
        _write_iteration_blocks(out_dir / f"iterations_T{tag}.csv", "seed",
                                zip(seeds, (r.iterations for r in row)))
    _write_json(summary, out_dir / "sweep_summary.json")
    return summary

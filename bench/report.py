"""Metrics computed from a workload run and, for a traced run, its spans."""

import math
import statistics

from tracing import PLANT_CLASSES

# Printed on every run but not in BENCHMARK.json: their seed-to-seed spread
# is wider than any bound the benchmark may set (see bench/README.md).
QUALITY_UNITS = {
    "track_ok_frac": "1",
    "mean_of": "OF",
    "cost_eur": "EUR",
    "oracle_gap_max": "OF",
}

_PLANT_KEYS = tuple(f"plants.{cls}" for cls in PLANT_CLASSES)


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    k = n - 10                        # ordered[k-1] has ten samples above it
    return math.floor(100 * k / n), ordered[k - 1], n


def end_to_end(result, peak_rss_mb):
    return {
        "setup_s": statistics.median(result.setup_s),
        "run_s": result.run_s,
        "step_s_p50": statistics.median(result.op_s) if result.op_s else math.inf,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _sum(aggs, key, slot):
    return sum(a[key][slot] for a in aggs if key in a)


def _ratio(num, den):
    return num / den if den else 0.0


def _optimizer_counts(result):
    """Counts the program reports itself, from the committed steps."""
    steps = result.steps
    best_iter, accepted, moves = [], 0, 0
    for st in steps:
        recs = st.iterations
        final = recs[-1].of_global_best
        first = next(r.iteration for r in recs if r.of_global_best <= final)
        best_iter.append(first / result.n_iter)
        accepted += sum(r.accepted for r in recs[1:])
        moves += len(recs) - 1
    return {
        "optimizer.evals_per_step": _ratio(sum(st.n_evals for st in steps),
                                           len(steps)),
        "optimizer.best_iter_frac": _ratio(sum(best_iter), len(best_iter)),
        "optimizer.accept_rate": _ratio(accepted, moves),
    }


def per_layer(tracer, traced, untraced):
    spans = tracer.spans
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)

    def named(name):
        return by_name.get(name, [])

    def child_ns(sp):
        return sum(c.ns for c in children.get(sp.id, ()))

    def median_ms(name):
        durations = [sp.ns for sp in named(name)]
        return statistics.median(durations) / 1e6 if durations else 0.0

    inner = [sp.inner for sp in spans] + [tracer.root.inner]
    every = [sp.agg for sp in spans] + [tracer.root.agg] + inner
    not_warmup = [sp.agg for sp in spans if sp.name != "twin.warmup"] + inner
    n_eval = _sum(every, "twin.evaluate", 0)
    eval_ns = _sum(every, "twin.evaluate", 1)
    restore_ns = _sum(inner, "twin.restore", 1)
    integrate_ns = _sum(inner, "twin.integrate", 1)
    solve_ns = _sum(inner, "grid.solve", 1)

    m = {
        "scenario.load_ms": median_ms("scenario.load"),
        "twin.build_ms": median_ms("twin.build"),
        "twin.warmup_ms": median_ms("twin.warmup"),
        "twin.evaluate_us": _ratio(eval_ns, n_eval) / 1e3,
        "twin.evaluate_self_us":
            _ratio(eval_ns - restore_ns - integrate_ns - solve_ns, n_eval) / 1e3,
        "twin.restore_us": _ratio(restore_ns, n_eval) / 1e3,
        "twin.integrate_us": _ratio(integrate_ns, n_eval) / 1e3,
        "grid.solve_us": _ratio(solve_ns, _sum(inner, "grid.solve", 0)) / 1e3,
        "grid.sweeps_mean": _ratio(_sum(every, "grid.solve", 2),
                                   _sum(every, "grid.solve", 0)),
    }
    for key in _PLANT_KEYS:
        m[f"{key}.saturated_frac"] = _ratio(_sum(not_warmup, key, 2),
                                            _sum(not_warmup, key, 0))
    m["plants.step_calls_per_eval"] = _ratio(
        sum(_sum(inner, key, 0) for key in _PLANT_KEYS), n_eval)

    steps = named("dispatch.step")
    nm = named("optimizer.nelder_mead")
    nm_evals = sum(sp.agg.get("twin.evaluate", (0, 0))[0] for sp in nm)
    nm_eval_ns = sum(sp.agg.get("twin.evaluate", (0, 0))[1] for sp in nm)
    m.update(_optimizer_counts(traced))
    m["optimizer.nm_calls_per_step"] = _ratio(len(nm), len(steps))
    m["optimizer.nm_maxfev_frac"] = _ratio(
        sum(sp.attrs["maxfev_hit"] for sp in nm), len(nm))
    m["optimizer.glue_us_per_eval"] = _ratio(
        sum(sp.ns for sp in nm) - nm_eval_ns, nm_evals) / 1e3

    bh_ns = {sp.parent: sp.ns for sp in named("optimizer.basin_hopping")}
    m["dispatch.step_overhead_ms"] = _ratio(
        sum(sp.ns - bh_ns[sp.id] for sp in steps), len(steps)) / 1e6
    commits = named("twin.commit")
    m["twin.commit_us"] = _ratio(sum(sp.ns for sp in commits), len(commits)) / 1e3
    compared = [sp.attrs["reanchored"] for sp in steps if "reanchored" in sp.attrs]
    m["dispatch.reanchor_frac"] = _ratio(sum(compared), len(compared))
    writes = named("reporting.write")
    m["reporting.write_ms"] = _ratio(sum(sp.ns for sp in writes),
                                     len(writes) / 3) / 1e6

    grids = named("oracle.grid_search")
    grid_evals = sum(sp.agg.get("twin.evaluate", (0, 0))[0] for sp in grids)
    m["oracle.grid_evals"] = _ratio(grid_evals, len(grids))
    m["oracle.grid_share"] = _ratio(sum(sp.ns for sp in grids) / 1e9,
                                    traced.run_s)
    m["trace.overhead_frac"] = traced.run_s / untraced.run_s - 1.0

    extra = {
        "oracle.grid_us_per_eval": _ratio(
            sum(sp.ns - child_ns(sp) for sp in grids), grid_evals) / 1e3
            if grids else None,
        "account": step_account(steps, children),
    }
    return m, extra


def step_account(steps, children):
    """Self-times of every layer under the dispatch.step spans, in ms.

    Span self time is its duration minus its child spans.  Leaf layers below
    Nelder-Mead are carved out of the span that made the calls: evaluation
    self time excludes restore, integrate and solve; integration self time
    excludes the plant steps.
    """
    parts = {}

    def add(name, ns):
        parts[name] = parts.get(name, 0) + ns

    def visit(sp):
        kids = children.get(sp.id, ())
        ev = sp.agg.get("twin.evaluate", (0, 0))[1]
        leaf_ns = sum(sp.agg[k][1] for k in ("twin.restore", "twin.integrate",
                                             "grid.solve") if k in sp.agg)
        add(sp.name + " (self)", sp.ns - sum(k.ns for k in kids) - ev - leaf_ns)
        for agg, label in ((sp.inner, "in evaluate"), (sp.agg, sp.name)):
            plants = sum(agg[k][1] for k in _PLANT_KEYS if k in agg)
            for key in ("twin.restore", "grid.solve"):
                if key in agg:
                    add(f"{key} ({label})", agg[key][1])
            if "twin.integrate" in agg:
                add(f"twin.integrate self ({label})",
                    agg["twin.integrate"][1] - plants)
            if plants:
                add(f"plants.step ({label})", plants)
        inner_leaf = sum(sp.inner[k][1] for k in
                         ("twin.restore", "twin.integrate", "grid.solve")
                         if k in sp.inner)
        if ev:
            add("twin.evaluate self", ev - inner_leaf)
        for kid in kids:
            visit(kid)

    total = sum(sp.ns for sp in steps)
    for sp in steps:
        visit(sp)
    parts = {k: v / 1e6 for k, v in sorted(parts.items(), key=lambda kv: -kv[1])}
    return {"steps": len(steps), "total_ms": total / 1e6, "parts_ms": parts,
            "residual_ms": total / 1e6 - sum(parts.values())}

"""The benchmark's workloads, their correctness checks and output digests.

Every workload is a closed loop with one client in one thread: an operation
(one dispatch step, or one toy problem) is issued only after the previous one
has been committed.  The amount of work is fixed by ``--seconds`` and a
nominal cost per operation (``NOMINAL_OP_S``), never by the clock, so that a
seed always produces the same outputs and both sides of a comparison run the
same steps.
"""

import hashlib
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cellflex.dispatch as dispatch
import cellflex.grid as grid
import cellflex.oracle as oracle
import cellflex.reporting as reporting
import cellflex.scenario as scenario
from cellflex.errors import CellflexError, DispatchError
from cellflex.optimizer import BasinHoppingConfig, FlexibilityRequest
from cellflex.twin import CellTwin

# BENCHMARK.json lists gain and toy_oracle; reduction is kept for runs by
# hand (see bench/README.md).
WORKLOADS = ("gain", "reduction", "toy_oracle")

# Seconds per operation at the commit that defined the benchmark (2-core
# x86 box).  Only used to turn --seconds into a fixed operation count.
NOMINAL_OP_S = {"gain": 5.0, "reduction": 2.7, "toy_oracle": 1.6}

INTERVAL_S = 15.0           # a real cell re-dispatches every 15 s
# Set-up is repeated and its median reported.  The host's speed drifts over
# seconds to minutes, so the repeats are spread over the whole run: a few
# before and after the operations, and more between them (one between two
# dispatch steps, outside both steps' time; three after every toy problem,
# since the toy cell sets up in ~3 ms).
SETUP_REPEATS_AROUND = 2
SETUP_REPEATS_BETWEEN_STEPS = 1
TOY_SETUP_REPEATS_PER_OP = 3
DP_TOL_KW = 0.1             # tracking tolerance of acceptance 1
DQ_TOL_KVAR = 0.05
BALANCE_TOL_PU = 1e-6       # acceptance 8
ORACLE_GAP_TOL = 1e-3       # acceptance 3
ORACLE_RESOLUTION = 0.05
TOY_DP_KW = 1.5             # toy requests: dp in [-1.5, 1.5] kW,
TOY_DQ_KVAR = 0.6           #               dq in [-0.6, 0.6] kVAr

DISPATCH_SPECS = {
    # the paper's headline request; NM never converges in 38 dimensions
    "gain": dict(request=FlexibilityRequest(5.0, 1.0), n_iter=50,
                 initial_bes_soc=None),
    # plants at their limits: empty batteries, saturating clamps
    "reduction": dict(request=FlexibilityRequest(-5.0, -1.0), n_iter=30,
                      initial_bes_soc=0.04),
}


def n_ops(workload, seconds):
    return max(1, int(seconds / NOMINAL_OP_S[workload]))


@dataclass
class Checks:
    """Counts of correctness checks run and failed, by kind."""
    run: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def check(self, kind, ok, message):
        self.run[kind] = self.run.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.messages.append(f"{kind}: {message}")
        return ok


@dataclass
class RunResult:
    setup_s: list               # wall time of each set-up repeat
    op_s: list                  # wall time of each operation
    run_s: float                # operations and output writes, no set-up
    attempted: int
    failed: int
    checks: Checks
    quality: dict
    digest: str
    steps: list                 # committed StepRecords, for optimizer counts
    n_iter: int


# ---------------------------------------------------------------------------
# set-up

def _setup_once(workload):
    if workload == "toy_oracle":
        scn = oracle.make_toy_scenario()
        CellTwin(scn).run_warmup()
        return
    scn = scenario.load_bundled_scenario()
    twin = CellTwin(scn)
    ref = twin.run_warmup()
    soc = DISPATCH_SPECS[workload]["initial_bes_soc"]
    if soc is not None:
        twin.restore(ref.snapshot)
        twin.override_bes_soc(soc)
        twin.capture_reference()


def measure_setup(workload, probe, repeats):
    """Scenario load, twin build and warmup, repeated; wall seconds each."""
    times = []
    for _ in range(repeats):
        with probe.span("bench.setup"):
            t0 = time.perf_counter_ns()
            _setup_once(workload)
            times.append((time.perf_counter_ns() - t0) / 1e9)
    return times


# ---------------------------------------------------------------------------
# checks shared by the workloads

def check_step(checks, st):
    """Acceptance 9 bounds and feasibility of one committed step."""
    tr = st.trace
    bounds_ok = (
        all(35.0 - 1e-9 <= t <= 90.0 + 1e-9 for t in tr["ehp_t_c"])
        and all(-1e-12 <= s <= 1.0 + 1e-12 for s in tr["bes_soc"])
        and all(-1e-12 <= s <= 1.0 + 1e-12 for s in tr["bev_soc"])
        and all(math.hypot(p, q) <= s + 1e-9
                for p, q, s in zip(tr["inv_p_kw"], tr["inv_q_kvar"],
                                   tr["inv_s_rated_kva"]))
        and all(p == 0.0 for conn, p in zip(tr["bev_connected"], tr["bev_p_kw"])
                if not conn))
    ok = checks.check("bounds", bounds_ok,
                      f"step {st.index} at t={st.t_s:g}s leaves physical bounds")
    ok &= checks.check("feasible", st.feasible,
                       f"step {st.index} committed an infeasible dispatch")
    return ok


def check_balance(checks):
    worst = grid.worst_balance_error_pu()
    return checks.check("balance", worst <= BALANCE_TOL_PU,
                        f"power-balance error {worst:.3e} pu")


def check_deadline(checks, probe, index, seconds):
    if not probe.timed:
        return True
    return checks.check("deadline", seconds <= INTERVAL_S,
                        f"operation {index} took {seconds:.2f} s")


def tracking_ok(st):
    return (abs(st.dp_pcc_kw - st.dp_target_kw) <= DP_TOL_KW
            and abs(st.dq_pcc_kvar - st.dq_target_kvar) <= DQ_TOL_KVAR)


def _write_run(run, out_dir, prefix):
    reporting.write_dispatch_csv(run, out_dir / f"{prefix}dispatch.csv")
    reporting.write_iterations_csv(run, out_dir / f"{prefix}iterations.csv")
    reporting.write_summary_json(run, out_dir / f"{prefix}summary.json")


def digest_dir(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# gain and reduction: one run_dispatch call, one operation per step

def run_dispatch_workload(workload, seed, n, probe, out_root):
    spec = DISPATCH_SPECS[workload]
    checks = Checks()
    setup = []
    scn = scenario.load_bundled_scenario()
    config = BasinHoppingConfig(seed=seed, n_iter=spec["n_iter"])
    out_dir = Path(tempfile.mkdtemp(dir=out_root))
    try:
        grid.reset_balance_tracker()
        probe.begin_run()
        probe.between_steps = lambda: setup.extend(
            measure_setup(workload, probe, SETUP_REPEATS_BETWEEN_STEPS))
        t_run = time.perf_counter_ns()
        error = None
        with probe.span("bench.run"):
            try:
                run = dispatch.run_dispatch(
                    scn, spec["request"], n_steps=n, config=config,
                    initial_bes_soc=spec["initial_bes_soc"])
                steps = run.steps
            except DispatchError as exc:
                run, steps, error = None, list(exc.trace or []), str(exc)
            t_end = time.perf_counter_ns()
            if run is not None:
                _write_run(run, out_dir, "")
        t_written = time.perf_counter_ns()
        digest = digest_dir(out_dir)
    finally:
        probe.between_steps = None
        shutil.rmtree(out_dir, ignore_errors=True)

    marks = probe.step_marks
    starts = [start for _end, start in marks[:len(steps)]]
    ends = [end for end, _start in marks[1:len(steps)]] + [t_end]
    op_s = [(b - a) / 1e9 for a, b in zip(starts, ends)]
    between_ns = sum(start - end for end, start in marks[1:])

    checks.check("raised", error is None, error)
    balance_ok = check_balance(checks)
    failed = n - len(steps)
    for st, secs in zip(steps, op_s):
        ok = check_step(checks, st)
        ok &= check_deadline(checks, probe, st.index, secs)
        failed += not (ok and balance_ok)

    quality = {
        "track_ok_frac": sum(map(tracking_ok, steps)) / n,
        "mean_of": statistics.fmean(st.of for st in steps) if steps else math.inf,
        "cost_eur": sum(st.cost_eur for st in steps),
    }
    return RunResult(setup, op_s, (t_written - t_run - between_ns) / 1e9,
                     n, failed, checks, quality, digest, steps, spec["n_iter"])


# ---------------------------------------------------------------------------
# toy_oracle: each operation solves one seeded request twice, by the
# exhaustive grid oracle and by one run_dispatch step

def toy_requests(seed, n):
    """Latin-hypercube draw of n requests, so every run covers the whole box."""
    rng = np.random.default_rng(seed)
    dp = (rng.permutation(n) + rng.random(n)) / n
    dq = (rng.permutation(n) + rng.random(n)) / n
    bh_seeds = rng.integers(0, 2**31 - 1, size=n)
    return [(FlexibilityRequest(TOY_DP_KW * (2.0 * a - 1.0),
                                TOY_DQ_KVAR * (2.0 * b - 1.0)), int(s))
            for a, b, s in zip(dp, dq, bh_seeds)]


def run_toy_workload(seed, n, probe, out_root):
    checks = Checks()
    setup, setup_ns = [], 0
    problems = toy_requests(seed, n)
    scn = oracle.make_toy_scenario()
    out_dir = Path(tempfile.mkdtemp(dir=out_root))
    op_s, solved, steps = [], [], []
    failed = 0
    try:
        t_run = time.perf_counter_ns()
        for i, (request, bh_seed) in enumerate(problems):
            grid.reset_balance_tracker()
            probe.begin_run()
            t0 = time.perf_counter_ns()
            with probe.span("bench.problem"):
                try:
                    orc = oracle.grid_search_oracle(
                        scn, request, resolution=ORACLE_RESOLUTION)
                    run = dispatch.run_dispatch(
                        scn, request, n_steps=1,
                        config=BasinHoppingConfig(seed=bh_seed))
                    error = None
                except CellflexError as exc:
                    orc = run = None
                    error = str(exc)
                secs = (time.perf_counter_ns() - t0) / 1e9
                op_s.append(secs)
                if run is not None:
                    _write_run(run, out_dir, f"p{i:03d}_")
            ok = checks.check("raised", error is None, error)
            ok &= check_balance(checks)
            ok &= check_deadline(checks, probe, i, secs)
            if run is not None:
                st = run.steps[0]
                steps.append(st)
                solved.append((i, request, orc, st))
                ok &= check_step(checks, st)
                ok &= checks.check(
                    "oracle_gap", st.of - orc.of <= ORACLE_GAP_TOL,
                    f"problem {i}: gap {st.of - orc.of:+.3e}")
            failed += not ok
            t_setup = time.perf_counter_ns()
            setup += measure_setup("toy_oracle", probe, TOY_SETUP_REPEATS_PER_OP)
            setup_ns += time.perf_counter_ns() - t_setup
        with open(out_dir / "oracle.csv", "w", encoding="utf-8",
                  newline="") as fh:
            for i, request, orc, _st in solved:
                fields = (request.dp_kw, request.dq_kvar, orc.of, *orc.x)
                fh.write(f"{i}," + ",".join(f"{v:.9g}" for v in fields)
                         + f",{orc.n_evals}\n")
        t_written = time.perf_counter_ns()
        digest = digest_dir(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    gaps = [st.of - orc.of for _i, _r, orc, st in solved]
    quality = {
        "track_ok_frac": sum(map(tracking_ok, steps)) / n,
        "mean_of": statistics.fmean(st.of for st in steps) if steps else math.inf,
        "cost_eur": sum(st.cost_eur for st in steps),
        "oracle_gap_max": max(gaps) if gaps else math.inf,
    }
    # run_s includes the per-problem checks (microseconds), not the set-up
    return RunResult(setup, op_s,
                     (t_written - t_run - setup_ns) / 1e9, n, failed, checks,
                     quality, digest, steps, BasinHoppingConfig().n_iter)


def run_workload(workload, seed, seconds, probe, out_root):
    n = n_ops(workload, seconds)
    setup = measure_setup(workload, probe, SETUP_REPEATS_AROUND)
    if workload == "toy_oracle":
        result = run_toy_workload(seed, n, probe, out_root)
    else:
        result = run_dispatch_workload(workload, seed, n, probe, out_root)
    setup += result.setup_s
    setup += measure_setup(workload, probe, SETUP_REPEATS_AROUND)
    result.setup_s = setup
    return result

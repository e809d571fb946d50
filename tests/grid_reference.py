"""The backward/forward sweep in Python, as the reference for the compiled one.

``solve_power_flow`` is the Python body ``cellflex.grid.solve_power_flow``
had before the sweep moved into ``_loops.c``, and ``sweep_plan`` builds the
plan it reads the way ``GridTopology`` did; each reads ``MAX_SWEEPS``,
``SWEEP_TOL_PU`` and ``V_COLLAPSE_PU`` from ``cellflex.grid`` at call time.
The compiled sweep must give the same repr of every result field, or raise
the same exception type and message (``TestSweepReference`` in
``test_grid.py``), and the plain twin (``twin_reference.PlainTwin``) solves
every power flow here.

The compiled sweep replays this body's complex arithmetic in CPython's order
of operations, ``sum(s_ph)`` included: the builtin ``sum`` adds complex
numbers left to right from 0 on Python 3.10 to 3.13, so
``sum([1e100j, 1j, -1e100j])`` reads ``0j`` there, although from 3.12 on it
compensates float sums (``sum([1e100, 1.0, -1e100])`` reads ``1.0``).  An
interpreter whose complex ``sum`` compensates too would part from the
compiled sweep on sums that cancel.
"""

import math
import weakref
from types import SimpleNamespace

from cellflex import grid
from cellflex.errors import ConfigurationError, InfeasibleNetworkError, PowerFlowError
from cellflex.grid import PccReading, PowerFlowResult, note_balance_error

_plans = weakref.WeakKeyDictionary()


def sweep_plan(topology):
    """BFS from the PCC: the sweep plan of `topology`, built once."""
    plan = _plans.get(topology)
    if plan is not None:
        return plan
    bus_index = {b.id: i for i, b in enumerate(topology.buses)}
    n = len(topology.buses)
    adjacency = [[] for _ in range(n)]
    for li, ln in enumerate(topology.lines):
        a, b = bus_index[ln.from_bus], bus_index[ln.to_bus]
        adjacency[a].append((b, li))
        adjacency[b].append((a, li))

    root = bus_index[topology.pcc_bus]
    order = [root]
    parent = [-1] * n
    parent_line = [-1] * n
    seen = [False] * n
    seen[root] = True
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v, li in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                parent_line[v] = li
                order.append(v)

    # (bus, parent, z of the feeding line) in BFS order for the forward
    # sweep, (bus, parent) reversed for the backward one, (fed bus, z) per
    # line in line order for the losses, and the PCC's children in bus order
    # (the slack inflow's summation order)
    z = [complex(ln.r_ohm, ln.x_ohm) for ln in topology.lines]
    fed = [0] * len(topology.lines)
    for bus in order[1:]:
        fed[parent_line[bus]] = bus
    forward = tuple((bus, parent[bus], z[parent_line[bus]]) for bus in order[1:])
    plan = SimpleNamespace(
        root=root,
        forward=forward,
        backward=tuple((bus, par) for bus, par, _ in reversed(forward)),
        line_plan=tuple(zip(fed, z)),
        root_children=tuple(bus for bus in range(n) if parent[bus] == root),
        v_ph_nom=topology.v_nom_ll_v / math.sqrt(3.0),
    )
    _plans[topology] = plan
    return plan


def solve_power_flow(topology, injections):
    """``cellflex.grid.solve_power_flow``, swept in Python."""
    n = len(topology.buses)
    if len(injections) != 2 * n:
        raise ConfigurationError(
            f"injection vector has {len(injections)} values, expected {2 * n} "
            f"(a (p_kw, q_kvar) pair per bus)")

    plan = sweep_plan(topology)
    v_ph_nom = plan.v_ph_nom
    v_floor = grid.V_COLLAPSE_PU * v_ph_nom
    forward = plan.forward
    backward = plan.backward

    # per-phase apparent power in VA (three-phase total / 3), consumption positive
    s_ph = [complex(p_kw, q_kvar) * (1000.0 / 3.0)
            for p_kw, q_kvar in zip(injections[0::2], injections[1::2])]
    s_ph[plan.root] = 0j
    loads = [(i, s) for i, s in enumerate(s_ph) if s != 0j]

    v = [complex(v_ph_nom, 0.0)] * n
    converged = False
    sweeps = 0
    for sweeps in range(1, grid.MAX_SWEEPS + 1):
        # backward: load currents, then accumulate toward the root; acc[bus]
        # ends as the current of the branch feeding bus
        acc = [0j] * n
        for i, s in loads:
            acc[i] = (s / v[i]).conjugate()
        for bus, par in backward:
            acc[par] += acc[bus]
        # forward: voltage drops from the root outward
        max_dv = 0.0
        for bus, par, z in forward:
            v_new = v[par] - z * acc[bus]
            dv = abs(v_new - v[bus])
            if not dv <= max_dv:        # NaN counts as the largest change
                max_dv = dv
            v[bus] = v_new
            if not abs(v_new) >= v_floor:  # NaN counts as a collapse
                raise InfeasibleNetworkError(
                    f"voltage collapse at bus '{topology.buses[bus].id}' "
                    f"({abs(v_new) / v_ph_nom:.3f} pu)")
        if max_dv / v_ph_nom < grid.SWEEP_TOL_PU:
            converged = True
            break
    if not converged:
        raise PowerFlowError(
            f"backward/forward sweep did not converge within {grid.MAX_SWEEPS} sweeps "
            f"(last voltage change {max_dv / v_ph_nom:.2e} pu)")

    loss = 0j
    for bus, z in plan.line_plan:
        i_l = acc[bus]
        i_mag2 = (i_l * i_l.conjugate()).real
        loss += 3.0 * i_mag2 * z
    s_total = sum(s_ph) * 3.0 + loss          # VA, three-phase

    # cross-check against the physical slack inflow (root branch currents)
    i_root = 0j
    for bus in plan.root_children:
        i_root += acc[bus]
    s_slack = 3.0 * v[plan.root] * i_root.conjugate()
    s_base = topology.transformer_kva * 1000.0
    balance_error = abs(s_slack - s_total) / s_base
    note_balance_error(balance_error)

    return PowerFlowResult(
        pcc=PccReading(s_total.real / 1000.0, s_total.imag / 1000.0),
        v=tuple(v),
        v_ph_nom=v_ph_nom,
        currents_a=tuple([abs(acc[bus]) for bus, _ in plan.line_plan]),
        loss_p_kw=loss.real / 1000.0,
        loss_q_kvar=loss.imag / 1000.0,
        sweeps=sweeps,
        balance_error_pu=balance_error,
    )

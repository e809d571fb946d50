"""Independent Gauss-Seidel power-flow reference used to cross-check the sweep solver.

Deliberately written against the bus-admittance formulation (nothing shared
with the production backward/forward sweep beyond the topology dataclasses).
"""

import math

from cellflex.grid import Bus, GridTopology, Line


def gauss_seidel_pf(topology, injections, tol=1e-12, max_iter=50000):
    """Return (v_pu, slack complex power in kVA, complex voltages) for the injections.

    ``v_pu`` maps bus id to |V| in per unit; the third item maps bus id to the
    complex per-phase voltage in volts.
    """
    buses = topology.buses
    n = len(buses)
    idx = {b.id: i for i, b in enumerate(buses)}
    ybus = [[0j] * n for _ in range(n)]
    for ln in topology.lines:
        a, b = idx[ln.from_bus], idx[ln.to_bus]
        y = 1.0 / complex(ln.r_ohm, ln.x_ohm)
        ybus[a][a] += y
        ybus[b][b] += y
        ybus[a][b] -= y
        ybus[b][a] -= y

    v_ph = topology.v_nom_ll_v / math.sqrt(3.0)
    slack = idx[topology.pcc_bus]
    v = [complex(v_ph, 0.0)] * n
    # injected per-phase power (generation positive), consumption-positive input
    s_inj = [0j] * n
    for bid, (p_kw, q_kvar) in injections.items():
        s_inj[idx[bid]] = -complex(p_kw, q_kvar) * 1000.0 / 3.0

    for _ in range(max_iter):
        max_dv = 0.0
        for i in range(n):
            if i == slack:
                continue
            acc = 0j
            for j in range(n):
                if j != i:
                    acc += ybus[i][j] * v[j]
            v_new = ((s_inj[i] / v[i]).conjugate() - acc) / ybus[i][i]
            max_dv = max(max_dv, abs(v_new - v[i]))
            v[i] = v_new
        if max_dv < tol * v_ph:
            break
    else:
        raise RuntimeError("gauss-seidel reference did not converge")

    i_slack = sum(ybus[slack][j] * v[j] for j in range(n))
    s_slack = 3.0 * v[slack] * i_slack.conjugate() / 1000.0  # kVA, consumption positive
    v_pu = {buses[i].id: abs(v[i]) / v_ph for i in range(n)}
    return v_pu, s_slack, {buses[i].id: v[i] for i in range(n)}


def bus_vector(topology, injections):
    """The flat ``[p_0, q_0, p_1, q_1, ...]`` vector ``solve_power_flow``
    takes, from a dict of bus id to (p_kw, q_kvar); a bus the dict omits
    gets (0.0, 0.0)."""
    vector = []
    for bus in topology.buses:
        vector.extend(injections.get(bus.id, (0.0, 0.0)))
    return vector


def random_radial_case(rng, n_buses=5):
    """Random radial topology + injections that stay in a sane LV operating range."""
    buses = [Bus("pcc")] + [Bus(f"b{i}") for i in range(1, n_buses)]
    lines = []
    for i in range(1, n_buses):
        parent = int(rng.integers(0, i))
        lines.append(Line(
            from_bus=buses[parent].id,
            to_bus=buses[i].id,
            r_ohm=float(rng.uniform(0.005, 0.15)),
            x_ohm=float(rng.uniform(0.002, 0.06)),
            i_max_a=270.0,
        ))
    topology = GridTopology(buses, lines, pcc_bus="pcc")
    injections = {
        b.id: (float(rng.uniform(-25.0, 35.0)), float(rng.uniform(-12.0, 12.0)))
        for b in buses[1:]
    }
    return topology, injections

"""Balanced radial power flow via backward/forward current sweeps.

The cell operates a radial low-voltage feeder:  one slack bus (the PCC,
held at nominal voltage, angle zero) and a tree of lines below it.  The
solver works on the single-phase equivalent: per-phase voltages in volts,
three-phase powers in kW/kVAr (consumption positive).  A backward sweep
accumulates branch currents from the leaves, a forward sweep updates the
voltage drops; iteration stops once the largest per-sweep voltage change
falls below `SWEEP_TOL_PU`.  Each branch current is held once, on the
bus the branch feeds: the backward sweep visits children before parents, so
a bus's accumulated current is final once it has been passed to its parent.
The sweep plan -- the BFS bus order with each bus's parent and feeding
impedance, the bus and impedance of each line, the PCC's children -- is
built once with the topology, so a solve only does arithmetic.  Injections
come in as one flat vector ``[p_0, q_0, p_1, q_1, ...]``, a pair per bus in
``topology.buses`` order (the slack's pair is ignored); results come as
tuples in ``topology.buses`` and ``topology.lines`` order.

The PCC reading is defined as the complex sum of all bus injections plus all
series losses (3 * |I|^2 * Z per line) — by construction it equals the power
entering through the slack once the sweep has converged.
"""

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InfeasibleNetworkError, PowerFlowError

__all__ = [
    "Bus",
    "Line",
    "GridTopology",
    "PccReading",
    "PowerFlowResult",
    "solve_power_flow",
    "check_line_limits",
    "worst_balance_error_pu",
    "reset_balance_tracker",
    "note_balance_error",
]

# magnitude floor below which a solution is treated as voltage collapse
V_COLLAPSE_PU = 0.5
# largest per-sweep voltage change (per unit) that ends the iteration
SWEEP_TOL_PU = 1e-8
# sweeps after which a solve that has not met SWEEP_TOL_PU fails
MAX_SWEEPS = 100

# worst slack-vs-injection mismatch seen by any solve in this process;
# lets test suites assert conservation across entire runs
_worst_balance_error_pu = 0.0


def worst_balance_error_pu():
    return _worst_balance_error_pu


def reset_balance_tracker():
    global _worst_balance_error_pu
    _worst_balance_error_pu = 0.0


def note_balance_error(balance_error_pu):
    global _worst_balance_error_pu
    _worst_balance_error_pu = max(_worst_balance_error_pu, balance_error_pu)


@dataclass(frozen=True)
class Bus:
    id: str
    v_nom_ll_v: float = 400.0       # line-to-line nominal voltage


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    r_ohm: float                    # per-phase series resistance
    x_ohm: float                    # per-phase series reactance
    i_max_a: float                  # thermal limit per phase
    id: str = ""


@dataclass(frozen=True)
class PccReading:
    """Active/reactive power crossing the PCC (consumption positive)."""
    p_kw: float
    q_kvar: float


@dataclass(frozen=True)
class PowerFlowResult:
    pcc: PccReading
    v: tuple                        # complex phase voltage in V, in topology.buses order
    v_ph_nom: float                 # nominal phase voltage in V
    currents_a: tuple               # |I| per phase in ampere, in topology.lines order
    loss_p_kw: float
    loss_q_kvar: float
    sweeps: int
    balance_error_pu: float         # |slack flow - (sum inj + losses)| / S_base

    @property
    def v_pu(self):
        """|V| in per unit, in topology.buses order; computed on each access,
        since within an evaluation only the trace reads it."""
        return tuple([abs(v_i) / self.v_ph_nom for v_i in self.v])


class GridTopology:
    """Validated radial grid: |lines| = |buses| - 1, all reachable from the PCC.

    Only the structure is checked; line parameters and the transformer
    rating are taken as given (the scenario loader checks their bounds).
    """

    def __init__(self, buses, lines, pcc_bus, transformer_kva=160.0):
        self.buses = list(buses)
        self.pcc_bus = pcc_bus
        self.transformer_kva = transformer_kva

        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(f"duplicate bus ids: {dup}")
        if pcc_bus not in ids:
            raise ConfigurationError(f"pcc bus '{pcc_bus}' is not a declared bus")
        v_noms = {b.v_nom_ll_v for b in self.buses}
        if len(v_noms) != 1:
            raise ConfigurationError(f"mixed nominal voltages not supported: {sorted(v_noms)}")
        self.v_nom_ll_v = v_noms.pop()

        self.lines = []
        seen_line_ids = set()
        for ln in lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in ids:
                    raise ConfigurationError(
                        f"line '{ln.id or ln.from_bus + '-' + ln.to_bus}' references "
                        f"unknown bus '{end}'")
            lid = ln.id or f"{ln.from_bus}-{ln.to_bus}"
            if lid in seen_line_ids:
                raise ConfigurationError(f"duplicate line id '{lid}'")
            seen_line_ids.add(lid)
            if ln.id != lid:
                ln = Line(ln.from_bus, ln.to_bus, ln.r_ohm, ln.x_ohm, ln.i_max_a, lid)
            self.lines.append(ln)

        if len(self.lines) != len(self.buses) - 1:
            raise ConfigurationError(
                f"radial grid needs |lines| = |buses|-1, got {len(self.lines)} lines "
                f"for {len(self.buses)} buses")
        self._build_tree()

    def _build_tree(self):
        """BFS from the PCC; orients every line parent->child and orders buses."""
        self._bus_index = {b.id: i for i, b in enumerate(self.buses)}
        n = len(self.buses)
        adjacency = [[] for _ in range(n)]
        for li, ln in enumerate(self.lines):
            a, b = self._bus_index[ln.from_bus], self._bus_index[ln.to_bus]
            adjacency[a].append((b, li))
            adjacency[b].append((a, li))

        root = self._bus_index[self.pcc_bus]
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
        if len(order) != n:
            missing = sorted(self.buses[i].id for i in range(n) if not seen[i])
            raise ConfigurationError(f"buses not connected to the PCC: {missing}")

        # sweep plan: (bus, parent, z of the feeding line) in BFS order for
        # the forward sweep, (bus, parent) reversed for the backward one,
        # (fed bus, z) per line in line order for the losses, and the PCC's
        # children in bus order (the slack inflow's summation order)
        z = [complex(ln.r_ohm, ln.x_ohm) for ln in self.lines]
        fed = [0] * len(self.lines)
        for bus in order[1:]:
            fed[parent_line[bus]] = bus
        self._root = root
        self._forward = tuple((bus, parent[bus], z[parent_line[bus]])
                              for bus in order[1:])
        self._backward = tuple((bus, par) for bus, par, _ in reversed(self._forward))
        self._line_plan = tuple(zip(fed, z))
        self._root_children = tuple(bus for bus in range(n) if parent[bus] == root)
        self._v_ph_nom = self.v_nom_ll_v / math.sqrt(3.0)


def solve_power_flow(topology, injections):
    """Solve the radial power flow for three-phase injections in kW/kVAr.

    `injections` is the flat sequence ``[p_0, q_0, p_1, q_1, ...]``, one
    (p_kw, q_kvar) pair per bus in ``topology.buses`` order with consumption
    positive; the slack bus's pair is ignored.  Raises ConfigurationError if
    it does not hold 2 * len(topology.buses) values, PowerFlowError if the
    sweep does not converge within `MAX_SWEEPS` sweeps and
    InfeasibleNetworkError if any voltage drops below 0.5 pu on the way.
    """
    n = len(topology.buses)
    if len(injections) != 2 * n:
        raise ConfigurationError(
            f"injection vector has {len(injections)} values, expected {2 * n} "
            f"(a (p_kw, q_kvar) pair per bus)")

    v_ph_nom = topology._v_ph_nom
    v_floor = V_COLLAPSE_PU * v_ph_nom
    forward = topology._forward
    backward = topology._backward

    # per-phase apparent power in VA (three-phase total / 3), consumption positive
    s_ph = [complex(p_kw, q_kvar) * (1000.0 / 3.0)
            for p_kw, q_kvar in zip(injections[0::2], injections[1::2])]
    s_ph[topology._root] = 0j
    loads = [(i, s) for i, s in enumerate(s_ph) if s != 0j]

    v = [complex(v_ph_nom, 0.0)] * n
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
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
        if max_dv / v_ph_nom < SWEEP_TOL_PU:
            converged = True
            break
    if not converged:
        raise PowerFlowError(
            f"backward/forward sweep did not converge within {MAX_SWEEPS} sweeps "
            f"(last voltage change {max_dv / v_ph_nom:.2e} pu)")

    loss = 0j
    for bus, z in topology._line_plan:
        i_l = acc[bus]
        i_mag2 = (i_l * i_l.conjugate()).real
        loss += 3.0 * i_mag2 * z
    s_total = sum(s_ph) * 3.0 + loss          # VA, three-phase

    # cross-check against the physical slack inflow (root branch currents)
    i_root = 0j
    for bus in topology._root_children:
        i_root += acc[bus]
    s_slack = 3.0 * v[topology._root] * i_root.conjugate()
    s_base = topology.transformer_kva * 1000.0
    balance_error = abs(s_slack - s_total) / s_base
    note_balance_error(balance_error)

    # tuples of list comprehensions: tuple() over a generator grows the tuple
    # by resizing, which raised the benchmark's peak RSS by ~0.8 MB
    return PowerFlowResult(
        pcc=PccReading(s_total.real / 1000.0, s_total.imag / 1000.0),
        v=tuple(v),
        v_ph_nom=v_ph_nom,
        currents_a=tuple([abs(acc[bus]) for bus, _ in topology._line_plan]),
        loss_p_kw=loss.real / 1000.0,
        loss_q_kvar=loss.imag / 1000.0,
        sweeps=sweeps,
        balance_error_pu=balance_error,
    )


def check_line_limits(result, topology):
    """The number of lines whose current exceeds their limit."""
    n = 0
    for ln, amps in zip(topology.lines, result.currents_a):
        if amps > ln.i_max_a:
            n += 1
    return n

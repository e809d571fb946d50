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
built once with the topology, so a solve only does arithmetic.  The sweep
itself runs compiled (``power_flow`` in ``_loops.c``), in CPython's complex
arithmetic and order of operations; the tests keep it in Python as the
reference (``tests/grid_reference.py``).  Injections come in as one flat
vector ``[p_0, q_0, p_1, q_1, ...]``, a pair per bus in ``topology.buses``
order (the slack's pair is ignored); results come as tuples in
``topology.buses`` and ``topology.lines`` order.

The PCC reading is defined as the complex sum of all bus injections plus all
series losses (3 * |I|^2 * Z per line) — by construction it equals the power
entering through the slack once the sweep has converged.
"""

import math
from dataclasses import dataclass
from struct import pack
from typing import NamedTuple

from ._build import load_loops
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

_sweep = load_loops().power_flow

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


class PccReading(NamedTuple):
    """Active/reactive power crossing the PCC (consumption positive)."""
    p_kw: float
    q_kvar: float


class PowerFlowResult(NamedTuple):
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

        # sweep plan for the compiled sweep: as indices, the bus count, the
        # PCC and its child count, the other buses in BFS order, their
        # parents, the bus each line feeds in line order and the PCC's
        # children in bus order (the slack inflow's summation order); as
        # floats, (r, x) of the line feeding each BFS bus, then of each line
        below = order[1:]
        fed = [0] * len(self.lines)
        for bus in below:
            fed[parent_line[bus]] = bus
        children = [bus for bus in range(n) if parent[bus] == root]
        indices = [n, root, len(children), *below,
                   *[parent[bus] for bus in below], *fed, *children]
        lines = [self.lines[parent_line[bus]] for bus in below] + self.lines
        impedances = [part for ln in lines for part in (ln.r_ohm, ln.x_ohm)]
        self._plan = (pack(f"{len(indices)}n", *indices),
                      pack(f"{len(impedances)}d", *impedances))
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
    out = _sweep(*topology._plan, injections, v_ph_nom,
                 V_COLLAPSE_PU * v_ph_nom, SWEEP_TOL_PU, MAX_SWEEPS,
                 topology.transformer_kva * 1000.0)
    if len(out) == 2:
        bus, volts = out
        if bus < 0:
            raise PowerFlowError(
                f"backward/forward sweep did not converge within {MAX_SWEEPS} sweeps "
                f"(last voltage change {volts / v_ph_nom:.2e} pu)")
        raise InfeasibleNetworkError(
            f"voltage collapse at bus '{topology.buses[bus].id}' "
            f"({volts / v_ph_nom:.3f} pu)")
    p_kw, q_kvar, v, currents_a, loss_p_kw, loss_q_kvar, sweeps, balance = out
    note_balance_error(balance)
    return PowerFlowResult(PccReading(p_kw, q_kvar), v, v_ph_nom, currents_a,
                           loss_p_kw, loss_q_kvar, sweeps, balance)


def check_line_limits(result, topology):
    """The number of lines whose current exceeds their limit."""
    n = 0
    for ln, amps in zip(topology.lines, result.currents_a):
        if amps > ln.i_max_a:
            n += 1
    return n

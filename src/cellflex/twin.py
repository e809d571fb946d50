"""Digital twin of a low-voltage energy cell.

Wires scenario prosumers (household load, PV inverter, battery, heat pump,
EV chargers) onto the radial feeder and integrates all device dynamics on a
fixed internal substep.  Exposes the dispatch evaluation primitive used by the
optimizer:

* ``run_warmup``            - settle local-control dynamics, then freeze a
                              :class:`ReferenceState` (pre-request baseline).
* ``evaluate_dispatch``     - restore the reference snapshot, apply a vector of
                              plant offsets, integrate one dispatch step and
                              solve the network; side-effect free w.r.t. the
                              reference.
* ``probe_plant``           - the same integration with one plant's offset
                              moved through a list of values from a common
                              base: per value, that plant's realized value
                              and the bus injections, without a power flow
                              (the oracle's axis probes).
* ``advance_reference``     - commit one dispatch step: same integration, but
                              the end state becomes the next step's snapshot
                              while the frozen baseline powers are kept.

Profile inputs (household load and heat demand, ambient temperature,
irradiance) are sampled at the start of each interval and held constant over
it (the weather once for the whole cell).  The twin samples them again
only when the interval start time changes, so the evaluations of one
dispatch step share one sample.  Each plant
integrates a whole interval in one ``step`` call, one call into its compiled
substep loop (see :mod:`cellflex.plants`), so every prosumer is called once
per interval, not once per substep; the PV inverters keep no state and step
once per interval too.  The warmup steps the same loops in coarser blocks.

An evaluation or a probe re-integrates only the plants whose offset
changed.  A plant's end state depends only on the snapshot it starts from
and its own offset, so when the twin still holds the end state of the same
snapshot object, a plant keeps its state if its offset is the same float as
in that integration (sign of zero included; NaN never is).  Only the other
plants are restored and stepped.  The bus injections are then summed from
every plant's final power.  Anything else that moves plant state --
``restore``, the warmup, ``override_bes_soc``, ``step_dispatch_interval``
outside an evaluation or a probe -- makes the next one re-integrate every
plant.  The trace reads an EV's connection where its last substep started,
since its ``p_kw`` is that substep's power.

``solve`` keeps up to 64 successful results, keyed on the bits of every
prosumer's ``(p_kw, q_kvar)`` (±0.0 and NaN payloads are distinct keys),
and drops the least recently used first.  ``solve_power_flow`` is a pure
function of the fixed topology and those injections, so a kept result is
the one a new solve would return, bit for bit; a hit still counts its
balance error.  A failed solve is never kept: it runs and raises each time.

Controllable-plant ordering is class-major and scenario-ordered within each
class: all batteries, then all heat pumps, then all EV chargers, then all PV
inverters.  Offsets are ΔP in kW except for inverters, which take ΔQ in kVAr.
``set_offsets`` writes them into one list that every prosumer reads by plant
index; ``plant_values`` reads each plant's realized P (Q for inverters) in
the same order.

A snapshot is the flat tuple ``(t_s, plant states in plant-table order,
per-prosumer bus injections (p_kw, q_kvar))``; it holds each state variable
once.
"""

from dataclasses import dataclass
from math import copysign
from struct import Struct

import numpy as np

from .errors import ConfigurationError, PowerFlowError
from .grid import check_line_limits, note_balance_error, solve_power_flow
from .plants import BatteryStorage, ElectricVehicle, HeatPumpSystem, PvInverter
from .scenario import build_profiles, warmup_schedule

__all__ = ["ReferenceState", "EvaluationResult", "CellTwin"]

SOLVED_MAX = 64         # power-flow results a twin keeps


@dataclass
class ReferenceState:
    """Frozen pre-request baseline plus the snapshot evaluations start from.

    ``plant_values`` and ``pcc`` are captured once, before the first request
    step, and stay frozen across ``advance_reference`` calls: deviations and
    PCC targets for the whole dispatch run are measured against them.
    """
    plant_values: np.ndarray
    pcc_p_kw: float
    pcc_q_kvar: float
    snapshot: tuple
    t_s: float


@dataclass
class EvaluationResult:
    """Outcome of integrating one dispatch step under a given offset vector."""
    pcc_p_kw: float
    pcc_q_kvar: float
    plant_values: np.ndarray
    n_violations: int
    feasible: bool
    failure: str | None = None
    trace: dict | None = None


class _ProsumerTwin:
    """One prosumer's plants plus its sampled inputs and bus injection.

    ``offsets`` is the twin's shared offset list; ``i_bes``, ``i_ehp``,
    ``i_inv`` and ``bev_slots`` (pairs of EV and index) locate this
    prosumer's plants in it.
    """

    __slots__ = ("id", "bus", "load_series", "pv", "bes", "ehp", "bevs",
                 "offsets", "i_bes", "i_ehp", "i_inv", "bev_slots",
                 "load_p", "load_q", "heat",
                 "p_base", "q_base", "pv_surplus", "p_kw", "q_kvar")

    def __init__(self, spec, profiles):
        self.id = spec.id
        self.bus = spec.bus
        self.load_series = profiles.household[spec.id]
        self.pv = PvInverter(spec.pv) if spec.pv else None
        self.bes = BatteryStorage(spec.bes) if spec.bes else None
        self.ehp = HeatPumpSystem(spec.ehp) if spec.ehp else None
        self.bevs = [ElectricVehicle(b) for b in spec.bevs]
        self.offsets = []
        self.i_bes = self.i_ehp = self.i_inv = None
        self.bev_slots = ()
        self.load_p = self.load_q = self.heat = 0.0
        self.p_base = self.q_base = self.pv_surplus = 0.0
        self.p_kw = self.q_kvar = 0.0

    def sample_inputs(self, t_s):
        self.load_p, self.load_q, self.heat = self.load_series.value(t_s)
        if self.pv is None:
            self.p_base = self.load_p
            self.q_base = self.load_q
            self.pv_surplus = 0.0 - self.load_p

    def integrate(self, stale, amb, irr, base_tod_s, n, dt):
        """Step the flagged plants over n substeps at ambient `amb`, irradiance `irr`.

        Each flagged plant makes one ``step`` call for the whole interval;
        the others already hold their end state.  The PV inverter, which
        keeps no state, sets the bus base load ``p_base``/``q_base`` and the
        battery's local wish ``pv_surplus``.  The bus injection is then
        summed from every plant's final power.
        """
        off = self.offsets
        if self.pv is not None and stale[self.i_inv]:
            p_pv, q_pv = self.pv.step(irr, off[self.i_inv])
            self.p_base = self.load_p - p_pv
            self.q_base = self.load_q + q_pv
            self.pv_surplus = p_pv - self.load_p
        p = self.p_base
        q = self.q_base
        bes = self.bes
        if bes is not None:
            if stale[self.i_bes]:
                bes.step(self.pv_surplus, off[self.i_bes], n, dt)
            p += bes.p_kw
        ehp = self.ehp
        if ehp is not None:
            if stale[self.i_ehp]:
                ehp.step(self.heat, amb, off[self.i_ehp], n, dt)
            p += ehp.p_kw
            q += ehp.q_kvar
        for bev, i in self.bev_slots:
            if stale[i]:
                bev.step(off[i], base_tod_s, n, dt)
            p += bev.p_kw
        self.p_kw = p
        self.q_kvar = q


class CellTwin:
    """Simulation state machine for one scenario."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.topology = scenario.build_topology()
        self.profiles = build_profiles(scenario)
        self.prosumers = [_ProsumerTwin(p, self.profiles) for p in scenario.prosumers]
        self.internal_dt_s = scenario.simulation.internal_dt_s
        self.dispatch_step_s = scenario.simulation.dispatch_step_s
        self.start_tod_s = scenario.start_tod_s()
        self.t_s = 0.0
        self._inputs_t0 = self._amb = self._irr = None
        self._last_substep_tod = None
        # the snapshot the plants' current state was integrated from, and the
        # offsets it was integrated under; None once anything else moved it
        self._end_of = None
        self._end_offsets = None
        self.n_evaluations = 0          # evaluate_dispatch calls so far
        self._solved = {}   # bits of every (p_kw, q_kvar) -> power flow
        self._pack = Struct(f"{2 * len(self.prosumers)}d").pack
        self._build_plant_table()
        self._junctions = [b.id for b in scenario.buses
                           if b.id != scenario.pcc_bus and b.prosumer is None]

    # ------------------------------------------------------------------
    # plant table

    def _build_plant_table(self):
        labels, classes, bounds, values = [], [], [], []

        def add(label, cls, span, plant, attr):
            labels.append(label)
            classes.append(cls)
            bounds.append((-span, span))
            values.append((plant, attr))
            return len(labels) - 1

        for pro in self.prosumers:
            if pro.bes is not None:
                span = pro.bes.p_max_charge_kw + pro.bes.p_max_discharge_kw
                pro.i_bes = add(f"bes:{pro.id}", "bes", span, pro.bes, "p_kw")
        for pro in self.prosumers:
            if pro.ehp is not None:
                span = pro.ehp.p_el_max_kw + pro.ehp.p_element_kw
                pro.i_ehp = add(f"ehp:{pro.id}", "ehp", span, pro.ehp, "p_kw")
        for pro in self.prosumers:
            slots = []
            for k, bev in enumerate(pro.bevs):
                cls = "bev_v2g" if bev.v2g else "bev_v1g"
                span = 2.0 * bev.p_rated_kw if bev.v2g else bev.p_rated_kw
                slots.append((bev, add(f"bev:{pro.id}.{k}", cls, span, bev, "p_kw")))
            pro.bev_slots = tuple(slots)
        for pro in self.prosumers:
            if pro.pv is not None:
                span = pro.pv.q_fraction_limit * pro.pv.s_rated_kva
                pro.i_inv = add(f"inv:{pro.id}", "inv", span, pro.pv, "q_kvar")

        self.plant_labels = tuple(labels)
        self.plant_classes = tuple(classes)
        self.n_plants = len(labels)
        self._bounds = np.array(bounds, dtype=float) if bounds else np.empty((0, 2))
        self._plant_values = values
        self._plants = tuple(plant for plant, _ in values)
        self._all_stale = (True,) * self.n_plants
        self._offsets = [0.0] * self.n_plants
        for pro in self.prosumers:
            pro.offsets = self._offsets

    def plant_bounds(self):
        return self._bounds.copy()

    def set_offsets(self, offsets):
        self._offsets[:] = self._checked_offsets(offsets)

    def _checked_offsets(self, offsets):
        x = np.asarray(offsets, dtype=float)
        if x.shape != (self.n_plants,):
            got = f"{len(x)} entries" if x.ndim == 1 else f"shape {x.shape}"
            raise ConfigurationError(
                f"offset vector has {got}, expected {self.n_plants}")
        return x.tolist()

    def plant_values(self):
        """Realized costed quantity per plant (P in kW; Q in kVAr for inverters)."""
        return np.array([getattr(plant, attr) for plant, attr in self._plant_values])

    # ------------------------------------------------------------------
    # integration

    def _step_interval(self, dt_total, substep, stale=None):
        """Integrate one interval; `stale` flags the plants to step (all if None)."""
        self._end_of = None
        t0 = self.t_s
        prosumers = self.prosumers
        if t0 != self._inputs_t0:
            # profiles are fixed once the twin is built, so the inputs at t0
            # only change when the clock does
            self._amb = self.profiles.ambient.value(t0)
            self._irr = self.profiles.irradiance.value(t0)
            for pro in prosumers:
                pro.sample_inputs(t0)
            self._inputs_t0 = t0
        n = round(dt_total / substep)
        if stale is None:
            stale = self._all_stale
        base_tod = self.start_tod_s + t0
        for pro in prosumers:
            pro.integrate(stale, self._amb, self._irr, base_tod, n, substep)
        self._last_substep_tod = (base_tod + (n - 1) * substep) % 86400.0
        self.t_s = t0 + dt_total

    def step_dispatch_interval(self, stale=None):
        self._step_interval(self.dispatch_step_s, self.internal_dt_s, stale)

    def injections(self):
        inj = {bus: (0.0, 0.0) for bus in self._junctions}
        for pro in self.prosumers:
            inj[pro.bus] = (pro.p_kw, pro.q_kvar)
        return inj

    def solve(self):
        bits = []
        for pro in self.prosumers:
            bits.append(pro.p_kw)
            bits.append(pro.q_kvar)
        key = self._pack(*bits)
        res = self._solved.pop(key, None)
        if res is None:
            res = solve_power_flow(self.topology, self.injections())
            if len(self._solved) == SOLVED_MAX:
                del self._solved[next(iter(self._solved))]
        else:
            note_balance_error(res.balance_error_pu)
        self._solved[key] = res     # the most recently used goes last
        return res

    # ------------------------------------------------------------------
    # snapshots

    def snapshot(self):
        # list comprehensions, not generators: see solve_power_flow in grid.py
        return (self.t_s,
                tuple([plant.get_state() for plant in self._plants]),
                tuple([(pro.p_kw, pro.q_kvar) for pro in self.prosumers]))

    def restore(self, snap, stale=None):
        """Restore `snap`; with `stale`, only the flagged plants and the clock."""
        self._end_of = None
        self.t_s, states, bus_states = snap
        if stale is not None:
            for plant, state, s in zip(self._plants, states, stale):
                if s:
                    plant.set_state(state)
            return
        for plant, state in zip(self._plants, states):
            plant.set_state(state)
        for pro, (p_kw, q_kvar) in zip(self.prosumers, bus_states):
            pro.p_kw = p_kw
            pro.q_kvar = q_kvar

    # ------------------------------------------------------------------
    # reference handling

    def run_warmup(self):
        """Integrate local-control-only operation, then capture the baseline.

        The warmup rewinds the clock to ``-simulation.warmup_s`` and
        integrates forward to t=0 with all offsets zero, on the coarse
        schedule of :func:`~cellflex.scenario.warmup_schedule` (first-order
        lags use exact exponential updates, so coarse stepping does not
        degrade the settled state).  The scenario loader has checked the
        warmup against the profile window and the substep grid.  Must be
        called once, right after construction.
        """
        warmup_s = self.scenario.simulation.warmup_s
        substep, blocks = warmup_schedule(self.internal_dt_s, warmup_s)
        self.set_offsets([0.0] * self.n_plants)
        self.t_s = -warmup_s
        for n in blocks:
            self._step_interval(n * substep, substep)
        self.t_s = 0.0
        return self.capture_reference()

    def capture_reference(self):
        res = self.solve()
        return ReferenceState(
            plant_values=self.plant_values(),
            pcc_p_kw=res.pcc.p_kw,
            pcc_q_kvar=res.pcc.q_kvar,
            snapshot=self.snapshot(),
            t_s=self.t_s,
        )

    def check_plants(self):
        """Raise ConfigurationError unless the cell has a plant to dispatch."""
        if self.n_plants == 0:
            raise ConfigurationError(
                f"scenario '{self.scenario.name}' has no controllable plants to "
                f"dispatch (no battery, heat pump, EV or PV inverter)")

    @staticmethod
    def check_bes_soc(soc):
        """Raise ConfigurationError unless `soc` is a state of charge in [0, 1]."""
        if not 0.0 <= soc <= 1.0:      # also rejects NaN
            raise ConfigurationError(f"battery SOC override {soc} outside [0, 1]")

    def override_bes_soc(self, soc):
        """Force every battery's state of charge (scenario-study hook)."""
        self.check_bes_soc(soc)
        self._end_of = None
        for pro in self.prosumers:
            if pro.bes is not None:
                pro.bes.soc = float(soc)

    # ------------------------------------------------------------------
    # dispatch evaluation

    def _stale_plants(self, snap, offsets):
        """Flags of the plants whose end state from `snap` under `offsets` is
        not already held; None for all of them.

        A plant's end state depends only on the snapshot and its own offset,
        so a plant is up to date when its offset is the same float as in the
        integration that left it there, sign of zero included.  NaN never is.
        """
        if snap is not self._end_of:
            return None
        return [not (a == b and (a != 0.0 or copysign(1.0, a) == copysign(1.0, b)))
                for a, b in zip(offsets, self._end_offsets)]

    def _integrate(self, snap, offsets):
        """Leave every plant at its end state from `snap` under the checked
        list `offsets`, restoring and stepping only the stale plants."""
        stale = self._stale_plants(snap, offsets)
        self.restore(snap, stale)
        self._offsets[:] = offsets
        self.step_dispatch_interval(stale)
        self._end_of = snap
        self._end_offsets = offsets

    def _integrate_offsets(self, ref, offsets, record_trace):
        self._integrate(ref.snapshot, self._checked_offsets(offsets))
        try:
            res = self.solve()
        except PowerFlowError as exc:
            return EvaluationResult(
                pcc_p_kw=float("nan"), pcc_q_kvar=float("nan"),
                plant_values=self.plant_values(),
                n_violations=len(self.topology.lines),
                feasible=False, failure=str(exc))
        n_violations = check_line_limits(res, self.topology)
        return EvaluationResult(
            pcc_p_kw=res.pcc.p_kw,
            pcc_q_kvar=res.pcc.q_kvar,
            plant_values=self.plant_values(),
            n_violations=n_violations,
            feasible=not n_violations,
            trace=self._trace_row(res) if record_trace else None,
        )

    def evaluate_dispatch(self, ref, offsets):
        """Integrate one dispatch step from the reference snapshot.

        Does not mutate ``ref``; the twin's own state is scratch space and is
        left at the end of the evaluated step.  Counted in ``n_evaluations``;
        records no trace.
        """
        self.n_evaluations += 1
        return self._integrate_offsets(ref, offsets, record_trace=False)

    def probe_plant(self, ref, base, i, values):
        """Plant i's value and the bus injections at each of `values`.

        Row k is what ``evaluate_dispatch(ref, x)`` leaves, bit for bit,
        with x = `base` and x[i] = values[k]: plant i's realized value (P in
        kW; Q in kVAr for an inverter) and ``(p_kw, q_kvar)`` per non-slack
        bus in ``injections()`` order, returned as arrays of shape ``(K,)``
        and ``(K, n_buses, 2)``.  No power flow is solved and nothing is
        counted in ``n_evaluations``.  The other plants are integrated under
        `base` once, unless the twin already holds that end state; each
        value then restores and steps plant i alone.
        """
        offsets = self._checked_offsets(base)
        plant, attr = self._plant_values[i]
        plant_values, injections = [], []
        for value in values:
            # a new list: the twin keeps the last one as its end offsets
            offsets = offsets.copy()
            offsets[i] = float(value)
            self._integrate(ref.snapshot, offsets)
            plant_values.append(getattr(plant, attr))
            injections.append(list(self.injections().values()))
        return (np.array(plant_values, dtype=float),
                np.array(injections, dtype=float).reshape(
                    len(injections), len(self.injections()), 2))

    def advance_reference(self, ref, offsets):
        """Commit a dispatch step: integrate and adopt the end state.

        Returns ``(new_ref, evaluation)``; the evaluation carries the step's
        trace.  The new reference keeps the frozen baseline plant powers and
        PCC reading of ``ref``; only the snapshot and clock advance.
        """
        evaluation = self._integrate_offsets(ref, offsets, record_trace=True)
        if evaluation.failure is not None:
            raise PowerFlowError(
                f"network solution failed while committing step at "
                f"t={self.t_s:.0f}s: {evaluation.failure}")
        new_ref = ReferenceState(
            plant_values=ref.plant_values,
            pcc_p_kw=ref.pcc_p_kw,
            pcc_q_kvar=ref.pcc_q_kvar,
            snapshot=self.snapshot(),
            t_s=self.t_s,
        )
        return new_ref, evaluation

    # ------------------------------------------------------------------
    # diagnostics

    def _trace_row(self, res):
        bes_soc, ehp_t, bev_soc, bev_conn, bev_p = [], [], [], [], []
        inv_p, inv_q, inv_s = [], [], []
        # the EVs' last substep started here; their p_kw is that substep's
        tod = self._last_substep_tod
        for pro in self.prosumers:
            if pro.bes is not None:
                bes_soc.append(pro.bes.soc)
            if pro.ehp is not None:
                ehp_t.append(pro.ehp.t_storage_c)
            for bev in pro.bevs:
                bev_soc.append(bev.soc)
                bev_conn.append(bev.connected(tod))
                bev_p.append(bev.p_kw)
            if pro.pv is not None:
                inv_p.append(pro.pv.p_ac_kw)
                inv_q.append(pro.pv.q_kvar)
                inv_s.append(pro.pv.s_rated_kva)
        return {
            "t_s": self.t_s,
            "bes_soc": tuple(bes_soc),
            "ehp_t_c": tuple(ehp_t),
            "bev_soc": tuple(bev_soc),
            "bev_connected": tuple(bev_conn),
            "bev_p_kw": tuple(bev_p),
            "inv_p_kw": tuple(inv_p),
            "inv_q_kvar": tuple(inv_q),
            "inv_s_rated_kva": tuple(inv_s),
            "v_min_pu": min(res.v_pu),
            "line_loading_max": max(
                (amps / ln.i_max_a
                 for ln, amps in zip(self.topology.lines, res.currents_a)),
                default=0.0),
        }

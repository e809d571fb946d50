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
once per interval too.  The warmup runs on coarser blocks and makes one call
per stateful plant for all of them (its ``warm_up``, into the same compiled
loop), with each block's inputs sampled once; then it steps the inverters
and sums every bus once, at the last block.  It leaves the twin as stepping
the blocks one interval at a time would.

An evaluation or a probe re-integrates only the plants whose offset
changed.  A plant's end state depends only on the snapshot it starts from
and its own offset, so when the twin still holds the end state of the same
snapshot object, a plant keeps its state if its offset is the same float as
in that integration (sign of zero included; NaN never is).  One compiled
scan (``changed_offsets`` in ``_loops.c``) lists the other plants, flags
them in a byte mask the prosumers read and hands back their owners.  Only
those plants are restored and stepped, and only their owners are
integrated, each re-summing its bus injection from every plant's final
power.  Every other prosumer's bus pair is already its end state from the
same snapshot under the same offsets.  Anything else that moves plant state --
``restore``, the warmup, ``override_bes_soc``, ``step_dispatch_interval``
outside an evaluation or a probe -- makes the next one re-integrate every
plant.  The trace reads an EV's connection where its last substep started,
since its ``p_kw`` is that substep's power.

The bus injections live in one flat list, ``injections``: the pair
``(p_kw, q_kvar)`` of every bus in ``topology.buses`` order, zero on the
slack and on junction buses.  Each prosumer writes its own pair in place.
That list is what ``solve_power_flow`` reads, what ``probe_plant`` records
and the bus part of a snapshot.

The twin keeps up to 64 successful solves, keyed on the bits of the
injection list (±0.0 and NaN payloads are distinct keys), and drops the
least recently used first.  ``solve_power_flow`` is a pure
function of the fixed topology and those injections, so a kept result is
the one a new solve would return, bit for bit; a hit still counts its
balance error.  Each kept result sits next to its overloaded-line count.
A failed solve is never kept: it runs and raises each time.

Controllable-plant ordering is class-major and scenario-ordered within each
class: all batteries, then all heat pumps, then all EV chargers, then all PV
inverters.  Offsets are ΔP in kW except for inverters, which take ΔQ in kVAr.
``set_offsets`` writes them into one list that every prosumer reads by plant
index.  Each plant's realized P (Q for inverters) is kept in one array in
the same order, written by the steps and by a full ``restore``;
``plant_values`` returns a copy, so an array handed out never changes.

A snapshot is the tuple ``(t_s, plant states in plant-table order, bus
injections as the flat tuple [p_0, q_0, p_1, q_1, ...])``; it holds each
state variable once.
"""

from dataclasses import dataclass
from struct import Struct
from typing import NamedTuple

import numpy as np

from ._build import load_loops
from .errors import ConfigurationError, PowerFlowError
from .grid import check_line_limits, note_balance_error, solve_power_flow
from .plants import BatteryStorage, ElectricVehicle, HeatPumpSystem, PvInverter
from .scenario import build_profiles, warmup_schedule

__all__ = ["ReferenceState", "EvaluationResult", "CellTwin"]

SOLVED_MAX = 64         # power-flow results a twin keeps
_NAN = float("nan")

_changed_offsets = load_loops().changed_offsets


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


class EvaluationResult(NamedTuple):
    """Outcome of integrating one dispatch step under a given offset vector."""
    pcc_p_kw: float
    pcc_q_kvar: float
    plant_values: np.ndarray
    n_violations: int
    feasible: bool
    failure: str | None = None
    trace: dict | None = None


class _ProsumerTwin:
    """One prosumer's plants plus its sampled inputs.

    ``offsets`` is the twin's shared offset list and ``values`` its array of
    plant values; ``i_bes``, ``i_ehp``, ``i_inv`` and ``bev_slots`` (pairs
    of EV and index) locate this prosumer's plants in both.  ``injections``
    is the twin's shared bus injection list and ``i_p`` the index of this
    prosumer's bus P in it.
    """

    __slots__ = ("id", "load_series", "pv", "bes", "ehp", "bevs",
                 "offsets", "values", "i_bes", "i_ehp", "i_inv",
                 "bev_slots", "injections", "i_p", "load_p", "load_q", "heat",
                 "p_base", "q_base", "pv_surplus")

    def __init__(self, spec, profiles, injections, i_p):
        self.id = spec.id
        self.load_series = profiles.household[spec.id]
        self.pv = PvInverter(spec.pv) if spec.pv else None
        self.bes = BatteryStorage(spec.bes) if spec.bes else None
        self.ehp = HeatPumpSystem(spec.ehp) if spec.ehp else None
        self.bevs = [ElectricVehicle(b) for b in spec.bevs]
        self.offsets = self.values = None
        self.i_bes = self.i_ehp = self.i_inv = None
        self.bev_slots = ()
        self.injections = injections
        self.i_p = i_p
        self.load_p = self.load_q = self.heat = 0.0
        self.p_base = self.q_base = self.pv_surplus = 0.0

    def sample_inputs(self, t_s):
        self.load_p, self.load_q, self.heat = self.load_series.value(t_s)
        if self.pv is None:
            self.p_base = self.load_p
            self.q_base = self.load_q
            self.pv_surplus = 0.0 - self.load_p

    def integrate(self, stale, amb, irr, base_tod_s, n, dt):
        """Step the flagged plants over n substeps at ambient `amb`, irradiance `irr`.

        `stale` holds a flag per plant index.  Each flagged plant makes one
        ``step`` call for the whole interval and its value goes to
        ``values``; the others already hold their end state.  The PV
        inverter, which keeps no state, sets the bus base load
        ``p_base``/``q_base`` and the battery's local wish ``pv_surplus``.
        The bus injection is then summed from every plant's final power and
        written in place.
        """
        off, values = self.offsets, self.values
        i = self.i_inv
        if i is not None and stale[i]:
            p_pv, q_pv = self.pv.step(irr, off[i])
            values[i] = q_pv
            self.p_base = self.load_p - p_pv
            self.q_base = self.load_q + q_pv
            self.pv_surplus = p_pv - self.load_p
        p = self.p_base
        q = self.q_base
        bes = self.bes
        if bes is not None:
            i = self.i_bes
            if stale[i]:
                values[i] = bes.step(self.pv_surplus, off[i], n, dt)
            p += bes.p_kw
        ehp = self.ehp
        if ehp is not None:
            i = self.i_ehp
            if stale[i]:
                values[i] = ehp.step(self.heat, amb, off[i], n, dt)
            p += ehp.p_kw
            q += ehp.q_kvar
        for bev, i in self.bev_slots:
            if stale[i]:
                values[i] = bev.step(off[i], base_tod_s, n, dt)
            p += bev.p_kw
        self.injections[self.i_p] = p
        self.injections[self.i_p + 1] = q

    def warm_up(self, starts, counts, amb, irr, start_tods, dt):
        """Step the stateful plants over the warmup blocks, one call each.

        Block j starts at ``starts[j]`` (time of day ``start_tods[j]``) and
        runs counts[j] substeps of dt at ambient amb[j] and irradiance
        irr[j], with no offset.  The household inputs are sampled once per
        block, and the battery's wish is the block's PV surplus, formed as
        ``integrate`` forms it from the inverter's active power at irr[j].
        The inverter, the injection and the values are left to the caller.
        """
        for bev in self.bevs:
            bev.warm_up(counts, start_tods, dt)
        if self.bes is None and self.ehp is None:
            return
        samples = self.load_series.values(starts)
        if self.bes is not None:
            pv = self.pv
            if pv is None:
                wishes = [0.0 - load[0] for load in samples]
            else:
                wishes = [pv.active_power(g) - load[0]
                          for g, load in zip(irr, samples)]
            self.bes.warm_up(counts, wishes, dt)
        if self.ehp is not None:
            self.ehp.warm_up(counts, [load[2] for load in samples], amb, dt)


class CellTwin:
    """Simulation state machine for one scenario."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.topology = scenario.build_topology()
        self.profiles = build_profiles(scenario)
        bus_ids = [b.id for b in self.topology.buses]
        self.injections = [0.0] * (2 * len(bus_ids))
        self.prosumers = [_ProsumerTwin(p, self.profiles, self.injections,
                                        2 * bus_ids.index(p.bus))
                          for p in scenario.prosumers]
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
        self._solved = {}   # bits of the injection list -> power flow
        self._pack = Struct(f"{len(self.injections)}d").pack
        self._build_plant_table()

    # ------------------------------------------------------------------
    # plant table

    def _build_plant_table(self):
        labels, classes, bounds, plants, attrs, owners = [], [], [], [], [], []

        def add(pro, label, cls, span, plant, attr):
            labels.append(label)
            classes.append(cls)
            bounds.append((-span, span))
            plants.append(plant)
            attrs.append(attr)
            owners.append(pro)
            return len(labels) - 1

        for pro in self.prosumers:
            if pro.bes is not None:
                span = pro.bes.p_max_charge_kw + pro.bes.p_max_discharge_kw
                pro.i_bes = add(pro, f"bes:{pro.id}", "bes", span, pro.bes, "p_kw")
        for pro in self.prosumers:
            if pro.ehp is not None:
                span = pro.ehp.p_el_max_kw + pro.ehp.p_element_kw
                pro.i_ehp = add(pro, f"ehp:{pro.id}", "ehp", span, pro.ehp, "p_kw")
        for pro in self.prosumers:
            slots = []
            for k, bev in enumerate(pro.bevs):
                cls = "bev_v2g" if bev.v2g else "bev_v1g"
                span = 2.0 * bev.p_rated_kw if bev.v2g else bev.p_rated_kw
                slots.append((bev, add(pro, f"bev:{pro.id}.{k}", cls, span, bev, "p_kw")))
            pro.bev_slots = tuple(slots)
        for pro in self.prosumers:
            if pro.pv is not None:
                span = pro.pv.q_fraction_limit * pro.pv.s_rated_kva
                pro.i_inv = add(pro, f"inv:{pro.id}", "inv", span, pro.pv, "q_kvar")

        self.plant_labels = tuple(labels)
        self.plant_classes = tuple(classes)
        self.n_plants = len(labels)
        self._bounds = np.array(bounds, dtype=float) if bounds else np.empty((0, 2))
        self._plants = tuple(plants)
        self._plant_attrs = tuple(attrs)
        self._owners = tuple(owners)
        self._offsets = [0.0] * self.n_plants
        self._stale = bytearray(self.n_plants)
        self._all_stale = b"\x01" * self.n_plants
        self._values = np.fromiter(map(getattr, self._plants, self._plant_attrs),
                                   float, self.n_plants)
        for pro in self.prosumers:
            pro.offsets, pro.values = self._offsets, self._values

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
        return self._values.copy()

    # ------------------------------------------------------------------
    # integration

    def _step_interval(self, dt_total, substep, owners=None):
        """Integrate one interval.  With `owners`, the prosumers that own a
        plant flagged in ``_stale``, only they are integrated, stepping only
        their flagged plants; without, every plant is stepped."""
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
        stale = self._all_stale
        if owners is not None:
            prosumers, stale = owners, self._stale
        base_tod = self.start_tod_s + t0
        for pro in prosumers:
            pro.integrate(stale, self._amb, self._irr, base_tod, n, substep)
        self._last_substep_tod = (base_tod + (n - 1) * substep) % 86400.0
        self.t_s = t0 + dt_total

    def step_dispatch_interval(self, owners=None):
        self._step_interval(self.dispatch_step_s, self.internal_dt_s, owners)

    def _solve(self):
        """``(power flow, overloaded lines)`` of the injections, kept or new."""
        key = self._pack(*self.injections)
        solved = self._solved.pop(key, None)
        if solved is None:
            res = solve_power_flow(self.topology, self.injections)
            solved = (res, check_line_limits(res, self.topology))
            if len(self._solved) == SOLVED_MAX:
                del self._solved[next(iter(self._solved))]
        else:
            note_balance_error(solved[0].balance_error_pu)
        self._solved[key] = solved      # the most recently used goes last
        return solved

    def solve(self):
        return self._solve()[0]

    # ------------------------------------------------------------------
    # snapshots

    def snapshot(self):
        # tuples of lists, not of generators: tuple() over a generator grows
        # the tuple by resizing, which once raised the benchmark's peak RSS
        # by ~0.8 MB
        return (self.t_s,
                tuple([plant.get_state() for plant in self._plants]),
                tuple(self.injections))

    def restore(self, snap, stale=None):
        """Restore `snap`; with `stale`, only the listed plants and the clock
        (whose values the steps that follow write)."""
        self._end_of = None
        self.t_s, states, injections = snap
        if stale is not None:
            plants = self._plants
            for i in stale:
                plants[i].set_state(states[i])
            return
        for plant, state in zip(self._plants, states):
            plant.set_state(state)
        self._values[:] = np.fromiter(map(getattr, self._plants, self._plant_attrs),
                                      float, self.n_plants)
        self.injections[:] = injections

    # ------------------------------------------------------------------
    # reference handling

    def run_warmup(self):
        """Integrate local-control-only operation, then capture the baseline.

        The warmup integrates from ``-simulation.warmup_s`` to t=0 with all
        offsets zero, on the coarse schedule of
        :func:`~cellflex.scenario.warmup_schedule` (first-order lags use
        exact exponential updates, so coarse stepping does not degrade the
        settled state).  Each block starts where the one before it ends and
        holds the inputs sampled at its start.  Every battery, heat pump and
        EV runs all blocks in one ``warm_up`` call; the last block is then
        integrated once more with only the inverters stale, which sets the
        inputs, inverter outputs, bus injections and clock bookkeeping that
        the last interval leaves.  The scenario loader has checked the
        warmup against the profile window and the substep grid.  Must be
        called once, right after construction.
        """
        warmup_s = self.scenario.simulation.warmup_s
        substep, counts = warmup_schedule(self.internal_dt_s, warmup_s)
        self.set_offsets([0.0] * self.n_plants)
        # each block starts where the one before it ends
        starts = []
        t = -warmup_s
        for n in counts:
            starts.append(t)
            t = t + n * substep
        profiles = self.profiles
        amb = [profiles.ambient.value(t) for t in starts]
        irr = [profiles.irradiance.value(t) for t in starts]
        start_tods = [self.start_tod_s + t for t in starts]
        for pro in self.prosumers:
            pro.warm_up(starts, counts, amb, irr, start_tods, substep)
        # the last block once more, stepping only the inverters, which keep
        # no state: it leaves the inputs, inverter outputs and bus injections
        # of the last interval
        self._stale[:] = bytes(cls == "inv" for cls in self.plant_classes)
        self.t_s = starts[-1]
        self._step_interval(counts[-1] * substep, substep, self.prosumers)
        self._values[:] = np.fromiter(map(getattr, self._plants, self._plant_attrs),
                                      float, self.n_plants)
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

    def _integrate(self, snap, offsets):
        """Leave every plant at its end state from `snap` under the checked
        list `offsets`, restoring and stepping only the stale plants (see
        the module docstring)."""
        stale = owners = None
        if snap is self._end_of:
            stale, owners = _changed_offsets(offsets, self._end_offsets,
                                             self._owners, self._stale)
        self.restore(snap, stale)
        self._offsets[:] = offsets
        self.step_dispatch_interval(owners)
        self._end_of = snap
        self._end_offsets = offsets

    def _integrate_offsets(self, ref, offsets, record_trace):
        self._integrate(ref.snapshot, self._checked_offsets(offsets))
        try:
            res, n_violations = self._solve()
        except PowerFlowError as exc:
            return EvaluationResult(_NAN, _NAN, self._values.copy(),
                                    len(self.topology.lines), False, str(exc))
        return EvaluationResult(
            res.pcc.p_kw, res.pcc.q_kvar, self._values.copy(), n_violations,
            not n_violations, trace=self._trace_row(res) if record_trace else None)

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
        kW; Q in kVAr for an inverter) and ``(p_kw, q_kvar)`` per bus in
        ``topology.buses`` order, the slack's included (always zero),
        returned as arrays of shape ``(K,)`` and ``(K, n_buses, 2)``.  No power flow is solved and nothing is
        counted in ``n_evaluations``.  The other plants are integrated under
        `base` once, unless the twin already holds that end state; each
        value then restores and steps plant i alone.
        """
        offsets = self._checked_offsets(base)
        plant, attr = self._plants[i], self._plant_attrs[i]
        plant_values, injections = [], []
        for value in values:
            # a new list: the twin keeps the last one as its end offsets
            offsets = offsets.copy()
            offsets[i] = float(value)
            self._integrate(ref.snapshot, offsets)
            plant_values.append(getattr(plant, attr))
            injections.append(tuple(self.injections))
        return (np.array(plant_values, dtype=float),
                np.array(injections, dtype=float).reshape(
                    len(injections), len(self.topology.buses), 2))

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

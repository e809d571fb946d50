"""Controllable plant models of the energy cell.

Sign conventions used everywhere in the package:

* active power P in kW, consumption positive (a discharging battery or a
  generating PV plant contributes negative P at its bus);
* reactive power Q in kVAr, inductive consumption positive;
* state of charge as a fraction in [0, 1];
* temperatures in deg C, energies in kWh, times in seconds.

Dispatch interacts with plants through additive power offsets on top of each
plant's local control.  The local command is reduced to what the plant can
actually do first (an empty battery's discharge wish collapses to zero), the
offset is added on top, and the sum is clamped again — so a request beyond the
feasible range pins at the bound and the excess is ignored; the plant flags
this via its `saturated` attribute.  Commanded power then passes through the
first-order lag  dy/dt = (u - y)/T  before it acts on the stored energy.  The
lag's state is the plant's realized power (``p_kw``; the compressor's
``last_p_compressor_kw`` in a heat pump), pinned values included.  Input is
held over each substep, so the plants apply the exact solution
y <- y + (u - y)*(1 - exp(-dt/T)), which is stable at any step width; the
compiled loop computes that lag factor once per call.

A stateful plant's ``step`` advances it over one interval of n substeps of
dt seconds under an offset, its inputs held over the interval (only an EV's
time of day moves from substep to substep):
``BatteryStorage.step(offset_kw, n, wish_kw, dt)``,
``ElectricVehicle.step(offset_kw, n, base_tod_s, dt)`` and
``HeatPumpSystem.step(offset_kw, n, heat_kw, ambient_c, dt)``.  It calls its
model's compiled class entry (``_loops.c``, built on first import by
:mod:`cellflex._build`) with a class of one, which replays the Python loops
kept in the tests (``tests/plant_reference.py``) bit for bit.  The value a
``step`` returns, and the ``p_kw`` and ``saturated`` it leaves, are those of
the last substep.  The twin's warmup steps a whole class with no offset
over one shared schedule of intervals (blocks), each from the state the one
before it ends in: ``step_stores`` (all batteries, or all EVs) and
``step_heat_pumps`` call the same entry, which runs the plants' substeps in
step, so that their independent chains of divisions overlap, and leave each
plant as one ``step(0.0, ...)`` per block would, bit for bit.  A stateful
plant's ``probe`` calls it too, with a copy of the plant per offset from a
given state over one interval, and returns the power each copy realizes,
as ``step`` would return it, leaving the plant as it is (the twin's
``probe_plant``).
Batteries and EVs share one storage loop.  The PV inverter keeps no state
and is stepped once per interval; it computes its active power and reactive
band once per irradiance.  ``get_state`` holds each state variable once; a
heat pump's ``p_kw`` and ``q_kvar`` are re-derived by ``set_state``.

Each plant is built from its scenario params record (``BesParams``,
``PvParams``, ``EhpParams`` or ``BevParams`` in :mod:`cellflex.scenario`),
which holds every parameter default, and keeps it as ``params``; the
constructors trust it, since the loader checked it.  A stateful plant packs
the constants its loop reads into one bytes of C doubles, ``_consts``, once.

A store whose connected substep leaves its state bit-identical is settled:
its later connected substeps would repeat it, so a battery stops and an EV
jumps to its next trip window, stepped in a tight loop.
"""

import math
from struct import pack

from ._build import load_loops

__all__ = [
    "BatteryStorage",
    "PvInverter",
    "HeatPumpSystem",
    "ElectricVehicle",
    "clamp",
    "step_stores",
    "step_heat_pumps",
]


_loops = load_loops()
storage_class_substeps = _loops.storage_class_substeps
heat_pump_class_substeps = _loops.heat_pump_class_substeps


def clamp(value, lo, hi):
    """Clamp `value` into [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def _pack(*values):
    """`values` as one bytes of C doubles, the form the compiled loops read."""
    return pack(f"{len(values)}d", *values)


class _Storage:
    """SOC bookkeeping and lagged power response shared by batteries and EVs.

    Charging (P > 0) stores P*eta_charge, discharging (P < 0) drains
    |P|/eta_discharge from the store.  The per-substep SOC headroom is turned
    into a power bound before the lag so the state never leaves [0, 1]; if the
    lag's momentum still overshoots a collapsing headroom the output is pinned
    to the bound.  An EV's substeps in its trip window (``_away``: first
    departure, last return, in s of day) drain the running trip instead.
    """

    __slots__ = ("params", "soc", "p_kw", "saturated", "_consts")

    def __init__(self, params, lo, hi, away=None, trips=()):
        # rating bounds [lo, hi]; with no trip the window is never read
        self.params = params
        self.soc = params.soc0
        self.p_kw = 0.0
        self.saturated = False
        self._consts = _pack(lo, hi, params.capacity_kwh, params.eta_charge,
                             params.eta_discharge, params.time_constant_s,
                             *(away or (0.0, 0.0)),
                             *(x for trip in trips for x in trip))


class BatteryStorage(_Storage):
    """Stationary battery with SOC bookkeeping and a lagged power response."""

    __slots__ = ()

    def __init__(self, params):
        super().__init__(params, -params.p_max_discharge_kw,
                         params.p_max_charge_kw)

    def step(self, offset_kw, n, wish_kw, dt):
        """Advance n substeps of dt seconds toward the feasible part of
        `wish_kw` plus `offset_kw`.

        Returns the last substep's realized power.
        """
        self.soc, self.p_kw, self.saturated, _ = storage_class_substeps(
            (self.soc, self.p_kw, self.saturated, 0.0), (self._consts,),
            (offset_kw,), (wish_kw,), (n,), None, dt)
        return self.p_kw

    def probe(self, state, offsets, n, wish_kw, dt):
        """The power each offset of the tuple `offsets` realizes over one
        ``step(offset, n, wish_kw, dt)`` from `state`, a ``get_state``
        tuple, in one class call with a copy of this battery per offset.
        Leaves the battery as it is."""
        k = len(offsets)
        return storage_class_substeps(
            (*state, 0.0) * k, (self._consts,) * k, offsets, (wish_kw,) * k,
            (n,), None, dt)[1::4]

    def get_state(self):
        return (self.soc, self.p_kw, self.saturated)

    def set_state(self, state):
        self.soc, self.p_kw, self.saturated = state


class PvInverter:
    """PV inverter with active-power priority and a reactive capability band.

    p_ac = min(p_dc, s_rated); the reactive setpoint is clamped to
    +-min(q_fraction_limit * s_rated, sqrt(s_rated^2 - p_ac^2)), which keeps
    the operating point inside the apparent-power circle at all times.
    Reactive response is treated as instantaneous (power-electronic control is
    far faster than the simulation substep).
    """

    __slots__ = ("params", "p_ac_kw", "q_kvar", "saturated", "_irradiance",
                 "_p_ac", "_q_lo", "_q_hi")

    def __init__(self, params):
        self.params = params
        self.p_ac_kw = 0.0
        self.q_kvar = 0.0
        self.saturated = False
        self._irradiance = None

    def q_capability(self, p_ac_kw):
        """Symmetric reactive band (lo, hi) available at the given active power."""
        s = self.params.s_rated_kva
        circle = math.sqrt(max(0.0, s * s - p_ac_kw * p_ac_kw))
        m = min(self.params.q_fraction_limit * s, circle)
        return -m, m

    def active_power(self, irradiance_w_m2):
        """AC active power (generation, >= 0) at the given irradiance."""
        p_dc = self.params.p_peak_kwp * max(0.0, irradiance_w_m2) / 1000.0
        return min(p_dc, self.params.s_rated_kva)

    def step(self, irradiance_w_m2, q_setpoint_kvar):
        """Update output for the current irradiance and reactive setpoint.

        Returns (p_ac_kw, q_kvar) where p_ac is generation (>= 0, enters the
        bus balance with negative sign).
        """
        if irradiance_w_m2 != self._irradiance:
            # this irradiance's active power and reactive band (NaN: no hit)
            self._p_ac = self.active_power(irradiance_w_m2)
            self._q_lo, self._q_hi = self.q_capability(self._p_ac)
            self._irradiance = irradiance_w_m2
        q = clamp(q_setpoint_kvar, self._q_lo, self._q_hi)
        self.saturated = q != q_setpoint_kvar
        self.p_ac_kw = p_ac = self._p_ac
        self.q_kvar = q
        return p_ac, q

    def get_state(self):
        return (self.p_ac_kw, self.q_kvar, self.saturated)

    def set_state(self, state):
        self.p_ac_kw, self.q_kvar, self.saturated = state


class HeatPumpSystem:
    """Heat pump + resistive element feeding a hot-water storage.

    A two-point thermostat duty-cycles the compressor against the storage: it
    switches on at full power when the storage cools to `t_on_c` and off again
    once it reaches `t_off_c`.  Dispatch offsets add to that command; anything
    beyond the compressor rating spills into the heating element.  The
    compressor cannot lift the storage above `t_element_threshold_c` — beyond
    it only the element keeps heating, up to `t_max_c`.  The storage never
    leaves [t_min_c, t_max_c]: at the floor the system raises power to cover
    demand, at the ceiling it backs off.  Heat demand is always served from
    storage.

    Electric power is drawn at a fixed inductive power factor, so every kW of
    compressor or element power also consumes P*tan(phi) kVAr.
    """

    __slots__ = (
        "params", "tan_phi", "heating", "t_storage_c", "p_kw", "q_kvar",
        "saturated", "last_cop", "last_p_compressor_kw", "last_p_element_kw",
        "_consts",
    )

    def __init__(self, params):
        p = params
        self.params = p
        self.tan_phi = math.tan(math.acos(p.power_factor))
        self.heating = bool(p.heating0)
        self.t_storage_c = p.t0_c
        self.p_kw = 0.0
        self.q_kvar = 0.0
        self.saturated = False
        self.last_cop = 0.0
        self.last_p_compressor_kw = 0.0
        self.last_p_element_kw = 0.0
        self._consts = _pack(p.p_el_max_kw, p.p_element_kw, p.effectiveness,
                             p.t_on_c, p.t_off_c, p.t_min_c, p.t_max_c,
                             p.t_element_threshold_c, p.storage_kwh_per_k,
                             p.time_constant_s)

    def step(self, offset_kw, n, heat_kw, ambient_c, dt):
        """Advance n substeps of dt seconds under heat demand `heat_kw` and
        ambient temperature `ambient_c`.

        Returns the last substep's electric power, compressor plus element.
        The compressor's Carnot-based COP, effectiveness * T_sink /
        (T_sink - T_source) with the sink in Kelvin in the numerator, is
        taken at the tank temperature each substep starts from; the source
        is kept strictly below the sink so the cycle stays defined.
        """
        (self.t_storage_c, self.heating, self.saturated, self.last_cop,
         self.last_p_compressor_kw,
         self.last_p_element_kw) = heat_pump_class_substeps(
            (self.t_storage_c, self.heating, self.saturated, self.last_cop,
             self.last_p_compressor_kw, self.last_p_element_kw),
            (self._consts,), (offset_kw,), (heat_kw,), (n,), (ambient_c,),
            dt)
        self._derive_power()
        return self.p_kw

    def probe(self, state, offsets, n, heat_kw, ambient_c, dt):
        """The electric power each offset of the tuple `offsets` realizes
        over one ``step(offset, n, heat_kw, ambient_c, dt)`` from `state`, a
        ``get_state`` tuple, in one class call with a copy of this heat pump
        per offset.  Leaves the heat pump as it is."""
        t, heating, saturated, p_comp, p_elem = state
        k = len(offsets)
        # each substep takes its COP afresh, so the one handed in is unread
        row = heat_pump_class_substeps(
            (t, heating, saturated, 0.0, p_comp, p_elem) * k,
            (self._consts,) * k, offsets, (heat_kw,) * k, (n,), (ambient_c,),
            dt)
        return [a + b for a, b in zip(row[4::6], row[5::6])]

    def _derive_power(self):
        p_total = self.last_p_compressor_kw + self.last_p_element_kw
        self.p_kw = p_total
        self.q_kvar = p_total * self.tan_phi

    def get_state(self):
        return (self.t_storage_c, self.heating, self.saturated,
                self.last_p_compressor_kw, self.last_p_element_kw)

    def set_state(self, state):
        (self.t_storage_c, self.heating, self.saturated,
         self.last_p_compressor_kw, self.last_p_element_kw) = state
        self._derive_power()


class ElectricVehicle(_Storage):
    """Plug-in vehicle with daily trips and optional bidirectional charging.

    The vehicle is disconnected from its first departure to its last return
    each day; while away, each trip's consumption drains the battery uniformly
    over the trip interval and the charger output is exactly zero.  While
    connected, local control charges at rated power until the battery is full.
    Dispatch offsets move the command in [0, p_rated] (unidirectional) or
    [-p_rated, p_rated] (V2G).  Trip windows are given in hours of the day
    and kept in seconds.
    """

    __slots__ = ("trips", "_away", "trip_drain_kwh")

    def __init__(self, params):
        trips = tuple(sorted((d * 3600.0, r * 3600.0, float(e))
                             for d, r, e in params.trips))
        self.trips = trips
        self._away = (trips[0][0], trips[-1][1]) if trips else None
        self.trip_drain_kwh = 0.0
        p_rated = params.p_rated_kw
        super().__init__(params, -p_rated if params.v2g else 0.0, p_rated,
                         self._away, trips)

    def connected(self, time_of_day_s):
        if self._away is None:
            return True
        dep, ret = self._away
        return not (dep <= time_of_day_s < ret)

    def step(self, offset_kw, n, base_tod_s, dt):
        """Advance n substeps of dt seconds, the first starting at time of
        day `base_tod_s`.

        Returns the last substep's charger power (0 while away).
        """
        # with no trip window the loop hands trip_drain_kwh back as it was
        (self.soc, self.p_kw, self.saturated,
         self.trip_drain_kwh) = storage_class_substeps(
            (self.soc, self.p_kw, self.saturated, self.trip_drain_kwh),
            (self._consts,), (offset_kw,), None, (n,), (base_tod_s,), dt)
        return self.p_kw

    def probe(self, state, offsets, n, base_tod_s, dt):
        """The charger power each offset of the tuple `offsets` realizes
        over one ``step(offset, n, base_tod_s, dt)`` from `state`, a
        ``get_state`` tuple, in one class call with a copy of this EV per
        offset.  Leaves the EV as it is."""
        k = len(offsets)
        return storage_class_substeps(
            state * k, (self._consts,) * k, offsets, None, (n,),
            (base_tod_s,), dt)[1::4]

    def get_state(self):
        return (self.soc, self.p_kw, self.saturated, self.trip_drain_kwh)

    def set_state(self, state):
        self.soc, self.p_kw, self.saturated, self.trip_drain_kwh = state


def step_stores(stores, wishes, counts, tods, dt):
    """Step every store of `stores`, all batteries or all EVs, with no
    offset over the shared blocks of counts[j] substeps of dt seconds, in
    one compiled call that runs their substeps in step.

    Block j starts at time of day tods[j] (an EV's ``base_tod_s``; 0.0 for
    all with `tods` None, as a battery's blocks do); battery k wishes for
    wishes[k * len(counts) + j], and EVs, with `wishes` None, charge until
    full.  `counts`, `wishes` and `tods` are tuples.  Each store ends as
    one ``step(0.0, ...)`` per block would leave it, bit for bit.
    """
    evs = wishes is None
    row = iter(storage_class_substeps(
        tuple([x for s in stores for x in (
            s.soc, s.p_kw, s.saturated, s.trip_drain_kwh if evs else 0.0)]),
        tuple([s._consts for s in stores]), (0.0,) * len(stores), wishes,
        counts, tods, dt))
    for s in stores:
        s.soc, s.p_kw, s.saturated = next(row), next(row), next(row)
        drained = next(row)
        if evs:
            s.trip_drain_kwh = drained


def step_heat_pumps(heat_pumps, demands, counts, ambients, dt):
    """Step every heat pump of `heat_pumps` with no offset over the shared
    blocks of counts[j] substeps of dt seconds at ambient temperature
    ambients[j], heat pump k under heat demand demands[k * len(counts) + j],
    in one compiled call that runs their substeps in step.

    `counts`, `demands` and `ambients` are tuples.  Each heat pump ends as
    one ``step(0.0, ...)`` per block would leave it, bit for bit.
    """
    row = iter(heat_pump_class_substeps(
        tuple([x for h in heat_pumps for x in (
            h.t_storage_c, h.heating, h.saturated, h.last_cop,
            h.last_p_compressor_kw, h.last_p_element_kw)]),
        tuple([h._consts for h in heat_pumps]), (0.0,) * len(heat_pumps),
        demands, counts, ambients, dt))
    for h in heat_pumps:
        (h.t_storage_c, h.heating, h.saturated, h.last_cop,
         h.last_p_compressor_kw, h.last_p_element_kw) = (
            next(row), next(row), next(row), next(row), next(row), next(row))
        h._derive_power()

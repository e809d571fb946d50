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
y <- y + (u - y)*(1 - exp(-dt/T)), which is stable at any step width; a
plant computes that lag factor once per substep width and keeps it.

A stateful plant's ``step`` advances it over all n substeps of one interval
in one call it makes to a compiled loop (``_loops.c``, built on first import
by :mod:`cellflex._build`), which replays the Python loops kept in the tests
(``tests/plant_reference.py``) bit for bit.  The
inputs (heat demand, ambient temperature, a battery's PV surplus, the offset)
are held over the interval; only an EV's time of day moves from substep to
substep.  The value a ``step`` returns, and the ``p_kw`` and ``saturated``
it leaves, are those of the last substep.  Batteries and EVs share one
storage loop.  The PV inverter keeps no state and is stepped once per
interval; it computes its active power and reactive band once per
irradiance.  ``get_state`` holds each state variable once; a heat pump's
``p_kw`` and ``q_kvar`` are re-derived by ``set_state``.

The twin's warmup runs each stateful plant over many consecutive intervals
(blocks), each with its own substep count and held inputs.  A plant's
``warm_up`` does that in one call, into an entry of the same compiled
loop that runs its substep body block after block (``storage_blocks``,
``heat_pump_blocks``); it ends bit-identical to one ``step`` per block with
no offset.

Each plant is built from its scenario params record (``BesParams``,
``PvParams``, ``EhpParams`` or ``BevParams`` in :mod:`cellflex.scenario`),
which holds every parameter default; the constructors trust it, since the
loader checked it.

A store whose connected substep leaves its state bit-identical is settled:
its later connected substeps would repeat it, so a battery stops and an EV
jumps to its next trip window, stepped in a tight loop.
"""

import math
from itertools import repeat

from ._build import load_loops

__all__ = [
    "BatteryStorage",
    "PvInverter",
    "HeatPumpSystem",
    "ElectricVehicle",
    "clamp",
]


_loops = load_loops()
storage_substeps = _loops.storage_substeps
storage_blocks = _loops.storage_blocks
heat_pump_substeps = _loops.heat_pump_substeps
heat_pump_blocks = _loops.heat_pump_blocks


def clamp(value, lo, hi):
    """Clamp `value` into [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def _keep_lag(plant, dt):
    """Keep the share of the gap to a constant input `plant`'s lag closes in dt."""
    plant._lag = 1.0 - math.exp(-(dt / plant.time_constant_s))
    plant._lag_dt = dt


class _Storage:
    """SOC bookkeeping and lagged power response shared by batteries and EVs.

    Charging (P > 0) stores P*eta_charge, discharging (P < 0) drains
    |P|/eta_discharge from the store.  The per-substep SOC headroom is turned
    into a power bound before the lag so the state never leaves [0, 1]; if the
    lag's momentum still overshoots a collapsing headroom the output is pinned
    to the bound.  An EV's substeps in its trip window (``_away``: first
    departure, last return, in s of day) drain the running trip instead.
    """

    __slots__ = ("capacity_kwh", "eta_charge", "eta_discharge", "time_constant_s",
                 "soc", "p_kw", "saturated", "_lag", "_lag_dt")

    def __init__(self, params):
        self.capacity_kwh = params.capacity_kwh
        self.eta_charge = params.eta_charge
        self.eta_discharge = params.eta_discharge
        self.time_constant_s = params.time_constant_s
        self.soc = params.soc0
        self.p_kw = 0.0
        self.saturated = False
        self._lag_dt = None


class BatteryStorage(_Storage):
    """Stationary battery with SOC bookkeeping and a lagged power response."""

    __slots__ = ("p_max_charge_kw", "p_max_discharge_kw")

    def __init__(self, params):
        super().__init__(params)
        self.p_max_charge_kw = params.p_max_charge_kw
        self.p_max_discharge_kw = params.p_max_discharge_kw

    def step(self, wish_kw, offset_kw, n, dt):
        """Advance n substeps toward the feasible part of `wish_kw` plus `offset_kw`.

        Returns the last substep's realized power.
        """
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        self.soc, self.p_kw, self.saturated, _ = storage_substeps(
            self.soc, self.p_kw, self.saturated, 0.0, wish_kw, offset_kw,
            -self.p_max_discharge_kw, self.p_max_charge_kw, n, dt, 0.0,
            self.capacity_kwh, self.eta_charge, self.eta_discharge, self._lag,
            None, ())
        return self.p_kw

    def warm_up(self, counts, wishes, dt):
        """``step(wishes[j], 0.0, counts[j], dt)`` for each block j, in one call."""
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        self.soc, self.p_kw, self.saturated, _ = storage_blocks(
            self.soc, self.p_kw, self.saturated, 0.0,
            -self.p_max_discharge_kw, self.p_max_charge_kw, dt,
            self.capacity_kwh, self.eta_charge, self.eta_discharge, self._lag,
            None, (), tuple(zip(counts, wishes, repeat(0.0))))

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

    __slots__ = ("s_rated_kva", "p_peak_kwp", "q_fraction_limit",
                 "p_ac_kw", "q_kvar", "saturated", "_irradiance", "_p_ac",
                 "_q_lo", "_q_hi")

    def __init__(self, params):
        self.s_rated_kva = params.s_rated_kva
        self.p_peak_kwp = params.p_peak_kwp
        self.q_fraction_limit = params.q_fraction_limit
        self.p_ac_kw = 0.0
        self.q_kvar = 0.0
        self.saturated = False
        self._irradiance = None

    def q_capability(self, p_ac_kw):
        """Symmetric reactive band (lo, hi) available at the given active power."""
        s = self.s_rated_kva
        circle = math.sqrt(max(0.0, s * s - p_ac_kw * p_ac_kw))
        m = min(self.q_fraction_limit * s, circle)
        return -m, m

    def active_power(self, irradiance_w_m2):
        """AC active power (generation, >= 0) at the given irradiance."""
        p_dc = self.p_peak_kwp * max(0.0, irradiance_w_m2) / 1000.0
        return min(p_dc, self.s_rated_kva)

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
        "p_el_max_kw", "p_element_kw", "storage_kwh_per_k", "effectiveness",
        "t_on_c", "t_off_c", "t_min_c", "t_max_c", "t_element_threshold_c",
        "tan_phi", "time_constant_s", "heating", "t_storage_c", "p_kw", "q_kvar",
        "saturated", "last_cop", "last_p_compressor_kw", "last_p_element_kw",
        "_lag", "_lag_dt",
    )

    def __init__(self, params):
        p = params
        self.p_el_max_kw = p.p_el_max_kw
        self.p_element_kw = p.p_element_kw
        self.storage_kwh_per_k = p.storage_kwh_per_k
        self.effectiveness = p.effectiveness
        self.t_on_c = p.t_on_c
        self.t_off_c = p.t_off_c
        self.t_min_c = p.t_min_c
        self.t_max_c = p.t_max_c
        self.t_element_threshold_c = p.t_element_threshold_c
        self.tan_phi = math.tan(math.acos(p.power_factor))
        self.time_constant_s = p.time_constant_s
        self.heating = bool(p.heating0)
        self.t_storage_c = p.t0_c
        self.p_kw = 0.0
        self.q_kvar = 0.0
        self.saturated = False
        self.last_cop = 0.0
        self.last_p_compressor_kw = 0.0
        self.last_p_element_kw = 0.0
        self._lag_dt = None

    def step(self, heat_demand_kw, ambient_c, offset_kw, n, dt):
        """Advance n substeps of dt seconds; returns the last one's electric power.

        The electric power is compressor plus element.  The compressor's
        Carnot-based COP, effectiveness * T_sink / (T_sink - T_source) with
        the sink in Kelvin in the numerator, is taken at the tank temperature
        each substep starts from; the source is kept strictly below the sink
        so the cycle stays defined.
        """
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        (self.t_storage_c, self.heating, self.saturated, self.last_cop,
         self.last_p_compressor_kw,
         self.last_p_element_kw) = heat_pump_substeps(
            self.t_storage_c, self.heating, self.saturated, self.last_cop,
            self.last_p_compressor_kw, self.last_p_element_kw, heat_demand_kw,
            ambient_c, offset_kw, n, dt, self.p_el_max_kw, self.p_element_kw,
            self.effectiveness, self.t_on_c, self.t_off_c, self.t_min_c,
            self.t_max_c, self.t_element_threshold_c, self.storage_kwh_per_k,
            self._lag)
        self._derive_power()
        return self.p_kw

    def warm_up(self, counts, heat_demands, ambients, dt):
        """``step(heat_demands[j], ambients[j], 0.0, counts[j], dt)`` for
        each block j, in one call."""
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        (self.t_storage_c, self.heating, self.saturated, self.last_cop,
         self.last_p_compressor_kw,
         self.last_p_element_kw) = heat_pump_blocks(
            self.t_storage_c, self.heating, self.saturated, self.last_cop,
            self.last_p_compressor_kw, self.last_p_element_kw, dt,
            self.p_el_max_kw, self.p_element_kw, self.effectiveness,
            self.t_on_c, self.t_off_c, self.t_min_c, self.t_max_c,
            self.t_element_threshold_c, self.storage_kwh_per_k, self._lag,
            tuple(zip(counts, heat_demands, ambients)))
        self._derive_power()

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

    __slots__ = ("p_rated_kw", "v2g", "trips", "_away", "trip_drain_kwh")

    def __init__(self, params):
        super().__init__(params)
        trips = tuple(sorted((d * 3600.0, r * 3600.0, float(e))
                             for d, r, e in params.trips))
        self.p_rated_kw = params.p_rated_kw
        self.v2g = bool(params.v2g)
        self.trips = trips
        self._away = (trips[0][0], trips[-1][1]) if trips else None
        self.trip_drain_kwh = 0.0

    def connected(self, time_of_day_s):
        if self._away is None:
            return True
        dep, ret = self._away
        return not (dep <= time_of_day_s < ret)

    def step(self, offset_kw, base_tod_s, n, dt):
        """Advance n substeps, the first starting at time of day `base_tod_s`.

        Returns the last substep's charger power (0 while away).
        """
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        # with no trip window the loop hands trip_drain_kwh back as it was
        (self.soc, self.p_kw, self.saturated,
         self.trip_drain_kwh) = storage_substeps(
            self.soc, self.p_kw, self.saturated, self.trip_drain_kwh, None,
            offset_kw, -self.p_rated_kw if self.v2g else 0.0, self.p_rated_kw,
            n, dt, base_tod_s, self.capacity_kwh, self.eta_charge,
            self.eta_discharge, self._lag, self._away, self.trips)
        return self.p_kw

    def warm_up(self, counts, start_tods, dt):
        """``step(0.0, start_tods[j], counts[j], dt)`` for each block j, in
        one call."""
        if dt != self._lag_dt:
            _keep_lag(self, dt)
        (self.soc, self.p_kw, self.saturated,
         self.trip_drain_kwh) = storage_blocks(
            self.soc, self.p_kw, self.saturated, self.trip_drain_kwh,
            -self.p_rated_kw if self.v2g else 0.0, self.p_rated_kw, dt,
            self.capacity_kwh, self.eta_charge, self.eta_discharge, self._lag,
            self._away, self.trips, tuple(zip(counts, repeat(None), start_tods)))

    def get_state(self):
        return (self.soc, self.p_kw, self.saturated, self.trip_drain_kwh)

    def set_state(self, state):
        self.soc, self.p_kw, self.saturated, self.trip_drain_kwh = state

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
y <- y + (u - y)*(1 - exp(-dt/T)) (with `lag_factor` computed once per
call), which is stable at any step width.

A stateful plant's ``step`` advances it over all n substeps of one interval
in a single call to a compiled loop (``_loops.c``, built on first import by
:mod:`cellflex._build`): the Python side reads the plant's parameters and
state, the loop runs the substeps, and the state is written back at the
end.  The loops replay the Python loops kept in the tests
(``tests/plant_reference.py``) bit for bit; the lag factor, their only
``exp``, is computed here and passed in.  The
inputs (heat demand, ambient temperature, a battery's PV surplus, the offset)
are held over the interval; only an EV's time of day moves from substep to
substep.  The value a ``step`` returns, and the ``p_kw`` and ``saturated``
it leaves, are those of the last substep.  Batteries and EVs share one
storage loop (`_Storage._integrate`).  The PV inverter keeps no state and is
stepped once per interval.  ``get_state`` holds each state variable once; a
heat pump's ``p_kw`` and ``q_kvar`` are re-derived by ``set_state``.

Each plant is built from its scenario params record (``BesParams``,
``PvParams``, ``EhpParams`` or ``BevParams`` in :mod:`cellflex.scenario`),
which holds every parameter default; the constructors trust it, since the
loader checked it.

A store whose connected substep leaves its state bit-identical is settled:
its later connected substeps would repeat it, so a battery stops and an EV
jumps to its next trip window, stepped in a tight loop.
"""

import math

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
heat_pump_substeps = _loops.heat_pump_substeps


def clamp(value, lo, hi):
    """Clamp `value` into [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def lag_factor(dt, time_constant_s):
    """Share of the gap to a constant input that the lag closes in dt seconds."""
    return 1.0 - math.exp(-(dt / time_constant_s))


class _Storage:
    """SOC bookkeeping and lagged power response shared by batteries and EVs.

    Charging (P > 0) stores P*eta_charge, discharging (P < 0) drains
    |P|/eta_discharge from the store.  The per-substep SOC headroom is turned
    into a power bound before the lag so the state never leaves [0, 1]; if the
    lag's momentum still overshoots a collapsing headroom the output is pinned
    to the bound.
    """

    __slots__ = ("capacity_kwh", "eta_charge", "eta_discharge", "time_constant_s",
                 "soc", "p_kw", "saturated")

    # a battery never leaves: no trip window (first departure, last return,
    # in s of day), no trips and nothing drained by them
    _away = None
    trips = ()
    trip_drain_kwh = 0.0

    def __init__(self, params):
        self.capacity_kwh = params.capacity_kwh
        self.eta_charge = params.eta_charge
        self.eta_discharge = params.eta_discharge
        self.time_constant_s = params.time_constant_s
        self.soc = params.soc0
        self.p_kw = 0.0
        self.saturated = False

    def _integrate(self, wish_kw, offset_kw, lo, hi, n, dt, base_tod_s=0.0):
        """Advance n substeps of dt seconds; returns the last one's realized power.

        Each substep commands the local wish plus `offset_kw`, limited to
        [lo, hi] and to the SOC headroom.  The local wish is `wish_kw` reduced
        to what the store can deliver (a battery's PV surplus) or, when
        `wish_kw` is None, `hi` until full (an EV charging).  Substeps whose
        time of day falls in the `_away` window take the trip branch instead:
        the running trip drains the store uniformly over its window.

        A connected substep that leaves ``soc`` and ``p`` bit-identical
        (sign of zero included) is settled: a battery stops there, an EV
        jumps to its next away substep, which ends the settled state.
        """
        (self.soc, self.p_kw, self.saturated, drained) = storage_substeps(
            self.soc, self.p_kw, self.saturated, self.trip_drain_kwh, wish_kw,
            offset_kw, lo, hi, n, dt, base_tod_s, self.capacity_kwh,
            self.eta_charge, self.eta_discharge,
            lag_factor(dt, self.time_constant_s), self._away, self.trips)
        if self._away is not None:
            self.trip_drain_kwh = drained
        return self.p_kw


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
        return self._integrate(wish_kw, offset_kw, -self.p_max_discharge_kw,
                               self.p_max_charge_kw, n, dt)

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
                 "p_ac_kw", "q_kvar", "saturated")

    def __init__(self, params):
        self.s_rated_kva = params.s_rated_kva
        self.p_peak_kwp = params.p_peak_kwp
        self.q_fraction_limit = params.q_fraction_limit
        self.p_ac_kw = 0.0
        self.q_kvar = 0.0
        self.saturated = False

    def q_capability(self, p_ac_kw):
        """Symmetric reactive band (lo, hi) available at the given active power."""
        s = self.s_rated_kva
        circle = math.sqrt(max(0.0, s * s - p_ac_kw * p_ac_kw))
        m = min(self.q_fraction_limit * s, circle)
        return -m, m

    def step(self, irradiance_w_m2, q_setpoint_kvar):
        """Update output for the current irradiance and reactive setpoint.

        Returns (p_ac_kw, q_kvar) where p_ac is generation (>= 0, enters the
        bus balance with negative sign).
        """
        p_dc = self.p_peak_kwp * max(0.0, irradiance_w_m2) / 1000.0
        p_ac = min(p_dc, self.s_rated_kva)
        lo, hi = self.q_capability(p_ac)
        q = clamp(q_setpoint_kvar, lo, hi)
        self.saturated = q != q_setpoint_kvar
        self.p_ac_kw = p_ac
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

    def step(self, heat_demand_kw, ambient_c, offset_kw, n, dt):
        """Advance n substeps of dt seconds; returns the last one's electric power.

        The electric power is compressor plus element.  The compressor's
        Carnot-based COP, effectiveness * T_sink / (T_sink - T_source) with
        the sink in Kelvin in the numerator, is taken at the tank temperature
        each substep starts from; the source is kept strictly below the sink
        so the cycle stays defined.
        """
        (self.t_storage_c, self.heating, self.saturated, self.last_cop,
         self.last_p_compressor_kw,
         self.last_p_element_kw) = heat_pump_substeps(
            self.t_storage_c, self.heating, self.saturated, self.last_cop,
            self.last_p_compressor_kw, self.last_p_element_kw, heat_demand_kw,
            ambient_c, offset_kw, n, dt, self.p_el_max_kw, self.p_element_kw,
            self.effectiveness, self.t_on_c, self.t_off_c, self.t_min_c,
            self.t_max_c, self.t_element_threshold_c, self.storage_kwh_per_k,
            lag_factor(dt, self.time_constant_s))
        self._derive_power()
        return self.p_kw

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
        lo = -self.p_rated_kw if self.v2g else 0.0
        return self._integrate(None, offset_kw, lo, self.p_rated_kw, n, dt,
                               base_tod_s)

    def get_state(self):
        return (self.soc, self.p_kw, self.saturated, self.trip_drain_kwh)

    def set_state(self, state):
        self.soc, self.p_kw, self.saturated, self.trip_drain_kwh = state

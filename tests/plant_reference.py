"""The plants' substep loops in Python, kept as references for the tests.

The package runs these loops compiled (``cellflex/_loops.c``); the tests
check it against the Python here bit for bit.

``integrate_reference`` is the storage loop behind ``BatteryStorage.step``
and ``ElectricVehicle.step`` as it stood before it learned to stop a settled
battery, to jump a settled EV to its next away substep and to run each trip
window in a tight inner loop.  It visits every substep one at a time.  Call
it with a ``BatteryStorage`` or ``ElectricVehicle`` as ``self``;
``battery_step_reference`` and ``ev_step_reference`` call it with the
bounds each ``step`` passes.

``heat_pump_step_reference`` is the Python loop behind
``HeatPumpSystem.step``.  Call it with a ``HeatPumpSystem`` as ``self``.

``use_references(plant)`` makes a plant step through these loops: its
class's ``step``, which calls the compiled loop, is overridden.  Its
``warm_up`` is not, and still runs the compiled loop; the plain twin
(``twin_reference``) warms up through ``step`` instead.
"""

import math

from cellflex.plants import (BatteryStorage, ElectricVehicle, HeatPumpSystem,
                             clamp)


def lag_factor(dt, time_constant_s):
    """Share of the gap to a constant input that the lag closes in dt seconds."""
    return 1.0 - math.exp(-(dt / time_constant_s))


def integrate_reference(self, wish_kw, offset_kw, lo, hi, n, dt, base_tod_s=0.0):
    """Advance n substeps of dt seconds; returns the last one's realized power.

    Each substep commands the local wish plus `offset_kw`, limited to
    [lo, hi] and to the SOC headroom.  The local wish is `wish_kw` reduced
    to what the store can deliver (a battery's PV surplus) or, when
    `wish_kw` is None, `hi` until full (an EV charging).  Substeps whose
    time of day falls in the `_away` window take the trip branch instead:
    the running trip drains the store uniformly over its window.

    A connected substep that leaves ``soc`` and ``p`` bit-identical
    (sign of zero included) is settled: its inputs are held over the
    interval, so every later connected substep would repeat it exactly
    and is skipped; an away substep ends the settled state.
    """
    cap = self.capacity_kwh
    eta_c = self.eta_charge
    eta_d = self.eta_discharge
    charge_div = eta_c * dt
    lag = lag_factor(dt, self.time_constant_s)
    away = self._away
    soc = self.soc
    p = self.p_kw
    saturated = self.saturated
    settled = False
    for k in range(n):
        if away is not None:
            tod = (base_tod_s + k * dt) % 86400.0
            if away[0] <= tod < away[1]:
                for dep, ret, energy in self.trips:
                    if dep <= tod < ret:
                        # min(uniform drain, stored energy), ties to
                        # the uniform drain
                        drain = energy * dt / (ret - dep)
                        stored = soc * cap
                        if stored < drain:
                            drain = stored
                        self.trip_drain_kwh += drain
                        soc = soc - drain / cap
                        break
                p = 0.0
                saturated = offset_kw != 0.0
                settled = False
                continue
        if settled:
            continue
        # SOC headroom over this substep, as charge and discharge power,
        # folded into the rating bounds (on a tie the rating is kept)
        room_c = (1.0 - soc) * cap * 3600.0 / charge_div
        room_d = soc * cap * 3600.0 * eta_d / dt
        lo_k = -room_d if -room_d > lo else lo
        hi_k = room_c if room_c < hi else hi
        if wish_kw is None:
            wanted = (hi if soc < 1.0 else 0.0) + offset_kw
        else:
            w = wish_kw
            if w < lo_k:
                w = lo_k
            elif w > hi_k:
                w = hi_k
            wanted = w + offset_kw
        cmd = wanted
        if cmd < lo_k:
            cmd = lo_k
        elif cmd > hi_k:
            cmd = hi_k
        saturated = cmd != wanted
        p_start = p
        soc_start = soc
        p = p + (cmd - p) * lag
        # pin an overshoot of the lag to the same bounds
        pinned = p
        if pinned < lo_k:
            pinned = lo_k
        elif pinned > hi_k:
            pinned = hi_k
        if pinned != p:
            p = pinned
            saturated = True
        if p > 0.0:
            soc += p * eta_c * dt / 3600.0 / cap
        elif p < 0.0:
            soc += p / eta_d * dt / 3600.0 / cap
        if soc < 0.0:
            soc = 0.0
        elif soc > 1.0:
            soc = 1.0
        if p == p_start and soc == soc_start \
                and math.copysign(1.0, p) == math.copysign(1.0, p_start) \
                and math.copysign(1.0, soc) == math.copysign(1.0, soc_start):
            settled = True
    self.soc = soc
    self.p_kw = p
    self.saturated = saturated
    return p


def battery_step_reference(self, wish_kw, offset_kw, n, dt):
    """``BatteryStorage.step`` through `integrate_reference`."""
    return integrate_reference(self, wish_kw, offset_kw, -self.p_max_discharge_kw,
                               self.p_max_charge_kw, n, dt)


def ev_step_reference(self, offset_kw, base_tod_s, n, dt):
    """``ElectricVehicle.step`` through `integrate_reference`."""
    lo = -self.p_rated_kw if self.v2g else 0.0
    return integrate_reference(self, None, offset_kw, lo, self.p_rated_kw, n, dt,
                               base_tod_s)


def heat_pump_step_reference(self, heat_demand_kw, ambient_c, offset_kw, n, dt):
    """Advance n substeps of dt seconds; returns the last one's electric power.

    The electric power is compressor plus element.  The compressor's
    Carnot-based COP, effectiveness * T_sink / (T_sink - T_source) with
    the sink in Kelvin in the numerator, is taken at the tank temperature
    each substep starts from; the source is kept strictly below the sink
    so the cycle stays defined.
    """
    p_el_max = self.p_el_max_kw
    p_element = self.p_element_kw
    p_max_total = p_el_max + p_element
    effectiveness = self.effectiveness
    t_on, t_off = self.t_on_c, self.t_off_c
    t_min, t_max = self.t_min_c, self.t_max_c
    t_threshold = self.t_element_threshold_c
    c3600 = self.storage_kwh_per_k * 3600.0
    lag = lag_factor(dt, self.time_constant_s)
    t = self.t_storage_c
    heating = self.heating
    saturated = self.saturated
    cop = self.last_cop
    p_comp = self.last_p_compressor_kw
    p_elem = self.last_p_element_kw
    for _ in range(n):
        # min(ambient_c, t - 1.0), ties to the ambient temperature
        t_source = t - 1.0 if t - 1.0 < ambient_c else ambient_c
        cop = effectiveness * (t + 273.15) / (t - t_source)
        if heating:
            if t >= t_off:
                heating = False
        elif t <= t_on:
            heating = True
        wanted = (p_el_max if heating else 0.0) + offset_kw
        if wanted < 0.0:
            cmd_total = 0.0
        elif wanted > p_max_total:
            cmd_total = p_max_total
        else:
            cmd_total = wanted
        saturated = cmd_total != wanted
        # min(wanted part, rating), ties to the wanted part
        if t >= t_threshold:
            cmd_comp = 0.0
            cmd_elem = p_element if p_element < cmd_total else cmd_total
        else:
            cmd_comp = p_el_max if p_el_max < cmd_total else cmd_total
            rest = cmd_total - cmd_comp
            cmd_elem = p_element if p_element < rest else rest
        p_comp = p_comp + (cmd_comp - p_comp) * lag
        p_elem = cmd_elem
        t_new = t + (cop * p_comp + p_elem - heat_demand_kw) * dt / c3600

        if t_new < t_min:
            # floor hold: cover demand plus the shortfall down to t_min
            heating = True
            need = heat_demand_kw + (t_min - t) * c3600 / dt
            p_comp = clamp(need / cop, 0.0, p_el_max)
            p_elem = clamp(need - cop * p_comp, 0.0, p_element)
            t_new = t + (cop * p_comp + p_elem - heat_demand_kw) * dt / c3600
            if t_new < t_min:  # undersized for this demand: pin
                t_new = t_min
            saturated = True
        elif t_new > t_max:
            # ceiling: shed the element first, then the compressor
            allowed = heat_demand_kw + (t_max - t) * c3600 / dt
            p_elem = clamp(allowed - cop * p_comp, 0.0, p_elem)
            if cop * p_comp + p_elem > allowed:
                p_elem = 0.0
                p_comp = max(0.0, allowed) / cop
            t_new = t + (cop * p_comp + p_elem - heat_demand_kw) * dt / c3600
            if t_new > t_max:
                t_new = t_max
            saturated = True
        t = t_new

    self.t_storage_c = t
    self.heating = heating
    self.saturated = saturated
    self.last_cop = cop
    self.last_p_compressor_kw = p_comp
    self.last_p_element_kw = p_elem
    self._derive_power()
    return self.p_kw


def _reference_class(cls, method, loop, **attrs):
    return type(f"Reference{cls.__name__}", (cls,),
                {"__slots__": (), method: loop, **attrs})


REFERENCE_CLASSES = {
    # a battery never leaves: no trip window for integrate_reference
    BatteryStorage: _reference_class(BatteryStorage, "step",
                                     battery_step_reference, _away=None),
    ElectricVehicle: _reference_class(ElectricVehicle, "step",
                                      ev_step_reference),
    HeatPumpSystem: _reference_class(HeatPumpSystem, "step",
                                     heat_pump_step_reference),
}


def use_references(plant):
    """Make `plant` step through the Python loops above, in place; a PV
    inverter, which has no substep loop, is left as it is."""
    plant.__class__ = REFERENCE_CLASSES.get(type(plant), type(plant))
    return plant

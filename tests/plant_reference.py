"""Per-substep storage loop kept as a reference for the plant tests.

``integrate_reference`` is ``_Storage._integrate`` as it stood before the
loop learned to stop a settled battery, to jump a settled EV to its next
away substep and to run each trip window in a tight inner loop.  It visits
every substep one at a time, so the tests can check the faster loop against
it bit for bit.  Call it with a ``BatteryStorage`` or ``ElectricVehicle`` as
``self``.
"""

import math

from cellflex.plants import lag_factor


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


import copy
import math
from itertools import repeat
from struct import pack

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellflex.plants import (
    BatteryStorage,
    ElectricVehicle,
    HeatPumpSystem,
    PvInverter,
    clamp,
    heat_pump_class_substeps,
    step_heat_pumps,
    step_stores,
    storage_class_substeps,
)
from cellflex.scenario import BesParams, BevParams, EhpParams, PvParams
from plant_reference import use_references


def first_device(key, values, message):
    """An edit of the bundled cell's JSON document that sets ``values`` on the
    first prosumer's ``key`` block (its first EV for "bevs"); it returns the
    block's JSON path followed by ``message``.  The plants check no
    parameter, so the loader must refuse every value they cannot take."""
    def edit(document):
        i, pro = next((i, p) for i, p in enumerate(document["prosumers"])
                      if p.get(key))
        if key == "bevs":
            pro["bevs"][0].update(values)
            return f"prosumers[{i}].bevs[0]{message}"
        pro[key].update(values)
        return f"prosumers[{i}].{key}{message}"
    return edit


def cop_after_one_substep(t_tank, ambient, effectiveness=0.5):
    """The COP a heat pump ran its first substep at, from tank temperature
    `t_tank` and ambient temperature `ambient`."""
    ehp = make_ehp(t0_c=t_tank, effectiveness=effectiveness)
    ehp.step(0.0, 1, 0.0, ambient, 15.0)
    return ehp.last_cop


class TestCop:
    def test_reference_values(self):
        # 0.5 * (45 + 273.15) / (45 - 0) = 3.535
        assert cop_after_one_substep(45.0, 0.0) == pytest.approx(3.535, abs=1e-6)
        # near-degenerate spread blows the COP up: 0.5 * 318.15 / 1
        assert cop_after_one_substep(45.0, 44.0) == pytest.approx(159.075, abs=1e-9)

    def test_source_stays_below_the_sink(self):
        # an ambient less than 1 K below the tank, or above it, is read as
        # a source 1 K below the tank
        for ambient in (44.5, 45.0, 60.0):
            assert cop_after_one_substep(45.0, ambient) == 0.5 * (45.0 + 273.15)

    @given(t_sink=st.floats(35, 90), spread=st.floats(1, 60), eff=st.floats(0.2, 0.8))
    def test_positive_and_decreasing_in_spread(self, t_sink, spread, eff):
        cop = cop_after_one_substep(t_sink, t_sink - spread, eff)
        cop_wider = cop_after_one_substep(t_sink, t_sink - spread - 1.0, eff)
        assert cop > 0.0
        assert cop_wider < cop


def battery_at(params, p_kw):
    """A battery that already delivers `p_kw` (a new one starts at 0 kW)."""
    bes = BatteryStorage(params)
    bes.p_kw = p_kw
    return bes


def lag_battery(time_constant_s, p0_kw=0.0):
    """A battery whose ratings and SOC headroom never bind below 20 kW, so
    its realized power is the first-order lag of its local wish."""
    return battery_at(BesParams(1000.0, 20.0, 20.0,
                                time_constant_s=time_constant_s), p0_kw)


class TestFirstOrderResponse:
    def test_step_response_matches_analytic(self):
        # y(t) = u*(1 - exp(-t/T)); at t = T the response is 1 - e^-1
        bes = lag_battery(10.0)
        dt = 0.1  # T/100
        for _ in range(100):
            y = bes.step(0.0, 1, 1.0, dt)
        expected = 1.0 - math.exp(-1.0)  # 0.6321205588285577
        assert abs(y - expected) / expected < 1e-4
        assert y == pytest.approx(0.6321205588285577, rel=1e-6)

    def test_analytic_error_over_five_time_constants(self):
        bes = lag_battery(2.0)
        dt = 0.02  # T/100
        t = 0.0
        for _ in range(int(5 * 2.0 / dt)):
            y = bes.step(0.0, 1, 1.0, dt)
            t += dt
            exact = 1.0 - math.exp(-t / 2.0)
            assert abs(y - exact) / exact < 1e-4

    def test_result_does_not_depend_on_step_size(self):
        # the exponential update is exact for piecewise-constant input, so
        # 150 substeps of 0.1 s and one 15 s substep end at the same power
        fine = lag_battery(2.0, p0_kw=0.3)
        fine.step(0.0, 150, 4.0, 0.1)
        coarse = lag_battery(2.0, p0_kw=0.3)
        coarse.step(0.0, 1, 4.0, 15.0)
        assert coarse.p_kw == pytest.approx(fine.p_kw, abs=1e-12)

    def test_exact_branch_is_exact(self):
        y = lag_battery(2.0).step(0.0, 1, 1.0, 6.0)
        assert y == pytest.approx(1.0 - math.exp(-3.0), abs=1e-14)

    @pytest.mark.parametrize("dt, tau",
                             [(5.0, 2.0), (5.0, 7.0), (0.1, 2.0), (15.0, 8.0)])
    def test_the_loops_take_the_lag_factor_python_takes(self, dt, tau):
        # from rest toward 1 kW, one substep realizes the lag factor itself,
        # bit for bit 1 - exp(-(dt / T)) with math.exp's exp (the first three
        # pairs round differently as -expm1(-(dt / T)))
        lag = 1.0 - math.exp(-(dt / tau))
        assert lag_battery(tau).step(0.0, 1, 1.0, dt) == lag
        ehp = make_ehp(p_el_max_kw=1.0, storage_kwh_per_k=1000.0,
                       heating0=True, time_constant_s=tau)
        ehp.step(0.0, 1, 0.0, 0.0, dt)
        assert ehp.last_p_compressor_kw == lag

    def test_parameter_errors(self, validate_refuses):
        for key in ("bes", "ehp", "bevs"):
            for value, message in ((0.0, "must be > 0, got 0"),
                                   (-2.0, "must be > 0, got -2"),
                                   (math.nan, "expected a finite number, got nan")):
                validate_refuses(first_device(key, {"time_constant_s": value},
                                              f".time_constant_s: {message}"))

    @given(
        y0=st.floats(-10, 10),
        u=st.floats(-10, 10),
        time_constant=st.floats(0.5, 20),
    )
    def test_never_overshoots_constant_target(self, y0, u, time_constant):
        bes = lag_battery(time_constant, p0_kw=y0)
        target = u
        side = math.copysign(1.0, target - y0) if target != y0 else 0.0
        for _ in range(50):
            y = bes.step(0.0, 1, u, time_constant / 10.0)
            if side:
                assert math.copysign(1.0, target - y) == side or abs(target - y) < 1e-12


def test_clamp():
    assert clamp(5.0, 0.0, 1.0) == 1.0
    assert clamp(-5.0, 0.0, 1.0) == 0.0
    assert clamp(0.5, 0.0, 1.0) == 0.5


class TestBatteryStorage:
    def test_starts_at_rest(self):
        # every store starts at 0 kW; battery_at sets another start power
        assert BatteryStorage(BesParams(10.0, 5.0, 5.0)).p_kw == 0.0
        assert make_bev().p_kw == 0.0

    def test_soc_update_at_settled_power(self):
        # 5 kW for 15 s into 10 kWh at unit efficiency: d_soc = 5*15/3600/10
        bes = battery_at(BesParams(10.0, 5.0, 5.0, eta_charge=1.0, eta_discharge=1.0,
                                   soc0=0.5), 5.0)
        p = bes.step(5.0, 1, 0.0, 15.0)
        assert p == pytest.approx(5.0, abs=1e-12)
        assert bes.soc == pytest.approx(0.5020833333333333, abs=1e-12)

    def test_charge_efficiency_applies(self):
        bes = battery_at(BesParams(10.0, 5.0, 5.0, eta_charge=0.95, eta_discharge=0.95,
                                   soc0=0.0), 4.0)
        bes.step(4.0, 1, 0.0, 900.0)
        assert bes.soc == pytest.approx(4.0 * 0.95 * 900 / 3600 / 10.0, abs=1e-12)

    def test_discharge_efficiency_applies(self):
        bes = battery_at(BesParams(10.0, 5.0, 5.0, eta_charge=0.95, eta_discharge=0.95,
                                   soc0=1.0), -4.0)
        bes.step(-4.0, 1, 0.0, 900.0)
        assert bes.soc == pytest.approx(1.0 - 4.0 / 0.95 * 900 / 3600 / 10.0, abs=1e-12)

    def test_full_battery_refuses_charge(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=1.0))
        p = bes.step(5.0, 1, 0.0, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert bes.soc == 1.0
        assert bes.saturated

    def test_empty_battery_refuses_discharge(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.0))
        p = bes.step(-5.0, 1, 0.0, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert bes.soc == 0.0
        assert bes.saturated

    def test_power_limit_clamp(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 3.0, soc0=0.5))
        bes.step(99.0, 1, 0.0, 1.0)
        assert bes.saturated
        for _ in range(100):
            p = bes.step(99.0, 1, 0.0, 1.0)
        assert p == pytest.approx(5.0, abs=1e-9)
        for _ in range(200):
            p = bes.step(-99.0, 1, 0.0, 1.0)
        assert p == pytest.approx(-3.0, abs=1e-9)

    def test_feasible_command_reflects_soc(self):
        # the local wish is reduced to what an empty battery can deliver; a
        # lag far faster than the step realizes the reduced wish exactly
        def empty():
            return BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.0,
                                            time_constant_s=1e-3))
        assert empty().step(0.0, 1, -2.0, 15.0) == 0.0
        assert empty().step(0.0, 1, 2.0, 15.0) == 2.0

    def test_lag_shapes_response(self):
        bes = BatteryStorage(BesParams(50.0, 10.0, 10.0, soc0=0.5, time_constant_s=2.0))
        p = bes.step(10.0, 1, 0.0, 1.0)
        assert 0.0 < p < 10.0  # still rising toward the setpoint

    @given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=60))
    def test_soc_and_power_stay_bounded(self, setpoints):
        bes = BatteryStorage(BesParams(2.0, 5.0, 5.0, soc0=0.5))
        for sp in setpoints:
            p = bes.step(sp, 1, 0.0, 5.0)
            assert 0.0 <= bes.soc <= 1.0
            assert -5.0 - 1e-9 <= p <= 5.0 + 1e-9

    def test_state_round_trip(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.5))
        bes.step(3.0, 1, 0.0, 1.0)
        state = bes.get_state()
        bes.step(-2.0, 1, 0.0, 1.0)
        bes.set_state(state)
        assert bes.get_state() == state

    def test_parameter_errors(self, validate_refuses):
        for values, message in [
                ({"capacity_kwh": 0.0}, ".capacity_kwh: must be > 0, got 0"),
                ({"p_max_charge_kw": -1.0}, ".p_max_charge_kw: must be >= 0, got -1"),
                ({"eta_charge": 0.0}, ".eta_charge: must be > 0, got 0"),
                ({"soc0": 1.5}, ".soc0: must be <= 1, got 1.5")]:
            validate_refuses(first_device("bes", values, message))


class TestPvInverter:
    def test_reactive_band_at_night(self):
        inv = PvInverter(PvParams(10.0, 10.0, q_fraction_limit=0.30))
        lo, hi = inv.q_capability(0.0)
        assert (lo, hi) == (-3.0, 3.0)

    def test_reactive_band_near_full_output(self):
        inv = PvInverter(PvParams(10.0, 10.0))
        lo, hi = inv.q_capability(9.8)
        assert hi == pytest.approx(math.sqrt(10.0 ** 2 - 9.8 ** 2), abs=1e-12)
        assert hi == pytest.approx(1.98997, abs=1e-5)
        assert lo == -hi

    def test_no_reactive_at_rated_active_power(self):
        inv = PvInverter(PvParams(10.0, 10.0))
        p, q = inv.step(1000.0, 2.0)
        assert p == 10.0
        assert q == 0.0
        assert inv.saturated

    def test_active_power_priority_clips_dc_surplus(self):
        inv = PvInverter(PvParams(5.0, 6.0))
        p, _ = inv.step(1200.0, 0.0)
        assert p == 5.0

    @given(irr=st.floats(0, 1500), q_set=st.floats(-10, 10), p_peak=st.floats(0, 12))
    def test_apparent_power_never_exceeds_rating(self, irr, q_set, p_peak):
        inv = PvInverter(PvParams(8.0, p_peak))
        p, q = inv.step(irr, q_set)
        assert math.hypot(p, q) <= 8.0 + 1e-9
        assert abs(q) <= 0.30 * 8.0 + 1e-9

    def test_parameter_errors(self, validate_refuses):
        for values, message in [
                ({"s_rated_kva": 0.0}, ".s_rated_kva: must be > 0, got 0"),
                ({"p_peak_kwp": -1.0}, ".p_peak_kwp: must be >= 0, got -1"),
                ({"q_fraction_limit": 1.5},
                 ".q_fraction_limit: must be <= 1, got 1.5")]:
            validate_refuses(first_device("pv", values, message))


def make_ehp(**kw):
    defaults = dict(p_el_max_kw=3.0, p_element_kw=5.0, storage_kwh_per_k=0.4,
                    effectiveness=0.5, t0_c=45.0)
    defaults.update(kw)
    return HeatPumpSystem(EhpParams(**defaults))


class TestHeatPumpSystem:
    def test_duty_cycles_inside_thermostat_band(self):
        ehp = make_ehp(t0_c=44.0)
        temps, powers = [], []
        heat_in = 0.0
        n = int(12 * 3600 / 15)
        for _ in range(n):
            ehp.step(0.0, 1, 2.0, 0.0, 15.0)
            temps.append(ehp.t_storage_c)
            powers.append(ehp.p_kw)
            heat_in += (ehp.last_cop * ehp.last_p_compressor_kw
                        + ehp.last_p_element_kw) * 15.0 / 3600.0
        # two-point control keeps the tank inside the band (small overshoot
        # from the discrete step is allowed)
        assert min(temps) >= 42.0 - 0.2
        assert max(temps) <= 48.0 + 0.2
        # the compressor alternates between off (a decaying lag tail) and
        # lag-smoothed full power
        assert any(p < 1e-6 for p in powers[n // 2:])
        assert any(p > 2.9 for p in powers[n // 2:])
        # over many cycles the heat pumped matches the demand served
        assert heat_in == pytest.approx(2.0 * n * 15.0 / 3600.0, rel=0.05)

    def test_energy_balance_inside_bounds(self):
        ehp = make_ehp()
        heat_in = 0.0
        demand_total = 0.0
        dt = 15.0
        t_start = ehp.t_storage_c
        for k in range(600):
            demand = 2.0 + 1.5 * math.sin(k / 25.0)
            offset = 1.0 if 100 <= k < 250 else 0.0
            ehp.step(offset, 1, demand, -2.0, dt)
            assert 35.0 < ehp.t_storage_c < 90.0  # balance only claimed inside bounds
            heat_in += (ehp.last_cop * ehp.last_p_compressor_kw
                        + ehp.last_p_element_kw) * dt / 3600.0
            demand_total += demand * dt / 3600.0
        delta_e = (ehp.t_storage_c - t_start) * ehp.params.storage_kwh_per_k
        assert delta_e == pytest.approx(heat_in - demand_total, rel=1e-9, abs=1e-9)

    def test_floor_hold_covers_demand(self):
        ehp = make_ehp(t0_c=35.5)
        for _ in range(400):
            # a large negative offset pushes down
            ehp.step(-99.0, 1, 4.0, -5.0, 15.0)
            assert ehp.t_storage_c >= 35.0 - 1e-9
        # at the floor the system pumps exactly the demand-covering power
        assert ehp.t_storage_c == pytest.approx(35.0, abs=0.05)
        heat_in = ehp.last_cop * ehp.last_p_compressor_kw + ehp.last_p_element_kw
        assert heat_in == pytest.approx(4.0, abs=0.05)
        assert ehp.saturated

    def test_floor_hold_switches_the_thermostat_on(self):
        # a small tank just above the switch-on edge, thermostat off, drains
        # past the floor within one substep: the floor hold pins it there
        # and turns the thermostat on
        ehp = make_ehp(storage_kwh_per_k=0.02, t0_c=42.5)
        ehp.step(0.0, 1, 40.0, 0.0, 15.0)
        assert ehp.t_storage_c == pytest.approx(35.0, abs=1e-9)
        assert ehp.heating and ehp.saturated

    def test_undersized_system_pins_at_floor(self):
        ehp = make_ehp(p_el_max_kw=0.5, p_element_kw=0.3, t0_c=36.0)
        for _ in range(400):
            ehp.step(0.0, 1, 5.0, -5.0, 15.0)
        assert ehp.t_storage_c == pytest.approx(35.0, abs=1e-9)

    def test_element_extends_beyond_compressor_threshold(self):
        ehp = make_ehp()
        seen_above_threshold = False
        for _ in range(int(4 * 3600 / 15)):
            ehp.step(99.0, 1, 0.0, 0.0, 15.0)
            assert ehp.t_storage_c <= 90.0 + 1e-9
            if ehp.t_storage_c > 51.0:
                seen_above_threshold = True
                # compressor is locked out above the element threshold; only
                # its lag tail may still be draining
                assert ehp.last_p_compressor_kw < 0.5
        assert seen_above_threshold
        assert ehp.t_storage_c == pytest.approx(90.0, abs=0.05)

    def test_element_inactive_without_offset(self):
        ehp = make_ehp(t0_c=45.0)
        for _ in range(200):
            ehp.step(0.0, 1, 2.0, 0.0, 15.0)
            assert ehp.last_p_element_kw == 0.0

    def test_negative_offset_clamps_at_zero_power(self):
        # tank above t_on: thermostat off, a negative command cannot realize
        ehp = make_ehp(t0_c=46.0)
        p = ehp.step(-5.0, 1, 1.0, 0.0, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert ehp.saturated

    def test_reactive_power_tracks_fixed_power_factor(self):
        ehp = make_ehp()
        ehp.step(1.0, 1, 3.0, 0.0, 15.0)
        assert ehp.q_kvar == pytest.approx(ehp.p_kw * math.tan(math.acos(0.95)), abs=1e-12)

    @given(st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=50))
    def test_temperature_stays_bounded(self, offsets):
        ehp = make_ehp(t0_c=40.0)
        for off in offsets:
            ehp.step(off, 1, 3.0, -2.0, 15.0)
            assert 35.0 - 1e-9 <= ehp.t_storage_c <= 90.0 + 1e-9

    def test_state_round_trip(self):
        ehp = make_ehp()
        ehp.step(0.5, 1, 2.0, 0.0, 15.0)
        state = ehp.get_state()
        ehp.step(-0.5, 1, 3.0, 1.0, 15.0)
        ehp.set_state(state)
        assert ehp.get_state() == state

    def test_parameter_errors(self, validate_refuses):
        band = ": need t_min_c <= t_on_c < t_off_c <= t_element_threshold_c <= t_max_c"
        for values, message in [
                ({"p_el_max_kw": 0.0}, ".p_el_max_kw: must be > 0, got 0"),
                ({"storage_kwh_per_k": -0.1},
                 ".storage_kwh_per_k: must be > 0, got -0.1"),
                ({"t0_c": 20.0},
                 ".t0_c: must lie in [t_min_c, t_max_c] = [35, 90], got 20"),
                ({"t_on_c": 48.0, "t_off_c": 42.0}, band),
                ({"t_off_c": 60.0}, band),          # above the element threshold
                # a non-positive effectiveness never reaches the cycle
                ({"effectiveness": 0.0}, ".effectiveness: must be > 0, got 0"),
                ({"effectiveness": -0.5}, ".effectiveness: must be > 0, got -0.5"),
                ({"effectiveness": 1.5}, ".effectiveness: must be <= 1, got 1.5")]:
            validate_refuses(first_device("ehp", values, message))


def make_bev(**kw):
    defaults = dict(capacity_kwh=40.0, p_rated_kw=11.0, soc0=0.5,
                    trips=((8.0, 18.0, 8.0),))
    defaults.update(kw)
    return ElectricVehicle(BevParams(**defaults))


class TestElectricVehicle:
    def test_connected_window(self):
        bev = make_bev()
        assert bev.connected(7 * 3600.0)
        assert not bev.connected(8 * 3600.0)
        assert not bev.connected(12 * 3600.0)
        assert bev.connected(18 * 3600.0)

    def test_away_power_is_exactly_zero(self):
        bev = make_bev()
        p = bev.step(5.0, 1, 12 * 3600.0, 900.0)
        assert p == 0.0
        assert bev.p_kw == 0.0

    def test_trip_drains_uniformly(self):
        bev = make_bev(soc0=0.9)
        # whole trip window at 900 s steps: 8 kWh over 10 h
        t = 8 * 3600.0
        while t < 18 * 3600.0:
            bev.step(0.0, 1, t, 900.0)
            t += 900.0
        assert bev.soc == pytest.approx(0.9 - 8.0 / 40.0, abs=1e-9)
        assert bev.trip_drain_kwh == pytest.approx(8.0, abs=1e-9)

    def test_charges_at_rated_until_full(self):
        bev = make_bev(soc0=0.995, eta_charge=1.0, time_constant_s=1e-3)
        p = bev.step(0.0, 1, 19 * 3600.0, 60.0)
        assert p == pytest.approx(11.0, abs=1e-6)
        for _ in range(60):
            p = bev.step(0.0, 1, 19 * 3600.0, 60.0)
        assert bev.soc == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_unidirectional_floor_is_zero(self):
        bev = make_bev(v2g=False)
        for _ in range(20):
            p = bev.step(-99.0, 1, 19 * 3600.0, 5.0)
        assert p == pytest.approx(0.0, abs=1e-9)
        assert bev.saturated

    def test_v2g_discharges_to_negative_rated(self):
        bev = make_bev(v2g=True)
        for _ in range(40):
            p = bev.step(-99.0, 1, 19 * 3600.0, 5.0)
        assert p == pytest.approx(-11.0, abs=1e-9)

    def test_no_trips_always_connected(self):
        bev = ElectricVehicle(BevParams(40.0, 11.0, trips=()))
        assert bev.connected(12 * 3600.0)

    @given(st.lists(st.floats(-25, 25, allow_nan=False), min_size=4, max_size=40),
           st.booleans())
    def test_daily_energy_bookkeeping(self, offsets, v2g):
        bev = make_bev(soc0=0.6, v2g=v2g)
        charged = 0.0
        discharged = 0.0
        dt = 86400.0 / len(offsets)
        t = 0.0
        for off in offsets:
            p = bev.step(off, 1, t % 86400.0, dt)
            assert 0.0 <= bev.soc <= 1.0
            if p > 0:
                charged += p * bev.params.eta_charge * dt / 3600.0
            else:
                discharged += -p / bev.params.eta_discharge * dt / 3600.0
            t += dt
        delta = (bev.soc - 0.6) * bev.params.capacity_kwh
        assert delta == pytest.approx(charged - discharged - bev.trip_drain_kwh,
                                      abs=1e-7)

    def test_efficiency_validation(self, validate_refuses):
        for field in ("eta_charge", "eta_discharge"):
            for eta, message in ((0.0, "must be > 0, got 0"),
                                 (1.5, "must be <= 1, got 1.5"),
                                 (math.nan, "expected a finite number, got nan")):
                validate_refuses(first_device("bevs", {field: eta},
                                              f".{field}: {message}"))

    def test_trip_validation(self, validate_refuses):
        def trips(*windows):
            return {"trips": [{"depart_hour": dep, "return_hour": ret, "energy_kwh": e}
                              for dep, ret, e in windows]}

        for values, message in [
                (trips((10.0, 9.0, 5.0)),
                 ".trips[0].return_hour: must be > depart_hour 10, got 9"),
                (trips((0.0, 25.0, 5.0)),
                 ".trips[0].return_hour: must be <= 24, got 25"),
                (trips((8.0, 12.0, 5.0), (11.0, 14.0, 5.0)),
                 ".trips: trip 11-14 h departs before the trip returning at 12 h "
                 "is back"),
                (trips((8.0, 12.0, -5.0)),
                 ".trips[0].energy_kwh: must be >= 0, got -5")]:
            validate_refuses(first_device("bevs", values, message))

    def test_state_round_trip(self):
        bev = make_bev()
        bev.step(2.0, 1, 19 * 3600.0, 5.0)
        state = bev.get_state()
        bev.step(-2.0, 1, 20 * 3600.0, 5.0)
        bev.set_state(state)
        assert bev.get_state() == state


def end_bits(plant):
    """A plant's end state and power, with floats at full precision."""
    return repr((plant.get_state(), plant.p_kw))


def substep_by_substep(plant, run, start, n, dt):
    """End bits after n one-substep steps from `start`; ``run(tod_offset_s,
    n)`` steps the plant."""
    plant.set_state(start)
    for k in range(n):
        run(k * dt, 1)
    return end_bits(plant)


socs = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]))
powers = st.one_of(st.floats(-11.0, 11.0), st.sampled_from([0.0, -0.0]))
intervals = st.sampled_from([(2, 5.0), (4, 15.0), (60, 15.0), (60, 1.0)])


class TestSettledSubsteps:
    """A store whose state stops changing mid-interval skips its remaining
    connected substeps: one n-substep step ends bit-identical to n
    one-substep steps."""

    @given(soc=socs, p0=powers, wish=st.floats(-10.0, 10.0),
           offset=st.one_of(st.floats(-16.0, 16.0), st.just(0.0)),
           grid=intervals)
    def test_battery(self, soc, p0, wish, offset, grid):
        bes = BatteryStorage(BesParams(0.05, 5.0, 3.0))
        n, dt = grid
        start = (soc, p0, False)
        want = substep_by_substep(
            bes, lambda _tod, m: bes.step(offset, m, wish, dt),
            start, n, dt)
        bes.set_state(start)
        bes.step(offset, n, wish, dt)
        assert end_bits(bes) == want

    @given(soc=socs, p0=powers, drained=st.floats(0.0, 5.0), v2g=st.booleans(),
           trip=st.sampled_from([(8.0, 18.0, 8.0), (12.0, 12.1, 0.2)]),
           tod_h=st.sampled_from([7.9, 8.0, 11.95, 12.0, 17.9, 18.0, 23.99]),
           offset=st.one_of(st.floats(-24.0, 24.0), st.just(0.0)),
           grid=intervals)
    def test_ev(self, soc, p0, drained, v2g, trip, tod_h, offset, grid):
        # 7.9 h and 17.9 h put a trip edge inside the longer intervals; the
        # six-minute trip fits inside a 15-minute one from 11.95 h, so the
        # vehicle leaves and returns within one step
        bev = make_bev(capacity_kwh=0.5, v2g=v2g, trips=(trip,))
        n, dt = grid
        if not v2g:
            p0 = abs(p0)
        start = (soc, p0, False, drained)
        want = substep_by_substep(
            bev,
            lambda tod, m: bev.step(offset, m, tod_h * 3600.0 + tod, dt),
            start, n, dt)
        bev.set_state(start)
        bev.step(offset, n, tod_h * 3600.0, dt)
        assert end_bits(bev) == want

    def test_a_trip_inside_the_interval_ends_the_settled_state(self):
        # full and idle, the vehicle settles on its first substep, leaves for
        # six minutes of the fifteen and charges again once back
        bev = make_bev(capacity_kwh=0.5, p_rated_kw=1.0,
                       trips=((12.0, 12.1, 0.2),))
        start = (1.0, 0.0, False, 0.0)

        def run(tod, m):
            bev.step(0.0, m, 11.95 * 3600.0 + tod, 15.0)

        want = substep_by_substep(bev, run, start, 60, 15.0)
        bev.set_state(start)
        run(0.0, 60)
        assert end_bits(bev) == want
        assert bev.p_kw > 0.0 and bev.soc < 1.0


def check_replay(plant, run, start, offset, other):
    """Step from `start` under `offset`, then under `other`, then from
    `start` under `offset` again: the replay must end bit-identical, with the
    same returned and reactive power, so a plant whose offset is unchanged
    can keep the end state of its last integration."""

    def end():
        p = run(offset)
        return repr((p, getattr(plant, "q_kvar", None))) + end_bits(plant)

    plant.set_state(start)
    want = end()
    plant.set_state(start)
    run(other)
    run(other)
    plant.set_state(start)
    assert end() == want


offsets = st.one_of(st.floats(-24.0, 24.0), st.sampled_from([0.0, -0.0]))


class TestReplayFromState:
    """A step depends only on the state restored before it and its inputs:
    whatever the plant did in between, it ends bit-identical."""

    @given(soc=socs, p0=powers, saturated=st.booleans(),
           wish=st.floats(-10.0, 10.0), offset=offsets, other=offsets,
           grid=intervals)
    def test_battery(self, soc, p0, saturated, wish, offset, other, grid):
        bes = BatteryStorage(BesParams(0.05, 5.0, 3.0))
        n, dt = grid
        check_replay(bes, lambda off: bes.step(off, n, wish, dt),
                     (soc, p0, saturated), offset, other)

    @given(soc=socs, p0=powers, saturated=st.booleans(),
           drained=st.floats(0.0, 5.0), v2g=st.booleans(),
           tod_h=st.sampled_from([7.99, 8.0, 12.0, 17.99, 18.0, 19.0, 23.99]),
           offset=offsets, other=offsets, grid=intervals)
    def test_ev(self, soc, p0, saturated, drained, v2g, tod_h, offset, other,
                grid):
        # 7.99 h and 17.99 h put a trip edge inside most intervals, 12 h
        # makes the whole interval a trip
        bev = make_bev(capacity_kwh=0.5, v2g=v2g)
        n, dt = grid
        if not v2g:
            p0 = abs(p0)
        check_replay(bev,
                     lambda off: bev.step(off, n, tod_h * 3600.0, dt),
                     (soc, p0, saturated, drained), offset, other)

    @given(t0=st.one_of(st.floats(35.0, 90.0), st.sampled_from([35.0, 90.0])),
           heating=st.booleans(), saturated=st.booleans(),
           p_comp=st.floats(0.0, 3.0), p_elem=st.floats(0.0, 5.0),
           demand=st.floats(0.0, 40.0), ambient=st.floats(-10.0, 20.0),
           offset=offsets, other=offsets, grid=intervals)
    def test_heat_pump(self, t0, heating, saturated, p_comp, p_elem, demand,
                       ambient, offset, other, grid):
        ehp = make_ehp()
        n, dt = grid
        check_replay(ehp,
                     lambda off: ehp.step(off, n, demand, ambient, dt),
                     (t0, heating, saturated, p_comp, p_elem), offset, other)


def with_reference(plant):
    """A copy of `plant` that steps through the Python reference loops."""
    return use_references(copy.copy(plant))


def storage_bits(plant, p):
    """Returned power, SOC, lag state, saturation and trip drain, at full
    precision (sign of zero and NaN included)."""
    return repr((p, plant.soc, plant.p_kw, plant.saturated,
                 getattr(plant, "trip_drain_kwh", None)))


def check_against_reference(plant, ref, bits, start, steps):
    """Run `steps` (callables taking the plant) from `start` on `plant` and
    on its reference copy `ref`; every step must end bit-identical."""
    plant.set_state(start)
    ref.set_state(start)
    for step in steps:
        assert bits(plant, step(plant)) == bits(ref, step(ref))


def check_storage(plant, start, steps):
    check_against_reference(plant, with_reference(plant), storage_bits,
                            start, steps)


# a day of warmup blocks (60 x 15 s) and a run of dispatch steps (3 x 5 s)
WARMUP_BLOCK = (60, 15.0)
DISPATCH_STEP = (3, 5.0)
loop_offsets = st.one_of(st.floats(-24.0, 24.0),
                         st.sampled_from([0.0, -0.0, math.nan]))
# interval starts: midnight wraps inside a block, warmup starts before the
# run's day (negative), and trip edges
interval_starts = st.one_of(
    st.floats(-86400.0, 2 * 86400.0),
    st.sampled_from([-14400.0, 0.0, 85500.0, 86100.0, 86399.0, 28440.0,
                     43200.0, 64800.0]))
trip_hours = st.one_of(st.floats(0.0, 24.0),
                       st.sampled_from([0.0, 7.9, 8.0, 12.0, 12.1, 18.0, 24.0]))


@st.composite
def trip_days(draw):
    """One or two trips; two leave a gap at home inside the away window.
    Energies up to 80 kWh empty the smaller stores mid-trip."""
    k = draw(st.sampled_from([1, 2]))
    hours = sorted(draw(st.lists(trip_hours, min_size=2 * k, max_size=2 * k,
                                 unique=True)))
    energies = draw(st.lists(st.one_of(st.floats(0.0, 80.0), st.just(0.0)),
                             min_size=k, max_size=k))
    return tuple((hours[2 * j], hours[2 * j + 1], energies[j])
                 for j in range(k))


class TestStorageLoopReference:
    """The compiled storage loop, which stops a settled battery, jumps a
    settled EV to its next away substep and runs trip windows in a tight
    inner loop, ends every step bit-identical to the per-substep Python
    reference loop."""

    @given(capacity=st.floats(0.01, 20.0), p_charge=st.floats(0.0, 10.0),
           p_discharge=st.floats(0.0, 10.0), eta=st.floats(0.5, 1.0),
           tau=st.floats(0.1, 30.0), soc=socs, p0=powers,
           saturated=st.booleans(),
           wishes=st.lists(st.one_of(st.floats(-10.0, 10.0),
                                     st.sampled_from([0.0, -0.0, math.nan])),
                           min_size=1, max_size=24),
           offset=loop_offsets,
           grid=st.sampled_from([WARMUP_BLOCK, DISPATCH_STEP]))
    def test_battery(self, capacity, p_charge, p_discharge, eta, tau, soc, p0,
                     saturated, wishes, offset, grid):
        bes = BatteryStorage(BesParams(capacity, p_charge, p_discharge,
                                       eta_charge=eta, time_constant_s=tau))
        n, dt = grid
        check_storage(
            bes, (soc, p0, saturated),
            [lambda b, w=w: b.step(offset, n, w, dt)
             for w in wishes])

    @given(capacity=st.floats(0.2, 60.0), p_rated=st.floats(0.5, 22.0),
           v2g=st.booleans(), eta=st.floats(0.5, 1.0),
           tau=st.floats(0.1, 30.0), trips=trip_days(), soc=socs, p0=powers,
           saturated=st.booleans(), drained=st.floats(0.0, 5.0),
           offset=loop_offsets, start=interval_starts)
    def test_ev_over_a_day_of_warmup_blocks(self, capacity, p_rated, v2g, eta,
                                            tau, trips, soc, p0, saturated,
                                            drained, offset, start):
        bev = ElectricVehicle(BevParams(capacity, p_rated, v2g=v2g,
                                        eta_discharge=eta, time_constant_s=tau,
                                        trips=trips))
        n, dt = WARMUP_BLOCK
        check_storage(
            bev, (soc, p0, saturated, drained),
            [lambda b, j=j: b.step(offset, n, start + j * n * dt, dt)
             for j in range(96)])

    @given(capacity=st.floats(0.2, 60.0), p_rated=st.floats(0.5, 22.0),
           v2g=st.booleans(), trips=trip_days(), soc=socs, p0=powers,
           saturated=st.booleans(), drained=st.floats(0.0, 5.0),
           offsets_=st.lists(loop_offsets, min_size=1, max_size=40),
           start=interval_starts)
    def test_ev_over_dispatch_steps(self, capacity, p_rated, v2g, trips, soc,
                                    p0, saturated, drained, offsets_, start):
        bev = ElectricVehicle(BevParams(capacity, p_rated, v2g=v2g,
                                        trips=trips))
        n, dt = DISPATCH_STEP
        check_storage(
            bev, (soc, p0, saturated, drained),
            [lambda b, j=j, off=off: b.step(off, n, start + j * n * dt, dt)
             for j, off in enumerate(offsets_)])

    @given(capacity=st.floats(0.2, 60.0), v2g=st.booleans(), trips=trip_days(),
           soc=socs, p0=powers, drained=st.floats(0.0, 5.0),
           offset=loop_offsets, start=interval_starts,
           grid=st.sampled_from([(30, 3600.0), (50, 1200.0), (2, 43200.0)]))
    def test_ev_over_intervals_of_half_a_day_and_more(
            self, capacity, v2g, trips, soc, p0, drained, offset, start, grid):
        # a settled EV may stop early only when the rest of its interval
        # spans under half a day; longer ones cross a whole trip window
        bev = ElectricVehicle(BevParams(capacity, 11.0, v2g=v2g, trips=trips))
        n, dt = grid
        check_storage(
            bev, (soc, p0, False, drained),
            [lambda b, j=j: b.step(offset, n, start + j * n * dt, dt)
             for j in range(3)])

    @pytest.mark.parametrize("trip, start, grid", [
        # a warmup block from 23:55 wraps into a trip that starts at midnight
        ((0.0, 1.0, 5.0), 86100.0, WARMUP_BLOCK),
        # 30 hourly substeps from midnight end at 05:00 next day, both ends
        # outside the 10-12 h trip, which lies in between
        ((10.0, 12.0, 5.0), 0.0, (30, 3600.0)),
    ])
    def test_a_settled_ev_still_leaves_later_in_the_interval(self, trip, start,
                                                            grid):
        # full and idle, the vehicle settles on its first substep
        bev = make_bev(soc0=1.0, trips=(trip,))
        ref = with_reference(bev)
        n, dt = grid
        for plant in (bev, ref):
            plant.step(0.0, n, start, dt)
        assert storage_bits(bev, bev.p_kw) == storage_bits(ref, ref.p_kw)
        assert bev.trip_drain_kwh > 0.0

    @pytest.mark.parametrize("start", [-86400.0, -86385.0, -1e-9, -0.0, 0.0,
                                       86385.0, 86400.0, 172785.0, 172800.0])
    def test_times_of_day_on_the_period_edges(self, start):
        # the loop's time of day skips the fmod call inside one day either
        # side of [0, 86400 s); a trip from midnight to 00:00:36 puts the
        # away window on the edges of those ranges
        bev = make_bev(capacity_kwh=5.0, trips=((0.0, 0.01, 0.5),))
        ref = with_reference(bev)
        for plant in (bev, ref):
            plant.step(0.0, 4, start, 15.0)
        assert storage_bits(bev, bev.p_kw) == storage_bits(ref, ref.p_kw)

    def test_a_trip_that_empties_the_store_mid_window(self):
        # 30 kWh over two hours from a 5 kWh store: empty after 20 minutes,
        # so most of the window takes the stored-energy branch
        bev = make_bev(capacity_kwh=5.0, soc0=1.0, trips=((8.0, 10.0, 30.0),))
        ref = with_reference(bev)
        n, dt = WARMUP_BLOCK
        for plant in (bev, ref):
            for j in range(8):
                plant.step(0.0, n, 8 * 3600.0 + j * 900.0, dt)
        assert storage_bits(bev, bev.p_kw) == storage_bits(ref, ref.p_kw)
        assert abs(bev.soc) < 1e-12
        assert bev.trip_drain_kwh == pytest.approx(5.0)


def heat_pump_bits(plant, p):
    """Returned power, tank temperature, thermostat, saturation, COP,
    compressor, element and reactive power, at full precision."""
    return repr((p, plant.t_storage_c, plant.heating, plant.saturated,
                 plant.last_cop, plant.last_p_compressor_kw,
                 plant.last_p_element_kw, plant.p_kw, plant.q_kvar))


def check_heat_pump(plant, start, steps):
    check_against_reference(plant, with_reference(plant), heat_pump_bits,
                            start, steps)


# the default band: floor 35, switch-on 42, switch-off 48, element
# threshold 50, ceiling 90; each edge and its neighbouring floats
HP_EDGES = [35.0, 42.0, 48.0, 50.0, 90.0]
tank_temps = st.one_of(
    st.floats(35.0, 90.0),
    st.sampled_from(HP_EDGES + [math.nextafter(t, d) for t in HP_EDGES
                                for d in (0.0, 100.0)]))


class TestHeatPumpLoopReference:
    """The compiled heat-pump loop ends every step bit-identical to the
    Python reference loop: thermostat, compressor/element split, floor hold
    and ceiling shedding, over dispatch steps (3 x 5 s) and warmup blocks
    (60 x 15 s)."""

    @given(p_el_max=st.floats(0.1, 6.0), p_element=st.floats(0.0, 9.0),
           storage=st.floats(0.02, 2.0), effectiveness=st.floats(0.2, 1.0),
           tau=st.floats(0.1, 30.0), t0=tank_temps, heating=st.booleans(),
           saturated=st.booleans(), p_comp=st.floats(0.0, 6.0),
           p_elem=st.floats(0.0, 9.0), demand=st.floats(0.0, 40.0),
           ambient=st.floats(-20.0, 30.0),
           offsets_=st.lists(offsets, min_size=1, max_size=12),
           nan_last=st.booleans(),
           grid=st.sampled_from([DISPATCH_STEP, WARMUP_BLOCK]))
    def test_steps(self, p_el_max, p_element, storage, effectiveness, tau, t0,
                   heating, saturated, p_comp, p_elem, demand, ambient,
                   offsets_, nan_last, grid):
        # a NaN offset makes the state NaN for good, so it comes last
        ehp = HeatPumpSystem(EhpParams(
            p_el_max, p_element, storage, effectiveness=effectiveness,
            time_constant_s=tau))
        n, dt = grid
        check_heat_pump(
            ehp, (t0, heating, saturated, p_comp, p_elem),
            [lambda e, off=off: e.step(off, n, demand, ambient, dt)
             for off in offsets_ + [math.nan] * nan_last])

    @pytest.mark.parametrize("params, start, inputs, t_end", [
        # floor hold: a large negative offset pushes the tank onto its floor
        ({}, (35.5, False, False, 0.0, 0.0), (4.0, -5.0, -99.0), 35.0),
        # undersized for the demand: the floor hold pins the tank at t_min
        ({"p_el_max_kw": 0.5, "p_element_kw": 0.3},
         (36.0, True, False, 0.5, 0.3), (5.0, -5.0, 0.0), 35.0),
        # ceiling: the element, past the threshold, heats into t_max
        ({}, (89.5, False, False, 0.0, 5.0), (0.0, 0.0, 99.0), 90.0),
        # the compressor lag still running at the ceiling is shed too
        ({"storage_kwh_per_k": 0.02}, (89.9, True, False, 3.0, 5.0),
         (0.0, 0.0, 99.0), 90.0),
        # on the element threshold the compressor is locked out
        ({}, (50.0, True, False, 3.0, 0.0), (0.0, 0.0, 4.0), None),
        # on the thermostat edges, with signed zero and NaN offsets
        ({}, (42.0, False, False, 0.0, 0.0), (2.0, 0.0, -0.0), None),
        ({}, (48.0, True, True, 3.0, 0.0), (2.0, 0.0, math.nan), None),
    ])
    @pytest.mark.parametrize("grid", [DISPATCH_STEP, WARMUP_BLOCK])
    def test_branch(self, params, start, inputs, t_end, grid):
        ehp = make_ehp(**params)
        demand, ambient, offset = inputs
        n, dt = grid
        check_heat_pump(
            ehp, start,
            [lambda e: e.step(offset, n, demand, ambient, dt)] * 40)
        if t_end is not None:
            assert ehp.t_storage_c == t_end and ehp.saturated


# the most intervals a class test replays through the Python reference
# loops: over a day of warmup blocks they would take seconds an example,
# and minutes to shrink a failing one
SHORT_SCHEDULE = 8
# up to eight intervals of up to 60 substeps, on the warmup's substep widths
# and coarser ones; an empty interval hands its start state on unchanged
block_counts = st.lists(st.one_of(st.integers(0, 60), st.just(0)),
                        min_size=1, max_size=SHORT_SCHEDULE)
block_dts = st.sampled_from([5.0, 15.0, 40.0])
# the warmup's zero offset half of the time
block_offsets = st.one_of(st.just(0.0), offsets)


def block_starts(start, counts, dt):
    """Each interval's start, on the clock the warmup keeps: an interval
    starts where the one before it ends."""
    starts = []
    t = start
    for n in counts:
        starts.append(t)
        t = t + n * dt
    return starts


def flat(rows):
    """Rows of per-interval inputs as the class entries take them."""
    return tuple([x for row in rows for x in row])


# the state fields a class entry takes and returns per plant, in its order
STORE_FIELDS = ("soc", "p_kw", "saturated", "trip_drain_kwh")
HEAT_PUMP_FIELDS = ("t_storage_c", "heating", "saturated", "last_cop",
                    "last_p_compressor_kw", "last_p_element_kw")


def class_call(plants, offsets, inputs, counts, shared, dt):
    """Step `plants`, all of one model, plant k under offsets[k], over the
    intervals of counts[j] substeps in one call to the model's class entry;
    with `offsets` None, the warmup's call, ``step_stores`` or
    ``step_heat_pumps``, whose offsets are zero.  inputs[k] holds plant k's
    input per interval (read for no EV, so None will do), `shared` each
    interval's time of day (None for batteries) or ambient temperature."""
    heat_pumps = isinstance(plants[0], HeatPumpSystem)
    # an EV takes no input
    inputs = None if isinstance(plants[0], ElectricVehicle) else flat(inputs)
    counts = tuple(counts)
    shared = None if shared is None else tuple(shared)
    if offsets is None:
        warmup = step_heat_pumps if heat_pumps else step_stores
        warmup(plants, inputs, counts, shared, dt)
        return
    fields = HEAT_PUMP_FIELDS if heat_pumps else STORE_FIELDS
    entry = heat_pump_class_substeps if heat_pumps else storage_class_substeps
    new = iter(entry(
        tuple([getattr(p, field, 0.0) for p in plants for field in fields]),
        tuple([p._consts for p in plants]), tuple(offsets), inputs, counts,
        shared, dt))
    for plant in plants:
        for field in fields:
            value = next(new)
            if hasattr(plant, field):       # a battery keeps no trip drain
                setattr(plant, field, value)
        if heat_pumps:
            plant._derive_power()


def step_block(plant, offset, block, dt):
    """One ``step`` of `plant` over the interval ``(n, input, shared)``."""
    n, x, shared = block
    if isinstance(plant, HeatPumpSystem):
        return plant.step(offset, n, x, shared, dt)
    if isinstance(plant, ElectricVehicle):
        return plant.step(offset, n, shared, dt)
    return plant.step(offset, n, x, dt)


def check_intervals(plant, other, bits, offset, blocks, dt):
    """Step `plant` over `blocks`, each ``(n, input, shared)``, in one class
    call of one plant and `other`, a plant in the same state, one ``step``
    per block: both must end bit-identical, the call with the last step's
    returned power."""
    counts, inputs, shared = zip(*blocks)
    class_call([plant], [offset], [inputs], counts, shared, dt)
    for block in blocks:
        q = step_block(other, offset, block, dt)
    assert bits(plant, plant.p_kw) == bits(other, q)


class TestIntervalsInOneCall:
    """One class call of one plant over a run of intervals, the warmup's
    call, ends bit-identical to one ``step`` per interval under the same
    offset: every state variable, the saturation flag and the lag's state
    carry from each interval into the next."""

    @given(capacity=st.floats(0.01, 20.0), p_charge=st.floats(0.0, 10.0),
           p_discharge=st.floats(0.0, 10.0), tau=st.floats(0.1, 30.0),
           soc=socs, p0=powers, saturated=st.booleans(), counts=block_counts,
           wishes=st.lists(st.one_of(st.floats(-10.0, 10.0),
                                     st.sampled_from([0.0, -0.0])),
                           min_size=8, max_size=8),
           offset=block_offsets, dt=block_dts)
    def test_battery(self, capacity, p_charge, p_discharge, tau, soc, p0,
                     saturated, counts, wishes, offset, dt):
        # a battery settles mid-interval once its wish is out of reach
        plants = []
        for _ in range(2):
            bes = BatteryStorage(BesParams(capacity, p_charge, p_discharge,
                                           time_constant_s=tau))
            bes.set_state((soc, p0, saturated))
            plants.append(bes)
        check_intervals(*plants, storage_bits, offset,
                        tuple(zip(counts, wishes, repeat(0.0))), dt)

    @given(capacity=st.floats(0.2, 60.0), p_rated=st.floats(0.5, 22.0),
           v2g=st.booleans(), trips=trip_days(), energy=st.floats(0.5, 80.0),
           soc=socs, p0=powers, saturated=st.booleans(),
           drained=st.floats(0.0, 5.0),
           counts=st.lists(st.one_of(st.integers(0, 60), st.just(0)),
                           min_size=2, max_size=8),
           offset=block_offsets, dt=block_dts, edge=st.sampled_from([0, 1]),
           lead=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    def test_ev(self, capacity, p_rated, v2g, trips, energy, soc, p0,
                saturated, drained, counts, offset, dt, edge, lead):
        # the first trip's departure or return falls inside one of the
        # intervals before the last, or on its start (`lead` of the way
        # through them), and the trips drain energy; a full, idle vehicle
        # settles on its first substep and leaves later in the run
        trips = tuple((depart, ret, energy) for depart, ret, _ in trips)
        plants = []
        for _ in range(2):
            bev = ElectricVehicle(BevParams(capacity, p_rated, v2g=v2g,
                                            trips=trips))
            bev.set_state((soc, abs(p0) if not v2g else p0, saturated,
                           drained))
            plants.append(bev)
        first = trips[0][edge] * 3600.0 - lead * sum(counts[:-1]) * dt
        starts = block_starts(first, counts, dt)
        check_intervals(*plants, storage_bits, offset,
                        tuple(zip(counts, repeat(None), starts)), dt)

    @given(p_el_max=st.floats(0.1, 6.0), p_element=st.floats(0.0, 9.0),
           storage=st.floats(0.02, 0.5), tau=st.floats(0.1, 30.0),
           t0=tank_temps, heating=st.booleans(), saturated=st.booleans(),
           p_comp=st.floats(0.0, 6.0), p_elem=st.floats(0.0, 9.0),
           counts=st.lists(st.one_of(st.integers(0, 12), st.just(0)),
                           min_size=1, max_size=16),
           demands=st.lists(st.floats(0.0, 10.0), min_size=16, max_size=16),
           ambients=st.lists(st.floats(-20.0, 30.0), min_size=16,
                             max_size=16),
           offset=block_offsets, dt=block_dts)
    def test_heat_pump(self, p_el_max, p_element, storage, tau, t0, heating,
                       saturated, p_comp, p_elem, counts, demands, ambients,
                       offset, dt):
        # short intervals and a small tank that starts on or near a
        # thermostat edge: the thermostat switches in one interval and
        # holds, inside the band, into the next
        plants = []
        for _ in range(2):
            ehp = HeatPumpSystem(EhpParams(p_el_max, p_element, storage,
                                           time_constant_s=tau))
            ehp.set_state((t0, heating, saturated, p_comp, p_elem))
            plants.append(ehp)
        check_intervals(*plants, heat_pump_bits, offset,
                        tuple(zip(counts, demands, ambients)), dt)

    def test_a_bad_step_leaves_the_plant_as_it_was(self):
        # a count that is no integer, or an offset or input that is no
        # float: the entry raises, and no state is written back
        bes = BatteryStorage(BesParams(5.0, 3.0, 3.0))
        ehp = make_ehp()
        bev = make_bev()
        before = [end_bits(plant) for plant in (bes, ehp, bev)]
        for step in (lambda: bes.step(0.0, 1.5, 1.0, 15.0),
                     lambda: bes.step(0.0, 60, "1.0", 15.0),
                     lambda: bes.step(None, 60, 1.0, 15.0),
                     lambda: ehp.step(0.0, 1.5, 2.0, 0.0, 15.0),
                     lambda: ehp.step(0.0, 60, 2.0, None, 15.0),
                     lambda: bev.step(0.0, 1.5, 0.0, 15.0),
                     lambda: bev.step(0.0, 60, None, 15.0)):
            with pytest.raises(TypeError):
                step()
        assert [end_bits(plant) for plant in (bes, ehp, bev)] == before

    @pytest.mark.parametrize("make, step", [
        (make_bev, lambda ev: ev.step(0.0, 60, 0.0, 15.0)),
        (make_ehp, lambda hp: hp.step(0.0, 60, 2.0, 0.0, 15.0)),
        (make_bev, lambda ev: step_stores([ev], None, (60,), (0.0,), 15.0)),
        (make_ehp,
         lambda hp: step_heat_pumps([hp], (2.0,), (60,), (0.0,), 15.0)),
    ], ids=["storage", "heat_pump", "storage_class", "heat_pump_class"])
    @pytest.mark.parametrize("spoil", [
        pytest.param(bytearray, id="not_bytes"),
        pytest.param(lambda consts: consts[:40], id="short_of_the_fixed_part"),
        pytest.param(lambda consts: consts + b"\0", id="part_of_a_double"),
        pytest.param(lambda consts: consts + pack("2d", 1.0, 2.0),
                     id="two_doubles_more"),
    ])
    def test_bad_constants_are_refused_before_any_is_read(self, make, step,
                                                          spoil):
        # the EV's constants end in one trip, so two doubles more leave a
        # trip tail of five (for a heat pump: two too many), and five
        # doubles fall a whole trip short of the EV's fixed eight; the entry
        # refuses each buffer whole, before its first interval, whether a
        # step or a class call passes it
        plant = make()
        before = end_bits(plant)
        plant._consts = spoil(plant._consts)
        with pytest.raises(TypeError, match="constants as bytes of C doubles"):
            step(plant)
        assert end_bits(plant) == before


def end_state(plant):
    """Every state field of a plant and its returned power, at full
    precision."""
    if isinstance(plant, HeatPumpSystem):
        return heat_pump_bits(plant, plant.p_kw)
    return storage_bits(plant, plant.p_kw)


def check_class(plants, offsets, inputs, counts, shared, dt, warmup=False):
    """Step `plants` in one class call, plant k under offsets[k] (with
    `warmup`, the warmup's ``step_stores`` or ``step_heat_pumps``, whose
    offsets are zero), over the intervals of counts[j] substeps, with the
    inputs and shared values `class_call` takes.  Each plant must end
    bit-identical to its own class call, alone, and over a schedule of at
    most ``SHORT_SCHEDULE`` intervals to the Python reference loops, one
    ``step`` per interval."""
    replay = len(counts) <= SHORT_SCHEDULE
    rows = repeat(None) if inputs is None else inputs
    alone, reference = [], []
    for plant, offset, row in zip(plants, offsets, rows):
        own = copy.copy(plant)
        class_call([own], [offset], [row], counts, shared, dt)
        alone.append(end_state(own))
        if replay:
            ref = with_reference(plant)
            for block in zip(counts, row or repeat(None),
                             shared or repeat(0.0)):
                step_block(ref, offset, block, dt)
            reference.append(end_state(ref))
    class_call(plants, None if warmup else offsets, inputs, counts, shared,
               dt)
    together = [end_state(plant) for plant in plants]
    assert together == alone
    if replay:
        assert together == reference


# a battery or EV start that settles on its first substep: full and idle,
# empty and idle
settled_stores = st.sampled_from([(1.0, 0.0), (0.0, 0.0), (0.0, -0.0)])
# a day of warmup blocks, or up to eight intervals of up to 60 substeps
class_counts = st.one_of(block_counts, st.just([60] * 96))
# a plant's own offset in a class call: signed zeros, offsets that saturate
# every plant drawn here and offsets inside their bands
class_offsets = st.one_of(st.sampled_from([0.0, -0.0, -99.0, 99.0]),
                          st.floats(-5.0, 5.0))


def draw_offsets(data, k, warmup):
    """K offsets, one per plant: the warmup's zeros, or each drawn alone."""
    if warmup:
        return [0.0] * k
    return [data.draw(class_offsets) for _ in range(k)]


class TestClassLoops:
    """One class call over K plants of a model, each under its own offset,
    leaves each plant bit-identical to its own call and to the Python
    reference loops over the same intervals: every state field, the flags
    and the lag's state.  The call runs the plants' substeps in step, each
    store skipping and resuming on its own; the warmup makes it with zero
    offsets."""

    @given(data=st.data(), k=st.integers(1, 5), counts=class_counts,
           dt=block_dts, warmup=st.booleans())
    def test_batteries(self, data, k, counts, dt, warmup):
        batteries, wishes = [], []
        for _ in range(k):
            bes = BatteryStorage(BesParams(
                data.draw(st.floats(0.01, 20.0)), data.draw(st.floats(0.0, 10.0)),
                data.draw(st.floats(0.0, 10.0)),
                time_constant_s=data.draw(st.floats(0.1, 30.0))))
            soc, p0 = data.draw(st.one_of(st.tuples(socs, powers),
                                          settled_stores))
            bes.set_state((soc, p0, data.draw(st.booleans())))
            batteries.append(bes)
            # a wish out of reach settles the battery mid-interval
            wishes.append(data.draw(st.lists(
                st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0])),
                min_size=len(counts), max_size=len(counts))))
        check_class(batteries, draw_offsets(data, k, warmup), wishes, counts,
                    None, dt, warmup)

    @given(data=st.data(), k=st.integers(1, 5), counts=class_counts,
           dt=block_dts, start=interval_starts, edge=st.sampled_from([0, 1]),
           lead=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
           warmup=st.booleans())
    def test_evs(self, data, k, counts, dt, start, edge, lead, warmup):
        # the first EV's first departure or return falls inside the run
        # (`lead` of the way through the intervals before the last) or on an
        # interval's start; the run starts at `start` for the others, which
        # puts midnight inside an interval from 23:45 on
        evs = []
        for _ in range(k):
            ev = ElectricVehicle(BevParams(
                data.draw(st.floats(0.2, 60.0)), data.draw(st.floats(0.5, 22.0)),
                v2g=data.draw(st.booleans()), trips=data.draw(trip_days())))
            soc, p0 = data.draw(st.one_of(st.tuples(socs, powers),
                                          settled_stores))
            ev.set_state((soc, p0 if ev.params.v2g else abs(p0),
                          data.draw(st.booleans()),
                          data.draw(st.floats(0.0, 5.0))))
            evs.append(ev)
        if data.draw(st.booleans()):
            start = evs[0].trips[0][edge] - lead * sum(counts[:-1]) * dt
        check_class(evs, draw_offsets(data, k, warmup), None, counts,
                    block_starts(start, counts, dt), dt, warmup)

    @given(data=st.data(), k=st.integers(1, 5), counts=class_counts,
           dt=block_dts, warmup=st.booleans())
    def test_heat_pumps(self, data, k, counts, dt, warmup):
        # small tanks from the band's edges, the floor and the ceiling
        # included, with the compressor's lag still running
        heat_pumps, demands = [], []
        for _ in range(k):
            ehp = HeatPumpSystem(EhpParams(
                data.draw(st.floats(0.1, 6.0)), data.draw(st.floats(0.0, 9.0)),
                data.draw(st.floats(0.02, 0.5)),
                time_constant_s=data.draw(st.floats(0.1, 30.0))))
            ehp.set_state((data.draw(tank_temps), data.draw(st.booleans()),
                           data.draw(st.booleans()),
                           data.draw(st.floats(0.0, 6.0)),
                           data.draw(st.floats(0.0, 9.0))))
            heat_pumps.append(ehp)
            demands.append(data.draw(st.lists(
                st.floats(0.0, 40.0), min_size=len(counts),
                max_size=len(counts))))
        ambients = data.draw(st.lists(st.floats(-20.0, 30.0),
                                      min_size=len(counts),
                                      max_size=len(counts)))
        check_class(heat_pumps, draw_offsets(data, k, warmup), demands,
                    counts, ambients, dt, warmup)

    def test_sleeping_stores_wake_at_their_own_substeps(self):
        # three full, idle EVs settle on their first substep and sleep to
        # departures inside the same blocks, while a fourth charges; each
        # wakes at its own departure and charges again once back
        evs = [make_bev(capacity_kwh=20.0, soc0=soc, trips=(trip,))
               for soc, trip in ((1.0, (7.3, 8.1, 4.0)), (1.0, (7.6, 7.9, 2.0)),
                                 (1.0, (7.55, 9.2, 6.0)), (0.4, (9.0, 9.5, 1.0)))]
        check_class(evs, [0.0] * 4, None, (240, 240),
                    (7.0 * 3600.0, 8.0 * 3600.0), 15.0, warmup=True)

    def test_a_bad_count_leaves_the_plants_as_they_were(self):
        # the second block's count is no integer: the first block has run
        # in the loop, but no state is written back
        bes = BatteryStorage(BesParams(5.0, 3.0, 3.0))
        bev = make_bev()
        ehp = make_ehp()
        before = [end_bits(plant) for plant in (bes, bev, ehp)]
        counts = (60, 1.5)
        with pytest.raises(TypeError):
            step_stores([bes], (1.0, 1.0), counts, None, 15.0)
        with pytest.raises(TypeError):
            step_stores([bev], None, counts, (0.0, 900.0), 15.0)
        with pytest.raises(TypeError):
            step_heat_pumps([ehp], (2.0, 2.0), counts, (0.0, 0.0), 15.0)
        assert [end_bits(plant) for plant in (bes, bev, ehp)] == before

    @pytest.mark.parametrize("states, offsets_, wishes, tods, error", [
        # a state, an offset, an input or a shared value short
        ((0.5, 0.0, False), (0.0,), (1.0, 1.0), None, ValueError),
        ((0.5, 0.0, False, 0.0), (), (1.0, 1.0), None, ValueError),
        ((0.5, 0.0, False, 0.0), (0.0,), (1.0,), None, ValueError),
        ((0.5, 0.0, False, 0.0), (0.0,), None, (0.0,), ValueError),
        # a list, not a tuple
        ([0.5, 0.0, False, 0.0], (0.0,), (1.0, 1.0), None, TypeError),
        ((0.5, 0.0, False, 0.0), [0.0], (1.0, 1.0), None, TypeError),
        # an item of no float: the offset, the second block's wish
        ((0.5, 0.0, False, 0.0), ("0.0",), (1.0, 1.0), None, TypeError),
        ((0.5, 0.0, False, 0.0), (0.0,), (1.0, "1.0"), None, TypeError),
    ], ids=["states", "offsets", "wishes", "tods", "list", "offsets_list",
            "offset_item", "item"])
    def test_bad_arguments_are_refused(self, states, offsets_, wishes, tods,
                                       error):
        bes = BatteryStorage(BesParams(5.0, 3.0, 3.0))
        with pytest.raises(error):
            storage_class_substeps(states, (bes._consts,), offsets_, wishes,
                                   (60, 60), tods, 15.0)


# hand-picked inputs, each with its own blocks of (n, input, shared) and a
# check that it ends on the branch it is named for.  Each run ends while
# that branch's result is still in the state, and the uneven values were
# picked so that a regrouped operation in the branch (a * b / c computed as
# a * (b / c)), or for the EVs a lag factor off by one ulp, changes the
# last bit of the end state
FIXED_CASES = {
    # the compressor's lag runs up while a large demand pulls the tank down
    # onto its floor; the run ends on the first hold
    "floor_hold": (
        lambda: make_ehp(p_el_max_kw=1.77, p_element_kw=3.61,
                         storage_kwh_per_k=0.53, effectiveness=0.4,
                         time_constant_s=14.74, t0_c=37.68),
        (37.68, True, False, 0.42, 0.0),
        ((25, 9.83, -7.26), (76, 8.24, -4.76)), 15.0,
        lambda e: e.saturated and e.heating),
    # heating at full power with the element past the threshold, a small
    # tank reaches its ceiling: the element is shed first
    "ceiling_shed": (
        lambda: make_ehp(p_el_max_kw=2.49, p_element_kw=4.72,
                         storage_kwh_per_k=0.03, effectiveness=0.65,
                         time_constant_s=31.34, t0_c=88.92),
        (88.92, True, False, 2.49, 4.72), ((2, 0.06, 1.27), (4, 0.06, 1.27)),
        5.0, lambda e: e.saturated and e.t_storage_c == 90.0),
    # a tank above the element threshold cools through the switch-on
    # edge; the run ends while the compressor's lag runs up
    "thermostat_switch_on": (
        lambda: make_ehp(p_el_max_kw=1.73, p_element_kw=5.66,
                         storage_kwh_per_k=0.13, effectiveness=0.61,
                         time_constant_s=29.7, t0_c=55.33),
        (55.33, False, False, 1.04, 0.0),
        ((32, 3.45, 3.97), (60, 6.89, 2.58)), 15.0,
        lambda e: e.heating and 0.0 < e.last_p_compressor_kw < 1.73),
    # a battery charging at 3.24 kW with little headroom left: the lag's
    # momentum overshoots the collapsing bound and is pinned to it
    "lag_overshoot_pin": (
        lambda: BatteryStorage(BesParams(2.45, 5.16, 4.78, eta_charge=0.91,
                                         time_constant_s=36.28)),
        (0.9835, 3.24, False), ((3, 3.79, 0.0), (1, 3.74, 0.0)), 15.0,
        lambda b: b.saturated),
    # an 8:07-9:07 trip from 7:42 on 15-minute blocks: it starts inside
    # the second block and ends inside the sixth and last, which ends
    # while the charger's lag runs up again
    "trip_across_block_edges": (
        lambda: make_bev(capacity_kwh=18.61, p_rated_kw=7.4, eta_charge=0.93,
                         time_constant_s=45.74, trips=((8.12, 9.11, 1.95),)),
        (0.38, 1.77, False, 0.0),
        tuple((60, None, 27720.0 + j * 900.0) for j in range(5))
        + ((40, None, 32220.0),), 15.0,
        lambda e: e.trip_drain_kwh > 1.9 and 0.0 < e.p_kw < 7.4),
    # full and idle at 7:00, the EV settles on its first substep, skips to
    # its 8:08 departure inside the same block and charges once back
    "settle_then_away_resume": (
        lambda: make_bev(capacity_kwh=22.02, eta_charge=0.9,
                         eta_discharge=0.98, time_constant_s=57.42,
                         trips=((8.13, 9.18, 5.43),)),
        (1.0, 0.0, False, 0.0), ((526, None, 25200.0),), 15.0,
        lambda e: e.trip_drain_kwh == pytest.approx(5.43)
        and 0.0 < e.p_kw < 11.0),
}


class TestFixedInputs:
    """Hand-picked inputs on each branch a mutant of a loop body could
    change by one ulp, one ``step`` per interval and in one class call over
    all of them, against the Python reference loops, bit for bit."""

    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    def test_steps_and_the_class_call_match_the_reference(self, case):
        make, start, blocks, dt, ends_as_expected = FIXED_CASES[case]
        plants = [make() for _ in range(3)]
        for plant in plants:
            plant.set_state(start)
        reference, stepped, in_class = plants
        use_references(reference)
        for block in blocks:
            step_block(reference, 0.0, block, dt)
            step_block(stepped, 0.0, block, dt)
        counts, inputs, shared = zip(*blocks)
        class_call([in_class], None, [inputs], counts, shared, dt)
        assert end_state(stepped) == end_state(reference)
        assert end_state(in_class) == end_state(reference)
        assert ends_as_expected(reference)

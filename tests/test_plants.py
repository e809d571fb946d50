import copy
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellflex.plants import (
    BatteryStorage,
    ElectricVehicle,
    HeatPumpSystem,
    PvInverter,
    clamp,
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
    ehp.step(0.0, ambient, 0.0, 1, 15.0)
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
            y = bes.step(1.0, 0.0, 1, dt)
        expected = 1.0 - math.exp(-1.0)  # 0.6321205588285577
        assert abs(y - expected) / expected < 1e-4
        assert y == pytest.approx(0.6321205588285577, rel=1e-6)

    def test_analytic_error_over_five_time_constants(self):
        bes = lag_battery(2.0)
        dt = 0.02  # T/100
        t = 0.0
        for _ in range(int(5 * 2.0 / dt)):
            y = bes.step(1.0, 0.0, 1, dt)
            t += dt
            exact = 1.0 - math.exp(-t / 2.0)
            assert abs(y - exact) / exact < 1e-4

    def test_result_does_not_depend_on_step_size(self):
        # the exponential update is exact for piecewise-constant input, so
        # 150 substeps of 0.1 s and one 15 s substep end at the same power
        fine = lag_battery(2.0, p0_kw=0.3)
        fine.step(4.0, 0.0, 150, 0.1)
        coarse = lag_battery(2.0, p0_kw=0.3)
        coarse.step(4.0, 0.0, 1, 15.0)
        assert coarse.p_kw == pytest.approx(fine.p_kw, abs=1e-12)

    def test_exact_branch_is_exact(self):
        y = lag_battery(2.0).step(1.0, 0.0, 1, 6.0)
        assert y == pytest.approx(1.0 - math.exp(-3.0), abs=1e-14)

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
            y = bes.step(u, 0.0, 1, time_constant / 10.0)
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
        p = bes.step(0.0, 5.0, 1, 15.0)
        assert p == pytest.approx(5.0, abs=1e-12)
        assert bes.soc == pytest.approx(0.5020833333333333, abs=1e-12)

    def test_charge_efficiency_applies(self):
        bes = battery_at(BesParams(10.0, 5.0, 5.0, eta_charge=0.95, eta_discharge=0.95,
                                   soc0=0.0), 4.0)
        bes.step(0.0, 4.0, 1, 900.0)
        assert bes.soc == pytest.approx(4.0 * 0.95 * 900 / 3600 / 10.0, abs=1e-12)

    def test_discharge_efficiency_applies(self):
        bes = battery_at(BesParams(10.0, 5.0, 5.0, eta_charge=0.95, eta_discharge=0.95,
                                   soc0=1.0), -4.0)
        bes.step(0.0, -4.0, 1, 900.0)
        assert bes.soc == pytest.approx(1.0 - 4.0 / 0.95 * 900 / 3600 / 10.0, abs=1e-12)

    def test_full_battery_refuses_charge(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=1.0))
        p = bes.step(0.0, 5.0, 1, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert bes.soc == 1.0
        assert bes.saturated

    def test_empty_battery_refuses_discharge(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.0))
        p = bes.step(0.0, -5.0, 1, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert bes.soc == 0.0
        assert bes.saturated

    def test_power_limit_clamp(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 3.0, soc0=0.5))
        bes.step(0.0, 99.0, 1, 1.0)
        assert bes.saturated
        for _ in range(100):
            p = bes.step(0.0, 99.0, 1, 1.0)
        assert p == pytest.approx(5.0, abs=1e-9)
        for _ in range(200):
            p = bes.step(0.0, -99.0, 1, 1.0)
        assert p == pytest.approx(-3.0, abs=1e-9)

    def test_feasible_command_reflects_soc(self):
        # the local wish is reduced to what an empty battery can deliver; a
        # lag far faster than the step realizes the reduced wish exactly
        def empty():
            return BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.0,
                                            time_constant_s=1e-3))
        assert empty().step(-2.0, 0.0, 1, 15.0) == 0.0
        assert empty().step(2.0, 0.0, 1, 15.0) == 2.0

    def test_lag_shapes_response(self):
        bes = BatteryStorage(BesParams(50.0, 10.0, 10.0, soc0=0.5, time_constant_s=2.0))
        p = bes.step(0.0, 10.0, 1, 1.0)
        assert 0.0 < p < 10.0  # still rising toward the setpoint

    @given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=60))
    def test_soc_and_power_stay_bounded(self, setpoints):
        bes = BatteryStorage(BesParams(2.0, 5.0, 5.0, soc0=0.5))
        for sp in setpoints:
            p = bes.step(0.0, sp, 1, 5.0)
            assert 0.0 <= bes.soc <= 1.0
            assert -5.0 - 1e-9 <= p <= 5.0 + 1e-9

    def test_state_round_trip(self):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.5))
        bes.step(0.0, 3.0, 1, 1.0)
        state = bes.get_state()
        bes.step(0.0, -2.0, 1, 1.0)
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
            ehp.step(2.0, 0.0, 0.0, 1, 15.0)
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
            ehp.step(demand, -2.0, offset, 1, dt)
            assert 35.0 < ehp.t_storage_c < 90.0  # balance only claimed inside bounds
            heat_in += (ehp.last_cop * ehp.last_p_compressor_kw
                        + ehp.last_p_element_kw) * dt / 3600.0
            demand_total += demand * dt / 3600.0
        delta_e = (ehp.t_storage_c - t_start) * ehp.storage_kwh_per_k
        assert delta_e == pytest.approx(heat_in - demand_total, rel=1e-9, abs=1e-9)

    def test_floor_hold_covers_demand(self):
        ehp = make_ehp(t0_c=35.5)
        for _ in range(400):
            ehp.step(4.0, -5.0, -99.0, 1, 15.0)  # large negative offset pushes down
            assert ehp.t_storage_c >= 35.0 - 1e-9
        # at the floor the system pumps exactly the demand-covering power
        assert ehp.t_storage_c == pytest.approx(35.0, abs=0.05)
        heat_in = ehp.last_cop * ehp.last_p_compressor_kw + ehp.last_p_element_kw
        assert heat_in == pytest.approx(4.0, abs=0.05)
        assert ehp.saturated

    def test_undersized_system_pins_at_floor(self):
        ehp = make_ehp(p_el_max_kw=0.5, p_element_kw=0.3, t0_c=36.0)
        for _ in range(400):
            ehp.step(5.0, -5.0, 0.0, 1, 15.0)
        assert ehp.t_storage_c == pytest.approx(35.0, abs=1e-9)

    def test_element_extends_beyond_compressor_threshold(self):
        ehp = make_ehp()
        seen_above_threshold = False
        for _ in range(int(4 * 3600 / 15)):
            ehp.step(0.0, 0.0, 99.0, 1, 15.0)
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
            ehp.step(2.0, 0.0, 0.0, 1, 15.0)
            assert ehp.last_p_element_kw == 0.0

    def test_negative_offset_clamps_at_zero_power(self):
        # tank above t_on: thermostat off, a negative command cannot realize
        ehp = make_ehp(t0_c=46.0)
        p = ehp.step(1.0, 0.0, -5.0, 1, 15.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert ehp.saturated

    def test_reactive_power_tracks_fixed_power_factor(self):
        ehp = make_ehp()
        ehp.step(3.0, 0.0, 1.0, 1, 15.0)
        assert ehp.q_kvar == pytest.approx(ehp.p_kw * math.tan(math.acos(0.95)), abs=1e-12)

    @given(st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=50))
    def test_temperature_stays_bounded(self, offsets):
        ehp = make_ehp(t0_c=40.0)
        for off in offsets:
            ehp.step(3.0, -2.0, off, 1, 15.0)
            assert 35.0 - 1e-9 <= ehp.t_storage_c <= 90.0 + 1e-9

    def test_state_round_trip(self):
        ehp = make_ehp()
        ehp.step(2.0, 0.0, 0.5, 1, 15.0)
        state = ehp.get_state()
        ehp.step(3.0, 1.0, -0.5, 1, 15.0)
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
        p = bev.step(5.0, 12 * 3600.0, 1, 900.0)
        assert p == 0.0
        assert bev.p_kw == 0.0

    def test_trip_drains_uniformly(self):
        bev = make_bev(soc0=0.9)
        # whole trip window at 900 s steps: 8 kWh over 10 h
        t = 8 * 3600.0
        while t < 18 * 3600.0:
            bev.step(0.0, t, 1, 900.0)
            t += 900.0
        assert bev.soc == pytest.approx(0.9 - 8.0 / 40.0, abs=1e-9)
        assert bev.trip_drain_kwh == pytest.approx(8.0, abs=1e-9)

    def test_charges_at_rated_until_full(self):
        bev = make_bev(soc0=0.995, eta_charge=1.0, time_constant_s=1e-3)
        p = bev.step(0.0, 19 * 3600.0, 1, 60.0)
        assert p == pytest.approx(11.0, abs=1e-6)
        for _ in range(60):
            p = bev.step(0.0, 19 * 3600.0, 1, 60.0)
        assert bev.soc == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_unidirectional_floor_is_zero(self):
        bev = make_bev(v2g=False)
        for _ in range(20):
            p = bev.step(-99.0, 19 * 3600.0, 1, 5.0)
        assert p == pytest.approx(0.0, abs=1e-9)
        assert bev.saturated

    def test_v2g_discharges_to_negative_rated(self):
        bev = make_bev(v2g=True)
        for _ in range(40):
            p = bev.step(-99.0, 19 * 3600.0, 1, 5.0)
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
            p = bev.step(off, t % 86400.0, 1, dt)
            assert 0.0 <= bev.soc <= 1.0
            if p > 0:
                charged += p * bev.eta_charge * dt / 3600.0
            else:
                discharged += -p / bev.eta_discharge * dt / 3600.0
            t += dt
        delta = (bev.soc - 0.6) * bev.capacity_kwh
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
        bev.step(2.0, 19 * 3600.0, 1, 5.0)
        state = bev.get_state()
        bev.step(-2.0, 20 * 3600.0, 1, 5.0)
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
            bes, lambda _tod, m: bes.step(wish, offset, m, dt), start, n, dt)
        bes.set_state(start)
        bes.step(wish, offset, n, dt)
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
            bev, lambda tod, m: bev.step(offset, tod_h * 3600.0 + tod, m, dt),
            start, n, dt)
        bev.set_state(start)
        bev.step(offset, tod_h * 3600.0, n, dt)
        assert end_bits(bev) == want

    def test_a_trip_inside_the_interval_ends_the_settled_state(self):
        # full and idle, the vehicle settles on its first substep, leaves for
        # six minutes of the fifteen and charges again once back
        bev = make_bev(capacity_kwh=0.5, p_rated_kw=1.0,
                       trips=((12.0, 12.1, 0.2),))
        start = (1.0, 0.0, False, 0.0)

        def run(tod, m):
            bev.step(0.0, 11.95 * 3600.0 + tod, m, 15.0)

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
        check_replay(bes, lambda off: bes.step(wish, off, n, dt),
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
        check_replay(bev, lambda off: bev.step(off, tod_h * 3600.0, n, dt),
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
        check_replay(ehp, lambda off: ehp.step(demand, ambient, off, n, dt),
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
            [lambda b, w=w: b.step(w, offset, n, dt) for w in wishes])

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
            [lambda b, j=j: b.step(offset, start + j * n * dt, n, dt)
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
            [lambda b, j=j, off=off: b.step(off, start + j * n * dt, n, dt)
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
            [lambda b, j=j: b.step(offset, start + j * n * dt, n, dt)
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
        for plant in (bev, ref):
            plant.step(0.0, start, *grid)
        assert storage_bits(bev, bev.p_kw) == storage_bits(ref, ref.p_kw)
        assert bev.trip_drain_kwh > 0.0

    def test_a_trip_that_empties_the_store_mid_window(self):
        # 30 kWh over two hours from a 5 kWh store: empty after 20 minutes,
        # so most of the window takes the stored-energy branch
        bev = make_bev(capacity_kwh=5.0, soc0=1.0, trips=((8.0, 10.0, 30.0),))
        ref = with_reference(bev)
        for plant in (bev, ref):
            for j in range(8):
                plant.step(0.0, 8 * 3600.0 + j * 900.0, *WARMUP_BLOCK)
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
            [lambda e, off=off: e.step(demand, ambient, off, n, dt)
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
        check_heat_pump(ehp, start,
                        [lambda e: e.step(*inputs, *grid)] * 40)
        if t_end is not None:
            assert ehp.t_storage_c == t_end and ehp.saturated


# up to eight blocks of up to 60 substeps, on the warmup's substep widths
# and coarser ones; an empty block hands its start state on unchanged
block_counts = st.lists(st.one_of(st.integers(0, 60), st.just(0)),
                        min_size=1, max_size=8)
block_dts = st.sampled_from([5.0, 15.0, 40.0])


def block_starts(start, counts, dt):
    """Each block's start, on the clock the warmup keeps: a block starts
    where the one before it ends."""
    starts = []
    t = start
    for n in counts:
        starts.append(t)
        t = t + n * dt
    return starts


class TestBlockLoops:
    """A plant's ``warm_up``, one compiled call over a run of blocks, ends
    bit-identical to one ``step`` per block with no offset: every state
    variable, the saturation flag and the lag's state carry from each block
    into the next."""

    @given(capacity=st.floats(0.01, 20.0), p_charge=st.floats(0.0, 10.0),
           p_discharge=st.floats(0.0, 10.0), tau=st.floats(0.1, 30.0),
           soc=socs, p0=powers, saturated=st.booleans(), counts=block_counts,
           wishes=st.lists(st.one_of(st.floats(-10.0, 10.0),
                                     st.sampled_from([0.0, -0.0])),
                           min_size=8, max_size=8),
           dt=block_dts)
    def test_battery(self, capacity, p_charge, p_discharge, tau, soc, p0,
                     saturated, counts, wishes, dt):
        # a battery settles mid-block once its wish is out of reach
        plants = []
        for _ in range(2):
            bes = BatteryStorage(BesParams(capacity, p_charge, p_discharge,
                                           time_constant_s=tau))
            bes.set_state((soc, p0, saturated))
            plants.append(bes)
        blocks, steps = plants
        blocks.warm_up(counts, wishes[:len(counts)], dt)
        for n, wish in zip(counts, wishes):
            steps.step(wish, 0.0, n, dt)
        assert storage_bits(blocks, blocks.p_kw) \
            == storage_bits(steps, steps.p_kw)

    @given(capacity=st.floats(0.2, 60.0), p_rated=st.floats(0.5, 22.0),
           v2g=st.booleans(), trips=trip_days(), energy=st.floats(0.5, 80.0),
           soc=socs, p0=powers, saturated=st.booleans(),
           drained=st.floats(0.0, 5.0),
           counts=st.lists(st.one_of(st.integers(0, 60), st.just(0)),
                           min_size=2, max_size=8),
           dt=block_dts, edge=st.sampled_from([0, 1]),
           lead=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    def test_ev(self, capacity, p_rated, v2g, trips, energy, soc, p0,
                saturated, drained, counts, dt, edge, lead):
        # the first trip's departure or return falls inside one of the
        # blocks before the last, or on its start (`lead` of the way through
        # them), and the trips drain energy; a full, idle vehicle settles on
        # its first substep and leaves later in the run
        trips = tuple((depart, ret, energy) for depart, ret, _ in trips)
        plants = []
        for _ in range(2):
            bev = ElectricVehicle(BevParams(capacity, p_rated, v2g=v2g,
                                            trips=trips))
            bev.set_state((soc, abs(p0) if not v2g else p0, saturated,
                           drained))
            plants.append(bev)
        blocks, steps = plants
        first = trips[0][edge] * 3600.0 - lead * sum(counts[:-1]) * dt
        starts = block_starts(first, counts, dt)
        blocks.warm_up(counts, starts, dt)
        for n, start in zip(counts, starts):
            steps.step(0.0, start, n, dt)
        assert storage_bits(blocks, blocks.p_kw) \
            == storage_bits(steps, steps.p_kw)

    @given(p_el_max=st.floats(0.1, 6.0), p_element=st.floats(0.0, 9.0),
           storage=st.floats(0.02, 0.5), tau=st.floats(0.1, 30.0),
           t0=tank_temps, heating=st.booleans(), saturated=st.booleans(),
           p_comp=st.floats(0.0, 6.0), p_elem=st.floats(0.0, 9.0),
           counts=st.lists(st.one_of(st.integers(0, 12), st.just(0)),
                           min_size=1, max_size=16),
           demands=st.lists(st.floats(0.0, 10.0), min_size=16, max_size=16),
           ambients=st.lists(st.floats(-20.0, 30.0), min_size=16,
                             max_size=16),
           dt=block_dts)
    def test_heat_pump(self, p_el_max, p_element, storage, tau, t0, heating,
                       saturated, p_comp, p_elem, counts, demands, ambients,
                       dt):
        # short blocks and a small tank that starts on or near a thermostat
        # edge: the thermostat switches in one block and holds, inside the
        # band, into the next
        plants = []
        for _ in range(2):
            ehp = HeatPumpSystem(EhpParams(p_el_max, p_element, storage,
                                           time_constant_s=tau))
            ehp.set_state((t0, heating, saturated, p_comp, p_elem))
            plants.append(ehp)
        blocks, steps = plants
        blocks.warm_up(counts, demands[:len(counts)], ambients[:len(counts)],
                       dt)
        for n, demand, ambient in zip(counts, demands, ambients):
            steps.step(demand, ambient, 0.0, n, dt)
        assert heat_pump_bits(blocks, blocks.p_kw) \
            == heat_pump_bits(steps, steps.p_kw)

    def test_a_bad_block_leaves_the_plant_as_it_was(self):
        # the second block's count is no integer: the first block has run in
        # the loop, but nothing is written back
        bes = BatteryStorage(BesParams(5.0, 3.0, 3.0))
        ehp = make_ehp()
        bev = make_bev()
        before = [end_bits(plant) for plant in (bes, ehp, bev)]
        with pytest.raises(TypeError):
            bes.warm_up([60, 1.5], [1.0, 1.0], 15.0)
        with pytest.raises(TypeError):
            ehp.warm_up([60, 1.5], [2.0, 2.0], [0.0, 0.0], 15.0)
        with pytest.raises(TypeError):
            bev.warm_up([60, 1.5], [0.0, 900.0], 15.0)
        assert [end_bits(plant) for plant in (bes, ehp, bev)] == before

"""Scenario schema: loading, validation, profiles, round-trip serialization."""

import json
import math
import re
from dataclasses import MISSING, fields
from importlib import resources

import pytest

from cellflex import grid
from cellflex.dispatch import run_dispatch
from cellflex.errors import ConfigurationError
from cellflex.optimizer import BasinHoppingConfig, FlexibilityRequest
from cellflex.plants import BatteryStorage, ElectricVehicle, HeatPumpSystem
from cellflex.scenario import (
    BesParams,
    BevParams,
    EhpParams,
    HouseholdParams,
    LinearSeries,
    PvParams,
    SimulationParams,
    StepSeries,
    WeatherParams,
    _BOUNDS,
    _PROFILE_GRID_S,
    _ambient_c,
    _gauss_bump,
    _irradiance_w_m2,
    build_profiles,
    load_bundled_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    warmup_schedule,
)


def minimal_dict(**overrides):
    """Two-bus scenario with one plain household; deep-merged overrides."""
    data = {
        "name": "mini",
        "topology": {
            "pcc_bus": "pcc",
            "transformer_kva": 100.0,
            "buses": [{"id": "pcc"}, {"id": "h01"}],
            "lines": [{"from": "pcc", "to": "h01",
                       "r_ohm": 0.01, "x_ohm": 0.004, "i_max_a": 200.0}],
        },
        "weather": {"ambient_mean_c": 5.0, "ambient_swing_c": 3.0},
        "simulation": {"start": "2023-01-16T20:00:00", "internal_dt_s": 1.0,
                       "warmup_s": 3600.0},
        "prosumers": [
            {"id": "p01", "bus": "h01",
             "household": {"p_base_kw": 0.5, "p_morning_kw": 0.4,
                           "p_evening_kw": 1.0}},
        ],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key].update(value)
        else:
            data[key] = value
    return data


class TestSeries:
    def test_step_series_is_piecewise_constant(self):
        s = StepSeries(0.0, 10.0, 3, (1.0, 2.0, 3.0).__getitem__)
        assert s.value(0.0) == 1.0
        assert s.value(9.999) == 1.0
        assert s.value(10.0) == 2.0
        assert s.value(29.999) == 3.0

    def test_linear_series_interpolates(self):
        s = LinearSeries(0.0, 10.0, 3, (0.0, 10.0, 0.0).__getitem__)
        assert s.value(5.0) == pytest.approx(5.0)
        assert s.value(10.0) == pytest.approx(10.0)
        assert s.value(15.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("t", [-0.001, 30.0, 1e9])
    def test_step_series_out_of_coverage(self, t):
        s = StepSeries(0.0, 10.0, 3, (1.0, 2.0, 3.0).__getitem__)
        with pytest.raises(ConfigurationError, match="does not cover"):
            s.value(t)

    @pytest.mark.parametrize("t", [-0.001, 20.0, 25.0])
    def test_linear_series_out_of_coverage(self, t):
        s = LinearSeries(0.0, 10.0, 3, (0.0, 10.0, 0.0).__getitem__)
        with pytest.raises(ConfigurationError, match="does not cover"):
            s.value(t)


class TestBundledScenario:
    def test_census(self):
        s = load_bundled_scenario()
        assert s.plant_census() == {
            "prosumers": 13, "pv": 10, "bes": 4, "ehp": 6,
            "bev": 18, "bev_v2g": 5, "controllable_plants": 38,
        }

    def test_round_trip_to_dict_and_back(self):
        s = load_bundled_scenario()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_save_load_round_trip(self, tmp_path):
        s = load_bundled_scenario()
        path = tmp_path / "copy.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_saved_file_ends_with_newline(self, tmp_path):
        s = load_bundled_scenario()
        path = tmp_path / "copy.json"
        save_scenario(s, path)
        assert path.read_text().endswith("\n")

    def test_bundled_json_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        data_dir = resources.files("cellflex.data")
        schema = json.loads(data_dir.joinpath("scenario.schema.json").read_text())
        document = json.loads(data_dir.joinpath("rural1_flex.json").read_text())
        jsonschema.validate(document, schema)

    def test_schema_is_valid_and_its_fields_use_only_enforced_keywords(self):
        # the schema alone holds the numeric bounds, and the loader skips a
        # keyword it does not know, so a misspelt bound would drop the rule
        import jsonschema
        schema = scenario_schema()
        jsonschema.Draft202012Validator.check_schema(schema)
        leaves = [(keys, node) for keys, node in schema_nodes(schema)
                   if "properties" not in node and "items" not in node]
        assert len(leaves) > 60
        for keys, node in leaves:
            assert set(node) <= {"type", *_BOUNDS}, keys

    def test_schema_blocks_match_params_fields(self):
        schema = scenario_schema()
        prosumer = schema["properties"]["prosumers"]["items"]["properties"]
        blocks = {
            HouseholdParams: prosumer["household"],
            PvParams: prosumer["pv"],
            BesParams: prosumer["bes"],
            EhpParams: prosumer["ehp"],
            BevParams: prosumer["bevs"]["items"],
            WeatherParams: schema["properties"]["weather"],
            SimulationParams: schema["properties"]["simulation"],
        }
        for cls, block in blocks.items():
            names = [f.name for f in fields(cls)]
            required = [f.name for f in fields(cls) if f.default is MISSING]
            assert list(block["properties"]) == names, cls.__name__
            assert block["required"] == required, cls.__name__

    def test_buses_carry_prosumer_attachment(self):
        s = load_bundled_scenario()
        by_id = {b.id: b for b in s.buses}
        assert by_id["h01"].prosumer == "p01"
        assert by_id["pcc"].prosumer is None
        assert by_id["j1"].prosumer is None

    def test_start_time_of_day(self):
        s = load_bundled_scenario()
        assert s.start_tod_s() == 20 * 3600.0


def full_dict():
    """minimal_dict with every optional block and field group present."""
    data = minimal_dict()
    data["topology"]["buses"][0]["v_nom_ll_v"] = 400.0
    data["topology"]["lines"][0]["id"] = "l01"
    data["prosumers"][0].update(
        pv={"s_rated_kva": 5.0, "p_peak_kwp": 4.0},
        bes={"capacity_kwh": 10.0, "p_max_charge_kw": 2.0,
             "p_max_discharge_kw": 2.0},
        ehp={"p_el_max_kw": 3.0, "p_element_kw": 5.0, "storage_kwh_per_k": 0.4},
        bevs=[{"capacity_kwh": 40.0, "p_rated_kw": 11.0,
               "trips": [{"depart_hour": 8.0, "return_hour": 17.0,
                          "energy_kwh": 8.0}]}])
    return data


def scenario_schema():
    return json.loads(resources.files("cellflex.data")
                      .joinpath("scenario.schema.json").read_text())


def schema_nodes(node, keys=()):
    """(keys, node) of a schema node and of every node below it; an array's
    items are addressed by index 0."""
    yield keys, node
    for key, child in node.get("properties", {}).items():
        yield from schema_nodes(child, keys + (key,))
    if "items" in node:
        yield from schema_nodes(node["items"], keys + (0,))


def schema_bounds(node):
    """(keys, keyword, bound) of every numeric bound below a schema node."""
    for keys, child in schema_nodes(node):
        for keyword in _BOUNDS:
            if keyword in child:
                yield keys, keyword, child[keyword]


# a value just outside each kind of bound
_OUTSIDE = {"minimum": lambda b: b - 1e-6, "exclusiveMinimum": lambda b: b,
            "maximum": lambda b: b + 1e-6, "exclusiveMaximum": lambda b: b}


class TestLoaderValidation:
    def test_full_dict_loads(self):
        scenario_from_dict(full_dict())

    def test_every_schema_bound_is_enforced(self):
        bounds = list(schema_bounds(scenario_schema()))
        assert len(bounds) > 40
        for keys, keyword, bound in bounds:
            data = full_dict()
            parent = data
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = _OUTSIDE[keyword](bound)
            # the message names the JSON object that holds the field
            block = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                            for k in keys[:-1]).lstrip(".")
            with pytest.raises(ConfigurationError, match=re.escape(block)):
                scenario_from_dict(data)

    def test_zero_ratings_the_plants_allow_load(self, monkeypatch):
        # the schema's edge values, which the plants take unchecked: a cell
        # built from them warms up and dispatches within its physical bounds
        data = full_dict()
        pro = data["prosumers"][0]
        pro["pv"].update(p_peak_kwp=0.0, q_fraction_limit=0.0)
        pro["bes"].update(p_max_charge_kw=0.0, p_max_discharge_kw=0.0, soc0=1.0,
                          eta_charge=1.0, eta_discharge=1.0)
        pro["ehp"].update(p_element_kw=0.0, effectiveness=1.0, power_factor=1.0)
        # an empty EV, charging from the 19:00 warmup start until it leaves
        pro["bevs"][0].update(soc0=0.0, eta_charge=1.0, eta_discharge=1.0, trips=[
            {"depart_hour": 21.0, "return_hour": 24.0, "energy_kwh": 6.0}])
        scn = scenario_from_dict(data)
        loaded = scn.prosumers[0]
        assert (loaded.pv.p_peak_kwp, loaded.bes.p_max_charge_kw,
                loaded.bes.p_max_discharge_kw) == (0.0, 0.0, 0.0)
        assert loaded.bevs[0].trips == ((21.0, 24.0, 6.0),)

        monkeypatch.setattr(grid, "_worst_balance_error_pu", 0.0)
        run = run_dispatch(scn, FlexibilityRequest(1.0, 0.5), n_steps=2,
                           config=BasinHoppingConfig(seed=5, n_iter=3))
        assert grid.worst_balance_error_pu() <= 1e-6
        assert len(run.steps) == 2
        for st in run.steps:        # acceptance 9's bounds
            tr = st.trace
            assert math.isfinite(st.of)
            assert all(35.0 - 1e-9 <= t <= 90.0 + 1e-9 for t in tr["ehp_t_c"])
            assert all(-1e-12 <= s <= 1.0 + 1e-12
                       for s in tr["bes_soc"] + tr["bev_soc"])
            assert all(math.hypot(p, q) <= s + 1e-9
                       for p, q, s in zip(tr["inv_p_kw"], tr["inv_q_kvar"],
                                          tr["inv_s_rated_kva"]))
            assert all(p == 0.0 for conn, p in zip(tr["bev_connected"], tr["bev_p_kw"])
                       if not conn)

    @pytest.mark.parametrize("keys, value, message", [
        (("topology", "buses", 0, "v_nom_ll_v"), 0.0,
         "topology.buses[0].v_nom_ll_v: must be > 0, got 0"),
        (("topology", "buses", 0, "v_nom_ll_v"), -400.0,
         "topology.buses[0].v_nom_ll_v: must be > 0, got -400"),
        (("prosumers", 0, "household", "p_base_kw"), -0.5,
         "prosumers[0].household.p_base_kw: must be >= 0, got -0.5"),
        (("weather", "sunrise_hour"), 25.0,
         "weather.sunrise_hour: must be <= 24, got 25"),
        (("weather", "ambient_swing_c"), -1.0,
         "weather.ambient_swing_c: must be >= 0, got -1"),
        (("simulation", "profile_forward_days"), -1.0,
         "simulation.profile_forward_days: must be >= 0, got -1"),
    ], ids=["zero_v_nom", "negative_v_nom", "negative_household_load",
            "hour_past_24", "negative_swing", "negative_forward_days"])
    def test_out_of_bounds_field_names_json_path(self, keys, value, message):
        data = minimal_dict()
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            scenario_from_dict(data)

    def test_warmup_off_the_substep_grid_rejected(self):
        d = minimal_dict(simulation={"warmup_s": 3600.5})
        with pytest.raises(ConfigurationError,
                           match=r"simulation\.warmup_s: warmup of 3600\.5 s is "
                                 r"not a whole number of 15 s warmup substeps"):
            scenario_from_dict(d)

    def test_warmup_schedule(self):
        assert warmup_schedule(1.0, 7200.0) == (15.0, [60] * 8)
        assert warmup_schedule(20.0, 1800.0) == (20.0, [45, 45])
        assert warmup_schedule(40.0, 86400.0) == (40.0, [22] * 98 + [4])
        assert warmup_schedule(1000.0, 3000.0) == (1000.0, [1, 1, 1])
        for duration in (0.0, 7.5, 86400.5, 28797.12):
            with pytest.raises(ConfigurationError, match="whole number"):
                warmup_schedule(5.0, duration)

    def test_minimal_loads(self):
        s = scenario_from_dict(minimal_dict())
        assert s.name == "mini"
        assert len(s.prosumers) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_scenario(path)

    def test_duplicate_prosumer_id(self):
        d = minimal_dict()
        d["topology"]["buses"].append({"id": "h02"})
        d["topology"]["lines"].append(
            {"from": "pcc", "to": "h02", "r_ohm": 0.01, "x_ohm": 0.004,
             "i_max_a": 200.0})
        d["prosumers"].append(dict(d["prosumers"][0], bus="h02"))
        with pytest.raises(ConfigurationError, match=r"prosumers\[1\].id: duplicate"):
            scenario_from_dict(d)

    def test_two_prosumers_on_one_bus(self):
        d = minimal_dict()
        d["prosumers"].append(dict(d["prosumers"][0], id="p02"))
        with pytest.raises(ConfigurationError, match="already has a prosumer"):
            scenario_from_dict(d)

    def test_unknown_bus(self):
        d = minimal_dict()
        d["prosumers"][0]["bus"] = "h99"
        with pytest.raises(ConfigurationError, match="unknown bus 'h99'"):
            scenario_from_dict(d)

    def test_prosumer_on_pcc(self):
        d = minimal_dict()
        d["prosumers"][0]["bus"] = "pcc"
        with pytest.raises(ConfigurationError, match="PCC"):
            scenario_from_dict(d)

    def test_bad_device_parameter_names_json_path(self):
        bes = {"capacity_kwh": 10.0, "p_max_charge_kw": 2.0, "p_max_discharge_kw": 2.0}
        ehp = {"p_el_max_kw": 3.0, "p_element_kw": 5.0, "storage_kwh_per_k": 0.4}
        bev = {"capacity_kwh": 40.0, "p_rated_kw": 11.0}

        def trips(*windows):
            return [dict(bev, trips=[{"depart_hour": dep, "return_hour": ret,
                                      "energy_kwh": 5.0} for dep, ret in windows])]

        cases = [
            ("bes", dict(bes, capacity_kwh=-5.0), "bes.capacity_kwh: must be > 0"),
            ("bes", dict(bes, time_constant_s=0), "bes.time_constant_s: must be > 0"),
            ("ehp", dict(ehp, time_constant_s=-1), "ehp.time_constant_s: must be > 0"),
            ("bevs", [dict(bev, time_constant_s=0)],
             "bevs[0].time_constant_s: must be > 0"),
            ("ehp", dict(ehp, effectiveness=0.0), "ehp.effectiveness: must be > 0"),
            ("ehp", dict(ehp, effectiveness=1.5), "ehp.effectiveness: must be <= 1"),
            ("ehp", dict(ehp, t0_c=20.0),
             "ehp.t0_c: must lie in [t_min_c, t_max_c] = [35, 90], got 20"),
            # above the element threshold (50 C)
            ("ehp", dict(ehp, t_off_c=60.0), "ehp: need t_min_c <= t_on_c < t_off_c"),
            ("bevs", trips((10.0, 9.0)),
             "bevs[0].trips[0].return_hour: must be > depart_hour 10, got 9"),
            # listed out of order, so the overlap shows only once sorted
            ("bevs", trips((11.0, 14.0), (8.0, 12.0)),
             "bevs[0].trips: trip 11-14 h departs before the trip returning "
             "at 12 h is back"),
        ]
        for key, block, message in cases:
            d = minimal_dict()
            d["prosumers"][0][key] = block
            with pytest.raises(ConfigurationError,
                               match=re.escape("prosumers[0]." + message)):
                scenario_from_dict(d)

    def test_missing_required_field_names_json_path(self):
        d = minimal_dict()
        del d["prosumers"][0]["household"]["p_base_kw"]
        with pytest.raises(ConfigurationError,
                           match=r"prosumers\[0\].household.p_base_kw"):
            scenario_from_dict(d)

    def test_non_numeric_field(self):
        bes = {"capacity_kwh": 10.0, "p_max_charge_kw": 2.0, "p_max_discharge_kw": 2.0}
        ehp = {"p_el_max_kw": 3.0, "p_element_kw": 5.0, "storage_kwh_per_k": 0.4}
        bev = {"capacity_kwh": 40.0, "p_rated_kw": 11.0}
        trip = {"depart_hour": math.nan, "return_hour": 18.0, "energy_kwh": 8.0}
        cases = [
            ("household", {"p_base_kw": "half a kilowatt", "p_morning_kw": 0.4,
                           "p_evening_kw": 1.0},
             r"household\.p_base_kw: expected a number"),
            ("bes", dict(bes, capacity_kwh=math.nan),
             r"bes\.capacity_kwh: expected a finite number"),
            ("bes", dict(bes, p_max_charge_kw=math.nan),
             r"bes\.p_max_charge_kw: expected a finite number"),
            ("bes", dict(bes, soc0=math.inf), r"bes\.soc0: expected a finite number"),
            ("bes", dict(bes, capacity_kwh=10 ** 400),
             r"bes\.capacity_kwh: expected a finite number"),
            ("ehp", dict(ehp, heating0=1), r"ehp\.heating0: expected bool, got int"),
            ("bevs", [dict(bev, v2g="no")], r"bevs\[0\]\.v2g: expected bool, got str"),
            ("bevs", [dict(bev, trips=[trip])],
             r"bevs\[0\]\.trips\[0\]\.depart_hour: expected a finite number"),
            ("bevs", [dict(bev, trips=[5])], r"bevs\[0\]\.trips\[0\]: expected an object"),
        ]
        for key, block, message in cases:
            d = minimal_dict()
            d["prosumers"][0][key] = block
            # through JSON text, where non-finite numbers are bare NaN/Infinity
            d = json.loads(json.dumps(d))
            with pytest.raises(ConfigurationError, match=r"prosumers\[0\]\." + message):
                scenario_from_dict(d)
        line_id = r"topology\.lines\[0\]\.id: expected str, got "
        nan_number = r": expected a finite number, got nan"
        for field, value, message in [
                ("name", 7, r"scenario\.name: expected str, got int"),
                ("id", ["x"], line_id + "list"),
                ("id", 5, line_id + "int"),
                ("id", None, line_id + "NoneType"),
                ("r_ohm", math.nan, r"topology\.lines\[0\]\.r_ohm" + nan_number),
                ("transformer_kva", math.nan,
                 r"topology\.transformer_kva" + nan_number)]:
            d = minimal_dict()
            target = {"name": d, "transformer_kva": d["topology"]}.get(
                field, d["topology"]["lines"][0])
            target[field] = value
            with pytest.raises(ConfigurationError, match=message):
                scenario_from_dict(json.loads(json.dumps(d)))

    def test_omitted_fields_take_params_defaults(self):
        d = minimal_dict()
        d["prosumers"][0].update(
            bes={"capacity_kwh": 10.0, "p_max_charge_kw": 2.0, "p_max_discharge_kw": 3.0},
            ehp={"p_el_max_kw": 3.0, "p_element_kw": 5.0, "storage_kwh_per_k": 0.4},
            bevs=[{"capacity_kwh": 40.0, "p_rated_kw": 11.0}])
        pro = scenario_from_dict(d).prosumers[0]
        assert pro.bes == BesParams(10.0, 2.0, 3.0)
        assert pro.ehp == EhpParams(3.0, 5.0, 0.4)
        assert pro.bevs == (BevParams(40.0, 11.0),)
        bes = BatteryStorage(pro.bes)
        assert (bes.soc, bes.eta_charge, bes.eta_discharge, bes.time_constant_s) \
            == (pro.bes.soc0, pro.bes.eta_charge, pro.bes.eta_discharge,
                pro.bes.time_constant_s)
        ehp = HeatPumpSystem(pro.ehp)
        assert (ehp.t_storage_c, ehp.heating, ehp.t_on_c, ehp.t_off_c, ehp.effectiveness) \
            == (pro.ehp.t0_c, pro.ehp.heating0, pro.ehp.t_on_c, pro.ehp.t_off_c,
                pro.ehp.effectiveness)
        bev = ElectricVehicle(pro.bevs[0])
        assert bev.soc == 1.0
        assert (bev.v2g, bev.trips, bev.time_constant_s) \
            == (False, (), pro.bevs[0].time_constant_s)

    def test_dispatch_step_not_multiple_of_internal_dt(self):
        # 1e-10 s would hold round(1e-10) = 0 substeps of 1 s
        for dt, step in ((4.0, 15.0), (1.0, 1e-10)):
            d = minimal_dict(simulation={"internal_dt_s": dt,
                                         "dispatch_step_s": step})
            with pytest.raises(ConfigurationError, match="integer multiple"):
                scenario_from_dict(d)

    def test_warmup_longer_than_profile_window(self):
        d = minimal_dict(simulation={"warmup_s": 86400.0 * 9,
                                     "profile_back_days": 8.0})
        with pytest.raises(ConfigurationError, match="warmup_s"):
            scenario_from_dict(d)

    def test_zero_warmup_rejected(self):
        d = minimal_dict(simulation={"warmup_s": 0.0})
        with pytest.raises(ConfigurationError, match=r"warmup_s: must be > 0"):
            scenario_from_dict(d)

    def test_sunset_before_sunrise(self):
        d = minimal_dict(weather={"ambient_mean_c": 5.0, "ambient_swing_c": 3.0,
                                  "sunrise_hour": 18.0, "sunset_hour": 6.0})
        with pytest.raises(ConfigurationError, match="sunset_hour"):
            scenario_from_dict(d)

    def test_non_iso_start(self):
        d = minimal_dict(simulation={"start": "yesterday evening"})
        with pytest.raises(ConfigurationError, match="ISO timestamp"):
            scenario_from_dict(d)

    def test_dangling_line_rejected(self):
        d = minimal_dict()
        d["topology"]["lines"][0]["to"] = "h77"
        with pytest.raises(ConfigurationError):
            scenario_from_dict(d)

    def test_bad_ehp_thermostat_band(self):
        d = minimal_dict()
        d["prosumers"][0]["ehp"] = {"p_el_max_kw": 3.0, "p_element_kw": 5.0,
                                    "storage_kwh_per_k": 0.4,
                                    "t_on_c": 48.0, "t_off_c": 42.0}
        with pytest.raises(ConfigurationError, match=r"prosumers\[0\].ehp"):
            scenario_from_dict(d)


class TestProfiles:
    def test_household_peaks_morning_and_evening(self):
        hh = HouseholdParams(p_base_kw=0.3, p_morning_kw=0.6, p_evening_kw=1.2)
        d = minimal_dict()
        d["prosumers"][0]["household"] = {
            "p_base_kw": 0.3, "p_morning_kw": 0.6, "p_evening_kw": 1.2}
        s = scenario_from_dict(d)
        household = build_profiles(s).household["p01"]
        p_at_20h, q_at_20h, _ = household.value(0.0)
        # t = 0 is 20:00; evening shoulder well above the small hours
        assert p_at_20h > household.value(7 * 3600.0)[0]  # 20:00 vs 03:00
        assert q_at_20h == pytest.approx(p_at_20h * 0.20)
        peak_evening = hh.p_base_kw + hh.p_evening_kw \
            + hh.p_morning_kw * math.exp(-(12.0 / 1.3) ** 2)
        # the sampled grid straddles 19:30; allow the 15-min discretization
        p_values = [household.at(k)[0] for k in range(household.n)]
        assert max(p_values) == pytest.approx(peak_evening, rel=0.05)

    def test_irradiance_zero_at_night_positive_at_noon(self):
        s = scenario_from_dict(minimal_dict())
        profiles = build_profiles(s)
        assert profiles.irradiance.value(0.0) == 0.0          # 20:00
        assert profiles.irradiance.value(-8 * 3600.0) > 100.0  # noon

    def test_ambient_peaks_at_configured_hour(self):
        s = scenario_from_dict(minimal_dict())
        profiles = build_profiles(s)
        at_peak = profiles.ambient.value(-6 * 3600.0)   # 14:00
        at_trough = profiles.ambient.value(6 * 3600.0)  # 02:00
        assert at_peak == pytest.approx(5.0 + 3.0, abs=0.01)
        assert at_peak > at_trough

    def test_heat_demand_tracks_cold(self):
        d = minimal_dict()
        d["prosumers"][0]["household"].update(
            {"heat_ua_kw_per_k": 0.1, "heat_base_kw": 0.2})
        d["weather"] = {"ambient_mean_c": -1.0, "ambient_swing_c": 0.0}
        s = scenario_from_dict(d)
        profiles = build_profiles(s)
        _, _, heat = profiles.household["p01"].value(0.0)
        assert heat == pytest.approx(0.2 + 0.1 * 18.0)

    def test_coverage_matches_configured_window(self):
        s = scenario_from_dict(minimal_dict())
        profiles = build_profiles(s)
        profiles.ambient.value(-8 * 86400.0)
        profiles.ambient.value(2 * 86400.0 - 1800.0)
        with pytest.raises(ConfigurationError, match="does not cover"):
            profiles.ambient.value(-8 * 86400.0 - 1.0)


def eager_profile_values(scenario):
    """Every grid point of every profile, computed up front with the
    formulas and operand order the profiles use: ambient and irradiance
    tuples, and per prosumer id the (p, q, heat) tuples."""
    sim = scenario.simulation
    t_lo = -sim.profile_back_days * 86400.0
    t_hi = sim.profile_forward_days * 86400.0
    n = int((t_hi - t_lo) / _PROFILE_GRID_S) + 2
    tod0 = scenario.start_tod_s()

    def hour_at(k):
        return ((tod0 + t_lo + k * _PROFILE_GRID_S) % 86400.0) / 3600.0

    def household_p_kw(hh, hour):
        return (hh.p_base_kw
                + hh.p_morning_kw * _gauss_bump(hour, 7.5, 1.3)
                + hh.p_evening_kw * _gauss_bump(hour, 19.5, 2.2))

    def heat_demand_kw(hh, ambient):
        return hh.heat_base_kw + hh.heat_ua_kw_per_k * max(0.0, 17.0 - ambient)

    amb = tuple(_ambient_c(scenario.weather, hour_at(k)) for k in range(n))
    irr = tuple(_irradiance_w_m2(scenario.weather, hour_at(k)) for k in range(n))
    household = {}
    for pro in scenario.prosumers:
        hh = pro.household
        p = tuple(household_p_kw(hh, hour_at(k)) for k in range(n))
        household[pro.id] = (p, tuple(v * hh.tan_phi for v in p),
                             tuple(heat_demand_kw(hh, amb[k]) for k in range(n)))
    return t_lo, amb, irr, household


@pytest.mark.parametrize("make", [load_bundled_scenario,
                                  lambda: scenario_from_dict(minimal_dict())],
                         ids=["bundled", "minimal"])
class TestProfilesOnDemand:
    """Profiles computed when read carry the same bits as the same formulas
    evaluated over the whole grid up front, and still refuse reads outside
    the window."""

    def test_every_grid_point_matches_the_eager_formula(self, make):
        scenario = make()
        profiles = build_profiles(scenario)
        t_lo, amb, irr, household = eager_profile_values(scenario)
        n = len(amb)
        for series, values in ((profiles.ambient, amb), (profiles.irradiance, irr)):
            assert (series.t0_s, series.n) == (t_lo, n)
            assert repr([series.at(k) for k in range(n)]) == repr(list(values))
        assert household.keys() == profiles.household.keys()
        for pid, (p, q, heat) in household.items():
            series = profiles.household[pid]
            assert (series.t0_s, series.n) == (t_lo, n)
            assert repr([series.at(k) for k in range(n)]) \
                == repr(list(zip(p, q, heat)))
            # a step series reads the grid point its time falls in
            assert series.value(t_lo + 450.0) == series.at(0)

    def test_weather_interpolates_between_grid_points(self, make):
        profiles = build_profiles(make())
        t_lo, amb, irr, _ = eager_profile_values(make())
        for series, v in ((profiles.ambient, amb), (profiles.irradiance, irr)):
            for i in range(0, len(v) - 1, 7):
                t = t_lo + i * _PROFILE_GRID_S + 600.0
                frac = (t - t_lo) / _PROFILE_GRID_S - i
                assert repr(series.value(t)) \
                    == repr(v[i] + frac * (v[i + 1] - v[i]))

    def test_reads_outside_the_window_raise(self, make):
        scenario = make()
        profiles = build_profiles(scenario)
        sim = scenario.simulation
        before = -sim.profile_back_days * 86400.0 - 1.0
        after = sim.profile_forward_days * 86400.0 + 2 * _PROFILE_GRID_S
        series = [profiles.ambient, profiles.irradiance,
                  *profiles.household.values()]
        for s in series:
            for t in (before, after):
                with pytest.raises(ConfigurationError, match="does not cover"):
                    s.value(t)

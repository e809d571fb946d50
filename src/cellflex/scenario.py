"""Scenario schema: topology, prosumer device fleets, profiles, simulation times.

A scenario is a plain JSON document (see data/scenario.schema.json and the
bundled data/rural1_flex.json).  Household demand and weather are generated
from compact parametric profiles: a base-plus-morning/evening-bump household
shape sampled to 15-minute steps, a daily cosine for ambient temperature and
a clear-sky bell for irradiance.  Profiles are materialized once over
[start - profile_back_days, start + profile_forward_days]; sampling outside
that window raises a configuration error.

All loader errors are ConfigurationError instances naming the offending JSON
path (e.g. "prosumers[3].bes.capacity_kwh").
"""

import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime
from importlib import resources

from .errors import ConfigurationError
from .grid import Bus, GridTopology, Line
from .plants import (
    BatteryStorage,
    ElectricVehicle,
    HeatPumpSystem,
    PvInverter,
)

log = logging.getLogger("cellflex.scenario")

__all__ = [
    "HouseholdParams", "PvParams", "BesParams", "EhpParams", "BevParams",
    "ProsumerSpec", "WeatherParams", "SimulationParams", "Scenario",
    "StepSeries", "LinearSeries", "ProfileSet",
    "load_scenario", "scenario_from_dict", "scenario_to_dict", "save_scenario",
    "load_bundled_scenario", "build_profiles",
    "build_bes", "build_pv", "build_ehp", "build_bev",
]


# ---------------------------------------------------------------------------
# profile series

class StepSeries:
    """Piecewise-constant series on a fixed grid (household-style profiles)."""

    __slots__ = ("t0_s", "dt_s", "values")

    def __init__(self, t0_s, dt_s, values):
        self.t0_s = t0_s
        self.dt_s = dt_s
        self.values = values

    def value(self, t_s):
        i = int((t_s - self.t0_s) // self.dt_s)
        if t_s < self.t0_s or i >= len(self.values):
            raise ConfigurationError(
                f"profile does not cover t={t_s:.0f}s "
                f"(covered: [{self.t0_s:.0f}, {self.t0_s + self.dt_s * len(self.values):.0f}))")
        return self.values[i]


class LinearSeries:
    """Piecewise-linear series on a fixed grid (weather-style profiles)."""

    __slots__ = ("t0_s", "dt_s", "values")

    def __init__(self, t0_s, dt_s, values):
        self.t0_s = t0_s
        self.dt_s = dt_s
        self.values = values

    def value(self, t_s):
        x = (t_s - self.t0_s) / self.dt_s
        i = int(x)
        if x < 0.0 or i + 1 >= len(self.values):
            raise ConfigurationError(
                f"profile does not cover t={t_s:.0f}s "
                f"(covered: [{self.t0_s:.0f}, {self.t0_s + self.dt_s * (len(self.values) - 1):.0f}))")
        frac = x - i
        v = self.values
        return v[i] + frac * (v[i + 1] - v[i])


# ---------------------------------------------------------------------------
# parameter sets (frozen so scenarios compare by value for round-trip checks)

@dataclass(frozen=True)
class HouseholdParams:
    p_base_kw: float
    p_morning_kw: float
    p_evening_kw: float
    tan_phi: float = 0.20            # reactive demand as a fraction of P
    heat_ua_kw_per_k: float = 0.0    # space-heat conductance vs ambient
    heat_base_kw: float = 0.0        # weather-independent heat demand


@dataclass(frozen=True)
class PvParams:
    s_rated_kva: float
    p_peak_kwp: float
    q_fraction_limit: float = 0.30


@dataclass(frozen=True)
class BesParams:
    capacity_kwh: float
    p_max_charge_kw: float
    p_max_discharge_kw: float
    eta_charge: float = 0.95
    eta_discharge: float = 0.95
    soc0: float = 0.5
    time_constant_s: float = 2.0


@dataclass(frozen=True)
class EhpParams:
    p_el_max_kw: float
    p_element_kw: float
    storage_kwh_per_k: float
    effectiveness: float = 0.5
    t_on_c: float = 42.0
    t_off_c: float = 48.0
    t_min_c: float = 35.0
    t_max_c: float = 90.0
    t_element_threshold_c: float = 50.0
    t0_c: float = 45.0
    heating0: bool = False
    time_constant_s: float = 8.0
    power_factor: float = 0.95


@dataclass(frozen=True)
class BevParams:
    capacity_kwh: float
    p_rated_kw: float
    v2g: bool = False
    eta_charge: float = 0.95
    eta_discharge: float = 0.95
    soc0: float = 1.0
    trips: tuple = ()                # ((depart_hour, return_hour, energy_kwh), ...)
    time_constant_s: float = 1.0


@dataclass(frozen=True)
class ProsumerSpec:
    id: str
    bus: str
    household: HouseholdParams
    pv: PvParams | None = None
    bes: BesParams | None = None
    ehp: EhpParams | None = None
    bevs: tuple = ()


@dataclass(frozen=True)
class WeatherParams:
    ambient_mean_c: float
    ambient_swing_c: float
    ambient_peak_hour: float = 14.0
    irradiance_peak_w_m2: float = 280.0
    sunrise_hour: float = 8.4
    sunset_hour: float = 16.7


@dataclass(frozen=True)
class SimulationParams:
    start: str                       # ISO timestamp, e.g. "2023-01-16T20:00:00"
    internal_dt_s: float = 0.1
    dispatch_step_s: float = 15.0
    warmup_s: float = 86400.0
    profile_back_days: float = 8.0
    profile_forward_days: float = 2.0


@dataclass(frozen=True)
class Scenario:
    name: str
    buses: tuple
    lines: tuple
    pcc_bus: str
    transformer_kva: float
    weather: WeatherParams
    simulation: SimulationParams
    prosumers: tuple

    def build_topology(self):
        return GridTopology(self.buses, self.lines, self.pcc_bus, self.transformer_kva)

    def start_datetime(self):
        return datetime.fromisoformat(self.simulation.start)

    def start_tod_s(self):
        d = self.start_datetime()
        return d.hour * 3600.0 + d.minute * 60.0 + d.second

    def check_horizon(self, n_steps):
        """Raise ConfigurationError unless ``n_steps`` is at least one step and
        the steps fit the profile window."""
        if n_steps < 1:
            raise ConfigurationError(f"the run needs at least 1 step, got {n_steps}")
        sim = self.simulation
        horizon_s = n_steps * sim.dispatch_step_s
        window_s = sim.profile_forward_days * 86400.0
        if horizon_s > window_s:
            raise ConfigurationError(
                f"{n_steps} steps of {sim.dispatch_step_s:g} s ({horizon_s:g} s) "
                f"exceed the profile window of {window_s:g} s "
                f"(simulation.profile_forward_days={sim.profile_forward_days:g})")

    def plant_census(self):
        n_pv = sum(1 for p in self.prosumers if p.pv is not None)
        n_bes = sum(1 for p in self.prosumers if p.bes is not None)
        n_ehp = sum(1 for p in self.prosumers if p.ehp is not None)
        n_bev = sum(len(p.bevs) for p in self.prosumers)
        n_v2g = sum(1 for p in self.prosumers for b in p.bevs if b.v2g)
        return {
            "prosumers": len(self.prosumers),
            "pv": n_pv,
            "bes": n_bes,
            "ehp": n_ehp,
            "bev": n_bev,
            "bev_v2g": n_v2g,
            "controllable_plants": n_pv + n_bes + n_ehp + n_bev,
        }


# ---------------------------------------------------------------------------
# device builders (single source of parameter validation)

def build_bes(p: BesParams):
    return BatteryStorage(p.capacity_kwh, p.p_max_charge_kw, p.p_max_discharge_kw,
                          eta_charge=p.eta_charge, eta_discharge=p.eta_discharge,
                          soc0=p.soc0, time_constant_s=p.time_constant_s)


def build_pv(p: PvParams):
    return PvInverter(p.s_rated_kva, p.p_peak_kwp, q_fraction_limit=p.q_fraction_limit)


def build_ehp(p: EhpParams):
    return HeatPumpSystem(p.p_el_max_kw, p.p_element_kw, p.storage_kwh_per_k,
                          effectiveness=p.effectiveness,
                          t_on_c=p.t_on_c, t_off_c=p.t_off_c,
                          t_min_c=p.t_min_c, t_max_c=p.t_max_c,
                          t_element_threshold_c=p.t_element_threshold_c, t0_c=p.t0_c,
                          heating0=p.heating0,
                          time_constant_s=p.time_constant_s,
                          power_factor=p.power_factor)


def build_bev(p: BevParams):
    trips = tuple((d * 3600.0, r * 3600.0, e) for d, r, e in p.trips)
    return ElectricVehicle(p.capacity_kwh, p.p_rated_kw, v2g=p.v2g,
                           eta_charge=p.eta_charge, eta_discharge=p.eta_discharge,
                           soc0=p.soc0, trips=trips,
                           time_constant_s=p.time_constant_s)


# ---------------------------------------------------------------------------
# synthetic profiles

def _gauss_bump(hour, center, width):
    return math.exp(-((hour - center) / width) ** 2)


def _household_p_kw(hh, hour):
    return (hh.p_base_kw
            + hh.p_morning_kw * _gauss_bump(hour, 7.5, 1.3)
            + hh.p_evening_kw * _gauss_bump(hour, 19.5, 2.2))


def _ambient_c(weather, hour):
    return (weather.ambient_mean_c
            + weather.ambient_swing_c
            * math.cos(2.0 * math.pi * (hour - weather.ambient_peak_hour) / 24.0))


def _irradiance_w_m2(weather, hour):
    rise, set_ = weather.sunrise_hour, weather.sunset_hour
    if hour <= rise or hour >= set_:
        return 0.0
    return weather.irradiance_peak_w_m2 * math.sin(math.pi * (hour - rise) / (set_ - rise)) ** 2


def _heat_demand_kw(hh, ambient):
    return hh.heat_base_kw + hh.heat_ua_kw_per_k * max(0.0, 17.0 - ambient)


@dataclass
class ProfileSet:
    ambient: LinearSeries
    irradiance: LinearSeries
    household: dict                  # prosumer id -> (p, q, heat) series


def build_profiles(scenario, grid_s=900.0):
    """Materialize all profiles over the scenario's coverage window."""
    sim = scenario.simulation
    t_lo = -sim.profile_back_days * 86400.0
    t_hi = sim.profile_forward_days * 86400.0
    n = int((t_hi - t_lo) / grid_s) + 2
    tod0 = scenario.start_tod_s()

    def hour_at(k):
        return ((tod0 + t_lo + k * grid_s) % 86400.0) / 3600.0

    amb_vals = tuple(_ambient_c(scenario.weather, hour_at(k)) for k in range(n))
    irr_vals = tuple(_irradiance_w_m2(scenario.weather, hour_at(k)) for k in range(n))
    ambient = LinearSeries(t_lo, grid_s, amb_vals)
    irradiance = LinearSeries(t_lo, grid_s, irr_vals)

    household = {}
    for pro in scenario.prosumers:
        hh = pro.household
        p_vals = tuple(_household_p_kw(hh, hour_at(k)) for k in range(n))
        q_vals = tuple(p * hh.tan_phi for p in p_vals)
        heat_vals = tuple(_heat_demand_kw(hh, amb_vals[k]) for k in range(n))
        household[pro.id] = (
            StepSeries(t_lo, grid_s, p_vals),
            StepSeries(t_lo, grid_s, q_vals),
            StepSeries(t_lo, grid_s, heat_vals),
        )
    return ProfileSet(ambient, irradiance, household)


# ---------------------------------------------------------------------------
# JSON loading / validation

def _require(mapping, key, path, kind=None):
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"{path}: expected an object")
    if key not in mapping:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigurationError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _number(mapping, key, path, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigurationError(f"{path}.{key}: missing required field")
        return float(default)
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    return float(value)


def _build_checked(builder, params, path):
    try:
        builder(params)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return params


def _parse_household(data, path):
    return HouseholdParams(
        p_base_kw=_number(data, "p_base_kw", path),
        p_morning_kw=_number(data, "p_morning_kw", path),
        p_evening_kw=_number(data, "p_evening_kw", path),
        tan_phi=_number(data, "tan_phi", path, 0.20),
        heat_ua_kw_per_k=_number(data, "heat_ua_kw_per_k", path, 0.0),
        heat_base_kw=_number(data, "heat_base_kw", path, 0.0),
    )


def _parse_pv(data, path):
    params = PvParams(
        s_rated_kva=_number(data, "s_rated_kva", path),
        p_peak_kwp=_number(data, "p_peak_kwp", path),
        q_fraction_limit=_number(data, "q_fraction_limit", path, 0.30),
    )
    return _build_checked(build_pv, params, path)


def _parse_bes(data, path):
    params = BesParams(
        capacity_kwh=_number(data, "capacity_kwh", path),
        p_max_charge_kw=_number(data, "p_max_charge_kw", path),
        p_max_discharge_kw=_number(data, "p_max_discharge_kw", path),
        eta_charge=_number(data, "eta_charge", path, 0.95),
        eta_discharge=_number(data, "eta_discharge", path, 0.95),
        soc0=_number(data, "soc0", path, 0.5),
        time_constant_s=_number(data, "time_constant_s", path, 2.0),
    )
    return _build_checked(build_bes, params, path)


def _parse_ehp(data, path):
    params = EhpParams(
        p_el_max_kw=_number(data, "p_el_max_kw", path),
        p_element_kw=_number(data, "p_element_kw", path),
        storage_kwh_per_k=_number(data, "storage_kwh_per_k", path),
        effectiveness=_number(data, "effectiveness", path, 0.5),
        t_on_c=_number(data, "t_on_c", path, 42.0),
        t_off_c=_number(data, "t_off_c", path, 48.0),
        t_min_c=_number(data, "t_min_c", path, 35.0),
        t_max_c=_number(data, "t_max_c", path, 90.0),
        t_element_threshold_c=_number(data, "t_element_threshold_c", path, 50.0),
        t0_c=_number(data, "t0_c", path, 45.0),
        heating0=bool(data.get("heating0", False)),
        time_constant_s=_number(data, "time_constant_s", path, 8.0),
        power_factor=_number(data, "power_factor", path, 0.95),
    )
    return _build_checked(build_ehp, params, path)


def _parse_bev(data, path):
    trips_raw = data.get("trips", [])
    if not isinstance(trips_raw, list):
        raise ConfigurationError(f"{path}.trips: expected an array")
    trips = []
    for k, trip in enumerate(trips_raw):
        tpath = f"{path}.trips[{k}]"
        trips.append((
            _number(trip, "depart_hour", tpath),
            _number(trip, "return_hour", tpath),
            _number(trip, "energy_kwh", tpath),
        ))
    params = BevParams(
        capacity_kwh=_number(data, "capacity_kwh", path),
        p_rated_kw=_number(data, "p_rated_kw", path),
        v2g=bool(data.get("v2g", False)),
        eta_charge=_number(data, "eta_charge", path, 0.95),
        eta_discharge=_number(data, "eta_discharge", path, 0.95),
        soc0=_number(data, "soc0", path, 1.0),
        trips=tuple(trips),
        time_constant_s=_number(data, "time_constant_s", path, 1.0),
    )
    return _build_checked(build_bev, params, path)


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigurationError("scenario root: expected a JSON object")
    name = data.get("name", "unnamed")

    topo = _require(data, "topology", "scenario", dict)
    pcc_bus = _require(topo, "pcc_bus", "topology", str)
    transformer_kva = _number(topo, "transformer_kva", "topology", 160.0)

    buses_raw = _require(topo, "buses", "topology", list)
    lines_raw = _require(topo, "lines", "topology", list)

    prosumers_raw = data.get("prosumers", [])
    if not isinstance(prosumers_raw, list):
        raise ConfigurationError("prosumers: expected an array")

    # parse prosumers first so bus records can carry their attachment
    prosumers = []
    seen_ids = set()
    seen_buses = set()
    for i, pr in enumerate(prosumers_raw):
        path = f"prosumers[{i}]"
        pid = _require(pr, "id", path, str)
        if pid in seen_ids:
            raise ConfigurationError(f"{path}.id: duplicate prosumer id '{pid}'")
        seen_ids.add(pid)
        bus = _require(pr, "bus", path, str)
        if bus in seen_buses:
            raise ConfigurationError(f"{path}.bus: bus '{bus}' already has a prosumer")
        seen_buses.add(bus)
        bevs = []
        bev_raw = pr.get("bevs", [])
        if not isinstance(bev_raw, list):
            raise ConfigurationError(f"{path}.bevs: expected an array")
        for k, bv in enumerate(bev_raw):
            bevs.append(_parse_bev(bv, f"{path}.bevs[{k}]"))
        prosumers.append(ProsumerSpec(
            id=pid,
            bus=bus,
            household=_parse_household(_require(pr, "household", path, dict),
                                       f"{path}.household"),
            pv=_parse_pv(pr["pv"], f"{path}.pv") if pr.get("pv") is not None else None,
            bes=_parse_bes(pr["bes"], f"{path}.bes") if pr.get("bes") is not None else None,
            ehp=_parse_ehp(pr["ehp"], f"{path}.ehp") if pr.get("ehp") is not None else None,
            bevs=tuple(bevs),
        ))

    prosumer_by_bus = {p.bus: p.id for p in prosumers}
    buses = []
    for i, b in enumerate(buses_raw):
        path = f"topology.buses[{i}]"
        bid = _require(b, "id", path, str)
        buses.append(Bus(
            id=bid,
            v_nom_ll_v=_number(b, "v_nom_ll_v", path, 400.0),
            prosumer=prosumer_by_bus.get(bid),
        ))
    bus_ids = {b.id for b in buses}
    for i, p in enumerate(prosumers):
        if p.bus not in bus_ids:
            raise ConfigurationError(
                f"prosumers[{i}].bus: unknown bus '{p.bus}'")
        if p.bus == pcc_bus:
            raise ConfigurationError(
                f"prosumers[{i}].bus: prosumer may not sit on the PCC bus")

    lines = []
    for i, ln in enumerate(lines_raw):
        path = f"topology.lines[{i}]"
        lines.append(Line(
            from_bus=_require(ln, "from", path, str),
            to_bus=_require(ln, "to", path, str),
            r_ohm=_number(ln, "r_ohm", path),
            x_ohm=_number(ln, "x_ohm", path),
            i_max_a=_number(ln, "i_max_a", path),
            id=ln.get("id", ""),
        ))

    weather_raw = _require(data, "weather", "scenario", dict)
    weather = WeatherParams(
        ambient_mean_c=_number(weather_raw, "ambient_mean_c", "weather"),
        ambient_swing_c=_number(weather_raw, "ambient_swing_c", "weather"),
        ambient_peak_hour=_number(weather_raw, "ambient_peak_hour", "weather", 14.0),
        irradiance_peak_w_m2=_number(weather_raw, "irradiance_peak_w_m2", "weather", 280.0),
        sunrise_hour=_number(weather_raw, "sunrise_hour", "weather", 8.4),
        sunset_hour=_number(weather_raw, "sunset_hour", "weather", 16.7),
    )
    if weather.sunset_hour <= weather.sunrise_hour:
        raise ConfigurationError("weather.sunset_hour: must exceed sunrise_hour")

    sim_raw = _require(data, "simulation", "scenario", dict)
    sim = SimulationParams(
        start=_require(sim_raw, "start", "simulation", str),
        internal_dt_s=_number(sim_raw, "internal_dt_s", "simulation", 0.1),
        dispatch_step_s=_number(sim_raw, "dispatch_step_s", "simulation", 15.0),
        warmup_s=_number(sim_raw, "warmup_s", "simulation", 86400.0),
        profile_back_days=_number(sim_raw, "profile_back_days", "simulation", 8.0),
        profile_forward_days=_number(sim_raw, "profile_forward_days", "simulation", 2.0),
    )
    try:
        datetime.fromisoformat(sim.start)
    except ValueError:
        raise ConfigurationError(
            f"simulation.start: not an ISO timestamp: '{sim.start}'") from None
    if sim.internal_dt_s <= 0.0:
        raise ConfigurationError("simulation.internal_dt_s: must be > 0")
    if sim.dispatch_step_s <= 0.0:
        raise ConfigurationError("simulation.dispatch_step_s: must be > 0")
    n_sub = sim.dispatch_step_s / sim.internal_dt_s
    if abs(n_sub - round(n_sub)) > 1e-9:
        raise ConfigurationError(
            "simulation.dispatch_step_s: must be an integer multiple of internal_dt_s")
    if sim.warmup_s < 0.0:
        raise ConfigurationError("simulation.warmup_s: must be >= 0")
    if sim.warmup_s > sim.profile_back_days * 86400.0:
        raise ConfigurationError(
            "simulation.warmup_s: exceeds the covered profile window "
            "(profile_back_days)")

    scenario = Scenario(
        name=name,
        buses=tuple(buses),
        lines=tuple(lines),
        pcc_bus=pcc_bus,
        transformer_kva=transformer_kva,
        weather=weather,
        simulation=sim,
        prosumers=tuple(prosumers),
    )
    # surface topology problems (dangling lines, non-tree, ...) at load time
    scenario.build_topology()

    census = scenario.plant_census()
    log.info(
        "scenario '%s': %d prosumers, %d pv, %d bes, %d ehp, %d bev (%d v2g) "
        "-> %d controllable plants",
        name, census["prosumers"], census["pv"], census["bes"], census["ehp"],
        census["bev"], census["bev_v2g"], census["controllable_plants"])
    return scenario


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    return scenario_from_dict(data)


def load_bundled_scenario(name="rural1_flex"):
    text = resources.files("cellflex.data").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# serialization (inverse of the loader; round-trips to an identical Scenario)

def scenario_to_dict(s: Scenario):
    def household(hh):
        return {
            "p_base_kw": hh.p_base_kw,
            "p_morning_kw": hh.p_morning_kw,
            "p_evening_kw": hh.p_evening_kw,
            "tan_phi": hh.tan_phi,
            "heat_ua_kw_per_k": hh.heat_ua_kw_per_k,
            "heat_base_kw": hh.heat_base_kw,
        }

    def pv(p):
        return {"s_rated_kva": p.s_rated_kva, "p_peak_kwp": p.p_peak_kwp,
                "q_fraction_limit": p.q_fraction_limit}

    def bes(p):
        return {"capacity_kwh": p.capacity_kwh,
                "p_max_charge_kw": p.p_max_charge_kw,
                "p_max_discharge_kw": p.p_max_discharge_kw,
                "eta_charge": p.eta_charge, "eta_discharge": p.eta_discharge,
                "soc0": p.soc0, "time_constant_s": p.time_constant_s}

    def ehp(p):
        return {"p_el_max_kw": p.p_el_max_kw, "p_element_kw": p.p_element_kw,
                "storage_kwh_per_k": p.storage_kwh_per_k,
                "effectiveness": p.effectiveness,
                "t_on_c": p.t_on_c, "t_off_c": p.t_off_c, "t_min_c": p.t_min_c,
                "t_max_c": p.t_max_c,
                "t_element_threshold_c": p.t_element_threshold_c,
                "t0_c": p.t0_c, "heating0": p.heating0,
                "time_constant_s": p.time_constant_s,
                "power_factor": p.power_factor}

    def bev(p):
        return {"capacity_kwh": p.capacity_kwh, "p_rated_kw": p.p_rated_kw,
                "v2g": p.v2g, "eta_charge": p.eta_charge,
                "eta_discharge": p.eta_discharge, "soc0": p.soc0,
                "trips": [{"depart_hour": d, "return_hour": r, "energy_kwh": e}
                          for d, r, e in p.trips],
                "time_constant_s": p.time_constant_s}

    return {
        "name": s.name,
        "topology": {
            "pcc_bus": s.pcc_bus,
            "transformer_kva": s.transformer_kva,
            "buses": [{"id": b.id, "v_nom_ll_v": b.v_nom_ll_v} for b in s.buses],
            "lines": [{"id": ln.id, "from": ln.from_bus, "to": ln.to_bus,
                       "r_ohm": ln.r_ohm, "x_ohm": ln.x_ohm,
                       "i_max_a": ln.i_max_a} for ln in s.lines],
        },
        "weather": {
            "ambient_mean_c": s.weather.ambient_mean_c,
            "ambient_swing_c": s.weather.ambient_swing_c,
            "ambient_peak_hour": s.weather.ambient_peak_hour,
            "irradiance_peak_w_m2": s.weather.irradiance_peak_w_m2,
            "sunrise_hour": s.weather.sunrise_hour,
            "sunset_hour": s.weather.sunset_hour,
        },
        "simulation": {
            "start": s.simulation.start,
            "internal_dt_s": s.simulation.internal_dt_s,
            "dispatch_step_s": s.simulation.dispatch_step_s,
            "warmup_s": s.simulation.warmup_s,
            "profile_back_days": s.simulation.profile_back_days,
            "profile_forward_days": s.simulation.profile_forward_days,
        },
        "prosumers": [
            {
                "id": p.id,
                "bus": p.bus,
                "household": household(p.household),
                **({"pv": pv(p.pv)} if p.pv else {}),
                **({"bes": bes(p.bes)} if p.bes else {}),
                **({"ehp": ehp(p.ehp)} if p.ehp else {}),
                "bevs": [bev(b) for b in p.bevs],
            }
            for p in s.prosumers
        ],
    }


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=False)
        fh.write("\n")

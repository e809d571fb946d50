"""Scenario schema: topology, prosumer device fleets, profiles, simulation times.

A scenario is a plain JSON document (see data/scenario.schema.json and the
bundled data/rural1_flex.json).  Household demand and weather are generated
from compact parametric profiles: a base-plus-morning/evening-bump household
shape sampled to 15-minute steps, a daily cosine for ambient temperature and
a clear-sky bell for irradiance.  Profiles compute a point of their 15-minute
grid over [start - profile_back_days, start + profile_forward_days] when it
is read, its time-of-day shape once for the whole cell; sampling outside
that window raises a configuration error.

The frozen ``*Params`` dataclasses are the single declaration of every
scenario parameter: the loader reads each JSON block by walking its record's
fields (a missing key takes the field's default, a field without a default is
required), the writer emits the same fields, and the plant classes take the
record itself.

The loader is the only place a scenario rule is checked; the plant classes
and ``GridTopology``'s line and transformer parameters trust the records they
are given.  It checks every numeric bound of scenario.schema.json, the rules
across fields that the schema cannot state (a heat pump's thermostat band
and start temperature, each BEV trip departing before it returns and no two
trips of a vehicle overlapping, sunset after sunrise), the cell's timing and,
by building it once, the grid's structure.  All loader errors are
ConfigurationError instances naming the offending JSON path (e.g.
"prosumers[3].bes.capacity_kwh").
"""

import functools
import inspect
import json
import logging
import math
import numbers
import operator
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime
from importlib import resources

from .errors import ConfigurationError
from .grid import Bus, GridTopology, Line

log = logging.getLogger("cellflex.scenario")

__all__ = [
    "HouseholdParams", "PvParams", "BesParams", "EhpParams", "BevParams",
    "ProsumerSpec", "WeatherParams", "SimulationParams", "Scenario",
    "StepSeries", "LinearSeries", "ProfileSet",
    "load_scenario", "scenario_from_dict", "scenario_to_dict", "save_scenario",
    "load_bundled_scenario", "build_profiles", "warmup_schedule",
]

# shortest warmup substep and longest warmup block (see warmup_schedule)
_WARMUP_SUBSTEP_S = 15.0
_WARMUP_BLOCK_S = 900.0


# ---------------------------------------------------------------------------
# profile series

@dataclass(slots=True)
class StepSeries:
    """Piecewise-constant series; ``at(i)`` computes grid point i of ``n``."""

    t0_s: float
    dt_s: float
    n: int
    at: object

    def value(self, t_s):
        i = int((t_s - self.t0_s) // self.dt_s)
        if t_s < self.t0_s or i >= self.n:
            raise ConfigurationError(
                f"profile does not cover t={t_s:.0f}s "
                f"(covered: [{self.t0_s:.0f}, {self.t0_s + self.dt_s * self.n:.0f}))")
        return self.at(i)

    def values(self, times):
        """``[value(t) for t in times]``, with the window checked once."""
        t0, dt = self.t0_s, self.dt_s
        points = [int((t - t0) // dt) for t in times]
        if points and (min(times) < t0 or max(points) >= self.n):
            for t in times:
                self.value(t)           # raises at the first uncovered time
        return list(map(self.at, points))


@dataclass(slots=True)
class LinearSeries:
    """Piecewise-linear series; ``at(i)`` computes grid point i of ``n``."""

    t0_s: float
    dt_s: float
    n: int
    at: object

    def value(self, t_s):
        x = (t_s - self.t0_s) / self.dt_s
        i = int(x)
        if x < 0.0 or i + 1 >= self.n:
            raise ConfigurationError(
                f"profile does not cover t={t_s:.0f}s "
                f"(covered: [{self.t0_s:.0f}, {self.t0_s + self.dt_s * (self.n - 1):.0f}))")
        v_i = self.at(i)
        return v_i + (x - i) * (self.at(i + 1) - v_i)


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
        """Raise ConfigurationError unless ``n_steps`` is an integer of at least
        one step and the steps fit the profile window."""
        if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1):
            raise ConfigurationError(
                f"the run needs a whole number of at least 1 step, got {n_steps!r}")
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
# synthetic profiles

def _gauss_bump(hour, center, width):
    return math.exp(-((hour - center) / width) ** 2)


def _ambient_c(weather, hour):
    return (weather.ambient_mean_c
            + weather.ambient_swing_c
            * math.cos(2.0 * math.pi * (hour - weather.ambient_peak_hour) / 24.0))


def _irradiance_w_m2(weather, hour):
    rise, set_ = weather.sunrise_hour, weather.sunset_hour
    if hour <= rise or hour >= set_:
        return 0.0
    return weather.irradiance_peak_w_m2 * math.sin(math.pi * (hour - rise) / (set_ - rise)) ** 2


# sample spacing of the profile grid (15 minutes)
_PROFILE_GRID_S = 900.0


@dataclass
class ProfileSet:
    ambient: LinearSeries
    irradiance: LinearSeries
    household: dict                  # prosumer id -> series of (p, q, heat)


def build_profiles(scenario):
    """All profiles over the scenario's coverage window, computed on read.

    A grid point's time-of-day shape (the household's morning and evening
    bumps, the ambient temperature, the heating shortfall below 17 deg C and
    the irradiance) is computed the first time any series reads it and kept
    for the cell; each household scales it with its own parameters.
    """
    sim = scenario.simulation
    t_lo = -sim.profile_back_days * 86400.0
    t_hi = sim.profile_forward_days * 86400.0
    n = int((t_hi - t_lo) / _PROFILE_GRID_S) + 2
    tod0 = scenario.start_tod_s()
    weather = scenario.weather
    shapes = [None] * n

    def shape(k):
        kept = shapes[k]
        if kept is None:
            hour = ((tod0 + t_lo + k * _PROFILE_GRID_S) % 86400.0) / 3600.0
            ambient = _ambient_c(weather, hour)
            kept = shapes[k] = (_gauss_bump(hour, 7.5, 1.3),
                                _gauss_bump(hour, 19.5, 2.2),
                                ambient, max(0.0, 17.0 - ambient),
                                _irradiance_w_m2(weather, hour))
        return kept

    def household(hh):
        p_base, p_morning, p_evening = hh.p_base_kw, hh.p_morning_kw, hh.p_evening_kw
        tan_phi, heat_base, heat_ua = hh.tan_phi, hh.heat_base_kw, hh.heat_ua_kw_per_k

        def at(k):
            morning, evening, _, cold, _ = shape(k)
            p = p_base + p_morning * morning + p_evening * evening
            return (p, p * tan_phi, heat_base + heat_ua * cold)
        return StepSeries(t_lo, _PROFILE_GRID_S, n, at)

    return ProfileSet(
        LinearSeries(t_lo, _PROFILE_GRID_S, n, lambda k: shape(k)[2]),
        LinearSeries(t_lo, _PROFILE_GRID_S, n, lambda k: shape(k)[4]),
        {pro.id: household(pro.household) for pro in scenario.prosumers})


def warmup_schedule(internal_dt_s, duration_s):
    """Substep and per-block substep counts of a warmup of ``duration_s``.

    The substep is ``max(internal_dt_s, 15 s)``; each block holds the largest
    whole number of substeps that fits in 900 s (at least one), and the last
    block the rest.  Raises ConfigurationError unless ``duration_s`` is a
    whole number of substeps.
    """
    substep = max(internal_dt_s, _WARMUP_SUBSTEP_S)
    n = round(duration_s / substep)
    if n < 1 or abs(n * substep - duration_s) > 1e-9 * max(1.0, duration_s):
        raise ConfigurationError(
            f"warmup of {duration_s:g} s is not a whole number of "
            f"{substep:g} s warmup substeps")
    per_block = max(1, int(_WARMUP_BLOCK_S / substep + 1e-9))
    full, rest = divmod(n, per_block)
    blocks = [per_block] * full
    if rest:
        blocks.append(rest)
    return substep, blocks


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


# JSON-schema bound keywords: the comparison that must hold, and its text
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "maximum": (operator.le, "<="), "exclusiveMaximum": (operator.lt, "<")}


class _SchemaNode(dict):
    """A JSON-schema object, its bound keywords kept as ``checks``: the
    ``(holds, text, bound)`` of each, in the node's key order."""

    __slots__ = ("checks",)

    def __init__(self, pairs):
        super().__init__(pairs)
        self.checks = tuple((*_BOUNDS[keyword], bound)
                            for keyword, bound in pairs if keyword in _BOUNDS)


def _number(mapping, key, path, default=None, props=None):
    """Read a finite number; with the schema ``props`` of the object, check
    its bounds."""
    if key not in mapping:
        if default is None:
            raise ConfigurationError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:            # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{path}.{key}: expected a finite number, got {number}")
    if props is not None:
        for holds, text, bound in props[key].checks:
            if not holds(number, bound):
                raise ConfigurationError(
                    f"{path}.{key}: must be {text} {bound:g}, got {number:g}")
    return number


# keys of one BEV trip object, in the order of a BevParams.trips tuple
_TRIP_KEYS = ("depart_hour", "return_hour", "energy_kwh")


def _parse_trips(raw, path, props):
    """A BEV's trips; each departs before it returns, and no two overlap."""
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: expected an array")
    trips = []
    for k, trip in enumerate(raw):
        tpath = f"{path}[{k}]"
        if not isinstance(trip, dict):
            raise ConfigurationError(f"{tpath}: expected an object")
        depart, ret, energy = (_number(trip, key, tpath, props=props)
                               for key in _TRIP_KEYS)
        if not depart < ret:
            raise ConfigurationError(
                f"{tpath}.return_hour: must be > depart_hour {depart:g}, got {ret:g}")
        trips.append((depart, ret, energy))
    ordered = sorted(trips)
    for (_, prev_ret, _), (depart, ret, _) in zip(ordered, ordered[1:]):
        if depart < prev_ret:
            raise ConfigurationError(
                f"{path}: trip {depart:g}-{ret:g} h departs before the trip "
                f"returning at {prev_ret:g} h is back")
    return tuple(trips)


def _check_ehp_temperatures(ehp, path):
    """Raise unless the heat pump's thermostat band is ordered and its start
    temperature lies in [t_min_c, t_max_c]."""
    if not (ehp.t_min_c <= ehp.t_on_c < ehp.t_off_c
            <= ehp.t_element_threshold_c <= ehp.t_max_c):
        raise ConfigurationError(
            f"{path}: need t_min_c <= t_on_c < t_off_c <= t_element_threshold_c "
            f"<= t_max_c, got {ehp.t_min_c:g}, {ehp.t_on_c:g}, {ehp.t_off_c:g}, "
            f"{ehp.t_element_threshold_c:g}, {ehp.t_max_c:g}")
    if not ehp.t_min_c <= ehp.t0_c <= ehp.t_max_c:
        raise ConfigurationError(
            f"{path}.t0_c: must lie in [t_min_c, t_max_c] = "
            f"[{ehp.t_min_c:g}, {ehp.t_max_c:g}], got {ehp.t0_c:g}")


def _parse_params(cls, data, path, props):
    """Build the params record ``cls`` from the JSON object ``data``.

    Each field is read by its type; a missing key takes the field's default,
    and a field without a default is required.  A number is checked against
    the bounds of its field in the block's schema ``props``.  The only nested
    field, ``BevParams.trips``, is a list of {depart_hour, return_hour,
    energy_kwh}.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected an object")
    values = {}
    for name, kind, default in _fields(cls):
        if kind is float:
            values[name] = _number(data, name, path, default, props)
        elif kind is tuple:
            values[name] = _parse_trips(data.get(name, []), f"{path}.{name}",
                                        props[name]["items"]["properties"])
        elif name not in data and default is not None:
            values[name] = default
        else:
            values[name] = _require(data, name, path, kind)
    return cls(**values)


@functools.cache
def _fields(cls):
    """``(name, type, default or None)`` of each field of the params record
    ``cls``."""
    return tuple((f.name, f.type, None if f.default is MISSING else f.default)
                 for f in fields(cls))


# optional single-device blocks of a prosumer: JSON key, params record
_DEVICES = (("pv", PvParams), ("bes", BesParams), ("ehp", EhpParams))
_TRANSFORMER_KVA = inspect.signature(GridTopology).parameters["transformer_kva"].default


@functools.cache
def _schema():
    """Property schemas of a scenario document, from scenario.schema.json;
    the loader enforces their numeric bounds."""
    text = resources.files("cellflex.data").joinpath("scenario.schema.json").read_text()
    return json.loads(text, object_pairs_hook=_SchemaNode)["properties"]


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigurationError("scenario root: expected a JSON object")
    schema = _schema()
    topo_props = schema["topology"]["properties"]
    pro_props = schema["prosumers"]["items"]["properties"]
    name = _require(data, "name", "scenario", str) if "name" in data else "unnamed"

    topo = _require(data, "topology", "scenario", dict)
    pcc_bus = _require(topo, "pcc_bus", "topology", str)
    transformer_kva = _number(topo, "transformer_kva", "topology", _TRANSFORMER_KVA,
                              topo_props)

    buses_raw = _require(topo, "buses", "topology", list)
    lines_raw = _require(topo, "lines", "topology", list)

    prosumers_raw = data.get("prosumers", [])
    if not isinstance(prosumers_raw, list):
        raise ConfigurationError("prosumers: expected an array")

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
        bev_raw = pr.get("bevs", [])
        if not isinstance(bev_raw, list):
            raise ConfigurationError(f"{path}.bevs: expected an array")
        bevs = tuple(_parse_params(BevParams, bv, f"{path}.bevs[{k}]",
                                   pro_props["bevs"]["items"]["properties"])
                     for k, bv in enumerate(bev_raw))
        household = _parse_params(HouseholdParams, _require(pr, "household", path, dict),
                                  f"{path}.household",
                                  pro_props["household"]["properties"])
        devices = {key: _parse_params(cls, pr[key], f"{path}.{key}",
                                      pro_props[key]["properties"])
                   for key, cls in _DEVICES if pr.get(key) is not None}
        if "ehp" in devices:
            _check_ehp_temperatures(devices["ehp"], f"{path}.ehp")
        prosumers.append(ProsumerSpec(id=pid, bus=bus, household=household,
                                      bevs=bevs, **devices))

    bus_props = topo_props["buses"]["items"]["properties"]
    buses = []
    for i, b in enumerate(buses_raw):
        path = f"topology.buses[{i}]"
        buses.append(Bus(
            id=_require(b, "id", path, str),
            v_nom_ll_v=_number(b, "v_nom_ll_v", path, Bus.v_nom_ll_v, bus_props),
        ))
    bus_ids = {b.id for b in buses}
    for i, p in enumerate(prosumers):
        if p.bus not in bus_ids:
            raise ConfigurationError(
                f"prosumers[{i}].bus: unknown bus '{p.bus}'")
        if p.bus == pcc_bus:
            raise ConfigurationError(
                f"prosumers[{i}].bus: prosumer may not sit on the PCC bus")

    line_props = topo_props["lines"]["items"]["properties"]
    lines = []
    for i, ln in enumerate(lines_raw):
        path = f"topology.lines[{i}]"
        lines.append(Line(
            from_bus=_require(ln, "from", path, str),
            to_bus=_require(ln, "to", path, str),
            r_ohm=_number(ln, "r_ohm", path, props=line_props),
            x_ohm=_number(ln, "x_ohm", path, props=line_props),
            i_max_a=_number(ln, "i_max_a", path, props=line_props),
            id=_require(ln, "id", path, str) if "id" in ln else "",
        ))

    weather = _parse_params(WeatherParams, _require(data, "weather", "scenario", dict),
                            "weather", schema["weather"]["properties"])
    if weather.sunset_hour <= weather.sunrise_hour:
        raise ConfigurationError("weather.sunset_hour: must exceed sunrise_hour")

    sim = _parse_params(SimulationParams, _require(data, "simulation", "scenario", dict),
                        "simulation", schema["simulation"]["properties"])
    try:
        datetime.fromisoformat(sim.start)
    except ValueError:
        raise ConfigurationError(
            f"simulation.start: not an ISO timestamp: '{sim.start}'") from None
    n_sub = round(sim.dispatch_step_s / sim.internal_dt_s)
    if n_sub < 1 or abs(n_sub * sim.internal_dt_s - sim.dispatch_step_s) \
            > 1e-9 * max(1.0, sim.dispatch_step_s):
        raise ConfigurationError(
            "simulation.dispatch_step_s: must be a positive integer multiple "
            "of internal_dt_s")
    if sim.warmup_s > sim.profile_back_days * 86400.0:
        raise ConfigurationError(
            "simulation.warmup_s: exceeds the covered profile window "
            "(profile_back_days)")
    try:
        warmup_schedule(sim.internal_dt_s, sim.warmup_s)
    except ConfigurationError as exc:
        raise ConfigurationError(f"simulation.warmup_s: {exc}") from None

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


def load_bundled_scenario():
    """The bundled rural cell, ``rural1_flex``."""
    text = resources.files("cellflex.data").joinpath("rural1_flex.json").read_text()
    return scenario_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# serialization (inverse of the loader; round-trips to an identical Scenario)

def scenario_to_dict(s: Scenario):
    def bev(p):
        d = asdict(p)
        d["trips"] = [dict(zip(_TRIP_KEYS, trip)) for trip in p.trips]
        return d

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
        "weather": asdict(s.weather),
        "simulation": asdict(s.simulation),
        "prosumers": [
            {
                "id": p.id,
                "bus": p.bus,
                "household": asdict(p.household),
                **{key: asdict(getattr(p, key)) for key, _ in _DEVICES
                   if getattr(p, key) is not None},
                "bevs": [bev(b) for b in p.bevs],
            }
            for p in s.prosumers
        ],
    }


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=False)
        fh.write("\n")

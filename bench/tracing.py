"""Timers wrapped around cellflex's public callables, from outside the package.

Two probes share one interface (``step_marks``, ``between_steps``, ``span``,
``install``):

* :class:`StepClock` is the untraced probe.  It only stamps the entry of each
  Basin Hopping call, which is where ``run_dispatch`` starts a dispatch step,
  so per-step wall times can be read without touching anything else.  Each
  mark is ``(end of the previous step, start of this one)``; between the two
  the probe calls ``between_steps``, if set, outside any step's time.
* :class:`Tracer` records spans (name, start, end, parent) for dispatch runs
  and steps, Basin Hopping, Nelder-Mead, commits, the oracle, set-up and
  output writes.  A step span opens where Basin Hopping is entered and closes
  at the next step or at the end of its run.  Below
  the Nelder-Mead level -- evaluation, restore, integration, power flow and
  plant steps, about 10^6 calls per dispatch step -- it keeps a count and a
  total in nanoseconds per enclosing span instead of one span per call.
  Calls made inside ``evaluate_dispatch`` are kept apart (``Span.inner``) from
  the same calls made by a commit or a warmup.

Patch points follow how the package binds its names: ``dispatch`` imports
``basin_hopping`` by name, ``twin`` imports ``solve_power_flow`` by name,
``optimizer.basin_hopping`` looks ``nelder_mead`` up as a module global, and
the twin and plant methods are looked up on their classes.  ``install``
returns a function that puts every original back.
"""

import contextlib
import time

import cellflex.dispatch
import cellflex.optimizer
import cellflex.oracle
import cellflex.plants
import cellflex.reporting
import cellflex.scenario
import cellflex.twin

_ns = time.perf_counter_ns

PLANT_CLASSES = {
    "bes": cellflex.plants.BatteryStorage,
    "ehp": cellflex.plants.HeatPumpSystem,
    "bev": cellflex.plants.ElectricVehicle,
    "pv": cellflex.plants.PvInverter,
}


def _patch(undo, owner, name, wrapper_factory):
    original = getattr(owner, name)
    undo.append((owner, name, original))
    setattr(owner, name, wrapper_factory(original))


def _restorer(undo):
    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        undo.clear()
    return restore


class StepClock:
    """Untraced probe: one timestamp per dispatch step, nothing else."""

    # operation times are the program's own, so the 15 s deadline applies
    timed = True

    def __init__(self):
        self.step_marks = []
        self.between_steps = None

    def begin_run(self):
        self.step_marks.clear()

    @contextlib.contextmanager
    def span(self, name):
        yield None

    def install(self):
        undo = []

        def bh(original):
            def basin_hopping(*args, **kwargs):
                t_end = _ns()
                if self.step_marks and self.between_steps is not None:
                    self.between_steps()
                self.step_marks.append((t_end, _ns()))
                return original(*args, **kwargs)
            return basin_hopping

        _patch(undo, cellflex.dispatch, "basin_hopping", bh)
        return _restorer(undo)


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "agg", "inner", "attrs")

    def __init__(self, span_id, parent, name, t0):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.agg = {}       # key -> [calls, ns, extra] for calls made directly
        self.inner = {}     # same, for calls made inside evaluate_dispatch
        self.attrs = {}

    @property
    def ns(self):
        return self.t1 - self.t0

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "t0_ns": self.t0, "t1_ns": self.t1, "agg": self.agg,
                "inner": self.inner, "attrs": self.attrs}


def _add(agg, key, dt, extra=0):
    a = agg.get(key)
    if a is None:
        agg[key] = [1, dt, extra]
    else:
        a[0] += 1
        a[1] += dt
        a[2] += extra


class Tracer:
    """Spans kept in memory; leaf calls aggregated into the innermost span."""

    # operation times include the tracer's own cost: no deadline check
    timed = False

    def __init__(self):
        self.root = Span(-1, None, "root", _ns())
        self.spans = []
        self.stack = []
        self.cur = self.root.agg
        self.step_marks = []
        self.between_steps = None
        self.last_bh_x = None

    def begin_run(self):
        self.step_marks.clear()
        self.last_bh_x = None

    @property
    def top(self):
        return self.stack[-1] if self.stack else self.root

    def open(self, name):
        sp = Span(len(self.spans), self.top.id if self.stack else None,
                  name, _ns())
        self.spans.append(sp)
        self.stack.append(sp)
        self.cur = sp.agg
        return sp

    def close(self, sp):
        """Close ``sp`` and any span still open inside it."""
        t1 = _ns()
        while self.stack:
            top = self.stack.pop()
            top.t1 = t1
            if top is sp:
                break
        self.cur = self.top.agg

    @contextlib.contextmanager
    def span(self, name):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    # ------------------------------------------------------------------
    # wrappers

    def _spanning(self, name, on_result=None):
        def factory(original):
            def wrapper(*args, **kwargs):
                sp = self.open(name)
                try:
                    result = original(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, kwargs, result)
                    return result
                finally:
                    self.close(sp)
            return wrapper
        return factory

    def _leaf(self, key):
        def factory(original):
            def wrapper(*args, **kwargs):
                t0 = _ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    _add(self.cur, key, _ns() - t0)
            return wrapper
        return factory

    def _solve(self, original):
        def solve_power_flow(*args, **kwargs):
            t0 = _ns()
            res = original(*args, **kwargs)
            _add(self.cur, "grid.solve", _ns() - t0, res.sweeps)
            return res
        return solve_power_flow

    def _evaluate(self, original):
        def evaluate_dispatch(*args, **kwargs):
            outer = self.cur
            self.cur = self.top.inner
            t0 = _ns()
            try:
                return original(*args, **kwargs)
            finally:
                dt = _ns() - t0
                self.cur = outer
                _add(outer, "twin.evaluate", dt)
        return evaluate_dispatch

    def _plant_step(self, key):
        def factory(original):
            def step(plant, *args):
                t0 = _ns()
                p = original(plant, *args)
                _add(self.cur, key, _ns() - t0, plant.saturated)
                return p
            return step
        return factory

    def _basin_hopping(self, original):
        def basin_hopping(f, x0, *args, **kwargs):
            t_end = _ns()
            if self.stack and self.stack[-1].name == "dispatch.step":
                self.close(self.stack[-1])
            if self.step_marks and self.between_steps is not None:
                self.between_steps()
            self.step_marks.append((t_end, _ns()))
            step = self.open("dispatch.step")
            if self.last_bh_x is not None:
                step.attrs["reanchored"] = x0 is not self.last_bh_x
            with self.span("optimizer.basin_hopping"):
                result = original(f, x0, *args, **kwargs)
            self.last_bh_x = result.x
            return result
        return basin_hopping

    @staticmethod
    def _nm_result(sp, kwargs, result):
        settings = kwargs.get("settings", cellflex.optimizer.NelderMeadSettings())
        sp.attrs["n_evals"] = result[2]
        sp.attrs["maxfev_hit"] = result[2] >= settings.maxfev

    def install(self):
        undo = []
        twin_cls = cellflex.twin.CellTwin
        _patch(undo, cellflex.dispatch, "run_dispatch",
               self._spanning("dispatch.run"))
        _patch(undo, cellflex.dispatch, "basin_hopping", self._basin_hopping)
        _patch(undo, cellflex.optimizer, "nelder_mead",
               self._spanning("optimizer.nelder_mead", self._nm_result))
        _patch(undo, cellflex.twin, "solve_power_flow", self._solve)
        _patch(undo, twin_cls, "evaluate_dispatch", self._evaluate)
        _patch(undo, twin_cls, "restore", self._leaf("twin.restore"))
        _patch(undo, twin_cls, "step_dispatch_interval",
               self._leaf("twin.integrate"))
        _patch(undo, twin_cls, "advance_reference",
               self._spanning("twin.commit"))
        _patch(undo, twin_cls, "run_warmup", self._spanning("twin.warmup"))
        _patch(undo, twin_cls, "__init__", self._spanning("twin.build"))
        _patch(undo, cellflex.scenario, "load_bundled_scenario",
               self._spanning("scenario.load"))
        _patch(undo, cellflex.oracle, "make_toy_scenario",
               self._spanning("scenario.load"))
        _patch(undo, cellflex.oracle, "grid_search_oracle",
               self._spanning("oracle.grid_search"))
        for writer in ("write_dispatch_csv", "write_iterations_csv",
                       "write_summary_json"):
            _patch(undo, cellflex.reporting, writer,
                   self._spanning("reporting.write"))
        for cls, plant_cls in PLANT_CLASSES.items():
            _patch(undo, plant_cls, "step", self._plant_step(f"plants.{cls}"))
        return _restorer(undo)

    def dump(self):
        return [sp.to_dict() for sp in self.spans]

"""A twin without the evaluation path's shortcuts, as the end-to-end reference.

``PlainTwin`` is a ``CellTwin`` with four changes: its plants step through
the Python loops of ``plant_reference`` instead of the compiled ones, it
warms up one block at a time, every prosumer sampled and every plant
stepped once per warmup block by the dispatch interval's
``_step_interval``, one interval of n substeps (``CellTwin.run_warmup``
samples all of the blocks at once and steps each plant class in one
compiled call), it restores
and re-integrates every plant and every prosumer on every evaluation and
probe (``restore`` and ``step_dispatch_interval`` ignore the stale plants
they are given), and it solves every power flow with the Python sweep
(``_solve`` calls ``grid_reference.solve_power_flow`` directly, with no
memo), so it runs no compiled solve.  Its warmup still runs once per twin,
as ``CellTwin.run_warmup`` keeps the reference it captured.  The studies
take it as their twin argument.
"""

import dataclasses

import numpy as np

from cellflex.dispatch import DispatchRun
from cellflex.grid import check_line_limits
from cellflex.scenario import warmup_schedule
from cellflex.twin import CellTwin
from grid_reference import solve_power_flow
from plant_reference import use_references


class PlainTwin(CellTwin):
    def __init__(self, scenario):
        super().__init__(scenario)
        for plant in self._plants:
            use_references(plant)

    def _integrate_warmup(self):
        warmup_s = self.scenario.simulation.warmup_s
        substep, counts = warmup_schedule(self.internal_dt_s, warmup_s)
        self.set_offsets([0.0] * self.n_plants)
        t = -warmup_s
        for n in counts:
            self._step_interval(t, n, substep)
            t = t + n * substep
        self.t_s = 0.0

    def restore(self, snap, stale=None):
        super().restore(snap)

    def step_dispatch_interval(self, owners=None):
        super().step_dispatch_interval()

    def _solve(self):
        res = solve_power_flow(self.topology, self.injections)
        return res, check_line_limits(res, self.topology)



def bits(value):
    """``value`` in a form whose ``==`` compares it bit for bit: each float
    as its hex form (so NaN equals NaN and -0.0 differs from 0.0), each array
    as its dtype, shape and bytes, dataclasses field by field.  A dispatch
    run's wall time is left out."""
    if isinstance(value, DispatchRun):
        value = dataclasses.replace(value, runtime_s=None)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, bits(getattr(value, f.name)))
                 for f in dataclasses.fields(value)])
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return sorted((k, bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value

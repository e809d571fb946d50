"""A twin without the evaluation path's shortcuts, as the end-to-end reference.

``PlainTwin`` is a ``CellTwin`` with four changes: its plants step through
the Python loops of ``plant_reference`` instead of the compiled ones, it
warms up interval by interval, every prosumer sampled and every plant
stepped once per warmup block (``CellTwin.run_warmup`` runs each plant's
blocks in one compiled call), it restores and re-integrates every plant and
every prosumer on every evaluation and probe (``restore`` and
``step_dispatch_interval`` ignore the stale plants they are given), and it
solves every power flow with the Python sweep (``_solve`` calls
``grid_reference.solve_power_flow`` directly, with no memo), so it runs no
compiled solve.  ``use_plain_twin`` puts it in place of ``CellTwin``
wherever the package builds one.
"""

from cellflex import cli, dispatch, oracle
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

    def run_warmup(self):
        warmup_s = self.scenario.simulation.warmup_s
        substep, counts = warmup_schedule(self.internal_dt_s, warmup_s)
        self.set_offsets([0.0] * self.n_plants)
        self.t_s = -warmup_s
        for n in counts:
            self._step_interval(n * substep, substep)
        self.t_s = 0.0
        return self.capture_reference()

    def restore(self, snap, stale=None):
        super().restore(snap)

    def step_dispatch_interval(self, owners=None):
        super().step_dispatch_interval()

    def _solve(self):
        res = solve_power_flow(self.topology, self.injections)
        return res, check_line_limits(res, self.topology)


def use_plain_twin(monkeypatch):
    """Build a PlainTwin wherever the package builds a CellTwin."""
    for module in (cli, dispatch, oracle):
        monkeypatch.setattr(module, "CellTwin", PlainTwin)

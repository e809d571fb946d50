"""First-order lag block shared by the controllable plants.

Every controllable plant in the cell approximates its power response with the
first-order lag

    dy/dt = (c*u - y) / T.

Plants hold their input constant over each substep, so `FirstOrderLag.step`
applies the exact discrete solution for piecewise-constant input,

    y <- y + (c*u - y) * (1 - exp(-dt/T)),

which is stable and exact at any step width.
"""

import math

__all__ = ["FirstOrderLag", "clamp"]


def clamp(value, lo, hi):
    """Clamp `value` into [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


class FirstOrderLag:
    """First-order lag  dy/dt = (gain*u - y)/time_constant.

    Parameters
    ----------
    gain : float
        Static gain c (output = c*u in steady state).
    time_constant : float
        Time constant T in seconds, must be > 0.
    y0 : float
        Initial output.
    """

    __slots__ = ("gain", "time_constant", "y")

    def __init__(self, gain=1.0, time_constant=1.0, y0=0.0):
        if time_constant <= 0.0:
            raise ValueError(f"time_constant must be > 0, got {time_constant}")
        self.gain = gain
        self.time_constant = time_constant
        self.y = y0

    def step(self, u, dt):
        """Advance the state by dt seconds with input held at `u`; returns y."""
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        target = self.gain * u
        self.y += (target - self.y) * (1.0 - math.exp(-(dt / self.time_constant)))
        return self.y

    def reset(self, y):
        """Force the output state (used when a plant pins at a hard bound)."""
        self.y = y

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellflex.dynamics import FirstOrderLag, clamp


class TestFirstOrderLag:
    def test_step_response_matches_analytic(self):
        # y(t) = c*u*(1 - exp(-t/T)); at t = T the response is 1 - e^-1
        blk = FirstOrderLag(gain=1.0, time_constant=10.0, y0=0.0)
        dt = 0.1  # T/100
        for _ in range(100):
            y = blk.step(1.0, dt)
        expected = 1.0 - math.exp(-1.0)  # 0.6321205588285577
        assert abs(y - expected) / expected < 1e-4
        assert y == pytest.approx(0.6321205588285577, rel=1e-6)

    def test_analytic_error_over_five_time_constants(self):
        blk = FirstOrderLag(gain=1.0, time_constant=2.0, y0=0.0)
        dt = 0.02  # T/100
        t = 0.0
        for _ in range(int(5 * 2.0 / dt)):
            y = blk.step(1.0, dt)
            t += dt
            exact = 1.0 - math.exp(-t / 2.0)
            assert abs(y - exact) / exact < 1e-4

    def test_gain_scales_steady_state(self):
        blk = FirstOrderLag(gain=2.0, time_constant=1.0, y0=0.0)
        for _ in range(4000):
            y = blk.step(3.0, 0.05)
        assert y == pytest.approx(6.0, rel=1e-9)

    def test_result_does_not_depend_on_step_size(self):
        # the exponential update is exact for piecewise-constant input, so
        # 150 steps of 0.1 s and one 15 s step end at the same state
        fine = FirstOrderLag(1.0, 2.0, y0=0.3)
        coarse = FirstOrderLag(1.0, 2.0, y0=0.3)
        for _ in range(150):
            fine.step(4.0, 0.1)
        coarse.step(4.0, 15.0)
        assert coarse.y == pytest.approx(fine.y, abs=1e-12)

    def test_exact_branch_is_exact(self):
        blk = FirstOrderLag(1.0, 2.0, y0=0.0)
        blk.step(1.0, 6.0)
        assert blk.y == pytest.approx(1.0 - math.exp(-3.0), abs=1e-14)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            FirstOrderLag(1.0, 0.0)
        with pytest.raises(ValueError):
            FirstOrderLag(1.0, -2.0)
        blk = FirstOrderLag(1.0, 1.0)
        with pytest.raises(ValueError):
            blk.step(1.0, 0.0)
        with pytest.raises(ValueError):
            blk.step(1.0, -0.1)

    @given(
        y0=st.floats(-10, 10),
        u=st.floats(-10, 10),
        time_constant=st.floats(0.5, 20),
    )
    def test_never_overshoots_constant_target(self, y0, u, time_constant):
        blk = FirstOrderLag(1.0, time_constant, y0=y0)
        target = u
        side = math.copysign(1.0, target - y0) if target != y0 else 0.0
        for _ in range(50):
            y = blk.step(u, time_constant / 10.0)
            if side:
                assert math.copysign(1.0, target - y) == side or abs(target - y) < 1e-12


def test_clamp():
    assert clamp(5.0, 0.0, 1.0) == 1.0
    assert clamp(-5.0, 0.0, 1.0) == 0.0
    assert clamp(0.5, 0.0, 1.0) == 0.5

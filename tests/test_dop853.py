"""The DOP853 stepper against scipy.integrate.solve_ivp(method="DOP853"):
the same tableau and the same step control, so the same bits."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from zeromodes import _dop853
from zeromodes.errors import StepUnderflow
from zeromodes.potential import hrp_potential

WELL = hrp_potential()


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _angles_rhs(gammas, k, X, slope):
    """The two-branch angle state of a Delta solve on the sech well, with
    or without the slope components; a fresh array per call."""
    def rhs(s, state):
        v = np.array([WELL(X - s), WELL(-X + s)])[:, None]
        u = state[:2 * gammas.size].reshape(2, -1)
        angles = (v * gammas + k * np.cos(2.0 * u)).ravel()
        if not slope:
            return angles
        p = state[2 * gammas.size:].reshape(2, -1)
        return np.concatenate([angles, (v - 2.0 * k * np.sin(2.0 * u) * p).ravel()])
    return rhs


def _derivative_rhs(v, gamma, k):
    def rhs(x, y):
        th, S, _ = y
        return [gamma * v + k * math.cos(2.0 * th), -math.sin(2.0 * th),
                -math.exp(-2.0 * k * S) * v]
    return rhs


def _stiff_rhs(t, y):
    return np.array([-60.0 * (y[0] - math.cos(t)), y[0] * y[1]])


GAMMAS = np.linspace(0.0, 6.0, 181)
N_ANGLES = 2 * GAMMAS.size
CASES = {
    # 362 angles, the tolerances of a Delta solve
    "angles": (_angles_rhs(GAMMAS, 1.3, 40.0, False), (0.0, 40.0),
               np.repeat([math.pi / 4, -math.pi / 4], GAMMAS.size),
               1e-11 / math.sqrt(N_ANGLES), 1e-12 / math.sqrt(N_ANGLES)),
    # angles and slopes; the slopes' infinite atol drops them from the norm
    "slope": (_angles_rhs(GAMMAS[:40], 1.1, 40.0, True), (0.0, 40.0),
              np.concatenate([np.repeat([math.pi / 4, -math.pi / 4], 40), np.zeros(80)]),
              0.5e-11 / math.sqrt(160), np.where(np.arange(160) < 80, 1e-12 / math.sqrt(160),
                                                 np.inf)),
    # one piece of a step potential, crossed right to left
    "backward": (_derivative_rhs(-1.5, 2.3, 0.8), (1.2, -0.9), [-math.pi / 4, 0.0, 0.0],
                 1e-11, 1e-13),
    # a stiff start: the first steps are rejected
    "rejecting": (_stiff_rhs, (0.0, 3.0), [0.0, 1.0], 1e-9, 1e-12),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stepper_matches_scipy_bit_for_bit(case):
    rhs, span, y0, rtol, atol = CASES[case]
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    y_old, y = _dop853.solve_ivp(counted, span, y0, rtol, atol)
    ref = scipy_solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=atol,
                          dense_output=True)
    assert ref.success and _same_bits(y, ref.y[:, -1])
    steps = ref.t.size - 1
    # 2 evaluations to start, 12 per attempted step, 3 per step for the dense output
    assert len(calls) == ref.nfev - 3 * steps  # the same steps, the same rejections
    if case == "rejecting":
        assert (len(calls) - 2) // 12 > steps
    # solve_ivp with t_eval=[t1] reads the end state from this interpolant
    assert _same_bits(y_old + (y - y_old), ref.sol(span[1]))


def test_stepper_raises_where_scipy_fails():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    ref = scipy_solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853",
                          rtol=1e-9, atol=1e-12)
    assert not ref.success
    with pytest.raises(StepUnderflow):
        _dop853.solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], 1e-9, 1e-12)


def test_tableau_is_scipys():
    assert _same_bits(_dop853.C, scipy_tableau.C[:12])
    assert _same_bits(_dop853.A, scipy_tableau.A[:13, :12])
    assert _same_bits(_dop853.B, scipy_tableau.B)
    assert _same_bits(_dop853.E3, scipy_tableau.E3)
    assert _same_bits(_dop853.E5, scipy_tableau.E5)

"""Shared potential families and phase walks used across the test suite."""

import math

import numpy as np
import pytest

from zeromodes.potential import build_w, canonicalize, hrp_potential
from zeromodes.prufer import _lift, _piece_segments, _walk_ode

_REF_RTOL = 1e-13  # the ODE reference for the closed-form kernel on step pieces


def square_bump():
    # single positive square bump on [-1, 1]
    return build_w([-1.0, 1.0], [1.0])


def antisymmetric_pair(g: float):
    # -1 block, gap of length g, +1 block; antisymmetric about 0
    if g == 0.0:
        return build_w([-1.0, 0.0, 1.0], [-1.0, 1.0])
    return build_w([-1.0 - g / 2, -g / 2, g / 2, g / 2 + 1.0], [-1.0, 0.0, 1.0])


def gap_pair(g: float, b: float):
    # -1 block of width 1, gap g, +1 block of width b
    if g == 0.0:
        return build_w([-1.0, 0.0, b], [-1.0, 1.0])
    return build_w([-g - 1.0, -g, 0.0, b], [-1.0, 0.0, 1.0])


def twin_gap(g: float):
    # symmetric zero-integral potential with two gaps of length g
    if g == 0.0:
        return build_w([-2.0, -1.0, 1.0, 2.0], [-1.0, 1.0, -1.0])
    return build_w([-g - 2.0, -g - 1.0, -1.0, 1.0, g + 1.0, g + 2.0],
                   [-1.0, 0.0, 1.0, 0.0, -1.0])


def lift_angle(V, theta, x0, x1, gamma, k):
    """Lifted angle at x1 from theta at x0 through the closed-form kernel."""
    return float(_lift(canonicalize(V), np.array([float(gamma)]), theta, x0, x1, k)[0])


def ode_angle(V, theta, x0, x1, gamma, k):
    """The same angle by one adaptive solve per constant piece.  Each piece
    starts from the angle reduced mod pi: theta' is pi-periodic in theta, so
    the relative tolerance then does not grow with |theta|."""
    g = np.array([float(gamma)])
    for a, b, v in _piece_segments(canonicalize(V), x0, x1):
        turns = math.pi * round(theta / math.pi)
        walk = _walk_ode([theta - turns], [a], [math.copysign(1.0, b - a)], abs(b - a),
                         lambda _x, _v=v: _v, g, k, rtol=_REF_RTOL)
        theta = turns + float(walk[0, 0])
    return theta


@pytest.fixture(scope="session")
def sech_well():
    return hrp_potential()

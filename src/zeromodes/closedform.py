"""Exact spinor propagation across constant-potential pieces.

The first-order system psi1' = (k - g*v) psi2, psi2' = (k + g*v) psi1 on a
piece of constant amplitude v has the propagator exp(L*M) with
M = [[0, k - g*v], [k + g*v, 0]].  Since M^2 = -w^2 * I with
w^2 = (g*v)^2 - k^2, the propagator is

    exp(L*M) = cos(w*L) * I + (sin(w*L)/w) * M,

whose entries are even in w, hence entire in g: no branch choice is needed
and the limits g*v -> +-k are removable.  A matching determinant built from
these propagators vanishes exactly at the couplings admitting a confined
zero mode.  determinant evaluates it for a whole array of couplings in one
sweep over the pieces; a scalar coupling is an array of size 1.  On a gap
(v = 0) w^2 = -k^2 for every coupling, so one scalar propagator serves all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrivialPotential
from .potential import PiecewiseConstantPotential, canonicalize

__all__ = [
    "TransferMatrix",
    "cos_sinc",
    "piece_transfer",
    "determinant",
    "gap_angle_relation_check",
]


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 propagator of (psi1, psi2) across one piece; det == 1."""

    m: np.ndarray

    def det(self) -> complex:
        return complex(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])


def cos_sinc(w2, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (cos(w L), sin(w L)/w) for w = sqrt(w2), elementwise and
    stable near w = 0.

    Both are entire functions of w2; below |w L| ~ 1e-4 the direct formulas
    lose digits to cancellation, so a 6-term series in z = w2 L^2 is used.
    """
    w2 = np.atleast_1d(np.asarray(w2, dtype=complex))
    z = w2 * L * L
    small = abs(z) < 1e-8
    w = np.sqrt(np.where(small, 1.0, w2))
    c, s = np.cos(w * L), np.sin(w * L) / w
    if small.any():
        z = z[small]
        c[small] = 1 + z * (-1 / 2 + z * (1 / 24 + z * (-1 / 720 + z * (1 / 40320 - z / 3628800))))
        s[small] = L * (1 + z * (-1 / 6 + z * (1 / 120 + z * (-1 / 5040 + z * (1 / 362880 - z / 39916800)))))
    return c, s


def piece_transfer(v: float, length: float, gamma: complex, k: float) -> TransferMatrix:
    """Propagator across one piece of amplitude v (v = 0 gives the
    hyperbolic gap propagator with eigenpairs (1, +-1), exp(+-k*length))."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gv = gamma * v
    (c,), (s,) = cos_sinc(gv * gv - k * k, length)
    m = np.array([[c, s * (k - gv)], [s * (k + gv), c]], dtype=complex)
    return TransferMatrix(m)


def determinant(V: PiecewiseConstantPotential, gammas, k: float) -> np.ndarray | complex:
    """Matching function D(gamma) whose zeros are the zero-mode couplings, at
    every coupling of an array at once (a scalar coupling gives a complex).

    Starting from the direction (1, 1) at the left support edge (the only
    direction compatible with square-integrable decay on the left), the
    spinor is pushed across the support; D is psi1 + psi2 at the right edge
    and vanishes exactly when the arriving state is proportional to
    (1, -1), the decaying direction on the right.  D is defined up to a
    positive scale: only zero sets and phase winding are meaningful, so a
    spinor above 1e200 is divided by its size.  A propagator that still
    overflows raises FloatingPointError.
    """
    W = canonicalize(V)
    if all(val == 0.0 for val in W.values):
        raise TrivialPotential("determinant needs a nontrivial potential")
    g = np.atleast_1d(np.asarray(gammas, dtype=complex))
    p1 = p2 = np.ones(g.shape, dtype=complex)
    a = W.breakpoints
    with np.errstate(over="raise", invalid="raise"):
        for j, v in enumerate(W.values):
            if v == 0.0:  # a gap: the same propagator at every coupling
                (c,), (s,) = cos_sinc(-k * k, a[j + 1] - a[j])
                p1, p2 = c * p1 + s * k * p2, s * k * p1 + c * p2
            else:
                gv = g * v
                c, s = cos_sinc(gv * gv - k * k, a[j + 1] - a[j])
                p1, p2 = c * p1 + s * (k - gv) * p2, s * (k + gv) * p1 + c * p2
            scale = np.maximum(abs(p1), abs(p2))
            if (scale > 1e200).any():  # harmless positive rescale, zero set unchanged
                scale = np.where(scale > 1e200, scale, 1.0)
                p1, p2 = p1 / scale, p2 / scale
    d = p1 + p2
    return complex(d[0]) if np.ndim(gammas) == 0 else d


def gap_angle_relation_check(theta_a: float, theta_b: float, k: float, length: float) -> float:
    """Residual of the exact relation satisfied by the phase across a gap.

    For theta' = k cos(2 theta) on an interval of the given length,
    sin(theta_b - theta_a) = tanh(k * length) * cos(theta_b + theta_a)
    holds identically; the returned residual is lhs - rhs.
    """
    if length <= 0:
        raise ValueError("length must be > 0")
    import math

    return math.sin(theta_b - theta_a) - math.tanh(k * length) * math.cos(theta_b + theta_a)

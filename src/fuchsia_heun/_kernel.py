"""Dormand-Prince 4(5) propagator for 2x2 linear systems.

The path integrator behind `monodromy`, in pure Python.  The state is the
flattened 2x2 fundamental matrix; the right-hand side is
dY/dt = g(t) A(z(t)) Y where z(t) parametrizes a line or arc segment and
A is either a sum of simple poles or a companion matrix of two rational
scalar coefficients.

Segment kinds (bit 0: geometry, bit 1: coefficient model):
  0 line + pole sum     1 arc + pole sum
  2 line + companion    3 arc + companion
"""
from __future__ import annotations

import cmath

import numpy as np

HMIN = 1e-12
MAX_STEPS = 200000

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


class StepUnderflow(ArithmeticError):
    pass


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _rhs(kind, g, pts, res, pn0, pd0, pn1, pd1, t, y, out):
    """out <- dz/dt * A(z(t)) @ Y, with Y = y reshaped 2x2."""
    if kind & 1:
        center, radius, th0, dth = g
        e = cmath.exp(1j * (th0 + t * dth))
        z = center + radius * e
        dz = 1j * radius * dth * e
    else:
        z0, z1 = g[0], g[1]
        z = z0 + t * (z1 - z0)
        dz = z1 - z0
    if kind & 2:
        p0 = _horner(pn0, z) / _horner(pd0, z)
        p1 = _horner(pn1, z) / _horner(pd1, z)
        a00 = 0j
        a01 = 1 + 0j
        a10 = -p0
        a11 = -p1
    else:
        a00 = a01 = a10 = a11 = 0j
        for j in range(len(pts)):
            w = 1.0 / (z - pts[j])
            a00 += res[j, 0] * w
            a01 += res[j, 1] * w
            a10 += res[j, 2] * w
            a11 += res[j, 3] * w
    out[0] = dz * (a00 * y[0] + a01 * y[2])
    out[1] = dz * (a00 * y[1] + a01 * y[3])
    out[2] = dz * (a10 * y[0] + a11 * y[2])
    out[3] = dz * (a10 * y[1] + a11 * y[3])


def propagate_segment(kind, g, pts, res, pn0, pd0, pn1, pd1, y0, tol):
    """Integrate over t in [0, 1]; returns the flattened 2x2 propagator state."""
    y = np.array(y0, dtype=complex)
    k = [np.zeros(4, dtype=complex) for _ in range(7)]
    ytmp = np.zeros(4, dtype=complex)
    t = 0.0
    h = 0.05
    fsal_valid = False
    steps = 0
    while t < 1.0:
        if h > 1.0 - t:
            h = 1.0 - t
        if h < HMIN:
            raise StepUnderflow("step underflow at t=%r (segment too close to a "
                                "singularity?)" % t)
        steps += 1
        if steps > MAX_STEPS:
            raise StepUnderflow("step budget exhausted")
        if not fsal_valid:
            _rhs(kind, g, pts, res, pn0, pd0, pn1, pd1, t, y, k[0])
        for i in range(1, 7):
            ytmp[:] = y
            row = _A[i]
            for j in range(i):
                if row[j] != 0.0:
                    ytmp += (h * row[j]) * k[j]
            _rhs(kind, g, pts, res, pn0, pd0, pn1, pd1, t + _C[i] * h, ytmp, k[i])
        ynew = y.copy()
        for i in range(7):
            if _B5[i] != 0.0:
                ynew += (h * _B5[i]) * k[i]
        err = 0.0
        ynorm = 0.0
        for c in range(4):
            e = 0j
            for i in range(7):
                d = _B5[i] - _B4[i]
                if d != 0.0:
                    e += d * k[i][c]
            err += abs(h * e) ** 2
            ynorm += abs(ynew[c]) ** 2
        err = err ** 0.5
        scale = tol * (1.0 + ynorm ** 0.5)
        ratio = err / scale if scale > 0 else np.inf
        if not np.isfinite(ratio):
            h *= 0.2
            fsal_valid = False
            continue
        if ratio <= 1.0:
            t += h
            y[:] = ynew
            k[0][:] = k[6]     # FSAL: last stage is next first stage
            fsal_valid = True
        else:
            fsal_valid = False
        fac = 0.9 * (ratio ** -0.2) if ratio > 0 else 5.0
        if fac < 0.2:
            fac = 0.2
        elif fac > 5.0:
            fac = 5.0
        h *= fac
    return y

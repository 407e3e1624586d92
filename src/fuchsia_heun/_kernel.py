"""Dormand-Prince 4(5) propagator for 2x2 linear systems.

The path integrator behind `monodromy`, on Python complex scalars: the
state is the 2x2 fundamental matrix as four complex numbers (row-major), and
no numpy runs in the step loop.  The right-hand side dY/dt = z'(t) A(z(t)) Y,
z(t) a line (z0, z1) or arc (center, radius, th0, dth), is built once per
segment as a closure.  A is a pole sum, model = [(p, (r00, r01, r10, r11))],
or the companion matrix of p0 = pn0/pd0, p1 = pn1/pd1, model = (pn0, pd0,
pn1, pd1) with the constant term first.

Segment kinds (bit 0: geometry, bit 1: coefficient model):
  0 line + pole sum     1 arc + pole sum
  2 line + companion    3 arc + companion
"""
from __future__ import annotations

import cmath
import math

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


def _rhs(kind, g, model):
    """The closure (t, y) -> z'(t) A(z(t)) Y for one segment, Y = y as 2x2."""
    if kind & 1:
        center, radius, th0, dth = g

        def path(t):
            e = cmath.exp(1j * (th0 + t * dth))
            return center + radius * e, 1j * radius * dth * e
    else:
        z0, dz = g[0], g[1] - g[0]

        def path(t):
            return z0 + t * dz, dz
    if kind & 2:
        pn0, pd0, pn1, pd1 = ([complex(c) for c in cs] for cs in model)

        def f(t, y):
            z, dz = path(t)
            a10 = -dz * _horner(pn0, z) / _horner(pd0, z)
            a11 = -dz * _horner(pn1, z) / _horner(pd1, z)
            y0, y1, y2, y3 = y
            return dz * y2, dz * y3, a10 * y0 + a11 * y2, a10 * y1 + a11 * y3
    else:
        poles = [(complex(p), *(complex(r) for r in rs)) for p, rs in model]

        def f(t, y):
            z, dz = path(t)
            a00 = a01 = a10 = a11 = 0j
            for p, r00, r01, r10, r11 in poles:
                w = dz / (z - p)
                a00 += r00 * w
                a01 += r01 * w
                a10 += r10 * w
                a11 += r11 * w
            y0, y1, y2, y3 = y
            return (a00 * y0 + a01 * y2, a00 * y1 + a01 * y3,
                    a10 * y0 + a11 * y2, a10 * y1 + a11 * y3)
    return f


def propagate_segment(kind, g, model, y0, tol):
    """Integrate over t in [0, 1]; returns the row-major 2x2 state."""
    f = _rhs(kind, g, model)
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (a60, _, a62, a63, a64, a65) = _A[1:]
    e0, _, e2, e3, e4, e5, e6 = (b5 - b4 for b5, b4 in zip(_B5, _B4))
    c1, c2, c3, c4 = _C[1:5]
    y = tuple(complex(v) for v in y0)
    t = 0.0
    h = 0.05
    k0 = f(t, y)
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
        k1 = f(t + c1 * h, [v + h * (a10 * p) for v, p in zip(y, k0)])
        k2 = f(t + c2 * h, [v + h * (a20 * p + a21 * q)
                            for v, p, q in zip(y, k0, k1)])
        k3 = f(t + c3 * h, [v + h * (a30 * p + a31 * q + a32 * r)
                            for v, p, q, r in zip(y, k0, k1, k2)])
        k4 = f(t + c4 * h, [v + h * (a40 * p + a41 * q + a42 * r + a43 * s)
                            for v, p, q, r, s in zip(y, k0, k1, k2, k3)])
        k5 = f(t + h, [v + h * (a50 * p + a51 * q + a52 * r + a53 * s
                                + a54 * u)
                       for v, p, q, r, s, u in zip(y, k0, k1, k2, k3, k4)])
        # the fifth-order solution is the last stage's argument (FSAL)
        ynew = [v + h * (a60 * p + a62 * r + a63 * s + a64 * u + a65 * w)
                for v, p, r, s, u, w in zip(y, k0, k2, k3, k4, k5)]
        k6 = f(t + h, ynew)
        err = h * math.hypot(*[
            abs(e0 * p + e2 * r + e3 * s + e4 * u + e5 * w + e6 * x)
            for p, r, s, u, w, x in zip(k0, k2, k3, k4, k5, k6)])
        scale = tol * (1.0 + math.hypot(*map(abs, ynew)))
        ratio = err / scale if scale > 0 else math.inf
        if not math.isfinite(ratio):
            h *= 0.2
            continue
        if ratio <= 1.0:
            t += h
            y = ynew
            k0 = k6     # FSAL: last stage is next first stage
        fac = 0.9 * (ratio ** -0.2) if ratio > 0 else 5.0
        if fac < 0.2:
            fac = 0.2
        elif fac > 5.0:
            fac = 5.0
        h *= fac
    return y

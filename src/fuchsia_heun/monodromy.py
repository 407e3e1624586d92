"""Numerical monodromy of rank-2 systems along explicit loops.

Loops are polylines with circular arcs.  Each singular point gets a "fan"
loop: a straight run from the basepoint, a counterclockwise circle of radius
a quarter of the point's distance to its nearest neighbour, and the run
retraced.  Straight runs that would pass too close to another singular point
are pushed around it by a small arc on the side the run already favours; the
retraced return cancels the detour's winding, so every loop winds once
around its target and zero times around everything else.

A retraced run is never integrated: with P the transport along the run and
C the one around the circle, started at I, a fan loop's matrix is P^-1 C P
(exact for a linear system), so its eigenvalues are those of C alone.  The
circle therefore runs at a tenth of the step tolerance.

The representation orders the finite points by departure angle from the
basepoint (ties by distance).  With ``loops = g_1, ..., g_n`` in that order
and ``M_k`` the matrix transported along ``g_k``, the composite path
"g_1 first, then g_2, ..." has matrix ``M_n @ ... @ M_1``; integrating one
large counterclockwise circle around all finite points reproduces exactly
that product, which fixes the convention: ``m_infinity`` is the inverse of
``matrices[-1] @ ... @ matrices[0]``.  The large-circle transport is kept as
an independent check and its mismatch is reported as ``loop_residual``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernel
from .connection import (
    INFINITY,
    CompanionSystem,
    FuchsianConnection,
    ScalarODE,
    UnknownPointError,
    companion_system,
)
from .numkit import PreconditionError, common_eigenvector, eig_small

DEFAULT_TOL = 1e-10
APPARENT_TOL = 1e-5


class ProximityError(ArithmeticError):
    """The path runs into or too close to a pole: a stage landed on it, or
    the step controller underflowed."""


class PathError(ValueError):
    """Malformed loop: segments do not chain into a closed path."""


def _seg_eval(seg, t: float) -> complex:
    if seg[0] == "line":
        _, z0, z1 = seg
        return z0 + t * (z1 - z0)
    _, center, radius, th0, dth = seg
    return center + radius * cmath.exp(1j * (th0 + t * dth))


def _seg_count(seg) -> int:
    if seg[0] == "arc":
        return max(32, int(math.ceil(abs(seg[4]) / 0.05)))
    return 32


@dataclass(frozen=True)
class LoopPath:
    """Closed path based at ``basepoint`` winding once around ``target``.

    ``segments`` is a tuple of ``("line", z0, z1)`` and
    ``("arc", center, radius, th0, dth)`` pieces chained end to end.
    """

    basepoint: complex
    segments: tuple
    target: object = None

    def __post_init__(self):
        if not self.segments:
            raise PathError("empty path")
        scale = max(1.0, abs(self.basepoint))
        prev = complex(self.basepoint)
        for seg in self.segments:
            s0 = _seg_eval(seg, 0.0)
            if abs(s0 - prev) > 1e-9 * scale:
                raise PathError(f"segment starts at {s0}, expected {prev}")
            prev = _seg_eval(seg, 1.0)
        if abs(prev - self.basepoint) > 1e-9 * scale:
            raise PathError("path does not close up at the basepoint")

    def samples(self) -> list:
        out = [complex(self.basepoint)]
        for seg in self.segments:
            n = _seg_count(seg)
            out.extend(_seg_eval(seg, i / n) for i in range(1, n + 1))
        return out

    def winding_number(self, point: complex) -> int:
        total = 0.0
        pts = self.samples()
        for z0, z1 in zip(pts, pts[1:]):
            total += cmath.phase((z1 - point) / (z0 - point))
        return int(round(total / (2.0 * math.pi)))

    def min_distance(self, point: complex) -> float:
        return min(abs(z - point) for z in self.samples())


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def _detour(z0: complex, z1: complex, blockers, margin: float):
    """Split the run z0 -> z1, arcing around blockers nearer than ``margin``.

    The arc keeps to the side of the blocker the straight run already passes
    on, so the detoured run is homotopic to a small sideways push of the
    straight one.  Returns a list of segments.
    """
    direction = z1 - z0
    length = abs(direction)
    u = direction / length
    hits = []
    for s in blockers:
        t = ((s - z0) / direction).real  # projection parameter onto the run
        f = z0 + min(max(t, 0.0), 1.0) * direction
        d = abs(s - f)
        if d >= margin or t <= 0.0 or t >= 1.0:
            continue
        side = 1.0 if _cross(direction, s - z0) >= 0.0 else -1.0
        half = math.sqrt(max(margin * margin - d * d, 0.0))
        q0 = z0 + t * direction - half * u
        q1 = z0 + t * direction + half * u
        hits.append((t, s, side, q0, q1))
    hits.sort(key=lambda h: h[0])
    segments = []
    cur = z0
    prev_exit_t = 0.0
    for t, s, side, q0, q1 in hits:
        t_in = ((q0 - z0) / direction).real
        if t_in < prev_exit_t - 1e-12:
            raise ProximityError(
                "overlapping detours; singular points too close to the run"
            )
        if abs(q0 - cur) > 0:
            segments.append(("line", cur, q0))
        th_in = cmath.phase(q0 - s)
        th_out = cmath.phase(q1 - s)
        dth = th_out - th_in
        while dth <= -math.pi:
            dth += 2.0 * math.pi
        while dth > math.pi:
            dth -= 2.0 * math.pi
        # a blocker sitting on the run itself subtends half a turn; take it
        # on the side already chosen
        if abs(abs(dth) - math.pi) < 1e-9:
            dth = math.copysign(math.pi, -side)
        segments.append(("arc", s, margin, th_in, dth))
        cur = q1
        prev_exit_t = ((q1 - z0) / direction).real
    if abs(z1 - cur) > 0:
        segments.append(("line", cur, z1))
    return segments


def _reversed_segment(seg):
    if seg[0] == "line":
        return ("line", seg[2], seg[1])
    _, c, r, th0, dth = seg
    return ("arc", c, r, th0 + dth, -dth)


def default_basepoint(points: Sequence[complex]) -> complex:
    return complex(min(p.real for p in points) - 1.0)


def _gap(points, p) -> float:
    others = [q for q in points if q != p]
    if not others:
        return 2.0
    return min(abs(q - p) for q in others)


def fan_loop(points: Sequence[complex], target: complex,
             basepoint: Optional[complex] = None,
             margin: Optional[float] = None) -> LoopPath:
    """Straight run + ccw circle + retraced run around one of ``points``."""
    pts = [complex(p) for p in points]
    target = complex(target)
    if not any(abs(target - p) <= 1e-12 * max(1.0, abs(p)) for p in pts):
        raise UnknownPointError(f"{target} is not a listed singular point")
    b = default_basepoint(pts) if basepoint is None else complex(basepoint)
    if any(abs(b - p) < 1e-9 for p in pts):
        raise PreconditionError("basepoint coincides with a singular point")
    radius = min(_gap(pts, target) / 4.0, abs(b - target) / 2.0)
    if margin is None:
        margin = min(min(_gap(pts, p) for p in pts) / 8.0, radius / 2.0, 0.25)
    entry = target + radius * (b - target) / abs(b - target)
    blockers = [p for p in pts if abs(p - target) > 1e-12]
    approach = _detour(b, entry, blockers, margin)
    circle = ("arc", target, radius, cmath.phase(b - target), 2.0 * math.pi)
    back = [_reversed_segment(s) for s in reversed(approach)]
    return LoopPath(b, tuple(approach + [circle] + back), target)


def infinity_loop(points: Sequence[complex],
                  basepoint: Optional[complex] = None,
                  pad: float = 2.0) -> LoopPath:
    """One ccw circle enclosing every finite singular point, based like a fan.

    The run from the basepoint to the circle heads radially away from the
    centroid, which keeps it strictly left of every singular point.
    """
    pts = [complex(p) for p in points]
    b = default_basepoint(pts) if basepoint is None else complex(basepoint)
    center = sum(pts) / len(pts)
    radius = max(abs(p - center) for p in pts) + pad + max(0.0, abs(b - center))
    u = (b - center) / abs(b - center)
    start = center + radius * u
    segs = [("line", b, start),
            ("arc", center, radius, cmath.phase(u), 2.0 * math.pi),
            ("line", start, b)]
    return LoopPath(b, tuple(segs), INFINITY)


def _system_pieces(system):
    """The kernel's coefficient model: (0, poles) or (2, companion coeffs)."""
    if isinstance(system, FuchsianConnection):
        return 0, [(p, (A[0, 0], A[0, 1], A[1, 0], A[1, 1]))
                   for p, A in zip(system.points, system.residues)]
    if isinstance(system, ScalarODE):
        system = companion_system(system)
    if isinstance(system, CompanionSystem):
        o = system.ode
        return 2, (o.p0.num.coeffs, o.p0.den.coeffs,
                   o.p1.num.coeffs, o.p1.den.coeffs)
    raise TypeError(f"cannot integrate a {type(system).__name__}")


def _transport(base, model, segments, tol) -> np.ndarray:
    y = (1, 0, 0, 1)
    for seg in segments:
        kind = base + (seg[0] == "arc")
        try:
            y = _kernel.propagate_segment(kind, seg[1:], model, y, tol)
        except (_kernel.StepUnderflow, ZeroDivisionError) as exc:
            raise ProximityError(str(exc)) from exc
    return np.array(y, dtype=complex).reshape(2, 2)


def integrate_fundamental(system, path: LoopPath,
                          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transport the fundamental matrix along ``path``; Phi(start) = I.

    A leg, one arc and the leg retraced (every fan and infinity loop) give
    P^-1 C P: the retraced leg is not integrated.  C, whose eigenvalues are
    the loop's, runs at tol / 10.
    """
    base, model = _system_pieces(system)
    segs, half = path.segments, len(path.segments) // 2
    if segs[half + 1:] == tuple(map(_reversed_segment, segs[:half][::-1])):
        P = _transport(base, model, segs[:half], tol)
        C = _transport(base, model, segs[half:half + 1], tol / 10)
        return np.linalg.solve(P, C @ P)
    return _transport(base, model, segs, tol)


def _ordered_product(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of the composite path "first loop first": later factors left."""
    out = np.eye(2, dtype=complex)
    for m in matrices:
        out = m @ out
    return out


@dataclass(frozen=True)
class MonodromyRep:
    """Monodromy matrices in the fan convention, with consistency residuals.

    ``product_residual`` checks the defining relation against ``m_infinity``
    (small up to rounding); ``loop_residual`` compares the ordered product
    with an independently integrated circle around all finite points, so it
    measures how well the fan convention was realized numerically.
    """

    basepoint: complex
    points: tuple
    matrices: tuple
    m_infinity: np.ndarray
    product_residual: float
    loop_residual: float
    det_residuals: tuple
    tol: float = DEFAULT_TOL

    def matrix_at(self, point) -> np.ndarray:
        if point == INFINITY:
            return self.m_infinity
        scale = max(1.0, max(abs(p) for p in self.points))
        for p, m in zip(self.points, self.matrices):
            if abs(complex(point) - p) <= 1e-9 * scale:
                return m
        raise UnknownPointError(f"no monodromy matrix stored for {point}")

    def to_json(self) -> str:
        def mat(m):
            return [[[m[i, j].real, m[i, j].imag] for j in range(2)]
                    for i in range(2)]

        payload = {
            "basepoint": [self.basepoint.real, self.basepoint.imag],
            "points": [[p.real, p.imag] for p in self.points],
            "matrices": [mat(m) for m in self.matrices],
            "m_infinity": mat(self.m_infinity),
            "eigenvalues": {
                "finite": [[[lam.real, lam.imag]
                            for lam, _ in eig_small(m, residual_tol=1e-6)]
                           for m in self.matrices],
                "infinity": [[lam.real, lam.imag]
                             for lam, _ in eig_small(self.m_infinity,
                                                     residual_tol=1e-6)],
            },
            "product_residual": self.product_residual,
            "loop_residual": self.loop_residual,
            "det_residuals": list(self.det_residuals),
            "tol": self.tol,
        }
        return json.dumps(payload, sort_keys=True)


def monodromy_rep(c: FuchsianConnection,
                  basepoint: Optional[complex] = None,
                  tol: float = DEFAULT_TOL) -> MonodromyRep:
    """Fan-loop monodromy of every finite point, with m_infinity derived."""
    b = default_basepoint(c.points) if basepoint is None else complex(basepoint)
    order = sorted(c.points,
                   key=lambda p: (cmath.phase(p - b), abs(p - b)))
    mats = []
    for p in order:
        loop = fan_loop(c.points, p, basepoint=b)
        mats.append(integrate_fundamental(c, loop, tol))
    prod = _ordered_product(mats)
    # not inv(prod): its small eigenvalue, 1/|lambda_inf|, drowns in rounding
    m_inf = _ordered_product([np.linalg.inv(m) for m in reversed(mats)])
    big = integrate_fundamental(c, infinity_loop(c.points, basepoint=b), tol)
    loop_residual = float(np.linalg.norm(big - prod) /
                          max(1.0, np.linalg.norm(prod)))
    product_residual = float(np.linalg.norm(prod @ m_inf - np.eye(2)))
    dets = []
    for p, m in zip(order, mats):
        tr = np.trace(c.residue_at(p))
        dets.append(abs(np.linalg.det(m) - cmath.exp(2j * math.pi * tr)))
    tr_inf = np.trace(c.a_infinity())
    dets.append(abs(np.linalg.det(m_inf) - cmath.exp(2j * math.pi * tr_inf)))
    return MonodromyRep(b, tuple(order), tuple(mats), m_inf,
                        product_residual, loop_residual, tuple(dets), tol)


def invariant_line(rep: MonodromyRep, tol: float = APPARENT_TOL):
    """Common eigenvector of the finite monodromies, if one exists.

    A common eigenvector of every finite matrix is automatically one of
    ``m_infinity`` (the inverse of their product), so the finite set
    suffices.
    """
    return common_eigenvector(list(rep.matrices), tol)

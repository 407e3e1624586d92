"""Fuchsian-connection data model and scalar reduction.

The orientation convention, fixed once for the whole package: horizontal
sections satisfy Y' = R(x) Y with R(x) = sum_j A_j/(x - a_j).  Local
exponents at a_j are then exactly the eigenvalues of A_j, the residue at
infinity is the derived matrix A_inf = -(A_1 + ... + A_r), whose eigenvalues
are the exponents at infinity (in the chart w = 1/x), and monodromy
eigenvalues are exp(2*pi*i * eig A_j).  Other sign conventions exist in the
literature; this one is used because it reproduces the classical rank-2
realization of the hypergeometric equation verbatim (see
``hypergeometric_system``).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .numkit import (
    CPoly,
    CRat,
    DegenerateInputError,
    ShapeError,
    as_cmat,
    eig_small,
    is_diagonalisable_2x2,
    poly_roots,
)

SCHEME_TOL = 1e-9
_POINT_SEP_TOL = 1e-12

INFINITY = "inf"  #: marker for the point at infinity in schemes/maps


class ReducibleFrameError(ValueError):
    """The (1,2)-entry A12(x) vanishes identically; elimination impossible."""


class UnknownPointError(KeyError):
    """Referenced point is not a singular point of the connection."""


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuchsianConnection:
    """Finite singular points with their 2x2 residue matrices.

    A_inf is always derived via the residue sum being zero, never stored.
    Construction checks that the points are pairwise distinct and that every
    residue is diagonalisable (repeated-eigenvalue residues must be scalar).
    """

    points: tuple
    residues: tuple

    def __init__(self, points: Sequence[complex], residues: Sequence[np.ndarray]):
        pts = tuple(complex(p) for p in points)
        res = tuple(np.array(as_cmat(r, 2, 2), copy=True) for r in residues)
        if len(pts) != len(res):
            raise ShapeError("need one residue per singular point")
        if len(pts) == 0:
            raise DegenerateInputError("a connection needs at least one singular point")
        scale = max(1.0, max(abs(p) for p in pts))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= _POINT_SEP_TOL * scale:
                    raise DegenerateInputError(f"singular points {i} and {j} coincide")
        for i, r in enumerate(res):
            if not is_diagonalisable_2x2(r):
                raise DegenerateInputError(
                    f"residue at point index {i} is not diagonalisable"
                )
            r.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "residues", res)

    # -- derived data -----------------------------------------------------
    def a_infinity(self) -> np.ndarray:
        return -sum(self.residues)

    def residue_at(self, point) -> np.ndarray:
        """Residue at a finite singular point or at INFINITY (derived)."""
        if point == INFINITY:
            return self.a_infinity()
        idx = self.point_index(point)
        return self.residues[idx]

    def point_index(self, point: complex) -> int:
        scale = max(1.0, max(abs(p) for p in self.points))
        for i, p in enumerate(self.points):
            if abs(p - complex(point)) <= 1e-9 * scale:
                return i
        raise UnknownPointError(f"{point} is not a singular point of this connection")

    def matrix(self, x: complex) -> np.ndarray:
        """R(x) = sum A_j / (x - a_j)."""
        acc = np.zeros((2, 2), dtype=complex)
        for p, A in zip(self.points, self.residues):
            acc += A / (x - p)
        return acc

    # -- serialization (JSON, values to full double precision) ------------
    def to_json(self) -> str:
        payload = {
            "points": [[p.real, p.imag] for p in self.points],
            "residues": [
                [[[z.real, z.imag] for z in row] for row in np.asarray(A)]
                for A in self.residues
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuchsianConnection":
        data = json.loads(text)
        pts = [complex(re, im) for re, im in data["points"]]
        res = [
            np.array([[complex(re, im) for re, im in row] for row in A], dtype=complex)
            for A in data["residues"]
        ]
        return cls(pts, res)


@dataclass(frozen=True)
class RiemannScheme:
    """Singular points with their exponent pairs, plus flagged apparent points.

    columns: tuple of (point, (e1, e2)) where point is a complex number or
    the INFINITY marker; apparent_points: same shape, flagged separately.
    Schemes are compared up to column order and within-column exponent order
    (``close_to``) at SCHEME_TOL.
    """

    columns: tuple
    apparent_points: tuple = ()

    def normalized(self) -> "RiemannScheme":
        def col_key(col):
            p = col[0]
            if p == INFINITY:
                return (1, 0.0, 0.0)
            return (0, round(p.real, 9), round(p.imag, 9))

        cols = []
        for p, (e1, e2) in self.columns:
            e1, e2 = sorted((complex(e1), complex(e2)),
                            key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            cols.append((p if p == INFINITY else complex(p), (e1, e2)))
        cols.sort(key=col_key)
        app = []
        for p, (e1, e2) in self.apparent_points:
            e1, e2 = sorted((complex(e1), complex(e2)),
                            key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            app.append((complex(p), (e1, e2)))
        app.sort(key=col_key)
        return RiemannScheme(tuple(cols), tuple(app))

    def close_to(self, other: "RiemannScheme", tol: float = SCHEME_TOL) -> bool:
        return _fields_close(self.normalized(), other.normalized(), tol)

    def exponent_sum(self) -> complex:
        s = sum(e1 + e2 for _, (e1, e2) in self.columns)
        s += sum(e1 + e2 for _, (e1, e2) in self.apparent_points)
        return s

    def to_json(self) -> str:
        norm = self.normalized()

        def enc_point(p):
            return "inf" if p == INFINITY else [p.real, p.imag]

        payload = {
            "columns": [
                {"point": enc_point(p), "exponents": [[e.real, e.imag] for e in es]}
                for p, es in norm.columns
            ],
            "apparent_points": [
                {"point": enc_point(p), "exponents": [[e.real, e.imag] for e in es]}
                for p, es in norm.apparent_points
            ],
        }
        return json.dumps(payload, sort_keys=True)


def _fields_close(a: RiemannScheme, b: RiemannScheme, tol: float) -> bool:
    """Field-by-field comparison of two already normalized schemes."""
    if len(a.columns) != len(b.columns):
        return False
    if len(a.apparent_points) != len(b.apparent_points):
        return False
    for (p1, es1), (p2, es2) in zip(a.columns, b.columns):
        if (p1 == INFINITY) != (p2 == INFINITY):
            return False
        if p1 != INFINITY and abs(p1 - p2) > tol * max(1.0, abs(p1)):
            return False
        for x, y in zip(es1, es2):
            if abs(x - y) > tol * max(1.0, abs(x)):
                return False
    for (p1, es1), (p2, es2) in zip(a.apparent_points, b.apparent_points):
        if abs(p1 - p2) > tol * max(1.0, abs(p1)):
            return False
        for x, y in zip(es1, es2):
            if abs(x - y) > tol * max(1.0, abs(x)):
                return False
    return True


@dataclass(frozen=True)
class ScalarODE:
    """y'' + p1 y' + p0 y = 0 with rational coefficients."""

    p1: CRat
    p0: CRat

    def singular_points(self) -> list:
        pts = list(self.p1.poles()) + list(self.p0.poles())
        out = []
        for p in pts:
            if not any(abs(p - q) <= 1e-9 * max(1.0, abs(p)) for q in out):
                out.append(p)
        return sorted(out, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


@dataclass(frozen=True)
class HeunParameters:
    """Scalar Heun data (a, q; alpha, beta, gamma, delta, epsilon).

    The singular points are 0, 1, a, infinity with local exponents
    {0, 1-gamma}, {0, 1-delta}, {0, 1-epsilon}, {alpha, beta}.  Construction
    enforces a not in {0, 1} and the Fuchsian constraint
    alpha + beta + 1 = gamma + delta + epsilon to 1e-12.
    """

    a: complex
    q: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    epsilon: complex

    def __post_init__(self):
        a = complex(self.a)
        for v in (0.0, 1.0):
            if abs(a - v) <= 1e-12:
                raise DegenerateInputError("Heun point a must avoid {0, 1}")
        defect = self.alpha + self.beta + 1.0 - self.gamma - self.delta - self.epsilon
        if abs(defect) > 1e-12 * max(1.0, abs(self.alpha) + abs(self.beta)):
            raise DegenerateInputError(
                f"Fuchsian constraint violated: alpha+beta+1-gamma-delta-epsilon = {defect}"
            )

    def scheme(self) -> RiemannScheme:
        return RiemannScheme((
            (0j, (0j, 1.0 - self.gamma)),
            (1.0 + 0j, (0j, 1.0 - self.delta)),
            (complex(self.a), (0j, 1.0 - self.epsilon)),
            (INFINITY, (complex(self.alpha), complex(self.beta))),
        ))


def heun_scalar(h: HeunParameters) -> ScalarODE:
    """The Heun equation of h in the normal form y'' + p1 y' + p0 y = 0.

    p1 = gamma/x + delta/(x-1) + epsilon/(x-a) and
    p0 = (alpha*beta*x - q) / (x(x-1)(x-a)).
    """
    den = CPoly.from_roots([0.0, 1.0, complex(h.a)])
    x_minus = {
        0.0: CPoly([0.0, 1.0]),
        1.0: CPoly([-1.0, 1.0]),
        "a": CPoly([-complex(h.a), 1.0]),
    }
    p1_num = (h.gamma * x_minus[1.0] * x_minus["a"]
              + h.delta * x_minus[0.0] * x_minus["a"]
              + h.epsilon * x_minus[0.0] * x_minus[1.0])
    p1 = CRat(p1_num, den)
    p0 = CRat(CPoly([-h.q, h.alpha * h.beta]), den)
    return ScalarODE(p1, p0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def riemann_scheme(c: FuchsianConnection) -> RiemannScheme:
    """Matrix-level scheme: eigenvalues of each residue, and of A_inf."""
    cols = []
    for p, A in zip(c.points, c.residues):
        (l1, _), (l2, _) = eig_small(A)
        cols.append((p, (l1, l2)))
    (l1, _), (l2, _) = eig_small(c.a_infinity())
    cols.append((INFINITY, (l1, l2)))
    return RiemannScheme(tuple(cols)).normalized()


def kummer_twist(c: FuchsianConnection, point, mu: complex) -> FuchsianConnection:
    """Tensor with (x - point)^mu: residue at the point shifts by mu*I.

    Other finite residues are unchanged; the derived A_inf therefore shifts
    by -mu*I.  Twisting at an unknown point raises UnknownPointError.
    """
    idx = c.point_index(point)
    res = [np.array(A, copy=True) for A in c.residues]
    res[idx] = res[idx] + complex(mu) * np.eye(2)
    return FuchsianConnection(c.points, res)


def _mobius_apply(f: np.ndarray, z) -> Union[complex, str]:
    a, b, c_, d = f[0, 0], f[0, 1], f[1, 0], f[1, 1]
    if z == INFINITY:
        if abs(c_) == 0.0:
            return INFINITY
        return a / c_
    num = a * z + b
    den = c_ * z + d
    if abs(den) <= 1e-14 * max(1.0, abs(num)):
        return INFINITY
    return num / den


def mobius_pushforward(c: FuchsianConnection, f: np.ndarray) -> FuchsianConnection:
    """Push the connection forward along the Mobius map f(x) = (ax+b)/(cx+d).

    Residue matrices follow their points (simple-pole residues are invariant
    under coordinate change); a finite point sent to infinity is dropped from
    the stored list, so its residue is absorbed into the derived A_inf, and a
    point at infinity sent to a finite target contributes the old derived
    A_inf there.
    """
    f = as_cmat(f, 2, 2)
    if abs(np.linalg.det(f)) <= 1e-14:
        raise DegenerateInputError("Mobius map is degenerate (zero determinant)")
    new_pts = []
    new_res = []
    for p, A in zip(c.points, c.residues):
        img = _mobius_apply(f, p)
        if img == INFINITY:
            continue  # residue joins the derived A_inf
        new_pts.append(img)
        new_res.append(np.array(A, copy=True))
    img_inf = _mobius_apply(f, INFINITY)
    if img_inf != INFINITY:
        new_pts.append(img_inf)
        new_res.append(c.a_infinity())
    return FuchsianConnection(new_pts, new_res)


def _entry_numerator(c: FuchsianConnection, i: int, j: int) -> CPoly:
    """Numerator of entry (i,j) of R(x) over the common denominator."""
    num = CPoly([0.0])
    for k, (p, A) in enumerate(zip(c.points, c.residues)):
        others = [pp for m, pp in enumerate(c.points) if m != k]
        num = num + A[i, j] * CPoly.from_roots(others)
    return num


def _infinity_exponents(p1: CRat, p0: CRat):
    """Exponents at infinity for y'' + p1 y' + p0 y = 0 (Fuchsian case).

    With p1 ~ P1/x and p0 ~ P0/x^2 at infinity, substituting y = x^(-rho)
    gives the indicial equation rho^2 + (1 - P1) rho + P0 = 0, whose roots
    are the exponents (the Heun scheme {alpha, beta} comes out exactly).
    """
    def limit_coeff(r: CRat, order: int) -> complex:
        # lim x^order * r(x); requires deg(den) - deg(num) >= order
        if r.num.is_zero:
            return 0j
        gap = r.den.degree - r.num.degree
        if gap > order:
            return 0j
        if gap < order:
            raise ArithmeticError("coefficient does not decay; point at infinity is irregular")
        return r.num.coeffs[-1] / r.den.coeffs[-1]

    P1 = limit_coeff(p1, 1)
    P0 = limit_coeff(p0, 2)
    r = np.roots([1.0, 1.0 - P1, P0])
    return complex(r[0]), complex(r[1])


def to_scalar(c: FuchsianConnection) -> Tuple[ScalarODE, RiemannScheme]:
    """Eliminate the second component of Y' = R(x) Y.

    With y2 = (y1' - A11 y1)/A12 the first component satisfies
    y'' + p1 y' + p0 y = 0 where

        p1 = -(A11 + A22) - A12'/A12
        p0 = A11 A22 - A12 A21 - A11' + A11 A12'/A12.

    The returned scheme has a singular column per finite point (exponents =
    eigenvalues of the residue), an infinity column from the indicial roots
    of the scalar equation, and flags every simple zero of A12's numerator as
    an apparent point with exponents {0, 2}.  A higher-order zero of A12 is
    rejected.  A12 identically zero raises ReducibleFrameError (swap
    components or change frame).
    """
    # Assemble both coefficients over the explicit common denominator in one
    # step: chaining rational operations would stack the pole factors into
    # high-multiplicity denominator roots, which the root-matching reduction
    # cannot cancel and which degrade pointwise evaluation.
    den = CPoly.from_roots(list(c.points))
    n11 = _entry_numerator(c, 0, 0)
    n12 = _entry_numerator(c, 0, 1)
    n21 = _entry_numerator(c, 1, 0)
    n22 = _entry_numerator(c, 1, 1)
    if n12.is_zero or n12.scale() <= 1e-13 * max(
            1.0, max(np.linalg.norm(A) for A in c.residues)):
        raise ReducibleFrameError(
            "A12(x) vanishes identically; eliminate the other component instead"
        )
    dden = den.derivative()
    dn12 = n12.derivative()
    p1 = CRat(-((n11 + n22) * n12 + dn12 * den - dden * n12), den * n12)
    p0_num = (n11 * dn12 * den + (n11 * n22) * n12
              - n11.derivative() * n12 * den - (n12 * n12) * n21)
    p0 = CRat(p0_num, (den * den) * n12)

    cols = []
    for p, A in zip(c.points, c.residues):
        (l1, _), (l2, _) = eig_small(A)
        cols.append((p, (l1, l2)))
    e1, e2 = _infinity_exponents(p1, p0)
    cols.append((INFINITY, (e1, e2)))

    apparent = []
    zeros = [] if n12.degree == 0 else poly_roots(n12)
    scale = max(1.0, max(abs(p) for p in c.points))
    for i, z in enumerate(zeros):
        if any(abs(z - w) <= 1e-8 * scale for w in list(zeros[:i])):
            raise DegenerateInputError(
                "A12 numerator has a higher-order zero; not handled"
            )
        if any(abs(z - p) <= 1e-8 * scale for p in c.points):
            # zero collides with a singular point: exponents there shift
            # instead of creating an apparent point; reject as out of contract
            raise DegenerateInputError(
                "A12 numerator vanishes at a singular point; frame not generic"
            )
        apparent.append((z, (0j, 2.0 + 0j)))

    return ScalarODE(p1, p0), RiemannScheme(tuple(cols), tuple(apparent)).normalized()


def kummer_orbit(s: RiemannScheme) -> list:
    """Kummer's substitution orbit of a scheme on two finite points and infinity.

    The 24 classical substitutions form the group S3 x (Z/2)^2 acting on
    the exponent pairs (cf. Maier, Math. Comp. 76, 2007): S3 places the
    three pairs on the slots (p0, p1, infinity), and at each finite point
    one exponent s0 (at p0) or s1 (at p1) is chosen and zeroed by a twist
    whose opposite shift lands on the infinity column.  Each image is
    ({e0 - s0}, {e1 - s1}, {einf + s0 + s1}), and since images of images
    are again images, one pass over the 24 gives the whole orbit.  Images
    are deduplicated up to column order and within-column exponent order
    (``close_to``): a generic scheme yields 24 members, degenerate schemes
    fewer.  Every member has the seed's exponent sum, and the seed itself
    is a member exactly when it has a zero exponent at both finite points.
    A scheme without two finite columns and one INFINITY column raises
    ShapeError.
    """
    s = s.normalized()
    pts = [p for p, _ in s.columns]
    if len(pts) != 3 or pts.count(INFINITY) != 1:
        raise ShapeError("kummer_orbit needs two finite columns and one "
                         "INFINITY column")
    p0, p1, _ = pts  # normalized order puts infinity last
    pairs = [es for _, es in s.columns]
    orbit: list = []
    for i, j, k in itertools.permutations(range(3)):
        for s0 in pairs[i]:
            for s1 in pairs[j]:
                cand = RiemannScheme((
                    (p0, tuple(e - s0 for e in pairs[i])),
                    (p1, tuple(e - s1 for e in pairs[j])),
                    (INFINITY, tuple(e + s0 + s1 for e in pairs[k])),
                )).normalized()
                if not any(_fields_close(cand, known, SCHEME_TOL)
                           for known in orbit):
                    orbit.append(cand)
    return orbit


@dataclass(frozen=True)
class CompanionSystem:
    """First-order companion form Z' = C(x) Z of a ScalarODE, Z = (y, y')."""

    ode: ScalarODE

    def matrix(self, x: complex) -> np.ndarray:
        return np.array(
            [[0.0, 1.0], [-self.ode.p0(x), -self.ode.p1(x)]], dtype=complex
        )

    def singular_points(self) -> list:
        return self.ode.singular_points()


def companion_system(o: ScalarODE) -> CompanionSystem:
    """Bridge to the monodromy integrator: C = [[0, 1], [-p0, -p1]]."""
    return CompanionSystem(o)


# ---------------------------------------------------------------------------
# constructors used across the test-suite and CLI
# ---------------------------------------------------------------------------

def hypergeometric_system(alpha: complex, beta: complex,
                          gamma: complex, delta: complex) -> FuchsianConnection:
    """Rank-2 realization of the hypergeometric equation with two finite points.

    Requires alpha + beta + gamma + delta = 0.  With
    u0 = alpha(alpha+delta)/(alpha-beta) and u1 = alpha(alpha+gamma)/(alpha-beta),

        A_0 = [[u0+gamma, 1], [-u0(u0+gamma), -u0]]   (eigenvalues 0, gamma)
        A_1 = [[u1+delta, -1], [u1(u1+delta), -u1]]   (eigenvalues 0, delta)

    and the derived A_inf = diag(beta, alpha).  Eliminating the second
    component yields y'' + ((1-gamma)/x + (1-delta)/(x-1)) y'
    + beta(alpha+1)/(x(x-1)) y = 0; the second component satisfies the same
    with zeroth-order coefficient alpha(beta+1)/(x(x-1)).
    """
    if abs(alpha + beta + gamma + delta) > 1e-10 * max(
            1.0, abs(alpha), abs(beta), abs(gamma), abs(delta)):
        raise DegenerateInputError("hypergeometric_system needs alpha+beta+gamma+delta = 0")
    if abs(alpha - beta) <= 1e-12:
        raise DegenerateInputError("alpha = beta makes the parametrization singular")
    u0 = alpha * (alpha + delta) / (alpha - beta)
    u1 = alpha * (alpha + gamma) / (alpha - beta)
    A0 = np.array([[u0 + gamma, 1.0], [-u0 * (u0 + gamma), -u0]], dtype=complex)
    A1 = np.array([[u1 + delta, -1.0], [u1 * (u1 + delta), -u1]], dtype=complex)
    return FuchsianConnection([0.0, 1.0], [A0, A1])


def connection_with_heun_exponents(h: HeunParameters) -> FuchsianConnection:
    """A connection realizing the local exponent data of h at 0, 1, a.

    Residues have eigenvalues {0, 1-gamma}, {0, 1-delta}, {0, 1-epsilon} in
    three fixed, generically independent frames.  The accessory parameter has
    no matrix-level counterpart here; use ``heun_scalar`` plus
    ``companion_system`` when q matters.
    """
    def rank1(theta: complex, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        proj = np.outer(v, w) / (w @ v)
        return theta * proj

    v0, w0 = np.array([1.0, 0.3]), np.array([1.0, -0.2])
    v1, w1 = np.array([0.5, 1.0]), np.array([-0.4, 1.0])
    va, wa = np.array([1.0, 1.0]), np.array([1.0, 0.7])
    A0 = rank1(1.0 - h.gamma, v0, w0)
    A1 = rank1(1.0 - h.delta, v1, w1)
    Aa = rank1(1.0 - h.epsilon, va, wa)
    return FuchsianConnection([0.0, 1.0, complex(h.a)], [A0, A1, Aa])

"""Local Frobenius series for the scalar Heun equation.

This module is the package's independent power-series oracle.  The
recurrence is not transcribed from any table: it is generated from the
operator itself.  Writing the equation as P2 y'' + P1 y' + P0 y = 0 with
polynomial coefficients and shifting to a local variable t = x - p, the
substitution y = sum c_s t^(s+rho) yields

    sum_k F_k(rho + s - k + 1) c_{s-k+1} = 0,
    F_k(nu) := P2_k nu(nu-1) + P1_{k-1} nu + P0_{k-2},

where P2_k etc. are Taylor coefficients at p.  For Heun operators only
F_1, F_2, F_3 are nonzero, so the recurrence has three terms and the
indicial polynomial is F_1.  The closed-form accessory-set matrices
below were obtained by specialising these F_k at x = 0 and x = a; the
test suite re-derives them from the generic engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import HeunParameters
from .numkit import (
    CPoly,
    INTEGER_TOL,
    PreconditionError,
    near_integer,
    sorted_eigenpairs,
)

OBSTRUCTION_TOL = 1e-8

__all__ = [
    "OBSTRUCTION_TOL",
    "LocalSeries",
    "LogarithmicCaseError",
    "local_series",
    "polynomial_q_matrix",
    "polynomial_q_set",
    "apparent_q_matrix",
    "apparent_q_set",
    "is_apparent",
    "heun_operator_polys",
    "frobenius_terms",
]


class LogarithmicCaseError(ArithmeticError):
    """Resonant Frobenius step with non-vanishing obstruction.

    Attributes
    ----------
    index : int
        Series index at which the resonance occurs.
    obstruction : complex
        Value that would have to vanish for a log-free solution.
    """

    def __init__(self, index: int, obstruction: complex):
        self.index = index
        self.obstruction = obstruction
        super().__init__(
            "logarithmic case: obstruction %r at series index %d"
            % (obstruction, index))


@dataclass(frozen=True)
class LocalSeries:
    """Truncated Frobenius solution sum c_s (x-point)^(s+exponent)."""

    point: complex
    exponent: complex
    coeffs: tuple
    radius_hint: float

    def __call__(self, x: complex) -> complex:
        t = complex(x) - self.point
        total = 0j
        for s in range(len(self.coeffs) - 1, -1, -1):
            total = total * t + self.coeffs[s]
        return total * t ** self.exponent

    def derivative(self, x: complex) -> complex:
        t = complex(x) - self.point
        rho = self.exponent
        total = 0j
        for s in range(len(self.coeffs) - 1, -1, -1):
            total = total * t + self.coeffs[s] * (s + rho)
        return total * t ** (rho - 1.0)


def heun_operator_polys(h: HeunParameters):
    """Polynomial coefficients (P2, P1, P0) of the Heun operator with q folded in.

    P2 = x(x-1)(x-a), P1 = gamma (x-1)(x-a) + delta x(x-a) + eps x(x-1),
    P0 = alpha beta x - q.
    """
    a = h.a
    x01 = CPoly.from_roots([1.0, a])          # (x-1)(x-a)
    x0a = CPoly.from_roots([0.0, a])          # x(x-a)
    x01b = CPoly.from_roots([0.0, 1.0])       # x(x-1)
    p2 = CPoly.from_roots([0.0, 1.0, a])
    p1 = h.gamma * x01 + h.delta * x0a + h.epsilon * x01b
    p0 = CPoly([-h.q, h.alpha * h.beta])
    return p2, p1, p0


def _taylor_at(p: CPoly, point: complex, upto: int):
    """Taylor coefficients of p about `point`, indices 0..upto."""
    out = []
    cur = p
    fact = 1.0
    for k in range(upto + 1):
        out.append(cur(point) / fact)
        cur = cur.derivative()
        fact *= (k + 1)
    return out


def frobenius_terms(h: HeunParameters, point: complex):
    """Return the functions F_1, F_2, F_3 of the local recurrence at `point`.

    Each F_k is returned as a callable of nu.  This is generated from the
    operator polynomials, not transcribed.
    """
    p2, p1, p0 = heun_operator_polys(h)
    c2 = _taylor_at(p2, point, 3)
    c1 = _taylor_at(p1, point, 2)
    c0 = _taylor_at(p0, point, 1)
    if abs(c2[0]) > 1e-10 * max(1.0, abs(h.a)) ** 3:
        raise PreconditionError(
            "point %r is not a root of the leading coefficient" % (point,))

    def make(k):
        a2 = c2[k] if k <= 3 else 0j
        a1 = c1[k - 1] if 0 <= k - 1 <= 2 else 0j
        a0 = c0[k - 2] if 0 <= k - 2 <= 1 else 0j
        return lambda nu: a2 * nu * (nu - 1.0) + a1 * nu + a0

    return make(1), make(2), make(3)


def _local_exponents(h: HeunParameters, point: complex):
    if abs(point) <= 1e-12 * max(1.0, abs(h.a)):
        return (0j, 1.0 - h.gamma)
    if abs(point - 1.0) <= 1e-12 * max(1.0, abs(h.a)):
        return (0j, 1.0 - h.delta)
    if abs(point - h.a) <= 1e-12 * max(1.0, abs(h.a)):
        return (0j, 1.0 - h.epsilon)
    raise PreconditionError("point %r is not a finite singular point" % (point,))


def _run_recurrence(h: HeunParameters, point: complex, rho: complex, N: int,
                    obstruction_tol: float):
    """Coefficients c_0..c_N; resonant steps get c_s = 0 if the obstruction
    vanishes, else LogarithmicCaseError."""
    F1, F2, F3 = frobenius_terms(h, point)
    exps = _local_exponents(h, point)
    other = exps[1] if abs(rho - exps[0]) < abs(rho - exps[1]) else exps[0]
    gap = near_integer(other - rho, tol=INTEGER_TOL)
    resonant_index = gap if (gap is not None and gap >= 1) else None

    c = [1.0 + 0j]
    scale = 1.0
    for s in range(1, N + 1):
        rhs = -F2(rho + s - 1.0) * c[s - 1]
        if s >= 2:
            rhs -= F3(rho + s - 2.0) * c[s - 2]
        lead = F1(rho + s)
        if resonant_index is not None and s == resonant_index:
            if abs(rhs) <= obstruction_tol * max(1.0, scale):
                c.append(0j)
                continue
            raise LogarithmicCaseError(s, rhs / max(1.0, scale))
        c.append(rhs / lead)
        scale = max(scale, abs(c[-1]))
    return c


def local_series(h: HeunParameters, point: complex, exponent: complex, N: int,
                 obstruction_tol: float = OBSTRUCTION_TOL) -> LocalSeries:
    """Frobenius solution at a finite singular point of the Heun equation.

    Parameters
    ----------
    h : HeunParameters
    point : complex
        One of 0, 1, a.
    exponent : complex
        A local exponent at that point ({0, 1-gamma} at 0, {0, 1-delta}
        at 1, {0, 1-epsilon} at a).
    N : int
        Truncation order; coefficients c_0..c_N are produced, c_0 = 1.

    Raises
    ------
    LogarithmicCaseError
        If the other exponent exceeds this one by a positive integer <= N
        and the obstruction there does not vanish.
    PreconditionError
        Unknown point or exponent.
    """
    exps = _local_exponents(h, point)
    if min(abs(exponent - e) for e in exps) > 1e-8 * max(1.0, abs(exponent)):
        raise PreconditionError(
            "exponent %r is not local at %r (expected one of %r)"
            % (exponent, point, exps))
    c = _run_recurrence(h, point, complex(exponent), N, obstruction_tol)
    others = [p for p in (0.0, 1.0, h.a) if abs(p - point) > 1e-12]
    radius = min(abs(p - point) for p in others)
    return LocalSeries(point=complex(point), exponent=complex(exponent),
                       coeffs=tuple(c), radius_hint=float(radius))


def _snap_nonpositive_int(value: complex, name: str) -> int:
    n = near_integer(value, tol=OBSTRUCTION_TOL)
    if n is None or n > 0:
        raise PreconditionError(
            "%s = %r is not a non-positive integer" % (name, value))
    return -n


def polynomial_q_matrix(h: HeunParameters) -> np.ndarray:
    """Matrix whose eigenvalues are the q admitting a polynomial solution.

    The truncation y = c_0 + ... + c_n x^n closes exactly when c_{n+1} = 0.
    Rewriting the x = 0 recurrence rows with c_{n+1} = 0 as q c = T c gives
    an (n+1) x (n+1) tridiagonal matrix; its eigenvectors are the c:

        T[j, j]   = -j((j-1)(1+a) + gamma(1+a) + delta a + eps)
        T[j, j+1] = a (j+1)(j + gamma)
        T[j, j-1] = (j-1+alpha)(j-1+beta)
    """
    n = _snap_nonpositive_int(h.alpha, "alpha")
    a, al, be = h.a, complex(-n), h.beta
    ga, de, ep = h.gamma, h.delta, h.epsilon
    T = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        T[j, j] = -j * ((j - 1) * (1 + a) + ga * (1 + a) + de * a + ep)
        if j + 1 <= n:
            T[j, j + 1] = a * (j + 1) * (j + ga)
        if j - 1 >= 0:
            T[j, j - 1] = (j - 1 + al) * (j - 1 + be)
    return T


def polynomial_q_set(h: HeunParameters):
    """Sorted q admitting a polynomial solution of degree n = -alpha."""
    return [q for q, _ in sorted_eigenpairs(polynomial_q_matrix(h))]


def apparent_q_matrix(h: HeunParameters) -> np.ndarray:
    """Matrix whose eigenvalues make x = a apparent, for eps = -m.

    The exponents at a are {0, m+1}; the exponent-0 series meets a
    resonance at index m+1 and the obstruction is a degree-(m+1)
    polynomial in q.  Its roots are the eigenvalues of the tridiagonal
    matrix built from the x = a recurrence rows:

        T[j, j]   = (2a-1) j(j-1) + (gamma(a-1) + delta a + eps(2a-1)) j
                    + alpha beta a
        T[j, j+1] = a(a-1)(j+1)(j + eps)
        T[j, j-1] = (j-1+alpha)(j-1+beta)

    with j = 0..m; the j = m superdiagonal entry vanishes identically.
    """
    m = _snap_nonpositive_int(h.epsilon, "epsilon")
    a, al, be = h.a, h.alpha, h.beta
    ga, de, ep = h.gamma, h.delta, complex(-m)
    T = np.zeros((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        T[j, j] = ((2 * a - 1) * j * (j - 1)
                   + (ga * (a - 1) + de * a + ep * (2 * a - 1)) * j
                   + al * be * a)
        if j + 1 <= m:
            T[j, j + 1] = a * (a - 1) * (j + 1) * (j + ep)
        if j - 1 >= 0:
            T[j, j - 1] = (j - 1 + al) * (j - 1 + be)
    return T


def apparent_q_set(h: HeunParameters):
    """Sorted q making x = a an apparent singularity, for eps = -m."""
    return [q for q, _ in sorted_eigenpairs(apparent_q_matrix(h))]


def is_apparent(h: HeunParameters, q: complex, tol: float = OBSTRUCTION_TOL) -> bool:
    """True iff x = a is apparent for accessory value q.

    Requires 1 - eps to be a positive integer (integral exponent
    difference); otherwise returns False immediately.  The test runs the
    exponent-0 recurrence at a up to the resonant index and checks the
    obstruction against tol (relative to the coefficient scale).
    """
    diff = near_integer(1.0 - h.epsilon, tol=INTEGER_TOL)
    if diff is None or diff < 1:
        return False
    h2 = HeunParameters(a=h.a, q=q, alpha=h.alpha, beta=h.beta,
                        gamma=h.gamma, delta=h.delta, epsilon=h.epsilon)
    try:
        _run_recurrence(h2, h2.a, 0j, diff, tol)
    except LogarithmicCaseError:
        return False
    return True

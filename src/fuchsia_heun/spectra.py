"""Residue-direction derivative operator on negative-power sections.

On the basis e_j = A_a s / (x - a)^j, j = 0..m, the covariant derivative
in the direction of the a-residue acts tridiagonally.  With u = 1/(x - a)
(e_j <-> u^j) it is the operator

    f -> -(1 + a u)(1 + (a-1) u) f' + m a (1 + (a-1) u) f

on polynomials of degree <= m in u, and its eigenfunctions are known in
closed form: (1 + a u)^(m-k) (1 + (a-1) u)^k has eigenvalue k.  As a
section this is x^(m-k) (x-1)^k / (x-a)^m A_a s, so the eigenvalue counts
the order of vanishing at x = 1, traded against the order at x = 0.  The
m + 1 eigenvectors are nonzero with distinct eigenvalues, so the spectrum
is exactly {0, 1, ..., m} for every a: the equally-spaced spectrum the
accessory-parameter sets are calibrated against.  `nabla_v_spectrum`
checks each closed-form pair against the float matrix by its residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .numkit import PreconditionError

SPECTRUM_TOL = 1e-8

__all__ = [
    "SPECTRUM_TOL",
    "NablaVMatrix",
    "SpectrumViolationError",
    "nabla_v_matrix",
    "nabla_v_spectrum",
    "eigensection_coeffs",
    "filtration_shift",
]


class SpectrumViolationError(ArithmeticError):
    """Computed spectrum deviates from {0..m}; indicates a bug or near-degenerate a."""


@dataclass(frozen=True)
class NablaVMatrix:
    """Tridiagonal matrix of the operator on the (m+1)-dim section space.

    Column j holds the image of e_j:
    diagonal (m-2k)a + k, subdiagonal a(a-1)(m-k), superdiagonal -k.
    """

    a: complex
    m: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def nabla_v_matrix(a: complex, m: int) -> NablaVMatrix:
    """Matrix of the residue-direction derivative on e_0..e_m.

    The k-th column records the image of e_k:
    a(a-1)(m-k) e_{k+1} + ((m-2k)a + k) e_k - k e_{k-1}.
    """
    a = complex(a)
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if abs(a) <= 1e-12 or abs(a - 1.0) <= 1e-12:
        raise PreconditionError("a in {0, 1} degenerates the operator")
    M = np.zeros((m + 1, m + 1), dtype=complex)
    for k in range(m + 1):
        M[k, k] = (m - 2 * k) * a + k
        if k + 1 <= m:
            M[k + 1, k] = a * (a - 1.0) * (m - k)
        if k - 1 >= 0:
            M[k - 1, k] = -k
    return NablaVMatrix(a=a, m=m, entries=M)


@dataclass(frozen=True)
class SpectrumCheck:
    """Sorted eigenvalues plus their deviations from the integers 0..m."""

    values: tuple
    deviations: tuple

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def _eigensection(a: complex, m: int, k: int) -> np.ndarray:
    """u-coefficients of (1 + a u)^(m-k) (1 + (a-1) u)^k, u = 1/(x - a)."""
    left = np.array([comb(m - k, i) * a ** i for i in range(m - k + 1)])
    right = np.array([comb(k, i) * (a - 1.0) ** i for i in range(k + 1)])
    return np.convolve(left, right)


def nabla_v_spectrum(a: complex, m: int, tol: float = SPECTRUM_TOL) -> SpectrumCheck:
    """Eigenvalues of nabla_v_matrix(a, m), asserted equal to {0..m}.

    Each closed-form eigensection v_k is checked against the float matrix
    M: the value is its Rayleigh quotient and the deviation the residual
    |M v_k - k v_k| / |v_k|, or |value - k| where rounding makes that the
    larger.  A deviation beyond tol raises SpectrumViolationError rather
    than returning quietly.
    """
    nv = nabla_v_matrix(a, m)
    M = np.asarray(nv.entries)
    values, devs = [], []
    for k in range(m + 1):
        v = _eigensection(nv.a, m, k)
        r = M @ v - k * v
        vv = float(np.vdot(v, v).real)
        value = k + complex(np.vdot(v, r)) / vv
        values.append(value)
        devs.append(max(float(np.linalg.norm(r)) / sqrt(vv), abs(value - k)))
    worst = max(devs)
    if worst > tol:
        raise SpectrumViolationError(
            "spectrum deviates from {0..%d} by %.3e (a=%r)" % (m, worst, a))
    return SpectrumCheck(values=tuple(values), deviations=tuple(devs))


def eigensection_coeffs(a: complex, m: int, k: int):
    """Eigenvector of the tridiagonal operator for eigenvalue k, in closed form.

    Returns c_0..c_m, the coefficients of the section sum_j c_j A_a s/(x-a)^j:
    the u-coefficients of (1 + a u)^(m-k) (1 + (a-1) u)^k with u = 1/(x - a),

        c_j = sum_i C(m-k, i) a^i C(k, j-i) (a-1)^(j-i),   c_0 = 1.

    As a section this is x^(m-k) (x-1)^k / (x-a)^m A_a s, so k is the order
    of vanishing at x = 1, traded one for one against the order at x = 0.
    """
    if not (0 <= k <= m):
        raise PreconditionError("k must lie in 0..m")
    nv = nabla_v_matrix(a, m)  # refuses m < 1 and a in {0, 1}
    return [complex(c) for c in _eigensection(nv.a, m, k)]


def filtration_shift(eigs) -> tuple:
    """One lower-modification step on a residue eigenvalue pair {0, -m}.

    {0, -m} becomes {0, -m+1}; iterating m times reaches {0, 0}.
    """
    pair = tuple(complex(e) for e in eigs)
    if len(pair) != 2:
        raise PreconditionError("expected an eigenvalue pair")
    zero_first = abs(pair[0]) <= 1e-9
    zero_second = abs(pair[1]) <= 1e-9
    if zero_first and zero_second:
        raise PreconditionError("pair {0, 0} admits no further shift")
    if zero_first:
        other = pair[1]
    elif zero_second:
        other = pair[0]
    else:
        raise PreconditionError("pair %r does not contain 0" % (pair,))
    mval = -other
    if abs(mval.imag) > 1e-9 or mval.real < 1.0 - 1e-9 \
            or abs(mval.real - round(mval.real)) > 1e-9:
        raise PreconditionError("pair %r is not of the form {0, -m}" % (pair,))
    m = int(round(mval.real))
    return (0j, complex(-(m - 1)))

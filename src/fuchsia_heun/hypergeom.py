"""Gauss 2F1 evaluation and the special-solution classifier.

Evaluation is deliberately minimal: a raw power series inside |x| <= 0.5,
a Pfaff transform for moderately larger arguments, and exact finite sums
for terminating parameter sets.  Everything the expansion machinery needs
lives inside that range; full connection-formula continuation is out of
scope.
"""
from __future__ import annotations

from dataclasses import dataclass

from .numkit import INTEGER_TOL, PreconditionError, near_integer

SERIES_TOL = 1e-12
MAX_TERMS = 2000

# Pfaff transform x -> x/(x-1) is used when the raw series is slow; the
# transformed argument must stay comfortably inside the unit disc.
PFAFF_LIMIT = 0.75

__all__ = [
    "SERIES_TOL",
    "MAX_TERMS",
    "HypergeometricParameters",
    "PoleError",
    "BranchCutError",
    "SpecialSolutionReport",
    "gauss_2f1",
    "d_gauss_2f1",
    "classify_special",
]


class PoleError(ArithmeticError):
    """2F1 has a pole in its parameters (c a non-positive integer)."""


class BranchCutError(ValueError):
    """Evaluation point lies on the branch cut [1, infinity)."""


@dataclass(frozen=True)
class HypergeometricParameters:
    """Parameter triple (a, b, c) of the Gauss function 2F1(a, b; c; x)."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))

    def _termination_index(self):
        """Smallest n >= 0 with a = -n or b = -n, or None."""
        hits = []
        for v in (self.a, self.b):
            n = near_integer(v, tol=1e-10)
            if n is not None and n <= 0:
                hits.append(-n)
        return min(hits) if hits else None

    def _pole_index(self):
        """k >= 0 such that c is within 1e-10 of -k, or None."""
        k = near_integer(self.c, tol=1e-10)
        if k is not None and k <= 0:
            return -k
        return None


def _series(a: complex, b: complex, c: complex, x: complex,
            tol: float, stop: int | None) -> complex:
    """Power series sum; `stop` caps the term index for terminating cases."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    limit = MAX_TERMS if stop is None else stop
    small_streak = 0
    for n in range(limit):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        if stop is None:
            scale = abs(total)
            if abs(term) <= (tol * scale if scale > 1.0 else tol):
                small_streak += 1
                if small_streak >= 2:
                    return total
            else:
                small_streak = 0
    if stop is None:
        raise ArithmeticError(
            "2F1 series did not converge within %d terms at x=%r" % (MAX_TERMS, x))
    return total


def _on_cut(x: complex) -> bool:
    return abs(x.imag) <= 1e-13 and x.real >= 1.0 - 1e-13


def gauss_2f1(p: HypergeometricParameters, x: complex, tol: float = SERIES_TOL) -> complex:
    """Evaluate 2F1(a, b; c; x) on the principal branch.

    Parameters
    ----------
    p : HypergeometricParameters
        Parameter triple (a, b, c).
    x : complex
        Evaluation point; must avoid the cut [1, infinity) unless the
        series terminates.
    tol : float
        Relative truncation tolerance for the power series.

    Returns
    -------
    complex

    Raises
    ------
    PoleError
        c within 1e-10 of a non-positive integer and no terminating
        numerator factor strikes first.
    BranchCutError
        x on [1, infinity) in the non-terminating case.
    PreconditionError
        |x| too large for the series/Pfaff strategy.
    """
    x = complex(x)
    n_stop = p._termination_index()
    k_pole = p._pole_index()
    if k_pole is not None and (n_stop is None or n_stop > k_pole):
        raise PoleError(
            "2F1 pole: c=%r is a non-positive integer and the series does not "
            "terminate soon enough" % (p.c,))
    if n_stop is not None:
        # Exact finite sum, valid in the whole plane.  Snap the terminating
        # parameter to its integer so the sum really stops.
        a, b = p.a, p.b
        na, nb = near_integer(a, tol=1e-10), near_integer(b, tol=1e-10)
        if na is not None and na == -n_stop:
            a = complex(na)
        elif nb is not None and nb == -n_stop:
            b = complex(nb)
        return _series(a, b, p.c, x, tol, stop=n_stop)
    if _on_cut(x):
        raise BranchCutError("2F1 argument %r lies on the cut [1, inf)" % (x,))
    if abs(x) <= 0.5:
        return _series(p.a, p.b, p.c, x, tol, stop=None)
    w = x / (x - 1.0)
    if abs(w) <= PFAFF_LIMIT:
        # Pfaff: F(a,b;c;x) = (1-x)^(-a) F(a, c-b; c; x/(x-1)).
        pref = (1.0 - x) ** (-p.a)
        return pref * _series(p.a, p.c - p.b, p.c, w, tol, stop=None)
    raise PreconditionError(
        "x=%r outside the supported evaluation region (|x|<=0.5 or Pfaff range)" % (x,))


def d_gauss_2f1(p: HypergeometricParameters, x: complex, order: int = 1,
                tol: float = SERIES_TOL) -> complex:
    """Derivative of 2F1 via the contiguous shift F' = (ab/c) F(a+1,b+1;c+1;x)."""
    if order not in (1, 2):
        raise PreconditionError("order must be 1 or 2")
    a, b, c = p.a, p.b, p.c
    fac = a * b / c
    shifted = HypergeometricParameters(a + 1, b + 1, c + 1)
    if order == 1:
        return fac * gauss_2f1(shifted, x, tol)
    fac2 = fac * (a + 1) * (b + 1) / (c + 1)
    return fac2 * gauss_2f1(HypergeometricParameters(a + 2, b + 2, c + 2), x, tol)


@dataclass(frozen=True)
class SpecialSolutionReport:
    """Outcome of the classical special-solution tests for 2F1(a,b;c;x).

    polynomial_degree is set when -a or -b is a natural number (degree
    bound); quasi_polynomial_degree when a or b is a positive integer
    (solution x^(1-c) (x-1)^(c-a-b) times a polynomial of degree a-1);
    integer_selections lists every choice of local exponents
    lam in {0, 1-c}, mu in {0, c-a-b}, nu in {a, b} whose sum is an
    integer, which is the general reducibility criterion.
    """

    polynomial_degree: int | None
    quasi_polynomial_degree: int | None
    integer_selections: tuple
    reducible: bool

    @property
    def kind(self) -> str:
        if self.polynomial_degree is not None:
            return "polynomial"
        if self.quasi_polynomial_degree is not None:
            return "quasi_polynomial"
        if self.reducible:
            return "integer_exponent_sum"
        return "generic"


def classify_special(p: HypergeometricParameters) -> SpecialSolutionReport:
    """Classify special solutions of the hypergeometric equation.

    A polynomial solution of degree at most n exists when a = -n (or
    b = -n) for natural n; for a = n >= 1 there is a solution
    x^(1-c) (x-1)^(c-a-b) p(x) with deg p <= n-1.  More generally the
    equation is reducible exactly when some exponent selection
    lam + mu + nu is an integer.
    """
    poly = None
    for v in (p.a, p.b):
        n = near_integer(v, tol=INTEGER_TOL)
        if n is not None and n <= 0:
            d = -n
            poly = d if poly is None else min(poly, d)
    quasi = None
    for v in (p.a, p.b):
        n = near_integer(v, tol=INTEGER_TOL)
        if n is not None and n >= 1:
            d = n - 1
            quasi = d if quasi is None else min(quasi, d)
    lam_choices = (0.0 + 0j, 1.0 - p.c)
    mu_choices = (0.0 + 0j, p.c - p.a - p.b)
    nu_choices = (p.a, p.b)
    hits = []
    for lam in lam_choices:
        for mu in mu_choices:
            for nu in nu_choices:
                s = lam + mu + nu
                n = near_integer(s, tol=INTEGER_TOL)
                if n is not None:
                    hits.append((lam, mu, nu, n))
    return SpecialSolutionReport(
        polynomial_degree=poly,
        quasi_polynomial_degree=quasi,
        integer_selections=tuple(hits),
        reducible=bool(hits),
    )

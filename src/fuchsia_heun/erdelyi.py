"""Hypergeometric-series expansions of Heun functions.

Three expansion families are implemented, named by which pair of
singular points the leading hypergeometric factor merges:

* MERGE_AT_0: sum X_m phi_m(x) with
  phi_m(x) = Gamma(alpha-delta+m+1) Gamma(beta-delta+m+1) /
  Gamma(alpha+beta-delta+2m+1) x^m 2F1(alpha+m, beta+m;
  alpha+beta-delta+2m+1; x).
* MERGE_AT_INFINITY: sum C_n 2F1(lam+n, mu-n; gamma; x) with
  lam + mu = gamma + delta - 1 (the split lam = alpha, mu =
  beta - epsilon closes one-sidedly at n = 0).
* MERGE_AT_1: sum C_n (x-1)^n 2F1(alpha+n, beta+n; gamma; x).

The coefficients of each family obey a three-term recursion
K_m X_{m-1} + L_m X_m + M_m X_{m+1} = 0 whose rows are closed forms in
the parameters.  Only the diagonal depends on the accessory parameter,
L_m = Lbar_m - q, so the q-free rows are built once per parameter set
as arrays and shared by the sequence, the continued fraction, the
terminating matrix and the sums.  Erdelyi's printed table for the first
family has "- alpha beta q" in L_m where direct substitution of the
expansion into the operator gives "- q"; the substituted form is used
throughout, and the substitution oracle validates it.

The roots in q of the continued fraction of a table truncated at depth d
are the eigenvalues of its d x d tridiagonal matrix (the classical matrix
method for minimal solutions: Gautschi, SIAM Rev. 9, 1967; Ikebe, Math.
Comp. 29, 1975).  `accessory_roots_cf` seeds Newton on the fraction from
those eigenvalues and keeps a root only if it survives depth doubling.
Away from Omega0 a series converges only on the minimal solution of its
own recursion, so those sums gate q on their own table's fraction and
take their coefficients from Miller's backward ratios.

Accessory values are characterised three ways here and in `frobenius`
and `spectra`; their agreement is the package's central cross-check.
"""
from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field

import numpy as np

from .connection import HeunParameters
from .hypergeom import HypergeometricParameters, gauss_2f1
from .numkit import (
    ArithmeticGuard,
    PreconditionError,
    ROOT_TOL,
    near_integer,
    sorted_eigenpairs,
)

CF_DEFAULT_DEPTH = 48
DEGENERATE_K_TOL = 1e-12

__all__ = [
    "CF_DEFAULT_DEPTH",
    "ErdelyiCoefficients",
    "ExpansionVariant",
    "ConvergenceDomain",
    "ResonanceError",
    "BreakdownError",
    "DomainError",
    "DegenerateDomainError",
    "conformal_ratio",
    "klm",
    "recurrence_sequence",
    "continued_fraction",
    "accessory_roots_cf",
    "terminating_accessory_matrix",
    "terminating_accessory_set",
    "phi1",
    "sum_expansion",
    "domain_membership",
]


class ResonanceError(ArithmeticError):
    """A recurrence or Gamma-prefactor denominator vanishes."""


class BreakdownError(ArithmeticError):
    """Division by a vanishing M coefficient or continued-fraction tail."""

    def __init__(self, index: int, what: str):
        self.index = index
        super().__init__("%s at index %d" % (what, index))


class DomainError(ValueError):
    """Evaluation point outside the variant's convergence domain."""


class DegenerateDomainError(ValueError):
    """k = 1: the two-disc domain picture collapses (a on [1, infinity))."""


class ExpansionVariant(enum.Enum):
    MERGE_AT_0 = "merge_at_0"
    MERGE_AT_INFINITY = "merge_at_infinity"
    MERGE_AT_1 = "merge_at_1"


@dataclass(frozen=True)
class ErdelyiCoefficients:
    """Row m of the three-term recursion K_m X_{m-1} + L_m X_m + M_m X_{m+1} = 0."""

    index: int
    K: complex
    L: complex
    M: complex


def _w(h: HeunParameters) -> complex:
    return h.alpha + h.beta - h.delta


def _denominator(base: complex, offsets: np.ndarray, name: str) -> np.ndarray:
    """base + offsets, raising ResonanceError where an entry vanishes."""
    den = base + offsets
    scale = np.maximum(1.0, abs(base) + np.abs(offsets) + 1.0)
    bad = np.abs(den) <= 1e-10 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise ResonanceError("denominator %s%+d vanishes (value %r)"
                             % (name, int(offsets[i]), complex(den[i])))
    return den


def _rows_merge_at_0(h: HeunParameters, n: int):
    al, be, ga, de, ep, a = h.alpha, h.beta, h.gamma, h.delta, h.epsilon, h.a
    w = _w(h)
    name = "alpha+beta-delta"
    # K_j is the phi_{j-1} -> phi_j coefficient Khat_{j-1}
    k = np.arange(n)
    khat = (a * (al + k) * (be + k) * (ep + k) * (w + k)
            / (_denominator(w, 2 * k, name) * _denominator(w, 2 * k + 1, name)))
    # M_j is the phi_{j+1} -> phi_j coefficient Mhat_{j+1}
    m = np.arange(1, n + 2)
    M = (a * m * (al - de + m) * (be - de + m) * (ga + m - 1)
         / (_denominator(w, 2 * m - 1, name) * _denominator(w, 2 * m, name)))
    j = np.arange(n + 1)
    up = _denominator(w, 2 * j + 1, name)
    Lbar = (-j * (w + j)
            + a * (al * be * (ga + 2 * j) - ep * j * (de - j - 1)) / up)
    j, up = j[1:], up[1:]
    lo = _denominator(w, 2 * j - 1, name)
    Lbar[1:] += a * j * (ga + j - 1) * (
        ((al + j) * (al - de + j + 1) + (be + j) * (be - de + j + 1)) / (lo * up)
        - 1.0 / lo)
    return np.concatenate(([0j], khat)), Lbar, M


def _rows_merge_at_1(h: HeunParameters, n: int):
    # ladder (D - q) u_k = A_k u_{k+1} + B_k u_k + C_k u_{k-1} for
    # u_k = (x-1)^k 2F1(alpha+k, beta+k; gamma; x); B_k + q follows from
    # the ladder at x = 0, where u_k = (-1)^k
    al, be, ga, de, ep, a = h.alpha, h.beta, h.gamma, h.delta, h.epsilon, h.a
    s = de + ep
    name = "delta+epsilon"
    k = np.arange(n + 1)
    A = (-(a - 1.0) * (al + k) * (be + k) * (ep + k) * (s + k - 1)
         / (_denominator(s, 2 * k - 1, name) * _denominator(s, 2 * k, name)))
    k = np.arange(1, n + 2)
    C = (-(a - 1.0) * k * (al - ga + k) * (de + k - 1) * (be - ga + k)
         / (_denominator(s, 2 * k - 2, name) * _denominator(s, 2 * k - 1, name)))
    j = np.arange(n + 1)
    Lbar = a * ((al + j) * (be + j) - j * ga) + A + np.concatenate(([0j], C[:n]))
    return np.concatenate(([0j], A[:n])), Lbar, C


def _rows_merge_at_infinity(h: HeunParameters, n: int):
    # ladder for u_k = 2F1(lam+k, mu-k; gamma; x), lam = alpha,
    # mu = beta - epsilon; at x = 0 every u_k is 1
    al, be, ga, de, ep, a = h.alpha, h.beta, h.gamma, h.delta, h.epsilon, h.a
    lam, mu = al, be - ep
    d = lam - mu
    name = "alpha-beta+epsilon"
    k = np.arange(n + 1)
    A = (-(al + k) * (ep + k) * (al - de + k + 1) * (d + k)
         / (_denominator(d, 2 * k, name) * _denominator(d, 2 * k + 1, name)))
    k = np.arange(1, n + 2)
    C = (-k * (al - ga + k) * (k - mu) * (al - be + k)
         / (_denominator(d, 2 * k - 1, name) * _denominator(d, 2 * k, name)))
    j = np.arange(n + 1)
    Lbar = a * (lam + j) * (mu - j) - A - np.concatenate(([0j], C[:n]))
    return np.concatenate(([0j], A[:n])), Lbar, C


def _row_table(h: HeunParameters, v: ExpansionVariant, n: int):
    """q-free rows 0..n of the variant's coefficient recurrence.

    Returns complex arrays (K, Lbar, M) such that row j reads
    K_j X_{j-1} + (Lbar_j - q) X_j + M_j X_{j+1} = 0, with K_0 = 0; the
    accessory parameter enters the diagonal only.  Every entry is a closed
    form in the parameters; a vanishing denominator raises ResonanceError.
    """
    if v is ExpansionVariant.MERGE_AT_0:
        return _rows_merge_at_0(h, n)
    if v is ExpansionVariant.MERGE_AT_1:
        return _rows_merge_at_1(h, n)
    return _rows_merge_at_infinity(h, n)


def _lists(rows):
    # plain Python complex arithmetic is several times faster than numpy
    # scalars in the sequential recursions below
    return tuple(r.tolist() for r in rows)


def _forward(rows, q: complex, N: int):
    """X_0..X_N from X_0 = 1 by forward recursion."""
    K, Lbar, M = rows
    X = [1.0 + 0j]
    for m in range(N):
        if M[m] == 0:
            raise BreakdownError(m, "M coefficient vanishes")
        prev = K[m] * X[m - 1] if m else 0j
        X.append(-(prev + (Lbar[m] - q) * X[m]) / M[m])
    return X


def _backward_ratios(rows, q: complex):
    """Ratios r_m = X_{m+1}/X_m, m = 0..top, of the minimal solution.

    Miller's backward recursion r_{m-1} = -K_m / (Lbar_m - q + M_m r_m)
    from r_top = 0 over rows 1..top, the last row of the table (Gautschi,
    SIAM Rev. 9, 1967).
    """
    K, Lbar, M = rows
    top = len(Lbar) - 1
    r = [0j] * (top + 1)
    for m in range(top, 0, -1):
        den = Lbar[m] - q + M[m] * r[m]
        if den == 0:
            raise BreakdownError(m, "continued-fraction tail vanishes")
        r[m - 1] = -K[m] / den
    return r


def _cf_value(rows, q: complex) -> complex:
    """Continued fraction truncated at the depth of the table."""
    _K, Lbar, M = rows
    return (Lbar[0] - q) / M[0] + _backward_ratios(rows, q)[0]


def klm(h: HeunParameters, m: int) -> ErdelyiCoefficients:
    """Recursion row coefficients K_m, L_m, M_m (q taken from h.q).

    The published tables give K at index m+1 and M at index m-1; both are
    shifted here so that row m of K_m X_{m-1} + L_m X_m + M_m X_{m+1} = 0
    is returned directly.  L_m = Lbar_m - q carries the accessory parameter.
    """
    if m < 0:
        raise PreconditionError("row index must be nonnegative")
    K, Lbar, M = _row_table(h, ExpansionVariant.MERGE_AT_0, m)
    return ErdelyiCoefficients(index=m, K=complex(K[m]),
                               L=complex(Lbar[m] - h.q), M=complex(M[m]))


def recurrence_sequence(h: HeunParameters, q: complex, N: int):
    """X_0..X_N with X_0 = 1, L_0 X_0 + M_0 X_1 = 0, then the three-term rows."""
    rows = _lists(_row_table(h, ExpansionVariant.MERGE_AT_0, max(N - 1, 0)))
    return _forward(rows, q, N)


def continued_fraction(h: HeunParameters, q: complex, depth: int) -> complex:
    """Truncated accessory continued fraction, evaluated backward.

    Value of L_0/M_0 - (K_1/M_1)/(L_1/M_1 - (K_2/M_2)/(...)) using rows
    0..depth-1; depth 1 returns L_0/M_0 exactly.  Roots in q of the
    infinite fraction are the accessory values for which the X sequence
    is minimal (and the MERGE_AT_0 expansion converges on the larger
    domain).
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    rows = _lists(_row_table(h, ExpansionVariant.MERGE_AT_0, depth - 1))
    zero = np.flatnonzero(np.asarray(rows[2]) == 0)
    if zero.size:
        raise BreakdownError(int(zero[0]), "M coefficient vanishes")
    return _cf_value(rows, q)


def terminating_accessory_matrix(h: HeunParameters) -> np.ndarray:
    """Tridiagonal matrix whose eigenvalues give the terminating q set.

    Requires epsilon = -m (within 1e-8).  Row i of the recursion with the
    q-term split off reads K_i X_{i-1} + Lbar_i X_i + M_i X_{i+1} = q X_i;
    since K_{m+1} = 0 when epsilon = -m, rows 0..m close on themselves.
    """
    mi = near_integer(-h.epsilon, tol=1e-8)
    if mi is None or mi < 0:
        raise PreconditionError("epsilon = %r is not a non-positive integer"
                                % (h.epsilon,))
    return _tridiagonal(_row_table(h, ExpansionVariant.MERGE_AT_0, mi))


def _tridiagonal(rows) -> np.ndarray:
    """The rows as a square matrix: q X = T X is the recursion."""
    K, Lbar, M = rows
    return np.diag(Lbar) + np.diag(K[1:], -1) + np.diag(M[:-1], 1)


def terminating_accessory_set(h: HeunParameters):
    """Terminating accessory values for epsilon = -m: the eigenvalues of the
    terminating matrix, as a sorted list."""
    return [q for q, _ in sorted_eigenpairs(terminating_accessory_matrix(h))]


def _cf_slope(rows, q: complex):
    """Truncated fraction at q and its q-derivative, in one backward sweep.

    r_{m-1} = -K_m / (Lbar_m - q + M_m r_m) is differentiated alongside
    its value: dr_{m-1}/dq = K_m (M_m dr_m/dq - 1) / (Lbar_m - q + M_m r_m)^2.
    """
    K, Lbar, M = rows
    r = dr = 0j
    for m in range(len(Lbar) - 1, 0, -1):
        den = Lbar[m] - q + M[m] * r
        r, dr = -K[m] / den, K[m] * (M[m] * dr - 1.0) / (den * den)
    return (Lbar[0] - q) / M[0] + r, dr - 1.0 / M[0]


def _cf_newton(rows, q0, maxiter=60):
    """Newton iteration on the truncated continued fraction; None on failure."""
    z = complex(q0)
    for _ in range(maxiter):
        try:
            f, fp = _cf_slope(rows, z)
            step = f / fp
        except ZeroDivisionError:
            return None
        if not cmath.isfinite(step):
            return None
        z -= step
        if abs(step) <= 1e-12 * max(1.0, abs(z)):
            return z
    return None


def accessory_roots_cf(h: HeunParameters, depth: int = CF_DEFAULT_DEPTH,
                       box=None, tol: float = ROOT_TOL):
    """Roots in q of the accessory continued fraction inside a search box.

    The zeros of the fraction truncated at depth d are the eigenvalues of
    the d x d tridiagonal row table (Ikebe, Math. Comp. 29, 1975), so each
    eigenvalue seeds a Newton iteration on the fraction itself, whose slope
    comes from the same backward sweep as its value (`_cf_slope`).  A root
    found at depth d is kept only if Newton at depth 2d, or else at 4d,
    returns it to within tol; roots closer than tol count once.

    Parameters
    ----------
    h : HeunParameters
    depth : int
        Truncation depth d of the seeding table and of the first Newton pass.
    box : tuple or None
        (re_min, re_max, im_min, im_max); only eigenvalues and roots inside
        it are kept.  None requires epsilon = -m, seeds from the
        eigenvalues of the terminating matrix and raises ArithmeticGuard
        unless all m + 1 roots are certified.
    tol : float
        Depth-doubling stability tolerance.

    Returns
    -------
    list of complex, sorted lexicographically.
    """
    re_lo, re_hi, im_lo, im_hi = box or (-np.inf, np.inf, -np.inf, np.inf)
    if re_lo > re_hi or im_lo > im_hi:
        return []

    def inside(z):
        return re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi

    # the rows are q-free, so each depth's table is built once and shared
    # by every fraction evaluation at that depth
    table = _row_table(h, ExpansionVariant.MERGE_AT_0, depth - 1)
    tables = {depth: _lists(table)}

    def rows_at(d):
        if d not in tables:
            tables[d] = _lists(_row_table(h, ExpansionVariant.MERGE_AT_0, d - 1))
        return tables[d]

    # M is q-independent, so a vanishing M kills every seed; fail loudly
    zero = np.flatnonzero(table[2] == 0)
    if zero.size:
        raise BreakdownError(
            int(zero[0]), "M coefficient vanishes identically; the three-term "
            "fraction degenerates (beta - delta or gamma integral)")
    T = terminating_accessory_matrix(h) if box is None else _tridiagonal(table)
    roots = []
    for seed in np.linalg.eigvals(T):
        if not inside(seed):
            continue
        z = _cf_newton(rows_at(depth), seed)
        z1 = None if z is None else _cf_newton(rows_at(2 * depth), z)
        if z1 is None:
            continue
        if abs(z1 - z) > tol * max(1.0, abs(z)):
            z2 = _cf_newton(rows_at(4 * depth), z1)
            if z2 is None or abs(z2 - z1) > tol * max(1.0, abs(z1)):
                continue  # truncation artifact
            z1 = z2
        if inside(z1) and all(abs(z1 - r) > tol * max(1.0, abs(r)) for r in roots):
            roots.append(z1)
    if box is None and len(roots) != len(T):
        raise ArithmeticGuard(
            "continued fraction certified %d of %d terminating roots"
            % (len(roots), len(T)))
    return sorted(roots, key=lambda z: (round(z.real, 10), round(z.imag, 10)))


# ---------------------------------------------------------------------------
# convergence domains


def conformal_ratio(x: complex) -> float:
    """|(1 - sqrt(1-x)) / (1 + sqrt(1-x))| with Re sqrt >= 0.

    Strictly below 1 off the ray [1, infinity), equal to 1 on it.
    """
    s = complex(np.sqrt(complex(1.0 - x)))
    return abs((1.0 - s) / (1.0 + s))


@dataclass(frozen=True)
class ConvergenceDomain:
    """Two-disc convergence geometry for the MERGE_AT_0 expansion.

    k = conformal_ratio(a); the small domain Omega0 is {ratio < min(k,
    1/k)}, the large one Omega1 is {ratio < max(k, 1/k)} minus the cut
    [1, infinity), and Omega1_minus is the reciprocal-ratio region where
    the second solution family converges.  k = 1 (a on [1, infinity))
    collapses the picture; membership queries then raise.
    """

    a: complex
    k: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        if abs(self.a) <= 1e-14 or abs(self.a - 1.0) <= 1e-14:
            raise PreconditionError("a must avoid 0 and 1")
        object.__setattr__(self, "k", conformal_ratio(self.a))

    def _require_nondegenerate(self):
        if abs(self.k - 1.0) <= DEGENERATE_K_TOL:
            raise DegenerateDomainError(
                "k = 1 (a = %r lies on [1, inf)); domain membership undefined"
                % (self.a,))

    def contains(self, x: complex, which: str) -> bool:
        self._require_nondegenerate()
        r = conformal_ratio(x)
        lo = min(self.k, 1.0 / self.k)
        hi = max(self.k, 1.0 / self.k)
        if which == "omega0":
            return r < lo
        if which == "omega1":
            return r < hi and not _on_real_cut(x)
        if which == "omega1_minus":
            if r == 0.0:
                return False
            return 1.0 / r < hi
        raise PreconditionError("unknown domain %r" % (which,))

    def boundary_points(self, which: str, n: int = 256):
        """Sample points on the domain boundary (for plotting).

        Level curves of the ratio below 1 are images of circles
        t = level * exp(i theta) under x = 1 - ((1-t)/(1+t))^2; a level
        at or above 1 is attained only on the cut, which is sampled as a
        real segment starting at 1.
        """
        if which in ("omega0", "omega1_minus"):
            level = min(self.k, 1.0 / self.k)
        elif which == "omega1":
            level = max(self.k, 1.0 / self.k)
        else:
            raise PreconditionError("unknown domain %r" % (which,))
        if level >= 1.0 - 1e-12:
            span = max(4.0, 2.0 * abs(self.a))
            return [complex(1.0 + span * j / max(n - 1, 1), 0.0)
                    for j in range(n)]
        pts = []
        for j in range(n):
            t = level * cmath.exp(2j * cmath.pi * j / n)
            s = (1.0 - t) / (1.0 + t)
            pts.append(1.0 - s * s)
        return pts


def _on_real_cut(x: complex) -> bool:
    return abs(complex(x).imag) <= 1e-13 and complex(x).real >= 1.0 - 1e-13


def domain_membership(a: complex, x: complex, which: str) -> bool:
    """Membership of x in Omega0, Omega1 or Omega1_minus for modulus a."""
    return ConvergenceDomain(a).contains(x, which)


# ---------------------------------------------------------------------------
# expansion evaluation


def _phi1_prefactor(h: HeunParameters, m: int) -> complex:
    """Gamma(alpha-delta+m+1) Gamma(beta-delta+m+1) / Gamma(w+2m+1), w =
    alpha+beta-delta, through log-Gamma so large m cannot overflow."""
    # scipy takes about half a second to import and only the MERGE_AT_0
    # prefactor needs it, so it is loaded here rather than with the module
    from scipy.special import loggamma

    g1 = h.alpha - h.delta + m + 1
    g2 = h.beta - h.delta + m + 1
    for g in (g1, g2):
        ni = near_integer(g, tol=1e-10)
        if ni is not None and ni <= 0:
            raise ResonanceError(
                "Gamma-prefactor pole: argument %r is a non-positive integer" % (g,))
    return complex(np.exp(loggamma(complex(g1)) + loggamma(complex(g2))
                          - loggamma(complex(_w(h) + 2 * m + 1))))


def phi1(h: HeunParameters, m: int, x: complex) -> complex:
    """Basis function of the MERGE_AT_0 expansion.

    phi_m(x) = Gamma(alpha-delta+m+1) Gamma(beta-delta+m+1) /
    Gamma(alpha+beta-delta+2m+1) x^m 2F1(alpha+m, beta+m;
    alpha+beta-delta+2m+1; x); the prefactor is computed through
    log-Gamma so large m cannot overflow.  `sum_expansion` does not call
    this per term: it seeds the prefactor from one log-Gamma evaluation
    at m = 0 and steps it by its rational term ratio, and this function
    is the reference it is tested against.
    """
    pref = _phi1_prefactor(h, m)
    g3 = _w(h) + 2 * m + 1
    f = gauss_2f1(HypergeometricParameters(h.alpha + m, h.beta + m, g3), x)
    return pref * complex(x) ** m * f


def _phi1_sum(h: HeunParameters, X, x: complex) -> complex:
    """sum_m X_m phi_m(x), m = 0..len(X)-1.

    The prefactor is seeded once at m = 0, which raises ResonanceError
    when alpha-delta+1 or beta-delta+1 is a non-positive integer, and
    then stepped by (alpha-delta+m+1)(beta-delta+m+1) / ((w+2m+1)(w+2m+2));
    x^m is a running product.  A step denominator vanishes only when w+1
    is a non-positive integer, and then the m = 0 2F1 already raises.
    Indices whose coefficient is exactly zero are skipped (the prefactor
    and x^m still step across them), so a terminating expansion costs
    m + 1 basis evaluations at any length of X.
    """
    a1 = h.alpha - h.delta + 1
    b1 = h.beta - h.delta + 1
    w = _w(h)
    pref, xm = _phi1_prefactor(h, 0), 1.0 + 0j
    total = 0j
    for m in range(len(X)):
        if m:
            pref *= (a1 + m - 1) * (b1 + m - 1) / ((w + 2 * m - 1) * (w + 2 * m))
            xm *= x
        if X[m] == 0:
            continue
        f = gauss_2f1(HypergeometricParameters(h.alpha + m, h.beta + m,
                                               w + 2 * m + 1), x)
        total += X[m] * (pref * xm * f)
    return total


def _variant_basis(h: HeunParameters, v: ExpansionVariant):
    """Return u(n, x), the n-th basis function of a MERGE_AT_1 or
    MERGE_AT_INFINITY expansion."""
    ga = h.gamma
    if v is ExpansionVariant.MERGE_AT_INFINITY:
        lam = h.alpha
        mu = h.beta - h.epsilon
        # 2F1 is symmetric in its upper parameters, so u_n and u_{k-n}
        # coincide when mu - lam = k; for a positive integer k two distinct
        # basis indices collide and the three-term ladder cannot close
        ni = near_integer(mu - lam, tol=1e-10)
        if ni is not None and ni >= 1:
            raise ResonanceError(
                "beta - epsilon - alpha = %d collapses the basis (indices n "
                "and %d - n give the same function)" % (ni, ni))

        def u(n: int, x: complex) -> complex:
            return gauss_2f1(HypergeometricParameters(lam + n, mu - n, ga), x)

        return u

    def u(n: int, x: complex) -> complex:
        p = HypergeometricParameters(h.alpha + n, h.beta + n, ga)
        return (x - 1.0) ** n * gauss_2f1(p, x)

    return u


def _sum_coefficients(h: HeunParameters, q: complex, N: int):
    """MERGE_AT_0 X_0..X_N by forward recursion, cut to exact zeros at a
    termination.

    When epsilon = -m and q lies in the terminating set, the exact
    solution has X_j = 0 for every j > m; the forward recursion leaves
    roundoff there, which the dominant recurrence solution then
    amplifies, so rows past m are not run.  Truncation is applied only
    when the computed X_{m+1} is already at roundoff level relative to
    the head of the sequence.
    """
    rows = _lists(_row_table(h, ExpansionVariant.MERGE_AT_0, max(N - 1, 0)))
    mi = near_integer(-h.epsilon, tol=1e-8)
    if mi is not None and 0 <= mi < N:
        X = _forward(rows, q, mi + 1)
        scale = max(abs(v) for v in X[:mi + 1])
        if scale > 0.0 and abs(X[mi + 1]) <= 1e-10 * scale:
            return X[:mi + 1] + [0j] * (N - mi)
    return _forward(rows, q, N)


def _minimal_coefficients(h: HeunParameters, v: ExpansionVariant, q: complex,
                          N: int):
    """X_0..X_N of the minimal solution of the variant's own recursion.

    The rows run to max(2N, N+48); q must annihilate the fraction of that
    table (|value| <= 1e-6 max(1, |q|)), or the series follows a dominant
    solution and diverges, which raises DomainError.  The coefficients
    are products of Miller's backward ratios; on a terminating table
    K_{m+1} = 0 makes every ratio past m, and so every X_j with j > m, an
    exact zero.
    """
    rows = _lists(_row_table(h, v, max(2 * N, N + 48)))
    _K, Lbar, M = rows
    if M[0] == 0:
        raise BreakdownError(0, "M coefficient vanishes")
    r = _backward_ratios(rows, q)
    cf = (Lbar[0] - q) / M[0] + r[0]        # `_cf_value` of the table
    if not abs(cf) <= 1e-6 * max(1.0, abs(q)):
        raise DomainError(
            "q = %r does not annihilate the %s continued fraction (value "
            "%.2e); the series diverges" % (q, v.value, abs(cf)))
    X = [1.0 + 0j]
    for m in range(N):
        X.append(X[m] * r[m])
    return X


def sum_expansion(h: HeunParameters, q: complex, x: complex, N: int,
                  v: ExpansionVariant = ExpansionVariant.MERGE_AT_0) -> complex:
    """Partial sum of the chosen expansion at x, N + 1 terms.

    MERGE_AT_0 on Omega0 sums the coefficients of forward recursion.
    Anywhere else the series converges only when its coefficients are
    the minimal solution of the expansion's own recursion, i.e. when q
    annihilates the expansion's own continued fraction: MERGE_AT_0 on
    Omega1, and the other two variants on Omega1_minus (not checked when
    k = 1 makes the domain degenerate) off the cut [1, infinity), where
    their 2F1 factors live.  There the coefficients come from Miller's
    backward ratios over rows run well past N (`_minimal_coefficients`),
    which also gate q on the fraction of those rows; forward recursion
    would follow the dominant solution.

    Terms whose coefficient is exactly zero are skipped without evaluating
    their basis function.  A terminating expansion (epsilon = -m, q in the
    terminating set) has exact zeros past index m in every variant, so it
    costs m + 1 basis evaluations at any N.
    """
    x = complex(x)
    if v is ExpansionVariant.MERGE_AT_0:
        dom = ConvergenceDomain(h.a)
        if dom.contains(x, "omega0"):
            X = _sum_coefficients(h, q, N)
        elif dom.contains(x, "omega1"):
            X = _minimal_coefficients(h, v, q, N)
        else:
            raise DomainError("x = %r outside Omega1 for a = %r" % (x, h.a))
        return _phi1_sum(h, X, x)
    if _on_real_cut(x):
        raise DomainError("x = %r lies on the cut [1, inf)" % (x,))
    try:
        if not ConvergenceDomain(h.a).contains(x, "omega1_minus"):
            raise DomainError(
                "x = %r outside Omega1_minus for a = %r" % (x, h.a))
    except DegenerateDomainError:
        # k = 1 collapses the two-disc picture; only the cut is excluded
        pass
    # The bases merging at 1 or infinity have the reciprocal term-ratio
    # asymptotics, so their series converges only on the minimal solution
    X = _minimal_coefficients(h, v, q, N)
    u = _variant_basis(h, v)
    total = 0j
    for n in range(N + 1):
        if X[n] != 0:
            total += X[n] * u(n, x)
    return total

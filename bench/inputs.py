"""Seeded input generator for the benchmark workloads.

Everything here is plain Python and numpy: the package under test is not
imported, so the program receives only the values generated below.  The
same seed always gives the same inputs.

Rejection sampling excludes only the documented breakdown hyperplanes of
the methods exercised: integral gamma, delta, alpha, beta and the ladder
combinations (beta - delta, alpha - delta, alpha + beta - delta,
alpha - beta, beta - epsilon - alpha), integral exponent differences of
the residues of a random connection, integral Riemann-scheme exponents of
a hypergeometric system, and the cross-ratio point a near 0 or 1.  The
Omega1 minimal-solution points of the generic sets (the forward-recursion
path) are generated like any other input.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

HYPERPLANE_MARGIN = 0.05
POINT_SEPARATION = 0.8
# Largest conformal ratio the 2F1 evaluator reaches (about 1/3 at x/(x-1) = 0.75)
MAX_EVALUABLE_RATIO = 0.3
CLI_COMMANDS = ("analyze", "spectrum", "qset", "expand", "domain",
                "monodromy", "takemura", "pvi")


def dist_to_int(z) -> float:
    """Distance from a complex number to the nearest integer."""
    z = complex(z)
    return abs(z - round(z.real))


def conformal_ratio(x) -> float:
    """|(1 - sqrt(1-x)) / (1 + sqrt(1-x))| with the principal square root."""
    s = cmath.sqrt(1.0 - complex(x))
    return abs((1.0 - s) / (1.0 + s))


def _c(rng, re, im) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


def _clear(values) -> bool:
    return all(dist_to_int(v) >= HYPERPLANE_MARGIN for v in values)


def _heun(a, alpha, gamma, delta, epsilon) -> dict:
    beta = gamma + delta + epsilon - alpha - 1.0
    return {"a": a, "alpha": alpha, "beta": beta, "gamma": gamma,
            "delta": delta, "epsilon": epsilon}


def _ladder_combos(h) -> tuple:
    al, be, ga, de, ep = (h[k] for k in ("alpha", "beta", "gamma", "delta",
                                         "epsilon"))
    return (ga, de, al, be, be - de, al - de, al + be - de, al - be,
            be - ep - al)


def qset_modulus(rng) -> complex:
    """Cross-ratio point a for the q-set methods: 1.2 <= |a| <= 4.5, |a-1| >= 1.2."""
    while True:
        a = _c(rng, (-4.0, 4.0), (-2.0, 2.0))
        if 1.2 <= abs(a) <= 4.5 and abs(a - 1.0) >= 1.2:
            return a


def series_modulus(rng) -> complex:
    """Cross-ratio point a near the negative real axis, 0.55 <= |a| <= 0.85.

    There the ratio k = ratio(a) is below 0.14, so Omega1_minus =
    {ratio(x) > k} meets both the local-series disc |x| < |a| and the
    region |x| <= 0.5 where the 2F1 factors evaluate: every expansion
    variant has points inside its contract that the Frobenius series at 0
    can check.
    """
    while True:
        a = -cmath.rect(rng.uniform(0.55, 0.85), rng.uniform(-0.35, 0.35))
        if conformal_ratio(a) < 0.14:
            return a


def terminating_params(rng, m: int, a: complex) -> dict:
    """Heun data with epsilon = -m at the given a.

    gamma + delta is kept off the integers too, so that alpha = -n gives a
    non-integral beta for the q-set inclusion check at the same a and m.
    """
    while True:
        h = _heun(a, _c(rng, (-0.9, 0.9), (-0.3, 0.3)),
                  _c(rng, (0.1, 0.9), (-0.3, 0.3)),
                  _c(rng, (0.1, 0.9), (-0.3, 0.3)), complex(-m))
        if _clear(_ladder_combos(h) + (h["gamma"] + h["delta"],)):
            return h


def generic_params(rng) -> dict:
    """Heun data with non-integral epsilon and a small modulus a.

    A small conformal ratio k = ratio(a) leaves a roomy annulus
    Omega1 minus Omega0, where the expansion converges only at a root of
    the accessory continued fraction.
    """
    while True:
        a = cmath.rect(rng.uniform(0.2, 0.45), rng.uniform(-math.pi, math.pi))
        h = _heun(a, _c(rng, (0.1, 0.6), (-0.2, 0.2)),
                  _c(rng, (0.2, 0.7), (-0.2, 0.2)),
                  _c(rng, (0.2, 0.7), (-0.2, 0.2)),
                  _c(rng, (0.1, 0.6), (-0.2, 0.2)))
        if _clear(_ladder_combos(h) + (h["epsilon"],)):
            return h


def _from_ratio(t: complex) -> complex:
    """Inverse of the conformal ratio map: ratio(x) = |t| for |t| < 1."""
    s = (1.0 - t) / (1.0 + t)
    return 1.0 - s * s


def _evaluable(x: complex) -> bool:
    """Inside the 2F1 evaluator's region: |x| <= 0.5 or Pfaff |x/(x-1)| <= 0.75."""
    return abs(x) <= 0.5 or abs(x / (x - 1.0)) <= 0.7


def _points(rng, n, r_lo, r_hi, accept=lambda x: True) -> list:
    """n points with ratio(x) drawn uniformly in (r_lo, r_hi), evaluable."""
    out = []
    for _ in range(100000):
        t = cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi))
        x = _from_ratio(t)
        if _evaluable(x) and accept(x):
            out.append(x)
            if len(out) == n:
                return out
    raise RuntimeError("no evaluable points with ratio in (%g, %g)"
                       % (r_lo, r_hi))


def omega0_points(rng, a, n=3) -> list:
    """Points of Omega0 = {ratio(x) < k} inside the local-series disc at 0."""
    lo = min(conformal_ratio(a), 1.0 / conformal_ratio(a))
    disc = min(1.0, abs(a))
    return _points(rng, n, 0.1 * lo, 0.8 * lo, lambda x: abs(x) < 0.6 * disc)


def omega1_points(rng, a, n=2) -> list:
    """Points of Omega1 minus Omega0 = {k < ratio(x) < 1/k}.

    There the MERGE_AT_0 series converges only through the minimal solution
    of its coefficient recursion, which forward recursion cannot hold.
    """
    lo = min(conformal_ratio(a), 1.0 / conformal_ratio(a))
    return _points(rng, n, 1.3 * lo, MAX_EVALUABLE_RATIO)


def variant_points(rng, a, n=2) -> list:
    """Points of Omega1_minus = {ratio(x) > k} inside the local-series disc."""
    lo = min(conformal_ratio(a), 1.0 / conformal_ratio(a))
    disc = min(1.0, abs(a))
    return _points(rng, n, 1.05 * lo, 0.172,
                   lambda x: abs(x) <= 0.5 and abs(x) < 0.85 * disc)


def _resonance_free(m) -> bool:
    """Eigenvalue difference of a 2x2 residue clear of the integers.

    An integral difference is the resonant (logarithmic) case: the two
    local monodromy eigenvalues coincide and become ill-conditioned.
    """
    l1, l2 = np.linalg.eigvals(m)
    return dist_to_int(l1 - l2) >= HYPERPLANE_MARGIN


def random_connection(rng, scale=0.5) -> dict:
    """Rank-2 connection with three well separated finite singular points.

    Every residue, A_inf = -sum A_j included, is kept off the resonant
    hyperplanes (integral eigenvalue difference).
    """
    while True:
        pts = [_c(rng, (-2.5, 2.5), (-1.5, 1.5)) for _ in range(3)]
        if min(abs(p - q) for i, p in enumerate(pts)
               for q in pts[i + 1:]) < POINT_SEPARATION:
            continue
        res = [scale * (rng.uniform(-1, 1, (2, 2))
                        + 1j * rng.uniform(-1, 1, (2, 2))) for _ in pts]
        if all(_resonance_free(m) for m in res + [-sum(res)]):
            return {"points": pts, "residues": res}


def hypergeometric_exponents(rng) -> tuple:
    """(alpha, beta, gamma, delta) with zero sum and a generic Riemann scheme.

    The scheme has exponents {0, gamma}, {0, delta}, {beta, alpha}; gamma,
    delta, alpha - beta and the exponents themselves are kept off the
    integers so that the Kummer orbit has all 24 members.
    """
    while True:
        al, ga, de = (_c(rng, (-0.9, 0.9), (-0.4, 0.4)) for _ in range(3))
        be = -(al + ga + de)
        if _clear((al, be, ga, de, al - be, ga - de, ga + de)):
            return al, be, ga, de


def takemura_case(rng, m: int, n: int) -> dict:
    """(a, gamma, delta, m, n) for the inclusion theorem, beta non-integral."""
    a = qset_modulus(rng)
    while True:
        ga = _c(rng, (0.1, 0.9), (-0.3, 0.3))
        de = _c(rng, (0.1, 0.9), (-0.3, 0.3))
        if _clear((ga, de, ga + de)):
            return {"a": a, "gamma": ga, "delta": de, "m": m, "n": n}


def theta_case(rng) -> tuple:
    """Painleve VI exponents with an integral theta_t (an apparent point)."""
    while True:
        th0, th1, thi = (_c(rng, (-0.9, 0.9), (-0.4, 0.4)) for _ in range(3))
        tht = complex(int(rng.integers(1, 4)))
        if _clear((th0, th1, thi)):
            return th0, th1, tht, thi

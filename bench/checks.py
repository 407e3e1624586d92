"""Oracle checks for the benchmark operations.

Every checker returns an error measure: 0 or a small number for a correct
result, ``inf`` for a structurally wrong one (wrong set size, wrong
verdict, missing output).  An operation passes when every error is within
the tolerance stated next to its checker.  The oracles are independent of
the code path they check: closed-form spectra, numpy eigenvalues of the
residues, the Fuchs relation, Frobenius series, depth doubling.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from inputs import conformal_ratio

INF = float("inf")

QSET_TOL = 1e-7            # three-way q-set agreement, as the qset command
SPECTRUM_TOL = 1e-8        # eigenvalues of nabla_v against {0, ..., m}
INCLUSION_TOL = 1e-6       # partner distance in the q-set inclusion
SERIES_TOL = 1e-8          # expansion / Frobenius ratio, or depth N vs 2N
# Eigenvalues of M_j against exp(2 pi i eig A_j).  The propagator's step
# tolerance is local, so its global error is far larger than tol = 1e-10:
# worst cases near 1e-6 are seen on random connections.
MONODROMY_EIG_TOL = 1e-4
LOOP_RESIDUAL_TOL = 1e-6   # ordered product against the big circle
FUCHS_TOL = 1e-8           # exponent sum of the scalar equation
ORBIT_TOL = 1e-9           # exponent sum carried through the Kummer orbit
CORROBORATION_TOL = 1e-5   # |M_a - I| at a shared q
DOMAIN_TOL = 1e-9          # conformal ratio on a domain boundary
GENERIC_ORBIT_SIZE = 24


def matching_gap(u, v) -> float:
    """Largest distance under the best pairing of two small multisets."""
    u, v = [complex(x) for x in u], [complex(x) for x in v]
    if len(u) != len(v):
        return INF
    if not u:
        return 0.0
    return min(max(abs(x - y) for x, y in zip(u, perm))
               for perm in itertools.permutations(v))


def qset_agreement(frob, cf, mat, m: int) -> float:
    """Worst pairwise gap among the three q-sets, each of size m + 1."""
    sets = (frob, cf, mat)
    if any(len(s) != m + 1 for s in sets):
        return INF
    return max(matching_gap(sets[i], sets[j])
               for i in range(3) for j in range(i + 1, 3))


def spectrum_error(values, m: int) -> float:
    """Distance of a computed spectrum from the exact {0, 1, ..., m}."""
    return matching_gap(values, range(m + 1))


def inclusion_error(verdict: str, matches, m: int, n: int) -> float:
    """Worst partner distance, or inf if the verdict or matching is wrong."""
    if m == n:
        expected = "equal"
    else:
        expected = "poly_subset_apparent" if m > n else "apparent_subset_poly"
    matches = list(matches)
    if verdict != expected or len(matches) != min(m, n) + 1:
        return INF
    return max(d for _, _, d in matches)


def ratio_spread(values, refs) -> float:
    """Relative spread of values[i] / refs[i]; 0 when proportional."""
    ratios = [complex(v) / complex(r) for v, r in zip(values, refs)]
    if len(ratios) < 2 or not all(cmath.isfinite(r) for r in ratios):
        return INF
    return max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])


def depth_gap(s_n, s_2n) -> float:
    """Disagreement between the depth-N and depth-2N sums."""
    s_n, s_2n = complex(s_n), complex(s_2n)
    if not (cmath.isfinite(s_n) and cmath.isfinite(s_2n)):
        return INF
    return abs(s_n - s_2n) / max(1.0, abs(s_2n))


def local_monodromy_gap(matrix, residue) -> float:
    """Eigenvalues of a loop matrix against exp(2 pi i eig(residue))."""
    expected = np.exp(2j * math.pi * np.linalg.eigvals(np.asarray(residue)))
    return matching_gap(np.linalg.eigvals(np.asarray(matrix)), expected)


def monodromy_eig_error(residues, matrices) -> float:
    """Worst local-monodromy gap over paired (residue, matrix) lists."""
    if len(residues) != len(matrices):
        return INF
    return max(local_monodromy_gap(m, a) for a, m in zip(residues, matrices))


def fuchs_error(exponent_sum, n_singular: int) -> float:
    """Fuchs relation of a second-order equation: exponents sum to n - 2."""
    return abs(complex(exponent_sum) - (n_singular - 2))


def orbit_error(sums, seed_sum) -> float:
    """A generic orbit has 24 members, all with the seed's exponent sum."""
    if len(sums) != GENERIC_ORBIT_SIZE:
        return INF
    return max(abs(complex(s) - complex(seed_sum)) for s in sums)


def corroboration_error(result: dict) -> float:
    """|M_a - I| at a shared q, or inf without an invariant line."""
    if result.get("invariant_line") is None:
        return INF
    return float(result["m_a_identity_residual"])


def expected_degeneracy(points, residues, tol: float = 1e-6) -> dict:
    """Residue-level verdicts computed directly from numpy eigenvalues.

    WAS: a residue with eigenvalues {0, m}, m a non-zero integer.  LR: an
    eigenvalue -n, n >= 0, of A_inf = -sum A_j.  A random connection has
    neither; the simultaneous-diagonalisability verdict needs commuting
    residues, which random matrices are not.
    """
    a_inf = -sum(np.asarray(r) for r in residues)
    was = []
    for p, r in list(zip(points, residues)) + [("inf", a_inf)]:
        vals = sorted(np.linalg.eigvals(np.asarray(r)), key=abs)
        other = vals[1]
        if (abs(vals[0]) <= tol and abs(other - round(other.real)) <= tol
                and round(other.real) != 0):
            was.append(p)
    lr = [v for v in np.linalg.eigvals(a_inf)
          if abs(v - round(v.real)) <= tol and round(v.real) <= 0]
    commuting = any(
        np.linalg.norm(np.asarray(x) @ np.asarray(y) - np.asarray(y) @ np.asarray(x)) <= tol
        for i, x in enumerate(list(residues) + [a_inf])
        for y in (list(residues) + [a_inf])[i + 1:])
    return {"was": len(was), "lr": bool(lr), "wgrm": commuting}


def degeneracy_error(report: dict, expected: dict) -> float:
    """0 when a degeneracy report (as JSON payload) matches the expectation."""
    ok = (len(report["was"]) == expected["was"]
          and (report["lr"] is not None) == expected["lr"]
          and (report["wgrm"] is not None) == expected["wgrm"]
          and report["removable"] == [])
    return 0.0 if ok else INF


def domain_error(payload: dict, a, samples: int) -> float:
    """Boundary points of Omega0 must sit on the level min(k, 1/k)."""
    k = conformal_ratio(a)
    level = min(k, 1.0 / k)
    pts = [complex(*p) for p in payload["points"]]
    if len(pts) != samples or abs(payload["k"] - k) > DOMAIN_TOL:
        return INF
    return max(abs(conformal_ratio(x) - level) for x in pts)


def expected_pvi(th) -> dict:
    """Integer-condition verdicts of the sixth Painleve matching report."""
    th0, th1, tht, thi = (complex(v) for v in th)

    def integer(v):
        n = round(v.real)
        return n if abs(v - n) <= 1e-8 else None

    eqn2 = None
    for s1, st, si in itertools.product((1, -1), repeat=3):
        if integer((th0 + s1 * th1 + st * tht + si * thi) / 2.0) is not None:
            eqn2 = [s1, st, si]
            break
    eqn3 = None
    for name, v in (("theta0", th0), ("theta1", th1), ("thetat", tht),
                    ("thetainf", thi)):
        if integer(v) is not None:
            eqn3 = [name, integer(v)]
            break
    k1 = integer(-(th0 + th1 + tht - thi) / 2.0)
    k2 = integer(-(th0 + th1 + tht + thi) / 2.0)
    nt = integer(tht)
    return {"eqn2": eqn2, "eqn3": eqn3,
            "lr_type": (k1 is not None and k1 <= 0) or (k2 is not None and k2 <= -1),
            "was_type": nt is not None and nt >= 1,
            "rational": eqn2 is not None and eqn3 is not None}


def pvi_error(payload: dict, th) -> float:
    expected = expected_pvi(th)
    return 0.0 if all(payload.get(k) == v for k, v in expected.items()) else INF

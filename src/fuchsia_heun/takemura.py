"""Inclusion between the polynomial and apparent-singularity q-sets.

With epsilon = -m and alpha = -n (m, n positive integers) and beta fixed by
the exponent-sum constraint, both accessory q-sets are finite: the
polynomial set has n+1 members, the apparent set m+1.  For m >= n every
polynomial q makes x = a apparent; for n >= m every apparent q admits a
polynomial solution; for m = n the sets coincide.  ``inclusion_check``
verifies the applicable direction numerically by optimal assignment between
the two root lists.

The assignment solver is scipy's, imported inside ``inclusion_check``; it
and the MERGE_AT_0 prefactor in ``erdelyi`` are the only places the package
loads scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .connection import HeunParameters, heun_scalar, companion_system
from .frobenius import apparent_q_set, polynomial_q_set
from .monodromy import fan_loop, integrate_fundamental
from .numkit import ROOT_TOL, common_eigenvector, near_integer

MATCH_TOL = 1e-6
CLUSTER_RADIUS = 10.0 * ROOT_TOL


class HypothesisViolationError(ValueError):
    """The third exponent parameter came out integral; the theorem's
    hypotheses exclude that case."""


class InclusionFailureError(RuntimeError):
    """A root of the smaller q-set found no partner within tolerance."""

    def __init__(self, message: str, report: "InclusionReport",
                 unmatched: tuple):
        super().__init__(message)
        self.report = report
        self.unmatched = unmatched


def _sorted_q(values) -> tuple:
    return tuple(sorted((complex(v) for v in values),
                        key=lambda z: (round(z.real, 10), round(z.imag, 10))))


def _clustered(values) -> tuple:
    flagged = set()
    for i, v in enumerate(values):
        for w in values[:i]:
            if abs(v - w) < CLUSTER_RADIUS:
                flagged.add(v)
                flagged.add(w)
    return _sorted_q(flagged)


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of one inclusion check, with the assignment that proves it.

    ``matches`` pairs every member of the smaller set with its partner in
    the larger one; ``clustered`` lists roots closer than 10x the root
    tolerance to a sibling in the same set, for which multiset multiplicity
    is reported but not resolved.
    """

    m: int
    n: int
    a: complex
    gamma: complex
    delta: complex
    alpha: complex
    beta: complex
    epsilon: complex
    q_poly: tuple
    q_apparent: tuple
    matches: tuple
    verdict: str
    clustered: tuple
    tol: float

    def to_json(self) -> str:
        def c(z):
            return [z.real, z.imag]

        payload = {
            "m": self.m,
            "n": self.n,
            "a": c(self.a),
            "gamma": c(self.gamma),
            "delta": c(self.delta),
            "alpha": c(self.alpha),
            "beta": c(self.beta),
            "epsilon": c(self.epsilon),
            "q_poly": [c(v) for v in self.q_poly],
            "q_apparent": [c(v) for v in self.q_apparent],
            "matches": [[c(u), c(v), d] for u, v, d in self.matches],
            "verdict": self.verdict,
            "clustered": [c(v) for v in self.clustered],
            "tol": self.tol,
        }
        return json.dumps(payload, sort_keys=True)


def takemura_parameters(a, gamma, delta, m: int, n: int) -> HeunParameters:
    """Build the constrained parameter set epsilon = -m, alpha = -n.

    beta is fixed by the exponent-sum constraint and must come out
    non-integral, otherwise the inclusion hypotheses fail.
    """
    if m < 1 or n < 1 or m != int(m) or n != int(n):
        raise ValueError("m and n must be positive integers")
    alpha = complex(-n)
    epsilon = complex(-m)
    beta = complex(gamma) + complex(delta) + epsilon - alpha - 1.0
    if near_integer(beta) is not None:
        raise HypothesisViolationError(
            f"beta = {beta} is integral; choose gamma, delta away from the "
            "integer hyperplane")
    return HeunParameters(a=complex(a), q=0.0, alpha=alpha, beta=beta,
                          gamma=complex(gamma), delta=complex(delta),
                          epsilon=epsilon)


def inclusion_check(a, gamma, delta, m: int, n: int,
                    tol: float = MATCH_TOL) -> InclusionReport:
    """Verify the applicable q-set inclusion and report the matching."""
    # scipy.optimize takes about half a second to import; no other
    # function of the package needs it
    from scipy.optimize import linear_sum_assignment

    h = takemura_parameters(a, gamma, delta, m, n)
    q_poly = _sorted_q(polynomial_q_set(h))
    q_app = _sorted_q(apparent_q_set(h))
    if m >= n:
        small, big, verdict = q_poly, q_app, "poly_subset_apparent"
    else:
        small, big, verdict = q_app, q_poly, "apparent_subset_poly"
    if m == n:
        verdict = "equal"
    cost = np.array([[abs(u - v) for v in big] for u in small])
    rows, cols = linear_sum_assignment(cost)
    matches = tuple((small[i], big[j], float(cost[i, j]))
                    for i, j in zip(rows, cols))
    clustered = _clustered(q_poly) + _clustered(q_app)
    unmatched = tuple(u for u, _, d in matches if d > tol)
    report = InclusionReport(m=m, n=n, a=complex(a), gamma=complex(gamma),
                             delta=complex(delta), alpha=h.alpha, beta=h.beta,
                             epsilon=h.epsilon, q_poly=q_poly,
                             q_apparent=q_app, matches=matches,
                             verdict=verdict if not unmatched else "failed",
                             clustered=clustered, tol=tol)
    if unmatched:
        raise InclusionFailureError(
            f"{len(unmatched)} root(s) of the smaller q-set found no partner "
            f"within {tol}: {unmatched}", report, unmatched)
    return report


def monodromy_corroboration(a, gamma, delta, m: int, n: int, q,
                            tol: float = 1e-5) -> dict:
    """Monodromy evidence at one shared q: x = a apparent plus a fixed line.

    Integrates the companion system of the scalar equation around each of
    0, 1, a.  A shared q admits a polynomial solution, whose companion
    vector is a single-valued solution, so the three matrices must share an
    eigenvector; the x = a monodromy must furthermore be the identity.
    """
    base = takemura_parameters(a, gamma, delta, m, n)
    h = HeunParameters(a=base.a, q=complex(q), alpha=base.alpha,
                       beta=base.beta, gamma=base.gamma, delta=base.delta,
                       epsilon=base.epsilon)
    cs = companion_system(heun_scalar(h))
    pts = [0.0, 1.0, h.a]
    mats = {p: integrate_fundamental(cs, fan_loop(pts, p)) for p in pts}
    residual = float(np.linalg.norm(mats[h.a] - np.eye(2)))
    line = common_eigenvector(list(mats.values()), tol)
    return {
        "m_a_identity_residual": residual,
        "m_a_is_identity": residual <= tol,
        "invariant_line": line,
    }

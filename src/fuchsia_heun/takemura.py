"""Inclusion between the polynomial and apparent-singularity q-sets.

With epsilon = -m and alpha = -n (m, n positive integers) and beta fixed by
the exponent-sum constraint, the polynomial q-set has n+1 members and the
apparent set m+1.  The smaller set lies in the larger: for m >= n every
polynomial q makes x = a apparent, for m <= n every apparent q admits a
polynomial solution.

A polynomial solution expanded at x = a is a Frobenius solution there:
with T_p from ``polynomial_q_matrix``, T_a from ``apparent_q_matrix`` and
the Taylor shift S[j, k] = C(k, j) a^(k-j), T_a S = S T_p.  So S maps each
eigenvector of T_p to one of T_a with the same q (m >= n), and S^T each
left eigenvector of T_a to one of T_p (m < n).  ``inclusion_check`` reports
the identity's residual and pairs the two spectra through these images.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, fields
from math import comb

import numpy as np

from .connection import HeunParameters, heun_scalar, companion_system
from .frobenius import apparent_q_matrix, polynomial_q_matrix
from .monodromy import fan_loop, integrate_fundamental
from .numkit import common_eigenvector, near_integer, sorted_eigenpairs

MATCH_TOL = 1e-6


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


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of one inclusion check.

    ``matches`` pairs every member of the smaller set with its partner in
    the larger one and their distance; ``certificate`` is
    ||T_a S - S T_p|| / (||T_a|| ||S||), the residual of the identity.
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
    certificate: float
    tol: float

    def to_json(self) -> str:
        def plain(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            return [plain(w) for w in v] if isinstance(v, tuple) else v

        return json.dumps({f.name: plain(getattr(self, f.name))
                           for f in fields(self)}, sort_keys=True)


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
    """Verify the applicable q-set inclusion and report the matching.

    Each q of the smaller set takes the unused member of the larger set
    whose eigenvector is best aligned with the image of its own under S
    (or S^T); a partner farther than tol raises InclusionFailureError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not all(cmath.isfinite(complex(v)) for v in (a, gamma, delta)):
        raise ValueError("a, gamma and delta must be finite")
    h = takemura_parameters(a, gamma, delta, m, n)
    T_p, T_a = polynomial_q_matrix(h), apparent_q_matrix(h)
    q_poly, vecs_p = zip(*sorted_eigenpairs(T_p))
    q_app, vecs_a = zip(*sorted_eigenpairs(T_a))
    S = np.array([[comb(k, j) * h.a ** (k - j) if j <= k else 0j
                   for k in range(n + 1)] for j in range(m + 1)])
    certificate = float(np.linalg.norm(T_a @ S - S @ T_p)
                        / (np.linalg.norm(T_a) * np.linalg.norm(S)))
    V_p, V_a = np.column_stack(vecs_p), np.column_stack(vecs_a)
    if m >= n:
        small, big, verdict = q_poly, q_app, "poly_subset_apparent"
        images, targets = S @ V_p, V_a
    else:
        # the rows of V^-1 are the left eigenvectors
        small, big, verdict = q_app, q_poly, "apparent_subset_poly"
        images, targets = S.T @ np.linalg.inv(V_a).T, np.linalg.inv(V_p).T
    if m == n:
        verdict = "equal"
    images, targets = (X / np.linalg.norm(X, axis=0) for X in (images, targets))
    alignment = np.abs(images.conj().T @ targets)
    free, matches = list(range(len(big))), []
    for i, u in enumerate(small):
        j = max(free, key=lambda k: alignment[i, k])
        free.remove(j)
        matches.append((u, big[j], abs(u - big[j])))
    unmatched = tuple(u for u, _, d in matches if not d <= tol)
    report = InclusionReport(m=m, n=n, a=complex(a), gamma=complex(gamma),
                             delta=complex(delta), alpha=h.alpha, beta=h.beta,
                             epsilon=h.epsilon, q_poly=q_poly,
                             q_apparent=q_app, matches=tuple(matches),
                             verdict=verdict if not unmatched else "failed",
                             certificate=certificate, tol=tol)
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

"""Takemura's inclusion between the polynomial and apparent q-sets."""

import numpy as np
import pytest
import sympy as sp

from conftest import dist_to_int, multiset_gap, rand_complex
from fuchsia_heun import takemura
from fuchsia_heun.frobenius import (
    apparent_q_matrix,
    is_apparent,
    polynomial_q_matrix,
)
from fuchsia_heun.monodromy import default_basepoint
from fuchsia_heun.numkit import sorted_eigenpairs
from fuchsia_heun.takemura import (
    MATCH_TOL,
    HypothesisViolationError,
    InclusionFailureError,
    inclusion_check,
    monodromy_corroboration,
    takemura_parameters,
)

GRID = [(m, n) for m in range(1, 9) for n in range(1, 9)]
CERTIFICATE_TOL = 1e-13


def _draw(rng):
    """(a, gamma, delta) with |a|, |a - 1| >= 1.2 and gamma + delta off the
    integers, so beta = gamma + delta - m + n - 1 is never integral."""
    while True:
        a = rand_complex(rng, re=(-4.0, 4.0), im=(-2.0, 2.0))
        gamma = rand_complex(rng, re=(0.1, 0.9), im=(-0.3, 0.3))
        delta = rand_complex(rng, re=(0.1, 0.9), im=(-0.3, 0.3))
        if (abs(a) >= 1.2 and abs(a - 1.0) >= 1.2
                and dist_to_int(gamma + delta) >= 0.05):
            return a, gamma, delta


def _expected_verdict(m, n):
    if m == n:
        return "equal"
    return "poly_subset_apparent" if m > n else "apparent_subset_poly"


@pytest.mark.parametrize("m, n", GRID)
def test_inclusion_on_a_grid(m, n):
    rng = np.random.default_rng([m, n, 2009])
    for _ in range(3):
        a, gamma, delta = _draw(rng)
        rep = inclusion_check(a, gamma, delta, m, n)
        assert rep.verdict == _expected_verdict(m, n)
        assert len(rep.q_poly) == n + 1 and len(rep.q_apparent) == m + 1
        assert len(rep.matches) == min(m, n) + 1
        assert rep.certificate <= CERTIFICATE_TOL
        small, partners, dists = zip(*rep.matches)
        assert max(dists) <= MATCH_TOL
        assert sorted(small, key=lambda z: (z.real, z.imag)) == sorted(
            rep.q_poly if m >= n else rep.q_apparent,
            key=lambda z: (z.real, z.imag))
        # scipy's assignment, run afresh on the matched subsets
        assert multiset_gap(small, partners) <= MATCH_TOL
        if m >= n:
            h = takemura_parameters(a, gamma, delta, m, n)
            assert all(is_apparent(h, q) for q in rep.q_poly)


def test_integral_beta_is_refused():
    # beta = gamma + delta - m + n - 1 = -1
    with pytest.raises(HypothesisViolationError):
        inclusion_check(3.0, 0.3, 0.7, 2, 1)


def test_tolerance_below_every_distance_fails():
    a, gamma, delta = _draw(np.random.default_rng(17))
    distances = [d for _, _, d in inclusion_check(a, gamma, delta, 3, 2).matches]
    assert min(distances) > 0.0
    with pytest.raises(InclusionFailureError) as info:
        inclusion_check(a, gamma, delta, 3, 2, tol=1e-30)
    assert info.value.report.verdict == "failed"
    assert len(info.value.unmatched) == 3


def _symbolic_matrices(a, gamma, delta, m, n):
    """T_p, T_a and the Taylor shift S, transcribed from the docstrings of
    ``polynomial_q_matrix`` and ``apparent_q_matrix``."""
    alpha, eps = -n, -m
    beta = gamma + delta + eps - alpha - 1

    def tridiagonal(size, diag, upper):
        return sp.Matrix(size, size, lambda j, k: (
            diag(j) if k == j else upper(j) if k == j + 1
            else (j - 1 + alpha) * (j - 1 + beta) if k == j - 1 else 0))

    T_p = tridiagonal(n + 1, lambda j: -j * ((j - 1) * (1 + a) + gamma * (1 + a)
                                            + delta * a + eps),
                      lambda j: a * (j + 1) * (j + gamma))
    T_a = tridiagonal(m + 1, lambda j: ((2 * a - 1) * j * (j - 1)
                                        + (gamma * (a - 1) + delta * a
                                           + eps * (2 * a - 1)) * j
                                        + alpha * beta * a),
                      lambda j: a * (a - 1) * (j + 1) * (j + eps))
    S = sp.Matrix(m + 1, n + 1, lambda j, k: sp.binomial(k, j) * a ** (k - j)
                  if j <= k else 0)
    return T_p, T_a, S


def test_taylor_shift_identity_is_exact():
    a, gamma, delta = sp.symbols("a gamma delta")
    point = {a: sp.Rational(7, 3) + 2 * sp.I, gamma: sp.Rational(3, 10),
             delta: sp.Rational(2, 5) + sp.I / 10}
    for m in range(1, 6):
        for n in range(1, 6):
            T_p, T_a, S = _symbolic_matrices(a, gamma, delta, m, n)
            assert (T_a * S - S * T_p).expand() == sp.zeros(m + 1, n + 1), (m, n)
            # the transcription is the package's matrices
            h = takemura_parameters(*(complex(point[s]) for s in
                                      (a, gamma, delta)), m, n)
            for sym, num in ((T_p, polynomial_q_matrix(h)),
                             (T_a, apparent_q_matrix(h))):
                ref = np.array(sym.subs(point).evalf(), dtype=complex)
                assert np.allclose(num, ref, rtol=1e-13, atol=1e-13), (m, n)


def test_bad_tolerance_is_refused():
    for tol in (float("nan"), 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol"):
            inclusion_check(3, 0.3, 0.4, 3, 2, tol=tol)


def test_non_finite_input_is_refused():
    for args in ((float("nan"), 0.3, 0.4), (3, complex(0.3, float("inf")), 0.4),
                 (3, 0.3, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            inclusion_check(*args, 3, 2)


def _patch_larger_set(monkeypatch, size, edit):
    """Let ``edit`` rewrite the eigenpairs of the size x size matrix."""
    true = takemura.sorted_eigenpairs

    def patched(M):
        pairs = true(M)
        return edit(pairs) if len(pairs) == size else pairs

    monkeypatch.setattr(takemura, "sorted_eigenpairs", patched)


def test_nan_distance_counts_as_unmatched(monkeypatch):
    a, gamma, delta = _draw(np.random.default_rng(17))
    _patch_larger_set(monkeypatch, 4, lambda pairs: [
        (complex("nan+nanj"), v) for _, v in pairs])
    with pytest.raises(InclusionFailureError) as info:
        inclusion_check(a, gamma, delta, 3, 2)
    assert len(info.value.unmatched) == 3


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_swapped_eigenvectors_give_a_wrong_pairing(monkeypatch, m, n):
    # rotating the larger set's eigenvectors against its eigenvalues sends
    # every image to the wrong partner; only the distances can notice
    a, gamma, delta = _draw(np.random.default_rng(17))
    _patch_larger_set(monkeypatch, max(m, n) + 1, lambda pairs: [
        (q, v) for (q, _), (_, v) in zip(pairs, pairs[1:] + pairs[:1])])
    with pytest.raises(InclusionFailureError) as info:
        inclusion_check(a, gamma, delta, m, n)
    assert info.value.report.verdict == "failed"
    assert len(info.value.unmatched) == min(m, n) + 1


# Measured on these draws: ||M_a - I|| is at most 1.3e-8 (at (2, 1)).  The
# line is off by 2.2e-12 and 8.6e-12 at (1, 1) and (2, 1) but by 3.0e-4 at
# (3, 1): there ||M_0|| is 2.2e4, and the line is the eigenvector of that
# far-from-normal matrix, while the polynomial's own companion vector is
# fixed by M_0 to 1e-13 relative.
IDENTITY_TOL = 1e-7
LINE_TOL = 1e-3


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 1)])
def test_monodromy_corroboration_fixes_the_polynomial_line(m, n):
    a, gamma, delta = _draw(np.random.default_rng([m, n, 7]))
    h = takemura_parameters(a, gamma, delta, m, n)
    q, c = sorted_eigenpairs(polynomial_q_matrix(h))[0]
    corr = monodromy_corroboration(a, gamma, delta, m, n, q)
    assert corr["m_a_is_identity"]
    assert corr["m_a_identity_residual"] <= IDENTITY_TOL
    # companion vector (y, y') of y = sum c_k x^k at the fan-loop basepoint
    b = default_basepoint([0.0, 1.0, h.a])
    z = np.array([sum(ck * b ** k for k, ck in enumerate(c)),
                  sum(k * ck * b ** (k - 1) for k, ck in enumerate(c) if k)])
    k = int(np.argmax(np.abs(z)))
    z = z / z[k] * abs(z[k]) / np.linalg.norm(z)
    assert corr["invariant_line"] is not None
    assert np.linalg.norm(corr["invariant_line"] - z) <= LINE_TOL

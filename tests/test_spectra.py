"""Equally-spaced spectrum of the residue-direction derivative operator."""

import numpy as np
import pytest
import sympy as sp

from conftest import draw_terminating_params
from fuchsia_heun import spectra
from fuchsia_heun.numkit import PreconditionError
from fuchsia_heun.spectra import (
    SPECTRUM_TOL,
    SpectrumViolationError,
    eigensection_coeffs,
    filtration_shift,
    nabla_v_matrix,
    nabla_v_spectrum,
)


def test_matrix_m1_display():
    a = 3.0
    M = nabla_v_matrix(a, 1).entries
    expected = np.array([[a, -1.0], [a * (a - 1.0), 1.0 - a]], dtype=complex)
    assert np.allclose(M, expected, atol=0.0)


def test_matrix_m2_display():
    a = 2.0 + 0.5j
    M = nabla_v_matrix(a, 2).entries
    expected = np.array([
        [2 * a, -1.0, 0.0],
        [2 * a * (a - 1.0), 1.0, -2.0],
        [0.0, a * (a - 1.0), 2.0 - 2 * a],
    ], dtype=complex)
    assert np.allclose(M, expected, atol=0.0)


def test_matrix_m3_diagonal():
    M = nabla_v_matrix(2.0, 3).entries
    assert M[0, 0] == 6.0
    assert M[1, 1] == 3.0
    assert M[2, 2] == 0.0
    assert M[3, 3] == -3.0


def test_matrix_entries_frozen():
    nv = nabla_v_matrix(3.0, 2)
    assert not nv.entries.flags.writeable


def test_spectrum_is_first_integers():
    rng = np.random.default_rng(5)
    grid = [(a, m) for a in (3.0, -0.7, 0.3 + 4.0j, 12.0 - 5.0j)
            for m in (1, 2, 3, 7, 12)]
    # the cross-ratio points of the accessory-set draws, m = 1..4
    grid += [(draw_terminating_params(rng, m).a, m) for m in (1, 2, 3, 4) * 8]
    for a, m in grid:
        chk = nabla_v_spectrum(a, m)
        assert len(chk.values) == m + 1
        for k, (v, d) in enumerate(zip(chk.values, chk.deviations)):
            assert abs(v - k) <= d <= 1e-12
        assert chk.max_deviation <= 1e-12


def test_spectrum_large_m_complex_a():
    chk = nabla_v_spectrum(0.3 + 4.0j, 12)
    assert chk.max_deviation < 1e-9


def test_spectrum_independent_of_a():
    v1 = nabla_v_spectrum(2.0, 5).values
    v2 = nabla_v_spectrum(-3.0 + 1.0j, 5).values
    assert max(abs(x - y) for x, y in zip(v1, v2)) < 2 * SPECTRUM_TOL


def test_trace_identity():
    # sum of {0..m}, with the a-dependence cancelling exactly
    for a in (2.0, 0.4 - 2.2j):
        for m in (1, 4, 9):
            tr = np.trace(nabla_v_matrix(a, m).entries)
            assert tr == pytest.approx(m * (m + 1) / 2.0, abs=1e-12)


def test_violation_error_on_a_planted_wrong_vector(monkeypatch):
    # the eigenvector of k = 3 handed out for k = 2: residual |v|, value 3
    closed_form = spectra._eigensection

    def planted(a, m, k):
        return closed_form(a, m, 3 if k == 2 else k)

    monkeypatch.setattr(spectra, "_eigensection", planted)
    with pytest.raises(SpectrumViolationError, match="deviates"):
        nabla_v_spectrum(3.0, 8)


def _exact_operator(a, m):
    """The documented tridiagonal entries, in exact arithmetic."""
    M = sp.zeros(m + 1, m + 1)
    for k in range(m + 1):
        M[k, k] = (m - 2 * k) * a + k
        if k + 1 <= m:
            M[k + 1, k] = a * (a - 1) * (m - k)
        if k >= 1:
            M[k - 1, k] = -k
    return M


def _exact_eigensections(a, m):
    """Columns: u-coefficients of (1 + a u)^(m-k) (1 + (a-1) u)^k."""
    u = sp.Symbol("u")
    V = sp.zeros(m + 1, m + 1)
    for k in range(m + 1):
        poly = sp.Poly((1 + a * u) ** (m - k) * (1 + (a - 1) * u) ** k, u)
        for j in range(m + 1):
            V[j, k] = poly.coeff_monomial(u ** j)
    return V


def test_closed_form_matches_sympy():
    # exact in symbolic a: the closed-form vectors diagonalise the operator
    # with a unimodular eigenbasis, and the exact characteristic polynomial,
    # an independent second method, has the roots 0..m
    a, lam = sp.symbols("a lam")
    for m in range(1, 6):
        M = _exact_operator(a, m)
        V = _exact_eigensections(a, m)
        D = sp.diag(*range(m + 1))
        assert (M * V - V * D).expand() == sp.zeros(m + 1, m + 1)
        assert sp.expand(V.det()) in (1, -1)
        expected = sp.prod([lam - k for k in range(m + 1)])
        assert sp.expand(M.charpoly(lam).as_expr() - expected) == 0


def test_float_code_matches_exact_forms():
    a = sp.Rational(5, 2) + sp.I * sp.Rational(3, 4)
    for m in (1, 3, 5):
        M = np.array(_exact_operator(a, m).evalf(), dtype=complex)
        V = np.array(_exact_eigensections(a, m).evalf(), dtype=complex)
        assert np.array_equal(np.asarray(nabla_v_matrix(2.5 + 0.75j, m).entries), M)
        for k in range(m + 1):
            c = np.array(eigensection_coeffs(2.5 + 0.75j, m, k))
            assert np.max(np.abs(c - V[:, k])) <= 1e-15 * np.max(np.abs(V[:, k]))


def test_degenerate_a_rejected():
    with pytest.raises(PreconditionError):
        nabla_v_matrix(0.0, 2)
    with pytest.raises(PreconditionError):
        nabla_v_matrix(1.0, 2)
    with pytest.raises(PreconditionError):
        nabla_v_matrix(3.0, 0)
    with pytest.raises(PreconditionError):
        eigensection_coeffs(1.0, 3, 1)


def test_eigensection_m1_closed_forms():
    a = 2.5 + 0.3j
    c0 = eigensection_coeffs(a, 1, 0)
    assert abs(c0[0] - 1.0) < 1e-12
    assert abs(c0[1] - a) < 1e-10
    c1 = eigensection_coeffs(a, 1, 1)
    assert abs(c1[0] - 1.0) < 1e-12
    assert abs(c1[1] - (a - 1.0)) < 1e-10


def test_eigensection_satisfies_eigen_equation():
    rng = np.random.default_rng(41)
    for _ in range(40):
        a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(a) < 0.3 or abs(a - 1.0) < 0.3:
            continue
        m = int(rng.integers(1, 13))
        M = np.asarray(nabla_v_matrix(a, m).entries)
        for k in range(m + 1):
            v = np.array(eigensection_coeffs(a, m, k))
            assert v[0] == 1.0
            resid = np.linalg.norm(M @ v - k * v)
            assert resid <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(v)


def test_eigensection_bad_index():
    with pytest.raises(PreconditionError):
        eigensection_coeffs(3.0, 2, 3)
    with pytest.raises(PreconditionError):
        eigensection_coeffs(3.0, 2, -1)


def test_filtration_shift_chain():
    pair = (0j, complex(-3))
    seen = []
    while True:
        pair = filtration_shift(pair)
        seen.append(pair)
        if abs(pair[1]) < 1e-12:
            break
    assert seen == [(0j, -2 + 0j), (0j, -1 + 0j), (0j, 0j)]
    with pytest.raises(PreconditionError):
        filtration_shift((0j, 0j))


def test_filtration_shift_order_insensitive():
    assert filtration_shift((-4.0, 0.0)) == (0j, -3 + 0j)


def test_filtration_shift_rejects_bad_pairs():
    with pytest.raises(PreconditionError):
        filtration_shift((0.0, 2.5))
    with pytest.raises(PreconditionError):
        filtration_shift((1.0, -3.0))
    with pytest.raises(PreconditionError):
        filtration_shift((0.0, -1.0, -2.0))

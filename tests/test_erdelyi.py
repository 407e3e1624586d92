"""Three-term ladder rows, accessory continued fraction, domains, expansions.

The ladder-row test is the exact-arithmetic rerun of the substitution
oracle: with rational parameters, applying the second-order operator to the
truncated basis series and expanding back in the basis must reproduce every
row coefficient exactly (the row layout pairs K with the lower neighbour's
up-coefficient and M with the upper neighbour's down-coefficient).
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import sympy as sp

from conftest import draw_terminating_params, multiset_gap
from fuchsia_heun.connection import HeunParameters
from fuchsia_heun.erdelyi import (
    BreakdownError,
    ConvergenceDomain,
    DegenerateDomainError,
    DomainError,
    ExpansionVariant,
    PreconditionError,
    ResonanceError,
    accessory_roots_cf,
    conformal_ratio,
    continued_fraction,
    domain_membership,
    klm,
    phi1,
    recurrence_sequence,
    sum_expansion,
    terminating_accessory_matrix,
    terminating_accessory_set,
)
from fuchsia_heun.erdelyi import _cf_slope, _lists, _row_table, _sum_coefficients
from fuchsia_heun.frobenius import apparent_q_set
from fuchsia_heun.frobenius import local_series

ROW_MATCH_TOL = 1e-12
CF_ROOT_TOL = 1e-8


def _heun(a, q, alpha, gamma, delta, epsilon):
    beta = gamma + delta + epsilon - alpha - 1.0
    return HeunParameters(a=a, q=q, alpha=alpha, beta=beta,
                          gamma=gamma, delta=delta, epsilon=epsilon)


def _with_q(h, q):
    return HeunParameters(a=h.a, q=q, alpha=h.alpha, beta=h.beta,
                          gamma=h.gamma, delta=h.delta, epsilon=h.epsilon)


# a with small conformal ratio: fast convergence, roomy larger domain
_GEN = _heun(a=0.25, q=0.3, alpha=0.33, gamma=0.41, delta=0.57, epsilon=0.24)

# terminating second-type reference set (epsilon = -2, k = 1 degenerate)
_TERM2 = _heun(a=3.0, q=0.0, alpha=0.37, gamma=0.3, delta=0.41, epsilon=-2.0)


# ------------------------------------------------- exact substitution oracle

def _exact_ladder(a, q, al, be, ga, de, ep, m, basis, terms=9):
    """(up, mid, down) coefficients of the operator on basis element m.

    basis(n, upto) gives the Taylor coefficients at 0 of basis element n,
    as a dict from power to exact value, for every power up to upto.
    D[u_m] is expanded in u_{m+1}, u_m, u_{m-1} using exact rational
    arithmetic; the mid coefficient carries the -q contribution.  Raises
    if the expansion does not close.
    """
    upto = m + terms

    def apply_op(coeffs):
        out = {}
        p1_2 = ga + de + ep
        p1_1 = -(ga * (1 + a) + de * a + ep)
        p1_0 = ga * a
        for p, c in coeffs.items():
            for dp, cc in ((p + 1, p * (p - 1) + p1_2 * p + al * be),
                           (p, -(1 + a) * p * (p - 1) + p1_1 * p - q),
                           (p - 1, a * p * (p - 1) + p1_0 * p)):
                if cc != 0:
                    out[dp] = out.get(dp, sp.Integer(0)) + c * cc
        return out

    lhs = apply_op(basis(m, upto))
    up, mid, down = sp.symbols("up mid down")
    rhs_parts = [(up, basis(m + 1, upto)), (mid, basis(m, upto))]
    unknowns = [up, mid]
    if m >= 1:
        rhs_parts.append((down, basis(m - 1, upto)))
        unknowns.append(down)
    eqs = []
    for p in range(upto):          # D[u_m] is exact below power upto
        rhs_p = sum(sym * part.get(p, sp.Integer(0)) for sym, part in rhs_parts)
        expr = sp.expand(lhs.get(p, sp.Integer(0)) - rhs_p)
        if expr != 0:
            eqs.append(expr)
    sol = sp.solve(eqs, unknowns, dict=True)
    assert sol, "ladder expansion failed to close"
    got = sol[0]
    return (got[up], got[mid], got[down] if m >= 1 else sp.Integer(0))


def _gauss_coeffs(A, B, C, upto):
    return [sp.rf(A, j) * sp.rf(B, j) / (sp.rf(C, j) * sp.factorial(j))
            for j in range(upto + 1)]


# exact rational parameter set shared by the row oracles
_EXACT = dict(a=sp.Integer(3), q=sp.Rational(2, 7), al=sp.Rational(1, 3),
              ga=sp.Rational(2, 5), de=sp.Rational(3, 7), ep=sp.Rational(5, 11))
_EXACT["be"] = _EXACT["ga"] + _EXACT["de"] + _EXACT["ep"] - _EXACT["al"] - 1


def _exact_heun():
    e = _EXACT
    return HeunParameters(a=float(e["a"]), q=float(e["q"]), alpha=float(e["al"]),
                          beta=float(e["be"]), gamma=float(e["ga"]),
                          delta=float(e["de"]), epsilon=float(e["ep"]))


def _close(got, exact):
    exact = complex(exact)
    return abs(got - exact) < ROW_MATCH_TOL * max(1.0, abs(exact))


def test_rows_match_exact_substitution_oracle():
    e = _EXACT
    al, be, de = e["al"], e["be"], e["de"]
    w = al + be - de

    def basis(mm, upto):
        # phi_m without its Gamma prefactor: x^m 2F1(al+m, be+m; w+2m+1; x)
        c = _gauss_coeffs(al + mm, be + mm, w + 2 * mm + 1, upto - mm)
        return {mm + j: cj for j, cj in enumerate(c)}

    def rho(m):
        return ((al - de + m + 1) * (be - de + m + 1)
                / ((w + 2 * m + 1) * (w + 2 * m + 2)))

    ladders = {m: _exact_ladder(m=m, basis=basis, **e) for m in range(6)}
    h = _exact_heun()
    for m in range(5):
        row = klm(h, m)
        assert _close(row.L, ladders[m][1])
        assert _close(row.M, ladders[m + 1][2] * rho(m))
        if m >= 1:
            assert _close(row.K, ladders[m - 1][0] / rho(m - 1))


def _merge_at_1_basis(mm, upto):
    # (x-1)^n 2F1(al+n, be+n; ga; x)
    e = _EXACT
    f = _gauss_coeffs(e["al"] + mm, e["be"] + mm, e["ga"], upto)
    out = {}
    for k in range(min(mm, upto) + 1):
        b = sp.binomial(mm, k) * (-1) ** (mm - k)
        for j in range(upto - k + 1):
            out[k + j] = out.get(k + j, sp.Integer(0)) + b * f[j]
    return out


def _merge_at_infinity_basis(mm, upto):
    # 2F1(al+n, be-ep-n; ga; x)
    e = _EXACT
    c = _gauss_coeffs(e["al"] + mm, e["be"] - e["ep"] - mm, e["ga"], upto)
    return dict(enumerate(c))


@pytest.mark.parametrize("v, basis", [
    (ExpansionVariant.MERGE_AT_1, _merge_at_1_basis),
    (ExpansionVariant.MERGE_AT_INFINITY, _merge_at_infinity_basis),
], ids=["merge_at_1", "merge_at_infinity"])
def test_variant_rows_match_exact_substitution_oracle(v, basis):
    # the closed-form table against the ladder of the basis itself:
    # K_j = up_{j-1}, Lbar_j = mid_j + q, M_j = down_{j+1}
    ladders = {n: _exact_ladder(m=n, basis=basis, **_EXACT) for n in range(7)}
    K, Lbar, M = _row_table(_exact_heun(), v, 5)
    for j in range(6):
        assert _close(Lbar[j], ladders[j][1] + _EXACT["q"])
        assert _close(M[j], ladders[j + 1][2])
        assert _close(K[j], ladders[j - 1][0] if j else 0)


def test_printed_row_form_differs_by_accessory_scaling():
    h = _GEN
    ab = h.alpha * h.beta
    for m in range(4):
        oracle = klm(h, m, lm_form="oracle")
        printed = klm(h, m, lm_form="printed")
        assert abs(printed.K - oracle.K) < 1e-14 * max(1.0, abs(oracle.K))
        assert abs(printed.M - oracle.M) < 1e-14 * max(1.0, abs(oracle.M))
        expected_gap = h.q * (1.0 - ab)
        assert abs((printed.L - oracle.L) - expected_gap) < 1e-13


def test_m0_closed_form():
    h = _GEN
    w = h.alpha + h.beta - h.delta
    expected = (h.a * (h.alpha - h.delta + 1.0) * (h.beta - h.delta + 1.0)
                * h.gamma / ((w + 1.0) * (w + 2.0)))
    assert abs(klm(h, 0).M - expected) < 1e-13 * max(1.0, abs(expected))


def test_k_rung_vanishes_past_terminating_index():
    for m in (1, 2, 3):
        h = _heun(a=2.0, q=0.1, alpha=0.35, gamma=0.52, delta=0.61,
                  epsilon=float(-m))
        assert abs(klm(h, m + 1).K) == 0.0
        assert abs(klm(h, m).K) > 1e-12


def test_sequence_satisfies_rows():
    h = _GEN
    X = recurrence_sequence(h, h.q, 20)
    row0 = klm(h, 0)
    assert abs(row0.L * X[0] + row0.M * X[1]) < 1e-12
    for m in range(1, 19):
        r = klm(h, m)
        resid = r.K * X[m - 1] + r.L * X[m] + r.M * X[m + 1]
        scale = max(abs(r.K * X[m - 1]), abs(r.L * X[m]), abs(r.M * X[m + 1]), 1.0)
        assert abs(resid) < 1e-12 * scale


def test_first_step_termination_epsilon_zero():
    h = _heun(a=2.0, q=0.0, alpha=0.3, gamma=0.8, delta=0.9, epsilon=0.0)
    assert abs(h.beta - 0.4) < 1e-12
    q = h.a * h.alpha * h.beta
    X = recurrence_sequence(h, q, 8)
    assert max(abs(v) for v in X[1:]) < 1e-12


def test_terminating_epsilon_minus_one_tail():
    h = _heun(a=0.25, q=0.0, alpha=0.33, gamma=0.41, delta=0.57, epsilon=-1.0)
    roots = terminating_accessory_set(h)
    assert len(roots) == 2
    for r in roots:
        X = recurrence_sequence(h, r, 3)
        head = max(abs(X[0]), abs(X[1]))
        assert abs(X[2]) < 1e-8 * head
        assert abs(X[3]) < 1e-6 * head


def test_asymptotic_ratio_reaches_dominant_root():
    h = _GEN
    k = conformal_ratio(h.a)
    X = recurrence_sequence(h, h.q, 205)
    logs = [math.log(abs(X[m + 1] / X[m])) for m in range(195, 204)]
    geo = math.exp(sum(logs) / len(logs))
    assert abs(geo - 1.0 / k) < 0.1 / k


# -------------------------------------------------------- continued fraction

def test_depth_one_is_first_quotient():
    h = _GEN
    row0 = klm(h, 0)
    assert continued_fraction(h, h.q, 1) == pytest.approx(row0.L / row0.M, abs=1e-15)


def test_depth_plateau_away_from_roots():
    h = _GEN
    v40 = continued_fraction(h, 0.3, 40)
    v80 = continued_fraction(h, 0.3, 80)
    assert abs(v40 - v80) < 1e-10


def test_roots_kill_the_fraction():
    h = _heun(a=0.25, q=0.0, alpha=0.33, gamma=0.41, delta=0.57, epsilon=-2.0)
    roots = accessory_roots_cf(h)
    assert len(roots) == 3
    for r in roots:
        assert abs(continued_fraction(h, r, 96)) < CF_ROOT_TOL * max(1.0, abs(r))


def test_three_way_terminating_agreement():
    rng = np.random.default_rng(73)
    h = draw_terminating_params(rng, 2)
    s_matrix = terminating_accessory_set(h)
    s_cf = accessory_roots_cf(h)
    s_frob = apparent_q_set(h)
    assert len(s_matrix) == len(s_cf) == len(s_frob) == 3
    assert multiset_gap(s_matrix, s_cf) < 1e-7
    assert multiset_gap(s_matrix, s_frob) < 1e-7


def test_printed_form_set_is_scaled_oracle_set():
    h = _heun(a=0.25, q=0.0, alpha=0.33, gamma=0.41, delta=0.57, epsilon=-1.0)
    ab = h.alpha * h.beta
    oracle = terminating_accessory_set(h)
    printed = terminating_accessory_set(h, lm_form="printed")
    assert multiset_gap(printed, [r / ab for r in oracle]) < 1e-9


def test_box_returns_every_root_of_the_table_spectrum():
    # -2.871054 sits within 1e-5 of a fraction pole, so its Newton basin
    # is narrow; the eigenvalue of the truncated table lands inside it
    h = _GEN
    roots = accessory_roots_cf(h, box=(-3.0, 3.0, -3.0, 3.0))
    assert len(roots) == 3
    K, Lbar, M = _row_table(h, ExpansionVariant.MERGE_AT_0, 95)
    lams = np.linalg.eigvals(np.diag(Lbar) + np.diag(K[1:], -1)
                             + np.diag(M[:-1], 1))
    for r in roots:
        assert np.min(np.abs(lams - r)) < 1e-12
    assert [round(r.real, 6) for r in roots] == [-2.871054, -0.570224, -0.005862]


def test_printed_roots_are_oracle_roots_over_alpha_beta():
    h = _heun(a=0.25, q=0.0, alpha=0.33, gamma=0.41, delta=0.57, epsilon=-2.0)
    ab = h.alpha * h.beta
    oracle = accessory_roots_cf(h)
    printed = accessory_roots_cf(h, lm_form="printed")
    assert len(printed) == 3
    assert multiset_gap(printed, [r / ab for r in oracle]) < 1e-12


@pytest.mark.parametrize("q", [0.3, -1.0 + 0.5j, 2.0 - 0.7j])
def test_cf_slope_matches_central_difference(q):
    h = _GEN
    rows = _lists(_row_table(h, ExpansionVariant.MERGE_AT_0, 47))
    for s in (1.0, h.alpha * h.beta):
        f, fp = _cf_slope(rows, s, q)
        assert f == pytest.approx(continued_fraction(h, s * q, 48), abs=1e-13)
        e = 1e-6
        fd = (_cf_slope(rows, s, q + e)[0] - _cf_slope(rows, s, q - e)[0]) / (2 * e)
        assert abs(fd - fp) <= 1e-6 * abs(fp)


def test_empty_box_returns_no_roots():
    assert accessory_roots_cf(_GEN, box=(1.0, -1.0, -1.0, 1.0)) == []


def test_nonterminating_root_found_and_certified_by_convergence():
    # epsilon generic: locate one root from a truncated-operator eigenvalue,
    # re-find it in a small box, then certify its meaning: the coefficient
    # sequence is minimal, the larger-domain expansion converges over the
    # numerically stable window, and a perturbed accessory value is refused.
    h = _GEN
    n = 40
    T = np.zeros((n, n), dtype=complex)
    for m in range(n):
        r = klm(h, m)
        T[m, m] = r.L + h.q          # strip the -q: the q-free diagonal
        if m + 1 < n:
            T[m, m + 1] = r.M
        if m >= 1:
            T[m, m - 1] = r.K
    lams = np.linalg.eigvals(T)
    lam = lams[np.argmin(np.abs(lams))]
    found = accessory_roots_cf(
        h, box=(lam.real - 0.5, lam.real + 0.5, lam.imag - 0.5, lam.imag + 0.5))
    assert found
    qstar = min(found, key=lambda r: abs(r - lam))
    assert abs(qstar - lam) < 1e-6

    x = -1.0                     # between the two level curves, off the cut
    k = conformal_ratio(h.a)
    assert k < conformal_ratio(x) < 1.0
    # forward recursion cannot hold the minimal solution forever (roundoff
    # feeds the dominant one), so convergence is certified on the window
    # where the true terms have already died and contamination has not grown
    s12 = sum_expansion(h, qstar, x, 12)
    s9 = sum_expansion(h, qstar, x, 9)
    assert abs(s12 - s9) < 1e-6 * max(1.0, abs(s12))

    # a non-root accessory value: pick the perturbation the fraction
    # rejects most clearly, then check the gate and the term growth
    cands = [qstar + 0.3, qstar - 0.3, qstar + 0.3j]
    qbad = max(cands, key=lambda z: abs(continued_fraction(h, z, 48)))
    assert abs(continued_fraction(h, qbad, 48)) > 1e-4
    with pytest.raises(DomainError):
        sum_expansion(h, qbad, x, 40)
    X_bad = recurrence_sequence(h, qbad, 75)
    t50 = abs(X_bad[50] * phi1(h, 50, x))
    t70 = abs(X_bad[70] * phi1(h, 70, x))
    assert t70 > 10.0 * t50
    # minimality at the root: the row-0-consistent solution stays small
    X_good = recurrence_sequence(h, qstar, 12)
    assert abs(X_good[10]) < 1e-4 * abs(X_bad[10])


def _heun_ode_along(h, q, path, y0):
    """Heun solution carried along a polyline by DOP853; value at each vertex."""
    y = np.array(y0, dtype=complex)
    out = {}
    for z0, z1 in zip(path, path[1:]):
        dz = z1 - z0

        def rhs(t, y, z0=z0, dz=dz):
            x = z0 + t * dz
            p2 = x * (x - 1.0) * (x - h.a)
            p1 = (h.gamma * (x - 1.0) * (x - h.a) + h.delta * x * (x - h.a)
                  + h.epsilon * x * (x - 1.0))
            ypp = -(p1 * y[1] + (h.alpha * h.beta * x - q) * y[0]) / p2
            return [y[1] * dz, ypp * dz]

        sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), y, method="DOP853",
                                        rtol=1e-12, atol=1e-14)
        assert sol.success
        y = sol.y[:, -1]
        out[z1] = y[0]
    return out


def test_omega1_minimal_sum_matches_ode_at_every_depth():
    # at a fraction root the MERGE_AT_0 sum converges on Omega1; the Heun
    # solution regular at 0 is continued there by integrating the ODE from
    # x = 0.1 along a path that avoids the singular points
    h = _GEN
    found = accessory_roots_cf(h, box=(-0.5, 0.5, -0.5, 0.5))
    qstar = min(found, key=abs)
    ls = local_series(_with_q(h, qstar), 0.0, 0.0, 60)
    x0 = 0.1
    far = _heun_ode_along(h, qstar, [x0, 0.1 + 0.3j, -0.6 + 0.5j, -1.0],
                          [ls(x0), ls.derivative(x0)])
    for N in (12, 40, 64, 128, 200):
        scale = sum_expansion(h, qstar, x0, N) / ls(x0)
        for x in (-0.6 + 0.5j, -1.0):
            assert not ConvergenceDomain(h.a).contains(x, "omega0")
            got = sum_expansion(h, qstar, x, N) / far[x]
            assert abs(got / scale - 1.0) < 1e-11


def test_merge_at_1_sum_at_its_own_root_matches_ode():
    # MERGE_AT_1's own fraction root, not a MERGE_AT_0 root; its basis is
    # regular at 0, so the sum is a multiple of the Frobenius solution
    # there, continued by the ODE to points of Omega1_minus.  N stops at
    # 100: past that the 2F1 factors themselves lose accuracy near 0.6j
    h = _GEN
    qstar = -0.014876456705951299
    ls = local_series(_with_q(h, qstar), 0.0, 0.0, 60)
    x0 = 0.1
    path = [x0, 0.1 + 0.3j, -0.2 + 0.6j, -0.6 + 0.5j, -1.0]
    far = _heun_ode_along(h, qstar, path, [ls(x0), ls.derivative(x0)])
    for N in (40, 64, 100):
        ratios = [sum_expansion(h, qstar, x, N, ExpansionVariant.MERGE_AT_1)
                  / far[x] for x in path[2:]]
        for r in ratios[1:]:
            assert abs(r / ratios[0] - 1.0) < 1e-10, N
    with pytest.raises(DomainError, match="merge_at_1"):
        sum_expansion(h, -0.00586200383124912, -1.0, 40,
                      ExpansionVariant.MERGE_AT_1)


# ------------------------------------------------------------------- domains

def test_conformal_ratio_values():
    assert conformal_ratio(0.0) == pytest.approx(0.0, abs=1e-15)
    assert conformal_ratio(2.0) == pytest.approx(1.0, abs=1e-12)
    assert conformal_ratio(1.0) == pytest.approx(1.0, abs=1e-12)
    assert conformal_ratio(-3.0) < 1.0
    assert conformal_ratio(0.5 + 2.0j) < 1.0


def test_domain_membership_examples():
    a = 0.25
    dom = ConvergenceDomain(a)
    assert dom.contains(0.0, "omega0")
    assert not dom.contains(a, "omega0")          # a sits on the boundary
    assert abs(conformal_ratio(a) - dom.k) == 0.0
    assert not dom.contains(2.0, "omega1")        # the cut is excluded
    assert dom.contains(-1.0, "omega1")
    assert not dom.contains(-1.0, "omega0")


def test_omega0_inside_omega1():
    rng = np.random.default_rng(79)
    dom = ConvergenceDomain(2.0 + 1.5j)
    for _ in range(200):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dom.contains(x, "omega0"):
            assert dom.contains(x, "omega1")


def test_degenerate_k_raises_membership_queries():
    dom = ConvergenceDomain(3.0)
    assert abs(dom.k - 1.0) < 1e-12
    with pytest.raises(DegenerateDomainError):
        dom.contains(0.5, "omega0")


def test_boundary_points_sit_on_level_curve():
    dom = ConvergenceDomain(2.0 + 1.5j)
    lo = min(dom.k, 1.0 / dom.k)
    for x in dom.boundary_points("omega0", 64):
        assert abs(conformal_ratio(x) - lo) < 1e-9
    # the ratio is below 1 everywhere off [1, inf), so the large domain is
    # the whole cut plane and its boundary is the cut itself
    for x in dom.boundary_points("omega1", 64):
        assert x.imag == 0.0 and x.real >= 1.0
        assert abs(conformal_ratio(x) - 1.0) < 1e-9


def test_boundary_points_degenerate_level_samples_cut():
    dom = ConvergenceDomain(3.0)
    pts = dom.boundary_points("omega0", 32)
    for x in pts:
        assert x.imag == 0.0 and x.real >= 1.0
        assert abs(conformal_ratio(x) - 1.0) < 1e-9


def test_domain_membership_wrapper():
    assert domain_membership(0.25, 0.0, "omega0")
    with pytest.raises(PreconditionError):
        domain_membership(0.25, 0.0, "omega2")


# ----------------------------------------------------------------- expansion

def test_phi_value_at_origin_is_gamma_ratio():
    h = _GEN
    g = scipy.special.loggamma
    expected = np.exp(g(h.alpha - h.delta + 1.0) + g(h.beta - h.delta + 1.0)
                      - g(h.alpha + h.beta - h.delta + 1.0))
    assert abs(phi1(h, 0, 0.0) - expected) < 1e-12 * abs(expected)
    assert abs(sum_expansion(h, h.q, 0.0, 10) - expected) < 1e-12 * abs(expected)


def test_phi_gamma_prefactor_pole_guard():
    h = _heun(a=2.0, q=0.1, alpha=0.3, gamma=0.5, delta=2.3, epsilon=0.4)
    assert abs(h.alpha - h.delta + 1.0 - (-1.0)) < 1e-12
    with pytest.raises(ResonanceError):
        phi1(h, 0, 0.1)
    phi1(h, 2, 0.1)      # prefactor argument positive again
    h = _heun(a=2.0 + 1.0j, q=0.1, alpha=0.3, gamma=0.5, delta=2.3, epsilon=0.4)
    with pytest.raises(ResonanceError):
        sum_expansion(h, h.q, 0.1, 10)


def test_sum_with_gamma_denominator_pole_raises():
    # alpha-delta+1 = beta-delta+1 = 1/2 but w+1 = alpha+beta-delta+1 = -2:
    # the stepped prefactor would divide by zero, the m = 0 2F1 raises first
    h = _heun(a=2.0 + 1.0j, q=0.1, alpha=-2.5, gamma=0.4, delta=-2.0,
              epsilon=-2.4)
    assert abs(h.alpha + h.beta - h.delta + 1.0 - (-2.0)) < 1e-12
    for n in (0, 1, 2, 10):
        with pytest.raises(ArithmeticError):
            sum_expansion(h, h.q, 0.1, n)


@pytest.mark.parametrize("h, x", [
    (_GEN, 0.1 - 0.05j),
    (_heun(a=2.0 + 1.0j, q=0.4 - 0.3j, alpha=0.3 + 0.2j, gamma=0.6 - 0.1j,
           delta=0.35 + 0.25j, epsilon=0.7 - 0.4j), 0.4 + 0.3j),
], ids=["gen", "complex"])
def test_stepped_prefactor_sum_matches_phi1_terms(h, x):
    assert ConvergenceDomain(h.a).contains(x, "omega0")
    for n in (1, 16, 64, 128, 200):
        X = _sum_coefficients(h, h.q, n)
        ref = sum(X[m] * phi1(h, m, x) for m in range(n + 1))
        got = sum_expansion(h, h.q, x, n)
        assert abs(got - ref) <= 1e-13 * abs(ref), n


def test_terminating_sum_matches_local_series():
    h = _heun(a=0.25, q=0.0, alpha=0.33, gamma=0.41, delta=0.57, epsilon=-1.0)
    for r in terminating_accessory_set(h):
        hr = _with_q(h, r)
        short = sum_expansion(h, r, 0.1, 1)
        full = sum_expansion(h, r, 0.1, 40)
        assert abs(short - full) < 1e-13 * max(1.0, abs(full))
        ls = local_series(hr, 0.0, 0.0, 40)
        ratios = []
        for x in (0.1, -0.05 + 0.08j):
            ratios.append(sum_expansion(h, r, x, 40) / ls(x))
        assert abs(ratios[0] - ratios[1]) < 1e-8 * abs(ratios[0])


def test_cauchy_convergence_inside_small_domain():
    h = _GEN
    x = 0.1
    s80 = sum_expansion(h, h.q, x, 80)
    s75 = sum_expansion(h, h.q, x, 75)
    assert abs(s80 - s75) < 1e-8 * max(1.0, abs(s80))


def test_outside_large_domain_is_rejected():
    h = _GEN
    with pytest.raises(DomainError):
        sum_expansion(h, h.q, 2.0, 40)        # on the cut
    with pytest.raises(DomainError):
        sum_expansion(h, h.q, -1.0, 40)       # in omega1 but q generic


# ------------------------------------------------------------ variant family

def test_merge_at_1_cauchy_convergence():
    h = _TERM2
    q = terminating_accessory_set(h)[0]
    s60 = sum_expansion(h, q, 0.1, 60, ExpansionVariant.MERGE_AT_1)
    s55 = sum_expansion(h, q, 0.1, 55, ExpansionVariant.MERGE_AT_1)
    assert abs(s60 - s55) < 1e-8 * max(1.0, abs(s60))


def test_merge_at_infinity_matches_frobenius_solution():
    h = _TERM2
    q = terminating_accessory_set(h)[1]
    hr = _with_q(h, q)
    ls = local_series(hr, 0.0, 0.0, 60)
    vals = []
    for x in (0.12, 0.2):
        s = sum_expansion(h, q, x, 60, ExpansionVariant.MERGE_AT_INFINITY)
        vals.append(s / ls(x))
    assert abs(vals[0] - vals[1]) < 1e-9 * abs(vals[0])


def test_merge_at_1_long_terminating_sum_matches_local_series():
    # epsilon = -4 with the most negative terminating root: the sum runs
    # forty rows past a termination that is not at roundoff level
    h = _heun(a=3.0, q=0.0, alpha=0.37, gamma=0.3, delta=0.41, epsilon=-4.0)
    q = min(terminating_accessory_set(h), key=lambda z: z.real)
    ls = local_series(_with_q(h, q), 0.0, 0.0, 60)
    ratios = [sum_expansion(h, q, x, 40, ExpansionVariant.MERGE_AT_1) / ls(x)
              for x in (0.1, 0.15, -0.1 + 0.1j)]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < 1e-9 * abs(ratios[0])


def test_variant_divergence_gate_for_generic_accessory():
    h = _TERM2
    with pytest.raises(DomainError, match="diverges"):
        sum_expansion(h, 0.3, 0.1, 40, ExpansionVariant.MERGE_AT_1)
    with pytest.raises(DomainError, match="diverges"):
        sum_expansion(h, 0.3, 0.1, 40, ExpansionVariant.MERGE_AT_INFINITY)


def test_variant_cut_points_rejected():
    h = _TERM2
    q = terminating_accessory_set(h)[0]
    with pytest.raises(DomainError):
        sum_expansion(h, q, 1.5, 40, ExpansionVariant.MERGE_AT_1)


def test_merge_at_infinity_resonant_parameter_collapse():
    h = _heun(a=3.0, q=0.0, alpha=-1.085, gamma=0.37, delta=0.46, epsilon=-1.0)
    assert abs((h.beta - h.epsilon - h.alpha) - 2.0) < 1e-12
    q = terminating_accessory_set(h)[0]
    with pytest.raises(ResonanceError):
        sum_expansion(h, q, 0.1, 30, ExpansionVariant.MERGE_AT_INFINITY)


# -------------------------------------------------------------- loud guards

def test_row_denominator_resonance():
    h = _heun(a=2.0, q=0.1, alpha=0.4, gamma=0.3, delta=0.8, epsilon=-0.3)
    assert abs(h.alpha + h.beta - h.delta + 1.0) < 1e-12
    with pytest.raises(ResonanceError):
        klm(h, 0)


def test_variant_row_denominator_resonance():
    # delta + epsilon = -1 hits delta+epsilon+2n-1 at n = 1
    h = _heun(a=2.0, q=0.1, alpha=0.4, gamma=0.3, delta=0.5, epsilon=-1.5)
    with pytest.raises(ResonanceError, match="delta\\+epsilon"):
        _row_table(h, ExpansionVariant.MERGE_AT_1, 4)
    # alpha - beta + epsilon = 0 hits the n = 0 denominator; it is not a
    # basis collapse (beta - epsilon - alpha = 0), so the row guard fires
    h = _heun(a=3.0, q=0.0, alpha=-0.145, gamma=0.3, delta=0.41, epsilon=-1.0)
    assert abs(h.alpha - h.beta + h.epsilon) < 1e-12
    q = terminating_accessory_set(h)[0]
    with pytest.raises(ResonanceError, match="alpha-beta\\+epsilon"):
        sum_expansion(h, q, 0.1, 30, ExpansionVariant.MERGE_AT_INFINITY)


def test_degenerate_rung_breaks_loudly():
    # exactly representable halves so beta - delta + 1 is a float zero
    h = _heun(a=2.0, q=0.0, alpha=-0.5, gamma=0.5, delta=0.5, epsilon=-1.0)
    assert h.beta - h.delta + 1.0 == 0.0
    with pytest.raises(BreakdownError):
        accessory_roots_cf(h)


def test_terminating_matrix_requires_negative_integer_epsilon():
    with pytest.raises(PreconditionError):
        terminating_accessory_matrix(_GEN)


def test_terminating_matrix_shape_and_set_size():
    h = _heun(a=2.0, q=0.0, alpha=0.35, gamma=0.52, delta=0.61, epsilon=-3.0)
    T = terminating_accessory_matrix(h)
    assert T.shape == (4, 4)
    assert len(terminating_accessory_set(h)) == 4

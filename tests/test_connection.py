"""Connections, schemes, scalar reductions and parameter-space moves."""

import json

import numpy as np
import pytest

from conftest import multiset_gap, eigenvalues, random_connection
from fuchsia_heun.connection import (
    INFINITY,
    CompanionSystem,
    DegenerateInputError,
    FuchsianConnection,
    HeunParameters,
    ReducibleFrameError,
    RiemannScheme,
    ScalarODE,
    ShapeError,
    UnknownPointError,
    companion_system,
    connection_with_heun_exponents,
    heun_scalar,
    hypergeometric_system,
    kummer_orbit,
    kummer_twist,
    mobius_pushforward,
    riemann_scheme,
    to_scalar,
)

SCHEME_TOL = 1e-9

_H = HeunParameters(a=3.0, q=0.25, alpha=0.31, beta=0.87,
                    gamma=0.42, delta=0.56, epsilon=1.2)
assert abs(_H.alpha + _H.beta + 1 - (_H.gamma + _H.delta + _H.epsilon)) < 1e-12


def _simple_connection():
    a0 = np.array([[0.3, 0.1], [0.0, -0.2]], dtype=complex)
    a1 = np.array([[0.1, 0.0], [0.4, 0.5]], dtype=complex)
    return FuchsianConnection([0.0, 1.0], [a0, a1])


# ------------------------------------------------------------ HeunParameters

def test_heun_parameters_accepts_consistent_set():
    h = HeunParameters(a=2.0, q=0.1, alpha=0.3, beta=0.4,
                       gamma=0.5, delta=0.6, epsilon=0.6)
    assert abs(h.alpha + h.beta + 1 - (h.gamma + h.delta + h.epsilon)) < 1e-12


def test_heun_parameters_rejects_broken_constraint():
    with pytest.raises(DegenerateInputError):
        HeunParameters(a=2.0, q=0.1, alpha=0.3, beta=0.4,
                       gamma=0.5, delta=0.6, epsilon=0.9)


def test_heun_parameters_rejects_degenerate_crossratio():
    for a in (0.0, 1.0):
        with pytest.raises(DegenerateInputError):
            HeunParameters(a=a, q=0.0, alpha=0.3, beta=0.4,
                           gamma=0.5, delta=0.6, epsilon=0.6)


def test_heun_scalar_coefficients_match_closed_form():
    ode = heun_scalar(_H)
    h = _H
    for x in (0.4 + 0.2j, -0.7, 2.1 + 0.5j):
        p1 = h.gamma / x + h.delta / (x - 1.0) + h.epsilon / (x - h.a)
        p0 = (h.alpha * h.beta * x - h.q) / (x * (x - 1.0) * (x - h.a))
        assert abs(ode.p1(x) - p1) < 1e-12 * max(1.0, abs(p1))
        assert abs(ode.p0(x) - p0) < 1e-12 * max(1.0, abs(p0))


def test_heun_scalar_singular_points():
    pts = heun_scalar(_H).singular_points()
    assert multiset_gap(pts, [0.0, 1.0, _H.a]) < 1e-12


# --------------------------------------------------------- FuchsianConnection

def test_connection_rejects_duplicate_points():
    a = np.diag([0.1, 0.2])
    with pytest.raises(DegenerateInputError):
        FuchsianConnection([0.5, 0.5 + 1e-12], [a, a])


def test_connection_rejects_defective_residue():
    with pytest.raises(DegenerateInputError):
        FuchsianConnection([0.0], [np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_connection_infinity_residue_is_minus_sum():
    c = _simple_connection()
    total = sum(np.asarray(c.residue_at(p)) for p in c.points)
    assert np.allclose(np.asarray(c.a_infinity()), -total, atol=1e-14)
    assert np.allclose(np.asarray(c.residue_at(INFINITY)),
                       np.asarray(c.a_infinity()), atol=0)


def test_connection_matrix_is_sum_of_pole_terms():
    c = _simple_connection()
    for x in (0.3 + 0.4j, -1.5, 2.0 + 1.0j):
        expected = sum(np.asarray(c.residue_at(p)) / (x - p) for p in c.points)
        assert np.allclose(np.asarray(c.matrix(x)), expected, atol=1e-13)


def test_connection_residue_lookup_unknown_point():
    c = _simple_connection()
    with pytest.raises(UnknownPointError):
        c.residue_at(2.0)


def test_connection_json_round_trip():
    rng = np.random.default_rng(29)
    c = random_connection(rng)
    c2 = FuchsianConnection.from_json(c.to_json())
    assert list(c2.points) == list(c.points)
    for p in c.points:
        assert np.array_equal(np.asarray(c2.residue_at(p)),
                              np.asarray(c.residue_at(p)))
    assert c2.to_json() == c.to_json()


# -------------------------------------------------------------- RiemannScheme

def test_riemann_scheme_reads_residue_eigenvalues():
    a0 = np.diag([0.0, 0.4])
    a1 = np.diag([-0.3, 0.8])
    c = FuchsianConnection([0.0, 1.0], [a0, a1])
    scheme = riemann_scheme(c)
    expected = RiemannScheme(columns=(
        (0.0 + 0.0j, (0.0, 0.4)),
        (1.0 + 0.0j, (-0.3, 0.8)),
        (INFINITY, (0.3, -1.2)),
    ))
    assert scheme.close_to(expected, tol=SCHEME_TOL)


def test_riemann_scheme_exponent_sum_vanishes():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        c = random_connection(rng, n_points=n)
        assert abs(riemann_scheme(c).exponent_sum()) < 1e-10


def test_riemann_scheme_close_to_ignores_column_order():
    cols = ((0.0 + 0.0j, (0.0, 0.4)), (1.0 + 0.0j, (0.1, 0.2)), (INFINITY, (-0.7, 0.0)))
    s1 = RiemannScheme(columns=cols)
    s2 = RiemannScheme(columns=(cols[1], (0.0 + 0.0j, (0.4, 0.0)), cols[2]))
    assert s1.close_to(s2)
    s3 = RiemannScheme(columns=((0.0 + 0.0j, (0.0, 0.5)),) + cols[1:])
    assert not s1.close_to(s3)


def test_riemann_scheme_json_is_normalised_and_deterministic():
    cols = ((1.0 + 0.0j, (0.2, 0.1)), (0.0 + 0.0j, (0.4, 0.0)), (INFINITY, (0.0, -0.7)))
    s1 = RiemannScheme(columns=cols)
    s2 = RiemannScheme(columns=tuple(reversed(cols)))
    assert s1.to_json() == s2.to_json()
    json.loads(s1.to_json())


# ------------------------------------------------------- hypergeometric frame

def test_hypergeometric_system_scheme_and_infinity_frame():
    alpha, beta = 0.21 + 0.11j, -0.74 + 0.29j
    gamma = 0.34 - 0.15j
    delta = -(alpha + beta) - gamma
    c = hypergeometric_system(alpha, beta, gamma, delta)
    expected = RiemannScheme(columns=(
        (0.0 + 0.0j, (0.0, gamma)),
        (1.0 + 0.0j, (0.0, delta)),
        (INFINITY, (beta, alpha)),
    ))
    assert riemann_scheme(c).close_to(expected, tol=SCHEME_TOL)
    assert np.allclose(np.asarray(c.a_infinity()), np.diag([beta, alpha]), atol=1e-12)


def test_hypergeometric_system_rejects_bad_exponent_sum():
    with pytest.raises(DegenerateInputError):
        hypergeometric_system(0.3, 0.4, 0.5, 0.6)


def test_hypergeometric_system_rejects_equal_alpha_beta():
    with pytest.raises(DegenerateInputError):
        hypergeometric_system(0.3, 0.3, -0.2, -0.4)


def test_hypergeometric_first_component_ode():
    alpha, beta = 0.37, -0.52
    gamma = 0.48
    delta = -(alpha + beta) - gamma
    ode, _ = to_scalar(hypergeometric_system(alpha, beta, gamma, delta))
    for x in (0.3 + 0.2j, -0.8, 1.7 + 0.4j):
        p1 = (1 - gamma) / x + (1 - delta) / (x - 1.0)
        p0 = beta * (alpha + 1.0) / (x * (x - 1.0))
        assert abs(ode.p1(x) - p1) <= 1e-12 * max(1.0, abs(p1))
        assert abs(ode.p0(x) - p0) <= 1e-12 * max(1.0, abs(p0))


def test_hypergeometric_second_component_ode():
    alpha, beta = 0.37, -0.52
    gamma = 0.48
    delta = -(alpha + beta) - gamma
    c = hypergeometric_system(alpha, beta, gamma, delta)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = FuchsianConnection(
        c.points, [perm @ np.asarray(c.residue_at(p)) @ perm for p in c.points])
    ode, _ = to_scalar(swapped)
    for x in (0.3 + 0.2j, -0.8, 1.7 + 0.4j):
        p0 = alpha * (beta + 1.0) / (x * (x - 1.0))
        assert abs(ode.p0(x) - p0) <= 1e-12 * max(1.0, abs(p0))


# ------------------------------------------------------------------ to_scalar

def test_to_scalar_rejects_decoupled_frame():
    c = FuchsianConnection([0.0, 1.0], [np.diag([0.1, 0.2]), np.diag([0.3, 0.4])])
    with pytest.raises(ReducibleFrameError):
        to_scalar(c)


def test_to_scalar_flags_apparent_points_with_exponents_zero_two():
    rng = np.random.default_rng(37)
    c = random_connection(rng, n_points=3)
    _, scheme = to_scalar(c)
    assert scheme.apparent_points
    for point, exps in scheme.apparent_points:
        assert point != INFINITY
        assert multiset_gap(exps, [0.0, 2.0]) < 1e-8
        for p in c.points:
            assert abs(point - p) > 1e-6


def test_to_scalar_exponent_sum_counts_apparent_columns():
    # Sum over all columns (true and apparent, including infinity) equals
    # (#finite true) + (#finite apparent) - 1.
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        for _ in range(3):
            c = random_connection(rng, n_points=n)
            try:
                _, scheme = to_scalar(c)
            except (ReducibleFrameError, DegenerateInputError):
                continue
            expected = len(c.points) + len(scheme.apparent_points) - 1
            assert abs(scheme.exponent_sum() - expected) < 1e-8


def test_to_scalar_scheme_matches_residue_eigenvalues():
    rng = np.random.default_rng(43)
    c = random_connection(rng, n_points=3)
    _, scheme = to_scalar(c)
    by_point = {p: exps for p, exps in scheme.columns}
    for p in c.points:
        key = min((k for k in by_point if k != INFINITY), key=lambda k: abs(k - p))
        assert abs(key - p) < 1e-9
        assert multiset_gap(by_point[key], eigenvalues(c.residue_at(p))) < 1e-8


# --------------------------------------------------------------- kummer_twist

def test_kummer_twist_zero_is_identity():
    c = _simple_connection()
    t = kummer_twist(c, 0.0, 0.0)
    for p in c.points:
        assert np.allclose(np.asarray(t.residue_at(p)),
                           np.asarray(c.residue_at(p)), atol=1e-14)


def test_kummer_twist_shifts_exponents_oppositely_at_infinity():
    c = _simple_connection()
    mu = 0.3 - 0.2j
    t = kummer_twist(c, 0.0, mu)
    e_point = eigenvalues(c.residue_at(0.0))
    e_point_t = eigenvalues(t.residue_at(0.0))
    assert multiset_gap(e_point_t, [e + mu for e in e_point]) < 1e-10
    e_inf = eigenvalues(c.a_infinity())
    e_inf_t = eigenvalues(t.a_infinity())
    assert multiset_gap(e_inf_t, [e - mu for e in e_inf]) < 1e-10


def test_kummer_twist_can_zero_an_exponent():
    c = _simple_connection()
    lam = eigenvalues(c.residue_at(1.0))[0]
    t = kummer_twist(c, 1.0, -lam)
    assert min(abs(e) for e in eigenvalues(t.residue_at(1.0))) < 1e-12


def test_kummer_twist_round_trip():
    c = _simple_connection()
    mu = -0.8 + 0.1j
    back = kummer_twist(kummer_twist(c, 1.0, mu), 1.0, -mu)
    for p in c.points:
        assert np.allclose(np.asarray(back.residue_at(p)),
                           np.asarray(c.residue_at(p)), atol=1e-14)


def test_kummer_twist_unknown_point():
    with pytest.raises(UnknownPointError):
        kummer_twist(_simple_connection(), 7.0, 0.5)


# --------------------------------------------------------- mobius_pushforward

def test_mobius_identity_map():
    c = _simple_connection()
    t = mobius_pushforward(c, np.eye(2))
    assert multiset_gap(t.points, c.points) < 1e-12
    for p in c.points:
        assert np.allclose(np.asarray(t.residue_at(p)),
                           np.asarray(c.residue_at(p)), atol=1e-12)


def test_mobius_affine_relocation():
    a = 3.0 + 0.5j
    c = _simple_connection()                    # points 0, 1
    f = np.array([[1.0 - a, a], [0.0, 1.0]])    # x -> (1-a) x + a
    t = mobius_pushforward(c, f)
    assert multiset_gap(t.points, [a, 1.0]) < 1e-10
    assert multiset_gap(eigenvalues(t.residue_at(a)),
                        eigenvalues(c.residue_at(0.0))) < 1e-10
    assert multiset_gap(eigenvalues(t.residue_at(1.0)),
                        eigenvalues(c.residue_at(1.0))) < 1e-10


def test_mobius_inversion_swaps_zero_and_infinity():
    a = 2.0
    rng = np.random.default_rng(47)
    c = random_connection(rng, n_points=2)
    c = FuchsianConnection([0.0, a], [c.residue_at(p) for p in c.points])
    f = np.array([[0.0, a], [1.0, 0.0]])        # x -> a / x
    t = mobius_pushforward(c, f)
    # a -> 1 keeps its residue; infinity -> 0 carries the old derived residue;
    # 0 -> infinity is absorbed into the new derived infinity residue.
    assert multiset_gap(t.points, [1.0, 0.0]) < 1e-10
    assert multiset_gap(eigenvalues(t.residue_at(1.0)),
                        eigenvalues(c.residue_at(a))) < 1e-10
    assert multiset_gap(eigenvalues(t.residue_at(0.0)),
                        eigenvalues(c.a_infinity())) < 1e-10
    assert multiset_gap(eigenvalues(t.a_infinity()),
                        eigenvalues(c.residue_at(0.0))) < 1e-10


def test_mobius_rejects_singular_matrix():
    with pytest.raises(DegenerateInputError):
        mobius_pushforward(_simple_connection(), np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_mobius_preserves_finite_exponents_generically():
    rng = np.random.default_rng(53)
    for _ in range(5):
        c = random_connection(rng, n_points=3)
        f = np.array([[1.2, 0.3 - 0.1j], [0.05, 0.9]])
        t = mobius_pushforward(c, f)
        for p in c.points:
            image = (f[0, 0] * p + f[0, 1]) / (f[1, 0] * p + f[1, 1])
            assert multiset_gap(eigenvalues(t.residue_at(image)),
                                eigenvalues(c.residue_at(p))) < 1e-9


# --------------------------------------------------------------- kummer_orbit

def _generic_three_column_scheme():
    return RiemannScheme(columns=(
        (0.0 + 0.0j, (0.0, 0.31)),
        (1.0 + 0.0j, (0.0, 0.47)),
        (INFINITY, (0.17, 0.05)),
    ))


def test_kummer_orbit_generic_count():
    orbit = kummer_orbit(_generic_three_column_scheme())
    assert len(orbit) == 24


def test_kummer_orbit_degenerate_scheme_collapses():
    trivial = RiemannScheme(columns=(
        (0.0 + 0.0j, (0.0, 0.0)),
        (1.0 + 0.0j, (0.0, 0.0)),
        (INFINITY, (0.0, 0.0)),
    ))
    orbit = kummer_orbit(trivial)
    assert 1 <= len(orbit) <= 6


def test_kummer_orbit_contains_seed_and_is_closed_under_revisit():
    seed = _generic_three_column_scheme()
    orbit = kummer_orbit(seed)
    assert any(s.close_to(seed) for s in orbit)
    for member in orbit[:6]:
        for again in kummer_orbit(member):
            assert any(s.close_to(again) for s in orbit)


def test_kummer_orbit_rejects_wrong_column_count():
    two_cols = RiemannScheme(columns=(
        (0.0 + 0.0j, (0.0, 0.3)), (INFINITY, (0.1, -0.4))))
    with pytest.raises(ShapeError):
        kummer_orbit(two_cols)


@pytest.mark.parametrize("points", [(0.0, 1.0, 2.0), (0.0, INFINITY, INFINITY)])
def test_kummer_orbit_rejects_scheme_without_one_infinity_column(points):
    # every twist shifts the infinity column oppositely, so there must be one
    pairs = ((0.0, 0.3 + 0.1j), (0.0, -0.45), (0.2, 0.7 - 0.2j))
    with pytest.raises(ShapeError):
        kummer_orbit(RiemannScheme(columns=tuple(zip(points, pairs))))


def _seeded_schemes():
    """20 schemes: 8 of hypergeometric systems (zero exponent at both finite
    points), 8 with arbitrary exponents at arbitrary finite points, 4 with
    integer exponents."""
    rng = np.random.default_rng(19)

    def z(scale=1.0):
        return scale * complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))

    out = []
    for _ in range(8):
        al, ga, de = z(), z(), z()
        out.append(riemann_scheme(hypergeometric_system(al, -(al + ga + de), ga, de)))
    for _ in range(8):
        p0, p1 = z(3.0), 3.0 + z(3.0)
        out.append(RiemannScheme(columns=(
            (p0, (z(), z())), (p1, (z(), z())), (INFINITY, (z(), z())))))
    for _ in range(4):
        n = [complex(int(k)) for k in rng.integers(-3, 4, size=4)]
        out.append(RiemannScheme(columns=(
            (0j, (n[0], n[1])), (1 + 0j, (n[2], z())), (INFINITY, (n[3], z())))))
    return out


_SEEDED = _seeded_schemes()


def _within(schemes, orbit) -> bool:
    """Every scheme is close to an orbit member (`close_to`, vectorised).

    All schemes share the orbit's points, so only the exponent pairs are
    compared, each in both orders.
    """
    def table(ss):
        return np.array([[es for _, es in s.normalized().columns] for s in ss])

    a, t = table(schemes)[:, None], table(orbit)[None]
    gap = np.minimum(np.abs(a - t).max(axis=3),
                     np.abs(a - t[..., ::-1]).max(axis=3)).max(axis=2)
    return bool((gap.min(axis=1) <= SCHEME_TOL * max(1.0, np.abs(t).max())).all())


@pytest.mark.parametrize("i", range(len(_SEEDED)))
def test_kummer_orbit_seeded_schemes(i):
    seed = _SEEDED[i]
    orbit = kummer_orbit(seed)
    assert len(orbit) == 24  # every draw is generic
    total = seed.exponent_sum()
    for member in orbit:
        assert abs(member.exponent_sum() - total) < 1e-12 * max(1.0, abs(total))
    for member in orbit:
        again = kummer_orbit(member)
        assert len(again) == len(orbit) and _within(again, orbit)
    zero_at_finite = all(min(abs(e) for e in es) < SCHEME_TOL
                         for p, es in seed.columns if p != INFINITY)
    assert any(s.close_to(seed) for s in orbit) == zero_at_finite


@pytest.mark.parametrize("columns, size", [
    (((0.0, 0.0), (0.2, 0.2), (0.1, 0.4)), 5),
    (((0.0, 0.0), (0.0, 0.3), (0.1, 0.4)), 8),
    (((0.0, 0.3), (0.1, 0.4), (0.2, 0.65)), 12),
    (((0.0, 0.0), (0.0, 0.3), (0.1, 0.57)), 16),
])
def test_kummer_orbit_degenerate_sizes(columns, size):
    # equal exponent differences make substitutions coincide: a zero
    # difference merges the two choices at its column, two equal
    # differences merge the placements that swap their pairs
    seed = RiemannScheme(columns=tuple(zip((0j, 1 + 0j, INFINITY), columns)))
    orbit = kummer_orbit(seed)
    assert len(orbit) == size
    for member in orbit:
        assert len(kummer_orbit(member)) == size


# ------------------------------------------------------------ CompanionSystem

def test_companion_of_trivial_equation():
    from fuchsia_heun.numkit import CRat
    ode = ScalarODE(p1=CRat.from_const(0.0), p0=CRat.from_const(0.0))
    s = companion_system(ode)
    assert np.allclose(np.asarray(s.matrix(0.7)), [[0.0, 1.0], [0.0, 0.0]], atol=0)


def test_companion_of_heun_equation():
    h = _H
    s = companion_system(heun_scalar(h))
    for x in (0.4 + 0.3j, -1.1):
        m = np.asarray(s.matrix(x))
        p1 = h.gamma / x + h.delta / (x - 1.0) + h.epsilon / (x - h.a)
        p0 = (h.alpha * h.beta * x - h.q) / (x * (x - 1.0) * (x - h.a))
        assert abs(m[0, 0]) == 0 and abs(m[0, 1] - 1.0) == 0
        assert abs(m[1, 0] + p0) < 1e-12 * max(1.0, abs(p0))
        assert abs(m[1, 1] + p1) < 1e-12 * max(1.0, abs(p1))


def test_companion_of_gauss_equation():
    from fuchsia_heun.numkit import CPoly, CRat
    a, b, cc = 0.3, 0.7, 1.4
    den = CPoly([0.0, 1.0, -1.0])                       # x (1 - x)
    p1 = CRat(CPoly([cc, -(a + b + 1.0)]), den)
    p0 = CRat(CPoly([-a * b]), den)
    s = companion_system(ScalarODE(p1=p1, p0=p0))
    for x in (0.25, -0.6 + 0.2j):
        m = np.asarray(s.matrix(x))
        assert abs(m[1, 0] - a * b / (x * (1.0 - x))) < 1e-12
        assert abs(m[1, 1] + (cc - (a + b + 1.0) * x) / (x * (1.0 - x))) < 1e-12


# ---------------------------------------------- fixed frames with given local data

def test_connection_with_heun_exponents_realises_scheme():
    c = connection_with_heun_exponents(_H)
    h = _H
    assert multiset_gap(eigenvalues(c.residue_at(0.0)), [0.0, 1.0 - h.gamma]) < 1e-9
    assert multiset_gap(eigenvalues(c.residue_at(1.0)), [0.0, 1.0 - h.delta]) < 1e-9
    assert multiset_gap(eigenvalues(c.residue_at(h.a)), [0.0, 1.0 - h.epsilon]) < 1e-9

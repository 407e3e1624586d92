"""Polynomial, rational-function and small-matrix primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import multiset_gap, eigenvalues, random_diagonalisable
from fuchsia_heun.numkit import (
    ArithmeticGuard,
    CPoly,
    CRat,
    DegenerateInputError,
    PreconditionError,
    ShapeError,
    common_eigenvector,
    eig_small,
    is_diagonalisable_2x2,
    near_integer,
    poly_roots,
    simultaneously_diagonalisable,
)

ROOT_TOL = 1e-8
LINALG_TOL = 1e-10


# ---------------------------------------------------------------- near_integer

def test_near_integer_accepts_close_values():
    assert near_integer(3.0 + 1e-12j) == 3
    assert near_integer(-2.0000000004) == -2
    assert near_integer(0.0) == 0


def test_near_integer_rejects_far_values():
    assert near_integer(2.5) is None
    assert near_integer(1.0 + 0.01j) is None
    assert near_integer(0.3) is None


def _near_integer_reference(v, tol):
    """The numpy-based form of near_integer, kept as the reference."""
    n = int(round(float(np.real(v))))
    if abs(v - n) <= tol * max(1.0, abs(v)):
        return n
    return None


_finite = dict(allow_nan=False, allow_infinity=False)
_near_ints = st.builds(lambda k, d: k + d, st.integers(-10**6, 10**6),
                       st.floats(-1e-6, 1e-6))
# offsets around tol * |v| for small |v|, where the relative scale matters
_tol_edge = st.builds(lambda k, d: k + d, st.integers(-3, 3),
                      st.floats(-5e-8, 5e-8))
_complexes = st.one_of(
    st.complex_numbers(**_finite),
    st.complex_numbers(max_magnitude=4.0, **_finite),
    st.builds(complex, _near_ints, st.floats(-1e-6, 1e-6)),
    st.builds(complex, _tol_edge, st.floats(-5e-8, 5e-8)),
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1 + 1e-9j, 0.5 + 0j, 1j]),
)
_reals = st.one_of(
    st.floats(**_finite),
    _near_ints,
    _tol_edge,
    st.sampled_from([0.0, 1.0, -1.0, 1.0 + 1e-9, 0.5, -0.5, 1e-300]),
)
_inputs = st.one_of(_complexes, _reals, st.integers(),
                    _complexes.map(np.complex128), _reals.map(np.float64))


@settings(max_examples=400, deadline=None)
@given(_inputs, st.sampled_from([1e-8, 1e-10]))
@example(2.0 - 1.5e-8, 1e-8)       # within tol * |v| but not within tol
@example(np.float64(-3.0 + 2.5e-10), 1e-10)
@example(complex(2.0 + 1.5e-8, 1e-9), 1e-8)
@example(np.complex128(1.0 - 1.5e-10), 1e-10)
def test_near_integer_matches_numpy_reference(v, tol):
    try:
        ref = _near_integer_reference(v, tol)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            near_integer(v, tol=tol)
        return
    got = near_integer(v, tol=tol)
    assert got == ref and type(got) is type(ref)


# --------------------------------------------------------------------- CPoly

def test_cpoly_trims_trailing_zeros():
    p = CPoly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1


def test_cpoly_zero_polynomial():
    assert CPoly([0.0]).is_zero
    assert not CPoly([0.0, 1.0]).is_zero


def test_cpoly_evaluation_and_algebra():
    p = CPoly([1.0, -3.0, 2.0])            # 1 - 3x + 2x^2
    q = CPoly([0.0, 1.0])                  # x
    for x in (0.3, -1.2 + 0.4j, 2.0):
        assert abs(p(x) - (1 - 3 * x + 2 * x * x)) < 1e-12
        assert abs((p + q)(x) - (p(x) + q(x))) < 1e-12
        assert abs((p - q)(x) - (p(x) - q(x))) < 1e-12
        assert abs((p * q)(x) - p(x) * q(x)) < 1e-12


def test_cpoly_derivative_exact():
    p = CPoly([5.0, -1.0, 0.0, 2.0])       # 5 - x + 2x^3
    d = p.derivative()
    for x in (0.0, 1.5, -0.7 + 0.2j):
        assert abs(d(x) - (-1.0 + 6.0 * x * x)) < 1e-12


def test_cpoly_from_roots_expands_product():
    roots = [1.0, -2.0, 0.5j]
    p = CPoly.from_roots(roots, leading=3.0)
    for x in (0.4, 2.0 - 1.0j):
        expected = 3.0
        for r in roots:
            expected *= x - r
        assert abs(p(x) - expected) < 1e-10


# ---------------------------------------------------------------- poly_roots

def test_poly_roots_quadratic():
    got = poly_roots(CPoly([-1.0, 0.0, 1.0]))      # x^2 - 1
    assert multiset_gap(got, [-1.0, 1.0]) < 1e-12


def test_poly_roots_repeated_root():
    got = poly_roots(CPoly([0.0, 0.0, 1.0]))       # x^2
    assert multiset_gap(got, [0.0, 0.0]) < 1e-6


def test_poly_roots_zero_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        poly_roots(CPoly([0.0]))


def test_poly_roots_constant_is_rootless():
    assert poly_roots(CPoly([4.2])) == []


def test_poly_roots_degree_eight_round_trip():
    rng = np.random.default_rng(7)
    roots = []
    while len(roots) < 8:
        cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(cand - r) > 0.2 for r in roots):
            roots.append(cand)
    got = poly_roots(CPoly.from_roots(roots, leading=0.7 - 0.2j))
    assert multiset_gap(got, roots) < ROOT_TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_poly_roots_round_trip_property(degree, seed):
    rng = np.random.default_rng(seed)
    roots = []
    while len(roots) < degree:
        cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(cand - r) > 0.25 for r in roots):
            roots.append(cand)
    got = poly_roots(CPoly.from_roots(roots))
    assert multiset_gap(got, roots) < ROOT_TOL


def test_poly_roots_sorted_deterministically():
    p = CPoly.from_roots([1.0, -1.0, 1.0j, -1.0j])
    assert poly_roots(p) == poly_roots(p)
    first = poly_roots(p)
    assert sorted(first, key=lambda z: (round(z.real, 12), round(z.imag, 12))) == first


# --------------------------------------------------------------------- CRat

def test_crat_cancels_common_root():
    shared = 0.7 - 0.1j
    num = CPoly.from_roots([shared, 2.0])
    den = CPoly.from_roots([shared, -1.0])
    r = CRat(num, den)
    assert len(r.poles()) == 1
    assert abs(r.poles()[0] - (-1.0)) < 1e-8
    assert len(r.zeros()) == 1
    assert abs(r.zeros()[0] - 2.0) < 1e-8
    for x in (0.3, 1.4 + 0.5j):
        assert abs(r(x) - (x - 2.0) / (x + 1.0)) < 1e-10


def test_crat_arithmetic_pointwise():
    a = CRat(CPoly([1.0]), CPoly([0.0, 1.0]))          # 1/x
    b = CRat(CPoly([0.0, 1.0]), CPoly([-1.0, 1.0]))    # x/(x-1)
    for x in (0.4, 2.0 + 1.0j, -3.0):
        va, vb = 1.0 / x, x / (x - 1.0)
        assert abs((a + b)(x) - (va + vb)) < 1e-12
        assert abs((a - b)(x) - (va - vb)) < 1e-12
        assert abs((a * b)(x) - va * vb) < 1e-12
        assert abs((a / b)(x) - va / vb) < 1e-12


def test_crat_derivative_closed_form():
    r = CRat(CPoly([1.0]), CPoly([0.0, 1.0]))          # 1/x -> -1/x^2
    d = r.derivative()
    for x in (0.5, -2.0, 1.0 + 1.0j):
        assert abs(d(x) + 1.0 / (x * x)) < 1e-12


def test_crat_zero_denominator_rejected():
    with pytest.raises(DegenerateInputError):
        CRat(CPoly([1.0]), CPoly([0.0]))
    nonzero = CRat(CPoly([1.0]), CPoly([1.0]))
    zero = CRat.zero()
    with pytest.raises(DegenerateInputError):
        nonzero / zero


# ----------------------------------------------------------------- eig_small

def test_eig_small_identity():
    lams = eigenvalues(np.eye(2))
    assert multiset_gap(lams, [1.0, 1.0]) < 1e-14


def test_eig_small_two_by_two_integer_spectrum():
    a = 3.0
    m = np.array([[a, -1.0], [a * (a - 1.0), 1.0 - a]], dtype=complex)
    assert multiset_gap(eigenvalues(m), [0.0, 1.0]) < 1e-12


def test_eig_small_conjugated_diagonal_five_by_five():
    rng = np.random.default_rng(11)
    d = np.diag(np.arange(1.0, 6.0))
    p = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
    m = p @ d @ np.linalg.inv(p)
    assert multiset_gap(eigenvalues(m), [1.0, 2.0, 3.0, 4.0, 5.0]) < 1e-9


def test_eig_small_vectors_are_unit_with_small_residual():
    rng = np.random.default_rng(13)
    for n in (2, 3, 6):
        m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        for lam, vec in eig_small(m):
            vec = np.asarray(vec)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.linalg.norm(m @ vec - lam * vec) <= LINALG_TOL * np.linalg.norm(m)


def test_eig_small_rejects_nonsquare_and_oversize():
    with pytest.raises(ShapeError):
        eig_small(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        eig_small(np.zeros((65, 65)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3, 5]))
def test_eig_small_trace_and_det_property(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    lams = eigenvalues(m)
    assert abs(sum(lams) - np.trace(m)) < 1e-9 * max(1.0, np.linalg.norm(m))
    prod = np.prod(lams)
    assert abs(prod - np.linalg.det(m)) < 1e-8 * max(1.0, abs(prod))


# -------------------------------------------------------- common_eigenvector

def _residual(matrix, vec):
    matrix = np.asarray(matrix, dtype=complex)
    vec = np.asarray(vec, dtype=complex)
    lam = np.vdot(vec, matrix @ vec)
    return np.linalg.norm(matrix @ vec - lam * vec)


def test_common_eigenvector_shared_diagonal_frame():
    m = np.diag([1.0, 2.0])
    n = np.diag([-0.5, 3.0])
    v = common_eigenvector([m, n])
    assert v is not None
    assert _residual(m, v) < 1e-10 and _residual(n, v) < 1e-10


def test_common_eigenvector_opposed_jordan_frames_absent():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    n = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert common_eigenvector([m, n]) is None


def test_common_eigenvector_constructed_triple():
    rng = np.random.default_rng(17)
    p = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    pinv = np.linalg.inv(p)
    t1 = np.array([[0.4, 1.3], [0.0, -0.9]])
    t2 = np.array([[1.1, -0.6], [0.0, 0.2]])
    mats = [p @ t1 @ pinv, p @ t2 @ pinv, p @ (t1 @ t2) @ pinv]
    v = common_eigenvector(mats)
    assert v is not None
    for m in mats:
        assert _residual(m, v) < 1e-8 * max(1.0, np.linalg.norm(m))


def test_common_eigenvector_normalisation_is_deterministic():
    m = np.diag([2.0, -1.0])
    v = common_eigenvector([m, m])
    idx = int(np.argmax(np.abs(v)))
    assert v[idx].imag == pytest.approx(0.0, abs=1e-14)
    assert v[idx].real > 0


def test_common_eigenvector_empty_collection_rejected():
    with pytest.raises(DegenerateInputError):
        common_eigenvector([])


# ----------------------------------------------- simultaneous diagonalisation

def test_simultaneously_diagonalisable_diagonal_pair():
    assert simultaneously_diagonalisable(np.diag([1.0, 2.0]), np.diag([3.0, -1.0]))


def test_simultaneously_diagonalisable_noncommuting_pair():
    assert not simultaneously_diagonalisable(
        np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_simultaneously_diagonalisable_shared_eigenbasis():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        if abs(np.linalg.det(p)) < 0.2:
            continue
        pinv = np.linalg.inv(p)
        m = p @ np.diag([0.3, -1.2]) @ pinv
        n = p @ np.diag([2.0, 0.7]) @ pinv
        assert simultaneously_diagonalisable(m, n)


def test_simultaneously_diagonalisable_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = random_diagonalisable(rng)
        n = random_diagonalisable(rng)
        assert simultaneously_diagonalisable(m, n) == simultaneously_diagonalisable(n, m)


def test_simultaneously_diagonalisable_rejects_defective_input():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        simultaneously_diagonalisable(jordan, np.diag([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        simultaneously_diagonalisable(np.diag([1.0, 2.0]), jordan)


def test_is_diagonalisable_2x2():
    assert is_diagonalisable_2x2(np.diag([1.0, 1.0]))            # scalar
    assert is_diagonalisable_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_diagonalisable_2x2(np.array([[1.0, 1.0], [0.0, 1.0]]))


# ----------------------------------------------------------------- stability

def test_poly_roots_invariant_under_coefficient_scaling():
    p = CPoly.from_roots([0.3, -1.7, 2.0 + 0.5j])
    scaled = p * (1e6 + 0.0j)
    assert multiset_gap(poly_roots(p), poly_roots(scaled)) < 1e-10
    assert isinstance(ArithmeticGuard(), ArithmeticError)

"""Loop geometry of the fan and infinity loops, and the loop matrices."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import random_connection
from fuchsia_heun.connection import FuchsianConnection
from fuchsia_heun.monodromy import (
    LoopPath,
    ProximityError,
    default_basepoint,
    fan_loop,
    infinity_loop,
    integrate_fundamental,
    monodromy_rep,
)

_RNG = np.random.default_rng(2009)
CONNECTIONS = [random_connection(_RNG, n_points=3) for _ in range(20)]


def _default_margin(points, target, basepoint):
    """Detour margin fan_loop uses when none is given.

    The circle around the target has radius a quarter of its distance to
    the nearest other point (at most half the distance to the basepoint);
    runs keep a margin of an eighth of the smallest point separation, at
    most half that radius and at most 0.25.
    """
    def gap(p):
        return min(abs(q - p) for q in points if q != p)

    radius = min(gap(target) / 4.0, abs(basepoint - target) / 2.0)
    return min(min(gap(p) for p in points) / 8.0, radius / 2.0, 0.25)


@pytest.mark.parametrize("c", CONNECTIONS)
def test_fan_loop_winds_once_around_its_target_only(c):
    pts = list(c.points)
    b = default_basepoint(pts)
    for p in pts:
        loop = fan_loop(pts, p)
        margin = _default_margin(pts, p, b)
        for o in pts:
            if o == p:
                assert loop.winding_number(o) == 1
            else:
                assert loop.winding_number(o) == 0
                assert loop.min_distance(o) >= (1.0 - 1e-9) * margin


@pytest.mark.parametrize("c", CONNECTIONS)
def test_infinity_loop_winds_once_around_every_point(c):
    loop = infinity_loop(list(c.points))
    for p in c.points:
        assert loop.winding_number(p) == 1


# ------------------------------------------------------------ monodromy_rep

def _segment_field(seg):
    """t -> (z(t), z'(t)) on one segment, t in [0, 1]."""
    if seg[0] == "line":
        _, z0, z1 = seg
        return lambda t: (z0 + t * (z1 - z0), z1 - z0)
    _, center, radius, th0, dth = seg

    def field(t):
        e = cmath.exp(1j * (th0 + t * dth))
        return center + radius * e, 1j * radius * dth * e
    return field


def _scipy_transport(c, loop):
    """Every segment of ``loop``, the retraced run included, by DOP853."""
    y = np.eye(2, dtype=complex).ravel()
    for seg in loop.segments:
        field = _segment_field(seg)

        def rhs(t, y):
            z, dz = field(t)
            A = sum(R / (z - p) for p, R in zip(c.points, c.residues))
            return dz * (A @ y.reshape(2, 2)).ravel()
        y = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853",
                      rtol=1e-12, atol=1e-14).y[:, -1]
    return y.reshape(2, 2)


def _eig_error(M, A):
    """Eigenvalues of M against exp(2 pi i eig A): the gap and max |lambda|."""
    expected = np.exp(2j * math.pi * np.linalg.eigvals(A))
    got = np.linalg.eigvals(M)
    gap = min(max(abs(got[0] - expected[0]), abs(got[1] - expected[1])),
              max(abs(got[0] - expected[1]), abs(got[1] - expected[0])))
    return gap, max(abs(expected))


def _eig_gap(M, A):
    gap, lam_max = _eig_error(M, A)
    return gap / lam_max


# Measured on these connections: fan matrices agree with DOP853 to 3.4e-10,
# finite eigenvalues to 1.4e-11 and determinants to 1.7e-10, all relative.
# m_infinity's eigenvalues are off by up to 3.6e-7 relative (connection 8):
# the product of three far-from-normal fan matrices amplifies the error of
# their runs, while the same product of the DOP853 matrices is off by
# 1.8e-10.
SCIPY_TOL = 1e-7
EIG_TOL = 1e-8
M_INFINITY_EIG_TOL = 1e-6
DET_TOL = 1e-8


@pytest.mark.parametrize("c", CONNECTIONS)
def test_monodromy_rep_matches_scipy_and_local_exponents(c):
    rep = monodromy_rep(c)
    for p in c.points:
        M = rep.matrix_at(p)
        ref = _scipy_transport(c, fan_loop(list(c.points), p))
        assert np.linalg.norm(M - ref) <= SCIPY_TOL * np.linalg.norm(ref)
        assert _eig_gap(M, c.residue_at(p)) <= EIG_TOL
    assert _eig_gap(rep.m_infinity, c.a_infinity()) <= M_INFINITY_EIG_TOL
    traces = [np.trace(c.residue_at(p)) for p in rep.points]
    traces.append(np.trace(c.a_infinity()))
    for res, tr in zip(rep.det_residuals, traces):
        assert res <= DET_TOL * abs(cmath.exp(2j * math.pi * tr))


@pytest.mark.parametrize("c", CONNECTIONS[:5])
def test_fan_loop_matrix_is_conjugate_to_its_circle(c):
    # P^-1 C P: the eigenvalues are those of the circle's own transport,
    # based at the point where the run meets it
    pts = list(c.points)
    for p in pts:
        loop = fan_loop(pts, p)
        circle = loop.segments[len(loop.segments) // 2]
        start = circle[1] + circle[2] * cmath.exp(1j * circle[3])
        C = integrate_fundamental(c, LoopPath(start, (circle,), p))
        M = integrate_fundamental(c, loop)
        lam_M = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
        lam_C = sorted(np.linalg.eigvals(C), key=lambda z: (z.real, z.imag))
        assert np.allclose(lam_M, lam_C, rtol=1e-12, atol=0)


def test_integrated_return_leg_agrees_with_the_conjugate():
    c = CONNECTIONS[0]
    loop = fan_loop(list(c.points), c.points[0])
    # a run split in two halves is no longer the first leg reversed
    back = list(loop.segments[len(loop.segments) // 2 + 1:])
    _, z0, z1 = back[-1]
    mid = (z0 + z1) / 2
    split = back[:-1] + [("line", z0, mid), ("line", mid, z1)]
    head = loop.segments[:len(loop.segments) // 2 + 1]
    path = LoopPath(loop.basepoint, head + tuple(split), loop.target)
    direct = integrate_fundamental(c, path)
    conj = integrate_fundamental(c, loop)
    assert np.linalg.norm(direct - conj) <= SCIPY_TOL * np.linalg.norm(conj)


def test_path_starting_on_a_pole_is_a_proximity_error():
    c = CONNECTIONS[0]
    p = c.points[0]
    path = LoopPath(p, (("arc", p + 0.5, 0.5, math.pi, 2.0 * math.pi),), p)
    with pytest.raises(ProximityError):
        integrate_fundamental(c, path)


# Input 39 of seed 34 of the benchmark's monodromy_loops workload.  Its
# largest monodromy eigenvalue is 4.04e4, at infinity.  Inverting the ordered
# product directly put that eigenvalue 1.5e-4 off, a rounding floor that no
# step tolerance lowers; the product of the inverses puts it 7.7e-6 off.
SEED34_POINTS = (-2.157903183410754 + 1.383099504501578j,
                 -1.9877591431245683 + 0.514044313795877j,
                 2.1840551204216707 - 1.386426263591931j)
SEED34_RESIDUES = (
    ((-0.38798880178132256 + 0.08760278774274122j,
      0.4409698540711837 - 0.2642136688884682j),
     (-0.45885978733068744 + 0.1777433882335001j,
      -0.025998705396806376 + 0.3060966772342526j)),
    ((0.10881496131130819 + 0.48784114937996836j,
      0.2778692968690244 - 0.2569944938525631j),
     (-0.31417730042232705 - 0.4237780103382114j,
      0.2608480653924542 - 0.4095752969612648j)),
    ((-0.09723759737727744 + 0.36338754081059177j,
      0.4804560411473445 - 0.2531768916003888j),
     (-0.06355677787649161 - 0.26251317242990235j,
      -0.45383412398957756 - 0.06557171263696626j)))


def test_bench_seed_34_eigenvalues_at_infinity():
    c = FuchsianConnection(list(SEED34_POINTS),
                           [np.array(r) for r in SEED34_RESIDUES])
    rep = monodromy_rep(c, tol=1e-10)
    mats = [rep.matrix_at(p) for p in c.points] + [rep.m_infinity]
    residues = list(c.residues) + [c.a_infinity()]
    errors = [_eig_error(M, A) for M, A in zip(mats, residues)]
    lam_max = max(lam for _, lam in errors)
    assert 3e4 < lam_max < 5e4
    for gap, _ in errors:
        assert gap <= 1e-4 and gap <= 1e-8 * lam_max

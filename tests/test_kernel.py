"""The DP45 segment propagator against closed-form transports.

One pole: dY/dz = A/(z - p) Y is solved by exp(A log((z1 - p)/(z0 - p)))
along a line and by exp(i dth A) along an arc around p.  Companion form:
the Euler equation x^2 y'' + a x y' + b y = 0 has the solutions x^rho,
rho^2 + (a - 1) rho + b = 0, so its transport is W(x1) W(x0)^-1 with
W = [[x^rho1, x^rho2], [rho1 x^(rho1-1), rho2 x^(rho2-1)]] continued along
the segment.

Errors are measured as the step controller bounds them, against
1 + ||Y||: a transport that shrinks the state, such as a clockwise turn
with |exp(-2 pi i rho)| = 0.004, is accurate to the tolerance in absolute
terms only (5.9e-9 relative to ||Y|| = 0.006, 3.4e-11 absolute, at
seed 1 of the Euler arcs).
"""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import rand_complex, random_diagonalisable
from fuchsia_heun._kernel import StepUnderflow, propagate_segment

STEP_TOL = 1e-10
ORACLE_TOL = 1e-9


def _propagate(kind, g, model, Y0):
    y = propagate_segment(kind, g, model, Y0.ravel(), STEP_TOL)
    return np.array(y, dtype=complex).reshape(2, 2)


def _rel(X, ref):
    return np.linalg.norm(X - ref) / (1.0 + np.linalg.norm(ref))


def _one_pole(rng):
    A = random_diagonalisable(rng, scale=1.0)
    p = rand_complex(rng)
    Y0 = random_diagonalisable(rng, scale=1.0) + np.eye(2)
    return A, p, [(p, tuple(A.ravel()))], Y0


@pytest.mark.parametrize("seed", range(6))
def test_line_past_one_pole(seed):
    rng = np.random.default_rng([seed, 45])
    A, p, model, Y0 = _one_pole(rng)
    # the run turns by at most 2 rad about p, so it stays clear of it
    phi = rng.uniform(-math.pi, math.pi)
    z0 = p + rng.uniform(0.5, 2.0) * cmath.exp(1j * phi)
    z1 = p + rng.uniform(0.5, 2.0) * cmath.exp(1j * (phi + rng.uniform(-2, 2)))
    exact = expm(A * cmath.log((z1 - p) / (z0 - p))) @ Y0
    assert _rel(_propagate(0, (z0, z1), model, Y0), exact) <= ORACLE_TOL


@pytest.mark.parametrize("seed, dth",
                         enumerate([2 * math.pi, -2 * math.pi, 1.3, -0.4]))
def test_arc_around_one_pole(seed, dth):
    rng = np.random.default_rng([seed, 47])
    A, p, model, Y0 = _one_pole(rng)
    g = (p, rng.uniform(0.2, 1.5), rng.uniform(-math.pi, math.pi), dth)
    exact = expm(1j * dth * A) @ Y0
    assert _rel(_propagate(1, g, model, Y0), exact) <= ORACLE_TOL


def _euler(rng):
    """Model of x^2 y'' + a x y' + b y = 0 and its exponents rho1, rho2."""
    while True:
        r1, r2 = rand_complex(rng), rand_complex(rng)
        if abs(r1 - r2) > 0.1:
            break
    a, b = 1.0 - (r1 + r2), r1 * r2
    # p1 = a/x, p0 = b/x^2, coefficients constant term first
    return (r1, r2), ((b,), (0, 0, 1), (a,), (0, 1))


def _wronskian(rhos, log_x):
    return np.array([[cmath.exp(r * log_x) for r in rhos],
                     [r * cmath.exp((r - 1) * log_x) for r in rhos]])


def _euler_transport(rhos, log0, log1):
    return _wronskian(rhos, log1) @ np.linalg.inv(_wronskian(rhos, log0))


@pytest.mark.parametrize("seed", range(6))
def test_euler_equation_along_a_line(seed):
    rng = np.random.default_rng([seed, 46])
    rhos, model = _euler(rng)
    phi = rng.uniform(-math.pi, math.pi)
    z0 = rng.uniform(0.5, 2.0) * cmath.exp(1j * phi)
    z1 = rng.uniform(0.5, 2.0) * cmath.exp(1j * (phi + rng.uniform(-2, 2)))
    log0 = cmath.log(z0)
    exact = _euler_transport(rhos, log0, log0 + cmath.log(z1 / z0))
    assert _rel(_propagate(2, (z0, z1), model, np.eye(2)), exact) <= ORACLE_TOL


@pytest.mark.parametrize("seed, dth",
                         enumerate([2 * math.pi, -2 * math.pi, 2.5]))
def test_euler_equation_around_the_origin(seed, dth):
    rng = np.random.default_rng([seed, 48])
    rhos, model = _euler(rng)
    radius, th0 = rng.uniform(0.3, 2.0), rng.uniform(-math.pi, math.pi)
    log0 = math.log(radius) + 1j * th0
    exact = _euler_transport(rhos, log0, log0 + 1j * dth)
    Y0 = random_diagonalisable(rng) + np.eye(2)
    got = _propagate(3, (0j, radius, th0, dth), model, Y0)
    assert _rel(got, exact @ Y0) <= ORACLE_TOL


def test_segment_through_the_pole_underflows():
    model = [(0j, (0.3, 0.1, -0.2, 0.4j))]
    with pytest.raises(StepUnderflow):
        propagate_segment(0, (-1 + 0j, 1 + 0j), model, (1, 0, 0, 1), STEP_TOL)

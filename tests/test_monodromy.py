"""Loop geometry of the fan and infinity loops."""

import numpy as np
import pytest

from conftest import random_connection
from fuchsia_heun.monodromy import default_basepoint, fan_loop, infinity_loop

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

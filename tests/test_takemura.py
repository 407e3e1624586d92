"""Takemura's inclusion between the polynomial and apparent q-sets."""

import numpy as np
import pytest

from conftest import dist_to_int, multiset_gap, rand_complex
from fuchsia_heun.frobenius import is_apparent
from fuchsia_heun.takemura import (
    MATCH_TOL,
    HypothesisViolationError,
    InclusionFailureError,
    inclusion_check,
    takemura_parameters,
)

GRID = [(m, n) for m in range(1, 5) for n in range(1, 5)]


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

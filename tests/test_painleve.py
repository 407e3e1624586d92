"""The merged forms of the sixth-Painleve deformation family at lambda = t."""

import pytest

from fuchsia_heun.painleve import (
    IsomonodromicData,
    SpecialCaseError,
    ThetaData,
    constant_solution_case,
    heun_from_theta,
    hypergeometric_reduction_case,
    special_case_flags,
)

T = 0.3 + 0.4j
POINTS = (0.6 - 0.5j, -0.7 + 0.3j, 1.8 + 0.9j, 0.2 - 1.1j)  # clear of {0, 1, t}
TH0, TH1, THT = 0.23 + 0.11j, -0.37 + 0.05j, 0.41 - 0.2j

# kappa1 = 0, i.e. thetainf = theta0 + theta1 + thetat
CONSTANT = ThetaData(TH0, TH1, THT, TH0 + TH1 + THT)
# thetat = 0 with kappa1 != 0
HYPER = ThetaData(TH0, TH1, 0.0, 0.62 - 0.3j)
# both loci at once
BOTH = ThetaData(TH0, TH1, 0.0, TH0 + TH1)


def _gap(ode, ref) -> float:
    return max(abs(ode.p1(x) - ref.p1(x)) + abs(ode.p0(x) - ref.p0(x))
               for x in POINTS)


def _gaps(th, mu, ref):
    return [_gap(heun_from_theta(IsomonodromicData(th, T, T + eta, mu)), ref)
            for eta in (1e-4, 1e-6)]


def test_family_tends_to_constant_solution_case():
    coarse, fine = _gaps(CONSTANT, 0.0, constant_solution_case(CONSTANT, T))
    assert 0.0 < coarse < 10 * 1e-4
    assert fine < 2e-2 * coarse  # the gap shrinks like eta


@pytest.mark.parametrize("mu", [0.0, 0.2 + 0.1j, -1.3 + 0.7j])
def test_family_tends_to_hypergeometric_reduction_case(mu):
    ref = hypergeometric_reduction_case(HYPER, T, mu)
    coarse, fine = _gaps(HYPER, mu, ref)
    assert 0.0 < coarse < 10 * (1.0 + abs(mu)) * 1e-4
    assert fine < 2e-2 * coarse


def test_hypergeometric_reduction_case_has_three_singular_points():
    pts = hypergeometric_reduction_case(HYPER, T).singular_points()
    assert len(pts) == 2
    assert abs(pts[0]) < 1e-12 and abs(pts[1] - 1.0) < 1e-12


def test_constant_function_solves_constant_solution_case():
    # y = 1 has y' = y'' = 0, so the residual is p0 alone
    ode = constant_solution_case(CONSTANT, T)
    assert all(ode.p0(x) == 0 for x in POINTS)
    # the family itself admits y = 1 anywhere on kappa1 = 0, mu = 0
    for lam in (0.9 - 0.2j, 2.2 + 0.3j):
        ode = heun_from_theta(IsomonodromicData(CONSTANT, T, lam, 0.0))
        assert max(abs(ode.p0(x)) for x in POINTS) < 1e-14


def test_merged_forms_refuse_data_off_their_locus():
    with pytest.raises(ValueError):
        constant_solution_case(HYPER, T)
    with pytest.raises(ValueError):
        hypergeometric_reduction_case(CONSTANT, T)


def test_family_refuses_lambda_at_t():
    with pytest.raises(SpecialCaseError):
        heun_from_theta(IsomonodromicData(CONSTANT, T, T, 0.0))


@pytest.mark.parametrize("th, mu, constant, hyper", [
    (CONSTANT, 0.0, True, False),
    (CONSTANT, 0.2 + 0.1j, False, False),
    (HYPER, 0.0, False, True),
    (HYPER, 0.2 + 0.1j, False, True),
    (BOTH, 0.0, True, True),
    (BOTH, 0.2 + 0.1j, False, True),
])
def test_special_case_flags_on_and_off_the_loci(th, mu, constant, hyper):
    flags = special_case_flags(IsomonodromicData(th, T, T, mu))
    assert flags == {"constant_solution": constant,
                     "hypergeometric_reduction": hyper}
    off = special_case_flags(IsomonodromicData(th, T, T + 1e-3, mu))
    assert off == {"constant_solution": False,
                   "hypergeometric_reduction": False}

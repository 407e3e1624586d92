"""Self-test of the oracle checks: each accepts a correct result computed by
the package and rejects the same result deliberately perturbed.

    python3 bench/selftest.py

Run from the repository root; exits non-zero if any checker fails to tell
the two apart.  Takes a few seconds (one continued-fraction root search).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from fuchsia_heun import (  # noqa: E402
    conditions, connection, erdelyi, frobenius, monodromy, painleve, spectra,
    takemura)
from fuchsia_heun.connection import FuchsianConnection, HeunParameters  # noqa: E402
from fuchsia_heun.erdelyi import ExpansionVariant  # noqa: E402


def cases(rng):
    """Yield (name, tolerance, error of the true result, error perturbed)."""
    m = 2
    h = HeunParameters(q=0.0, **inputs.terminating_params(
        rng, m, inputs.qset_modulus(rng)))
    frob, cf = frobenius.apparent_q_set(h), erdelyi.accessory_roots_cf(h)
    mat = erdelyi.terminating_accessory_set(h)
    yield ("qset_agreement", checks.QSET_TOL,
           checks.qset_agreement(frob, cf, mat, m),
           checks.qset_agreement(frob, [cf[0] + 1e-6] + cf[1:], mat, m))

    spec = spectra.nabla_v_spectrum(h.a, 3).values
    yield ("spectrum", checks.SPECTRUM_TOL, checks.spectrum_error(spec, 3),
           checks.spectrum_error((spec[0] + 1e-6,) + spec[1:], 3))

    rep = takemura.inclusion_check(h.a, h.gamma, h.delta, 3, 2)
    far = tuple((u, v, d + 1e-3) for u, v, d in rep.matches)
    yield ("inclusion", checks.INCLUSION_TOL,
           checks.inclusion_error(rep.verdict, rep.matches, 3, 2),
           checks.inclusion_error(rep.verdict, far, 3, 2))

    a = inputs.series_modulus(rng)
    hs = HeunParameters(q=0.0, **inputs.terminating_params(rng, 2, a))
    q = erdelyi.terminating_accessory_set(hs)[0]
    pts = inputs.variant_points(rng, a, 2)
    vals = [erdelyi.sum_expansion(hs, q, x, 40, ExpansionVariant.MERGE_AT_1)
            for x in pts]
    ls = frobenius.local_series(HeunParameters(
        a=hs.a, q=q, alpha=hs.alpha, beta=hs.beta, gamma=hs.gamma,
        delta=hs.delta, epsilon=hs.epsilon), 0.0, 0.0, 200)
    refs = [ls(x) for x in pts]
    yield ("series ratio", checks.SERIES_TOL, checks.ratio_spread(vals, refs),
           checks.ratio_spread([vals[0] * (1 + 1e-6)] + vals[1:], refs))

    s2 = erdelyi.sum_expansion(hs, q, pts[0], 80, ExpansionVariant.MERGE_AT_1)
    yield ("series depth", checks.SERIES_TOL, checks.depth_gap(vals[0], s2),
           checks.depth_gap(vals[0] + 1e-6, s2))

    d = inputs.random_connection(rng)
    c = FuchsianConnection(d["points"], d["residues"])
    mr = monodromy.monodromy_rep(c, tol=1e-10)
    residues = list(c.residues) + [c.a_infinity()]
    mats = [mr.matrix_at(p) for p in c.points] + [mr.m_infinity]
    bent = [mats[0] + 1e-3 * np.diag([1.0, -1.0])] + mats[1:]
    yield ("monodromy eigenvalues", checks.MONODROMY_EIG_TOL,
           checks.monodromy_eig_error(residues, mats),
           checks.monodromy_eig_error(residues, bent))

    report = json.loads(conditions.analyze_connection(c).to_json())
    expected = checks.expected_degeneracy(d["points"], d["residues"])
    yield ("degeneracy", 0.0, checks.degeneracy_error(report, expected),
           checks.degeneracy_error(dict(report, was=[["inf", 1]]), expected))

    _, scheme = connection.to_scalar(c)
    n_sing = len(scheme.columns) + len(scheme.apparent_points)
    yield ("fuchs relation", checks.FUCHS_TOL,
           checks.fuchs_error(scheme.exponent_sum(), n_sing),
           checks.fuchs_error(scheme.exponent_sum() + 1e-6, n_sing))

    seed = connection.riemann_scheme(connection.hypergeometric_system(
        *inputs.hypergeometric_exponents(rng)))
    sums = [s.exponent_sum() for s in connection.kummer_orbit(seed)]
    yield ("kummer orbit", checks.ORBIT_TOL,
           checks.orbit_error(sums, seed.exponent_sum()),
           checks.orbit_error(sums[:-1], seed.exponent_sum()))

    t = inputs.takemura_case(rng, 2, 1)
    tq = frobenius.polynomial_q_set(takemura.takemura_parameters(
        t["a"], t["gamma"], t["delta"], 2, 1))[0]
    corr = takemura.monodromy_corroboration(t["a"], t["gamma"], t["delta"],
                                            2, 1, tq)
    yield ("corroboration", checks.CORROBORATION_TOL,
           checks.corroboration_error(corr),
           checks.corroboration_error(dict(corr, m_a_identity_residual=1e-3)))

    da = inputs.qset_modulus(rng)
    dom = erdelyi.ConvergenceDomain(da)
    payload = {"k": dom.k, "points": [[p.real, p.imag] for p in
                                      dom.boundary_points("omega0", 64)]}
    moved = dict(payload, points=[[1.001 * payload["points"][0][0],
                                   payload["points"][0][1]]] + payload["points"][1:])
    yield ("domain boundary", checks.DOMAIN_TOL,
           checks.domain_error(payload, da, 64),
           checks.domain_error(moved, da, 64))

    th = inputs.theta_case(rng)
    pv = json.loads(painleve.matching_report(painleve.ThetaData(*th)).to_json())
    yield ("pvi verdicts", 0.0, checks.pvi_error(pv, th),
           checks.pvi_error(dict(pv, was_type=not pv["was_type"]), th))


def main() -> int:
    bad = 0
    for name, tol, good, perturbed in cases(np.random.default_rng(20092871)):
        ok = good <= tol < perturbed
        bad += not ok
        print("%-22s %s  true %.3g  perturbed %.3g  tol %g"
              % (name, "ok  " if ok else "FAIL", good, perturbed, tol))
    print("all checkers reject perturbed results" if not bad
          else "%d checker(s) failed" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Numerical toolkit for rank-2 Fuchsian connections of Heun class.

Four regular singular points (0, 1, a, infinity), 2x2 residue matrices,
and the scalar second-order picture side by side: degeneration detection,
accessory-parameter spectra by three independent constructions, merged
hypergeometric expansions with convergence-domain tests, numerical
monodromy along explicit loops, Takemura's q-set inclusion carried by
the Taylor-shift identity T_a S = S T_p, and the sixth Painleve
correspondence.

The path integrator is pure Python; ``backend()`` reports its name.
Importing the package loads numpy but not scipy: only the MERGE_AT_0
expansion prefactor in ``erdelyi`` imports it (log-Gamma).
"""

from .conditions import (
    DegeneracyReport,
    analyze_connection,
    check_lr,
    check_was,
    check_wgrm,
    integer_hyperplanes,
    predict_reducible,
)
from .connection import (
    INFINITY,
    CompanionSystem,
    FuchsianConnection,
    HeunParameters,
    RiemannScheme,
    ScalarODE,
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
from .erdelyi import (
    ConvergenceDomain,
    ExpansionVariant,
    accessory_roots_cf,
    conformal_ratio,
    continued_fraction,
    domain_membership,
    klm,
    sum_expansion,
    terminating_accessory_set,
)
from .frobenius import (
    LocalSeries,
    apparent_q_set,
    is_apparent,
    local_series,
    polynomial_q_set,
)
from .hypergeom import (
    HypergeometricParameters,
    classify_special,
    d_gauss_2f1,
    gauss_2f1,
)
from .monodromy import (
    LoopPath,
    MonodromyRep,
    fan_loop,
    infinity_loop,
    integrate_fundamental,
    invariant_line,
    monodromy_rep,
)
from .painleve import (
    IsomonodromicData,
    ThetaData,
    hamiltonian,
    heun_from_theta,
    matching_report,
    special_case_flags,
)
from .spectra import (
    eigensection_coeffs,
    filtration_shift,
    nabla_v_matrix,
    nabla_v_spectrum,
)
from .takemura import InclusionReport, inclusion_check

__version__ = "0.1.0"


def backend() -> str:
    """Name of the path propagator backend; always ``"python"``."""
    return "python"


__all__ = [
    "DegeneracyReport", "analyze_connection", "check_lr", "check_was",
    "check_wgrm", "integer_hyperplanes", "predict_reducible",
    "INFINITY", "CompanionSystem", "FuchsianConnection", "HeunParameters",
    "RiemannScheme", "ScalarODE", "companion_system",
    "connection_with_heun_exponents", "heun_scalar", "hypergeometric_system",
    "kummer_orbit", "kummer_twist", "mobius_pushforward", "riemann_scheme",
    "to_scalar",
    "ConvergenceDomain", "ExpansionVariant", "accessory_roots_cf",
    "conformal_ratio", "continued_fraction", "domain_membership", "klm",
    "sum_expansion", "terminating_accessory_set",
    "LocalSeries", "apparent_q_set", "is_apparent", "local_series",
    "polynomial_q_set",
    "HypergeometricParameters", "classify_special", "d_gauss_2f1",
    "gauss_2f1",
    "LoopPath", "MonodromyRep", "fan_loop", "infinity_loop",
    "integrate_fundamental", "invariant_line", "monodromy_rep",
    "IsomonodromicData", "ThetaData", "hamiltonian", "heun_from_theta",
    "matching_report", "special_case_flags",
    "eigensection_coeffs", "filtration_shift", "nabla_v_matrix",
    "nabla_v_spectrum",
    "InclusionReport", "inclusion_check",
    "backend",
    "__version__",
]

"""Command-line front door: parse inputs, dispatch, emit JSON or CSV.

Every command is a thin adapter over the library modules; no numerics live
here.  Output is deterministic: JSON maps are emitted with sorted keys and
floats use Python's shortest round-trip representation.

Exit status: 0 on success, 2 when a verified claim fails numerically
(spectrum deviation, three-way q-set mismatch, inclusion failure, path too
close to a pole, an expansion whose tail estimate exceeds ``--tol``), 1 on
usage errors (unknown command, malformed input, non-positive tolerances,
hypothesis violations).

Complex numbers are written ``re,im`` on the command line (a leading minus
is fine, also after a space: ``--a -2,1``) and as two-element ``[re, im]``
arrays in JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import conditions, erdelyi, frobenius, monodromy, painleve, spectra, takemura
from .connection import FuchsianConnection, HeunParameters
from .erdelyi import ConvergenceDomain, ExpansionVariant, conformal_ratio
from .numkit import PreconditionError
from .painleve import IsomonodromicData, ThetaData
from .spectra import SpectrumViolationError

_GRID_COMMANDS = ("expand", "domain")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class UsageError(ValueError):
    """Bad invocation: wrong flags, malformed files, broken preconditions."""


class ClaimViolation(RuntimeError):
    """A numerically verified claim failed at the requested tolerance.

    ``artifact``, when given, is the command's output, written as usual
    before the failure is reported.
    """

    def __init__(self, message: str, artifact: Optional[str] = None):
        super().__init__(message)
        self.artifact = artifact


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"expected a complex number as re,im, got {text!r}")


def _c2(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


@dataclass
class RunConfig:
    """One resolved invocation: a single command plus its parameters."""

    command: str
    params: dict = field(default_factory=dict)
    tol: Optional[float] = None
    depth: Optional[int] = None
    fmt: str = "json"
    out: Optional[str] = None

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise UsageError("tolerance must be positive")
        if self.depth is not None and self.depth < 1:
            raise UsageError("depth must be a positive integer")
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.fmt == "csv" and self.command not in _GRID_COMMANDS:
            raise UsageError("csv output is only available for grid "
                             "commands (expand, domain)")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_connection(path: str) -> FuchsianConnection:
    try:
        with open(path) as fh:
            return FuchsianConnection.from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read connection file {path}: {exc}") from exc


def _heun(params: dict, q=None) -> HeunParameters:
    """Assemble Heun parameters; beta defaults to the exponent-sum value."""
    needed = ("a", "gamma", "delta", "epsilon")
    missing = [k for k in needed if params.get(k) is None]
    if missing or params.get("alpha") is None:
        raise UsageError("missing flags: " +
                         ", ".join("--" + k for k in missing + ["alpha"]
                                   if params.get(k) is None))
    alpha = params["alpha"]
    beta = params.get("beta")
    if beta is None:
        beta = params["gamma"] + params["delta"] + params["epsilon"] - alpha - 1.0
    return HeunParameters(a=params["a"], q=0.0 if q is None else q,
                          alpha=alpha, beta=beta, gamma=params["gamma"],
                          delta=params["delta"], epsilon=params["epsilon"])


# ---------------------------------------------------------------------------
# command handlers: each returns the text artifact


def _cmd_analyze(cfg: RunConfig) -> str:
    path = cfg.params.get("input")
    if not path:
        raise UsageError("analyze requires --input CONNECTION_JSON")
    c = _load_connection(path)
    h = None
    if cfg.params.get("a") is not None and cfg.params.get("alpha") is not None:
        h = _heun(cfg.params, q=cfg.params.get("q"))
    tol = cfg.tol if cfg.tol is not None else 1e-8
    return conditions.analyze_connection(c, h, tol=tol).to_json()


def _cmd_spectrum(cfg: RunConfig) -> str:
    a, m = cfg.params.get("a"), cfg.params.get("m")
    if a is None or m is None:
        raise UsageError("spectrum requires --a and --m")
    nv = spectra.nabla_v_matrix(a, m)
    tol = cfg.tol if cfg.tol is not None else spectra.SPECTRUM_TOL
    try:
        check = spectra.nabla_v_spectrum(a, m, tol=tol)
    except SpectrumViolationError as exc:
        raise ClaimViolation(str(exc)) from exc
    entries = np.asarray(nv.entries)
    payload = {
        "a": _c2(a),
        "m": m,
        "matrix": [[_c2(entries[i, j]) for j in range(m + 1)]
                   for i in range(m + 1)],
        "eigenvalues": [_c2(v) for v in check.values],
        "deviations": list(check.deviations),
        "eigenvectors": [
            [_c2(c_) for c_ in spectra.eigensection_coeffs(a, m, k)]
            for k in range(m + 1)
        ],
    }
    return _dump(payload)


def _cmd_qset(cfg: RunConfig) -> str:
    h = _heun(cfg.params)
    depth = cfg.depth if cfg.depth is not None else erdelyi.CF_DEFAULT_DEPTH
    tol = cfg.tol if cfg.tol is not None else 1e-7
    frob = frobenius.apparent_q_set(h)
    cf = erdelyi.accessory_roots_cf(h, depth=depth)
    mat = erdelyi.terminating_accessory_set(h)
    payload = {
        "apparent_frobenius": [_c2(v) for v in frob],
        "continued_fraction": [_c2(v) for v in cf],
        "matrix_eigenvalues": [_c2(v) for v in mat],
    }
    text = _dump(payload)
    sets = [list(map(complex, s)) for s in (frob, cf, mat)]
    for i in range(3):
        for j in range(i + 1, 3):
            u, v = sets[i], sets[j]
            if len(u) != len(v):
                raise ClaimViolation(
                    f"q-set sizes differ: {len(u)} vs {len(v)}\n{text}")
            worst = max(abs(x - y) for x, y in
                        zip(sorted(u, key=lambda z: (z.real, z.imag)),
                            sorted(v, key=lambda z: (z.real, z.imag))))
            if worst > tol:
                raise ClaimViolation(
                    f"q-set methods disagree by {worst:.3e} > {tol}\n{text}")
    return text


def _cmd_expand(cfg: RunConfig) -> str:
    q = cfg.params.get("q")
    if q is None:
        raise UsageError("expand requires --q")
    h = _heun(cfg.params, q=q)
    xs = cfg.params.get("x") or []
    if not xs:
        raise UsageError("expand requires at least one --x point")
    n_terms = cfg.depth if cfg.depth is not None else 64
    variant = ExpansionVariant(cfg.params.get("variant", "merge_at_0"))
    tol = cfg.tol if cfg.tol is not None else 1e-8
    rows = []
    for x in xs:
        try:
            val = erdelyi.sum_expansion(h, q, x, n_terms, variant)
            prev = erdelyi.sum_expansion(h, q, x, max(n_terms - 5, 0), variant)
            tail = abs(val - prev)
            # written so that a nan tail also counts as unconverged
            ok = tail <= tol * max(1.0, abs(val))
            rows.append([x.real, x.imag, val.real, val.imag, tail,
                         "ok" if ok else "unconverged"])
        except (erdelyi.DomainError, erdelyi.DegenerateDomainError,
                PreconditionError) as exc:
            # PreconditionError: a point the 2F1 evaluator does not reach
            rows.append([x.real, x.imag, "", "", "", f"outside: {exc}"])
        except ArithmeticError as exc:
            rows.append([x.real, x.imag, "", "", "",
                         f"{type(exc).__name__}: {exc}"])
    header = ["x_re", "x_im", "value_re", "value_im", "tail_estimate",
              "status"]
    if cfg.fmt == "csv":
        text = _csv_text(header, rows)
    else:
        text = _dump({"header": header, "rows": rows})
    bad = sum(r[5] == "unconverged" for r in rows)
    if bad:
        raise ClaimViolation(f"{bad} point(s) unconverged: tail estimate "
                             f"above {tol} relative to the value", text)
    return text


def _cmd_domain(cfg: RunConfig) -> str:
    a = cfg.params.get("a")
    if a is None:
        raise UsageError("domain requires --a")
    which = cfg.params.get("which", "omega0")
    samples = cfg.params.get("samples", 256)
    if samples < 1:
        raise UsageError("--samples must be a positive integer")
    dom = ConvergenceDomain(a)
    pts = dom.boundary_points(which, samples)
    rows = [[p.real, p.imag, conformal_ratio(p)] for p in pts]
    if cfg.fmt == "csv":
        return _csv_text(["x_re", "x_im", "ratio"], rows)
    return _dump({"a": _c2(a), "k": dom.k, "which": which,
                  "points": [[r[0], r[1]] for r in rows],
                  "ratios": [r[2] for r in rows]})


def _cmd_monodromy(cfg: RunConfig) -> str:
    path = cfg.params.get("input")
    if not path:
        raise UsageError("monodromy requires --input CONNECTION_JSON")
    c = _load_connection(path)
    tol = cfg.tol if cfg.tol is not None else monodromy.DEFAULT_TOL
    rep = monodromy.monodromy_rep(c, basepoint=cfg.params.get("basepoint"),
                                  tol=tol)
    return rep.to_json()


def _cmd_takemura(cfg: RunConfig) -> str:
    for k in ("a", "gamma", "delta", "m", "n"):
        if cfg.params.get(k) is None:
            raise UsageError(f"takemura requires --{k}")
    tol = cfg.tol if cfg.tol is not None else takemura.MATCH_TOL
    try:
        report = takemura.inclusion_check(cfg.params["a"],
                                          cfg.params["gamma"],
                                          cfg.params["delta"],
                                          cfg.params["m"], cfg.params["n"],
                                          tol=tol)
    except takemura.HypothesisViolationError as exc:
        raise UsageError(str(exc)) from exc
    except takemura.InclusionFailureError as exc:
        raise ClaimViolation(f"{exc}\n{exc.report.to_json()}") from exc
    return report.to_json()


def _cmd_pvi(cfg: RunConfig) -> str:
    vals = [cfg.params.get(k) for k in ("theta0", "theta1", "thetat",
                                        "thetainf")]
    if any(v is None for v in vals):
        raise UsageError("pvi requires --theta0 --theta1 --thetat --thetainf")
    th = ThetaData(*vals)
    tol = cfg.tol if cfg.tol is not None else 1e-8
    payload = json.loads(painleve.matching_report(th, tol=tol).to_json())
    t, lam, mu = (cfg.params.get(k) for k in ("t", "lam", "mu"))
    if t is not None and lam is not None and mu is not None:
        d = IsomonodromicData(theta=th, t=t, lam=lam, mu=mu)
        payload["hamiltonian"] = _c2(painleve.hamiltonian(d))
        payload["special_cases"] = painleve.special_case_flags(d)
    return _dump(payload)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "qset": _cmd_qset,
    "expand": _cmd_expand,
    "domain": _cmd_domain,
    "monodromy": _cmd_monodromy,
    "takemura": _cmd_takemura,
    "pvi": _cmd_pvi,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; emits the artifact and returns the exit code."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise UsageError(f"unknown command {cfg.command!r}")
    try:
        text = handler(cfg)
    except ClaimViolation as exc:
        if exc.artifact is not None:
            _emit(exc.artifact, cfg.out)
        raise
    _emit(text, cfg.out)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="fuchsia-heun", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def common(sp):
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", dest="fmt", default=None,
                        choices=("json", "csv"))

    def heun_flags(sp, with_q: bool):
        sp.add_argument("--a", type=_complex_arg, default=None)
        sp.add_argument("--alpha", type=_complex_arg, default=None)
        sp.add_argument("--beta", type=_complex_arg, default=None,
                        help="defaults to gamma+delta+epsilon-alpha-1")
        sp.add_argument("--gamma", type=_complex_arg, default=None)
        sp.add_argument("--delta", type=_complex_arg, default=None)
        sp.add_argument("--epsilon", type=_complex_arg, default=None)
        if with_q:
            sp.add_argument("--q", type=_complex_arg, default=None)

    sp = sub.add_parser("analyze", help="degeneration report for a connection")
    sp.add_argument("--input", required=True)
    heun_flags(sp, with_q=True)
    common(sp)

    sp = sub.add_parser("spectrum", help="shift-operator matrix and eigenpairs")
    sp.add_argument("--a", type=_complex_arg, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = sub.add_parser("qset", help="terminating accessory sets, three ways")
    heun_flags(sp, with_q=False)
    sp.add_argument("--depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("expand", help="series values over explicit points")
    heun_flags(sp, with_q=True)
    sp.add_argument("--x", type=_complex_arg, action="append",
                    help="evaluation point; repeatable")
    sp.add_argument("--variant", default="merge_at_0",
                    choices=[v.value for v in ExpansionVariant])
    sp.add_argument("--depth", type=int, default=None,
                    help="series truncation (default 64)")
    common(sp)

    sp = sub.add_parser("domain", help="convergence-domain boundary points")
    sp.add_argument("--a", type=_complex_arg, required=True)
    sp.add_argument("--which", default="omega0",
                    choices=("omega0", "omega1", "omega1_minus"))
    sp.add_argument("--samples", type=int, default=256)
    common(sp)

    sp = sub.add_parser("monodromy", help="loop matrices for a connection")
    sp.add_argument("--input", required=True)
    sp.add_argument("--basepoint", type=_complex_arg, default=None)
    common(sp)

    sp = sub.add_parser("takemura", help="q-set inclusion report")
    sp.add_argument("--a", type=_complex_arg, required=True)
    sp.add_argument("--gamma", type=_complex_arg, required=True)
    sp.add_argument("--delta", type=_complex_arg, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("pvi", help="integer-condition matching report")
    for name in ("theta0", "theta1", "thetat", "thetainf"):
        sp.add_argument("--" + name, type=_complex_arg, required=True)
    sp.add_argument("--t", type=_complex_arg, default=None)
    sp.add_argument("--lam", type=_complex_arg, default=None)
    sp.add_argument("--mu", type=_complex_arg, default=None)
    common(sp)

    return p


def _join_negative_values(argv):
    """Glue ``--flag -2,1`` into ``--flag=-2,1``.

    argparse takes a token that starts with '-' and is not a plain number
    for an option, so a negative complex value after a space would be
    refused.
    """
    out = []
    for tok in argv:
        if (out and _NEGATIVE_VALUE.match(tok) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    if not ns.command:
        raise UsageError("no command given")
    skip = {"command", "tol", "out", "fmt", "depth"}
    params = {k: v for k, v in vars(ns).items() if k not in skip}
    fmt = ns.fmt
    if fmt is None:
        fmt = "csv" if ns.command in _GRID_COMMANDS else "json"
    return RunConfig(command=ns.command, params=params, tol=ns.tol,
                     depth=getattr(ns, "depth", None), fmt=fmt, out=ns.out)


def main(argv=None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        ns = _build_parser().parse_args(_join_negative_values(argv))
        return run(_config_from_args(ns))
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ClaimViolation as exc:
        sys.stderr.write(f"claim violated: {exc}\n")
        return 2
    except (PreconditionError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"claim violated: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

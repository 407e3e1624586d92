"""One workload run in a fresh interpreter: set up, measure, check.

Started by ``run.py``; not meant to be run by hand.  The worker imports the
package, builds the seeded inputs (including any accessory roots they
need) and prints ``READY``.  In ``setup`` mode it stops there.  Otherwise
it runs operations one at a time in a closed loop until their summed
latency reaches the run length, checks every result against its oracle
after the timer stops, and prints one JSON line of raw results.  In
``trace`` mode the first half of the run is untraced and the second half
traced, so the difference between the halves is the tracing overhead.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

import fuchsia_heun  # noqa: E402
from fuchsia_heun import (  # noqa: E402
    conditions, connection, erdelyi, frobenius, monodromy, spectra, takemura)
from fuchsia_heun.connection import FuchsianConnection, HeunParameters  # noqa: E402
from fuchsia_heun.erdelyi import ExpansionVariant  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
TERMINATING_DEPTH = 40     # series depth for the terminating sets
GENERIC_DEPTH = 64         # the expand command's default depth
LOCAL_SERIES_TERMS = 200   # Frobenius oracle; |x| <= 0.85 of its radius
MONODROMY_TOL = 1e-10
CLI_TIMEOUT_S = 60
# Distinct inputs per seed, about as many as a run consumes at this commit
# (series cycles through its list several times), so that a run averages
# over many parameter sets.
QSET_INPUTS = 32
SERIES_CYCLES = 11         # of six ops
MONODROMY_INPUTS = 48
CLI_CYCLES = 4             # of the eight commands


def _heun(d: dict) -> HeunParameters:
    return HeunParameters(q=0.0, **d)


def _frobenius_refs(h, q, points) -> list:
    """Frobenius solution at 0 (exponent 0) with accessory value q."""
    ls = frobenius.local_series(dataclasses.replace(h, q=q), 0.0, 0.0,
                                LOCAL_SERIES_TERMS)
    return [ls(x) for x in points]


def generic_root(h) -> complex:
    """A continued-fraction root near the smallest eigenvalue of the
    truncated tridiagonal operator, found by a small box search."""
    n = 40
    T = np.zeros((n, n), dtype=complex)
    for m in range(n):
        r = erdelyi.klm(h, m)
        T[m, m] = r.L + h.q
        if m + 1 < n:
            T[m, m + 1] = r.M
        if m >= 1:
            T[m, m - 1] = r.K
    lams = np.linalg.eigvals(T)
    lam = lams[np.argmin(np.abs(lams))]
    found = erdelyi.accessory_roots_cf(
        h, box=(lam.real - 0.5, lam.real + 0.5, lam.imag - 0.5, lam.imag + 0.5))
    if not found:
        raise RuntimeError("no continued-fraction root near %r" % (lam,))
    return min(found, key=lambda r: abs(r - lam))


class QsetSweep:
    """One op: the three q-set methods plus inclusion and spectrum checks."""

    def __init__(self, rng):
        self.inputs = []
        for i in range(QSET_INPUTS):
            m = 1 + i % 4
            d = inputs.terminating_params(rng, m, inputs.qset_modulus(rng))
            self.inputs.append({"h": _heun(d), "m": m,
                                "n": int(rng.integers(1, 5))})

    def run(self, inp):
        h, m, n = inp["h"], inp["m"], inp["n"]
        return (frobenius.apparent_q_set(h), erdelyi.accessory_roots_cf(h),
                erdelyi.terminating_accessory_set(h),
                takemura.inclusion_check(h.a, h.gamma, h.delta, m, n),
                spectra.nabla_v_spectrum(h.a, m))

    def check(self, inp, out):
        frob, cf, mat, incl, spec = out
        m, n = inp["m"], inp["n"]
        return [("qset_agreement", checks.qset_agreement(frob, cf, mat, m),
                 checks.QSET_TOL),
                ("inclusion", checks.inclusion_error(incl.verdict, incl.matches,
                                                     m, n),
                 checks.INCLUSION_TOL),
                ("spectrum", checks.spectrum_error(spec.values, m),
                 checks.SPECTRUM_TOL)]

    @staticmethod
    def roots(out) -> int:
        return len(out[1])


class SeriesEval:
    """One op: one parameter set's expansions summed at a few points.

    A cycle is four terminating sets (m = 1..4, all three variants at depth
    40) and two ops on the seed's generic set (MERGE_AT_0 at depth 64 on
    Omega0 points, q a continued-fraction root found during set-up).  The
    generic set's Omega1 points, where forward recursion follows the
    dominant solution, are summed by ``probe`` after the timed phase.
    """

    def __init__(self, rng):
        g = inputs.generic_params(rng)
        hg = _heun(g)
        qg = generic_root(hg)
        self.inputs = []
        for _ in range(SERIES_CYCLES):
            for kind in (1, 2, 0, 3, 4, 0):
                if kind == 0:
                    self.inputs.append({
                        "h": hg, "q": qg, "depth": GENERIC_DEPTH,
                        "points": {ExpansionVariant.MERGE_AT_0:
                                   inputs.omega0_points(rng, g["a"], 3)}})
                    continue
                a = inputs.series_modulus(rng)
                h = _heun(inputs.terminating_params(rng, kind, a))
                qs = erdelyi.terminating_accessory_set(h)
                self.inputs.append({
                    "h": h, "q": qs[int(rng.integers(len(qs)))],
                    "depth": TERMINATING_DEPTH,
                    "points": {
                        ExpansionVariant.MERGE_AT_0: inputs.omega0_points(rng, a, 3),
                        ExpansionVariant.MERGE_AT_1: inputs.variant_points(rng, a, 2),
                        ExpansionVariant.MERGE_AT_INFINITY:
                            inputs.variant_points(rng, a, 2)}})
        self.probe_input = {"h": hg, "q": qg,
                            "points": inputs.omega1_points(rng, g["a"], 2)}

    def run(self, inp):
        h, q, n = inp["h"], inp["q"], inp["depth"]
        return {v: [erdelyi.sum_expansion(h, q, x, n, v) for x in pts]
                for v, pts in inp["points"].items()}

    def check(self, inp, out):
        h, q = inp["h"], inp["q"]
        worst = 0.0
        for v, pts in inp["points"].items():
            worst = max(worst, checks.ratio_spread(
                out[v], _frobenius_refs(h, q, pts)))
        return [("series_err", worst, checks.SERIES_TOL)]

    def probe(self) -> dict:
        """Depth 64 against depth 128 at the generic set's Omega1 points."""
        p = self.probe_input
        errs = [checks.depth_gap(
            erdelyi.sum_expansion(p["h"], p["q"], x, GENERIC_DEPTH),
            erdelyi.sum_expansion(p["h"], p["q"], x, 2 * GENERIC_DEPTH))
            for x in p["points"]]
        return {"points": len(errs), "err_max": max(errs),
                "failed": sum(not e <= checks.SERIES_TOL for e in errs)}


class MonodromyLoops:
    """One op: monodromy, degeneracy report, scalar reduction, Kummer orbit
    and one monodromy corroboration of the q-set inclusion."""

    def __init__(self, rng):
        self.inputs = []
        for i in range(MONODROMY_INPUTS):
            d = inputs.random_connection(rng)
            m, n = ((1, 1), (2, 1), (2, 2), (3, 1))[i % 4]
            case = inputs.takemura_case(rng, m, n)
            base = takemura.takemura_parameters(case["a"], case["gamma"],
                                                case["delta"], m, n)
            qs = frobenius.polynomial_q_set(base)
            case["q"] = qs[int(rng.integers(len(qs)))]
            self.inputs.append({
                "connection": FuchsianConnection(d["points"], d["residues"]),
                "expected": checks.expected_degeneracy(d["points"], d["residues"]),
                "hyper": inputs.hypergeometric_exponents(rng),
                "takemura": case})

    def run(self, inp):
        c = inp["connection"]
        rep = monodromy.monodromy_rep(c, tol=MONODROMY_TOL)
        report = conditions.analyze_connection(c)
        _, scheme = connection.to_scalar(c)
        seed = connection.riemann_scheme(
            connection.hypergeometric_system(*inp["hyper"]))
        orbit = connection.kummer_orbit(seed)
        t = inp["takemura"]
        corr = takemura.monodromy_corroboration(t["a"], t["gamma"], t["delta"],
                                                t["m"], t["n"], t["q"])
        return rep, report, scheme, seed, orbit, corr

    def check(self, inp, out):
        rep, report, scheme, seed, orbit, corr = out
        c = inp["connection"]
        residues = list(c.residues) + [c.a_infinity()]
        mats = [rep.matrix_at(p) for p in c.points] + [rep.m_infinity]
        n_sing = len(scheme.columns) + len(scheme.apparent_points)
        return [
            ("monodromy_eig_err", checks.monodromy_eig_error(residues, mats),
             checks.MONODROMY_EIG_TOL),
            ("loop_residual", rep.loop_residual, checks.LOOP_RESIDUAL_TOL),
            ("degeneracy", checks.degeneracy_error(
                json.loads(report.to_json()), inp["expected"]), 0.0),
            ("fuchs", checks.fuchs_error(scheme.exponent_sum(), n_sing),
             checks.FUCHS_TOL),
            ("orbit", checks.orbit_error([s.exponent_sum() for s in orbit],
                                         seed.exponent_sum()), checks.ORBIT_TOL),
            ("corroboration", checks.corroboration_error(corr),
             checks.CORROBORATION_TOL)]


def _cz(z) -> str:
    z = complex(z)
    return "%r,%r" % (z.real, z.imag)


def _heun_flags(h) -> list:
    return ["--%s=%s" % (k, _cz(getattr(h, k)))
            for k in ("a", "alpha", "gamma", "delta", "epsilon")]


class CliCold:
    """One op: one fresh ``python -m fuchsia_heun.cli`` process.

    The eight commands run in a fixed order, each on its own seeded small
    input; every value is passed as ``--flag=value``.
    """

    def __init__(self, rng, workdir: Path):
        self.inputs = []
        self.times = {c: [] for c in inputs.CLI_COMMANDS}
        for cycle in range(CLI_CYCLES):
            for cmd in inputs.CLI_COMMANDS:
                self.inputs.append(self._make(rng, cmd, workdir, cycle))

    @staticmethod
    def _make(rng, cmd, workdir, cycle) -> dict:
        inp = {"cmd": cmd}
        if cmd in ("analyze", "monodromy"):
            d = inputs.random_connection(rng)
            c = FuchsianConnection(d["points"], d["residues"])
            path = workdir / f"{cmd}-{cycle}.json"
            path.write_text(c.to_json())
            inp.update(connection=c, expected=checks.expected_degeneracy(
                d["points"], d["residues"]))
            flags = ["--input=%s" % path]
            if cmd == "monodromy":
                flags.append("--tol=%r" % MONODROMY_TOL)
        elif cmd == "spectrum":
            inp.update(a=inputs.qset_modulus(rng), m=int(rng.integers(1, 5)))
            flags = ["--a=" + _cz(inp["a"]), "--m=%d" % inp["m"]]
        elif cmd == "qset":
            inp["m"] = int(rng.integers(1, 4))
            h = _heun(inputs.terminating_params(rng, inp["m"],
                                                inputs.qset_modulus(rng)))
            flags = _heun_flags(h)
        elif cmd == "expand":
            a = inputs.series_modulus(rng)
            h = _heun(inputs.terminating_params(rng, int(rng.integers(1, 5)), a))
            qs = erdelyi.terminating_accessory_set(h)
            q = qs[int(rng.integers(len(qs)))]
            pts = inputs.omega0_points(rng, a, 3)
            inp.update(h=h, q=q, points=pts)
            flags = (_heun_flags(h) + ["--q=" + _cz(q), "--format=json"]
                     + ["--x=" + _cz(x) for x in pts])
        elif cmd == "domain":
            inp.update(a=inputs.qset_modulus(rng), samples=64)
            flags = ["--a=" + _cz(inp["a"]), "--which=omega0",
                     "--samples=64", "--format=json"]
        elif cmd == "takemura":
            m, n = (int(v) for v in rng.integers(1, 5, size=2))
            case = inputs.takemura_case(rng, m, n)
            inp.update(m=m, n=n)
            flags = ["--a=" + _cz(case["a"]), "--gamma=" + _cz(case["gamma"]),
                     "--delta=" + _cz(case["delta"]), "--m=%d" % m, "--n=%d" % n]
        else:  # pvi
            inp["theta"] = inputs.theta_case(rng)
            flags = ["--%s=%s" % (k, _cz(v)) for k, v in
                     zip(("theta0", "theta1", "thetat", "thetainf"), inp["theta"])]
        inp["argv"] = [sys.executable, "-m", "fuchsia_heun.cli", cmd] + flags
        return inp

    def run(self, inp):
        t0 = time.perf_counter()
        proc = subprocess.run(inp["argv"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        self.times[inp["cmd"]].append(time.perf_counter() - t0)
        return proc

    def check(self, inp, proc):
        if proc.returncode != 0:
            return [("cli_exit", checks.INF, 0.0)]
        payload = json.loads(proc.stdout)
        cmd = inp["cmd"]
        if cmd == "analyze":
            return [("degeneracy",
                     checks.degeneracy_error(payload, inp["expected"]), 0.0)]
        if cmd == "spectrum":
            vals = [complex(*v) for v in payload["eigenvalues"]]
            return [("spectrum", checks.spectrum_error(vals, inp["m"]),
                     checks.SPECTRUM_TOL)]
        if cmd == "qset":
            sets = [[complex(*v) for v in payload[k]] for k in
                    ("apparent_frobenius", "continued_fraction",
                     "matrix_eigenvalues")]
            return [("qset_agreement", checks.qset_agreement(*sets, inp["m"]),
                     checks.QSET_TOL)]
        if cmd == "expand":
            rows = payload["rows"]
            if len(rows) != len(inp["points"]) or any(r[5] != "ok" for r in rows):
                return [("series_err", checks.INF, checks.SERIES_TOL)]
            vals = [complex(r[2], r[3]) for r in rows]
            tail = max(r[4] / max(1.0, abs(v)) for r, v in zip(rows, vals))
            refs = _frobenius_refs(inp["h"], inp["q"], inp["points"])
            return [("series_err", max(tail, checks.ratio_spread(vals, refs)),
                     checks.SERIES_TOL)]
        if cmd == "domain":
            return [("domain", checks.domain_error(payload, inp["a"],
                                                   inp["samples"]),
                     checks.DOMAIN_TOL)]
        if cmd == "monodromy":
            c = inp["connection"]
            pts = [complex(*p) for p in payload["points"]]
            order = [min(range(len(c.points)), key=lambda i: abs(c.points[i] - p))
                     for p in pts]
            mats = [np.array([[complex(*e) for e in row] for row in m])
                    for m in payload["matrices"] + [payload["m_infinity"]]]
            residues = [c.residues[i] for i in order] + [c.a_infinity()]
            return [("monodromy_eig_err",
                     checks.monodromy_eig_error(residues, mats),
                     checks.MONODROMY_EIG_TOL),
                    ("loop_residual", payload["loop_residual"],
                     checks.LOOP_RESIDUAL_TOL)]
        if cmd == "takemura":
            return [("inclusion", checks.inclusion_error(
                payload["verdict"], payload["matches"], inp["m"], inp["n"]),
                checks.INCLUSION_TOL)]
        return [("pvi", checks.pvi_error(payload, inp["theta"]), 0.0)]


def measure(work, seconds: float, tracer=None) -> dict:
    """Closed loop over the workload's inputs, in order, cycling.

    Ops run one at a time until their summed wall time reaches
    ``seconds``.  A calibration loop runs between consecutive ops, and each
    op's time is also reported at reference speed (see calib.py).
    """
    lat, norm, ok, errors, failures, roots = [], [], [], {}, [], 0
    busy, i = 0.0, 0
    before = calib.loop_s()
    while busy < seconds:
        inp = work.inputs[i % len(work.inputs)]
        i += 1
        exc = out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = work.run(inp)
            else:
                with tracer.span("op"):
                    out = work.run(inp)
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            exc = e
        dt = time.perf_counter() - t0
        after = calib.loop_s()
        busy += dt
        lat.append(dt)
        norm.append(dt * calib.scale(before, after))
        before = after
        if exc is not None:
            ok.append(False)
            failures.append("%s: %s" % (type(exc).__name__, exc))
            continue
        passed = True
        for key, err, tol in work.check(inp, out):
            errors[key] = max(errors.get(key, 0.0), err)
            if not err <= tol:
                passed = False
                failures.append("%s %.3g > %g" % (key, err, tol))
        ok.append(passed)
        if hasattr(work, "roots"):
            roots += work.roots(out)
    return {"lat": lat, "norm": norm, "ok": ok, "errors": errors,
            "failures": failures[:5], "n_failures": len(failures),
            "roots": roots}


def environment() -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "backend": fuchsia_heun.backend(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "PYTHONHASHSEED")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    rng = np.random.default_rng([args.seed, 20092871])
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.workload == "qset_sweep":
            work = QsetSweep(rng)
        elif args.workload == "series_eval":
            work = SeriesEval(rng)
        elif args.workload == "monodromy_loops":
            work = MonodromyLoops(rng)
        else:
            work = CliCold(rng, Path(tmp))
        print("READY %r" % calib.loop_s(), flush=True)
        if args.mode == "setup":
            return 0

        result = {"env": environment()}
        if args.mode == "run":
            result["run"] = measure(work, args.seconds)
        else:
            result["untraced"] = measure(work, args.seconds / 2)
            tr = tracing.Tracer()
            tr.install()
            try:
                result["run"] = measure(work, args.seconds / 2, tr)
            finally:
                tr.uninstall()
            spans_file = OUT_DIR / f"spans-{args.workload}.json.gz"
            tr.write(spans_file)
            stats = tr.stats()
            result["trace"] = {"stats": stats, "absent": tr.absent,
                               "spans": len(tr.spans),
                               "spans_file": str(spans_file.relative_to(ROOT))}
        if hasattr(work, "probe"):
            result["probe"] = work.probe()
        if hasattr(work, "times"):
            result["cli_times"] = work.times
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        else:
            usage = resource.getrusage(resource.RUSAGE_SELF)
        result["rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

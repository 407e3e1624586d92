"""In-memory span tracer that wraps the package's public functions.

Each hook replaces a function at every name its callers look it up by:
the module attribute of every loaded ``fuchsia_heun`` module bound to the
same object, or the class attribute for a method.  Calls between modules
are therefore caught too.  A span records name, start, end, parent index
and whether the call raised; spans stay in memory until ``write``.

A hook whose target no longer exists is reported as absent rather than
failing, so the benchmark survives the removal of a module or helper.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time

PACKAGE = "fuchsia_heun"

# (metric prefix, module, attribute path); ``sum_expansion`` spans are named
# by the expansion variant they evaluate.
HOOKS = (
    ("erdelyi.accessory_roots_cf", "erdelyi", "accessory_roots_cf"),
    ("erdelyi.continued_fraction", "erdelyi", "continued_fraction"),
    ("erdelyi.terminating_accessory_set", "erdelyi", "terminating_accessory_set"),
    ("erdelyi.recurrence_sequence", "erdelyi", "recurrence_sequence"),
    ("erdelyi.sum_expansion", "erdelyi", "sum_expansion"),
    ("hypergeom.gauss_2f1", "hypergeom", "gauss_2f1"),
    ("hypergeom.d_gauss_2f1", "hypergeom", "d_gauss_2f1"),
    ("frobenius.apparent_q_set", "frobenius", "apparent_q_set"),
    ("spectra.nabla_v_spectrum", "spectra", "nabla_v_spectrum"),
    ("takemura.inclusion_check", "takemura", "inclusion_check"),
    ("takemura.monodromy_corroboration", "takemura", "monodromy_corroboration"),
    ("monodromy.monodromy_rep", "monodromy", "monodromy_rep"),
    ("monodromy.integrate_fundamental", "monodromy", "integrate_fundamental"),
    ("monodromy.fan_loop", "monodromy", "fan_loop"),
    ("kernel.propagate_segment", "_kernel", "propagate_segment"),
    ("connection.kummer_orbit", "connection", "kummer_orbit"),
    ("connection.RiemannScheme.normalized", "connection", "RiemannScheme.normalized"),
    ("connection.to_scalar", "connection", "to_scalar"),
    ("connection.riemann_scheme", "connection", "riemann_scheme"),
    ("conditions.analyze_connection", "conditions", "analyze_connection"),
    ("numkit.eig_small", "numkit", "eig_small"),
)
VARIANTS = ("merge_at_0", "merge_at_infinity", "merge_at_1")
CALLS_ONLY = ("connection.RiemannScheme.normalized",)
STATS = ("calls", "s", "self_s", "failed")


def span_names() -> list:
    """Every span name a hook can produce, in hook order."""
    out = []
    for name, _, _ in HOOKS:
        if name == "erdelyi.sum_expansion":
            out.extend(f"{name}.{v}" for v in VARIANTS)
        else:
            out.append(name)
    return out


class Tracer:
    """Records nested spans for the hooked functions while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, failed]
        self._stack = []
        self._undo = []
        self.absent = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one operation."""
        idx = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, failed) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = int(failed)
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        if name == "erdelyi.sum_expansion":
            def label(args, kwargs):
                v = kwargs.get("v", args[4] if len(args) > 4 else None)
                return f"{name}.{getattr(v, 'value', VARIANTS[0])}"
        else:
            def label(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:    # only calls made inside an op span
                return fn(*args, **kwargs)
            idx = tracer._open(label(args, kwargs))
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                tracer._close(idx, failed)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, mod_name, path in HOOKS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, target)
            if outer:        # a method: patch the class attribute only
                self._patch(owner, attr, target, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, target, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def stats(self) -> dict:
        """calls, total seconds, self seconds and failures per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, failed) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "failed": 0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[i]
            s["failed"] += failed
        return out

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent, failed] (gzip JSON)."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed"],
                       "absent": self.absent, "spans": self.spans}, fh)

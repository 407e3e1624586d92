"""Complex polynomials, rational functions and small dense eigenproblems.

Everything downstream (residue matrices, scalar reductions, tridiagonal
accessory operators) runs through the few primitives collected here.  Values
are immutable after construction and all operations are pure functions, so
the module is safe to use from any number of threads.

A "CMat" in this package is simply a dense 2-D complex ``numpy.ndarray``;
helpers below validate shapes where the contracts require it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: default relative tolerance for linear-algebra residuals
LINALG_TOL = 1e-10
#: default relative tolerance for polynomial root residuals
ROOT_TOL = 1e-8
#: tolerance used when cancelling near-common roots in CRat reduction
GCD_MATCH_TOL = 1e-9
#: relative tolerance for integer detection (shared by several modules)
INTEGER_TOL = 1e-8


class DegenerateInputError(ValueError):
    """An input is degenerate for the requested operation (e.g. zero poly)."""


class ShapeError(ValueError):
    """Matrix/vector shape does not meet the operation's contract."""


class PreconditionError(ValueError):
    """A stated precondition fails (message names the offending input)."""


class ArithmeticGuard(ArithmeticError):
    """Numerical postcondition violated (signals a bug, not bad user input)."""


def near_integer(v: complex, tol: float = INTEGER_TOL) -> Optional[int]:
    """Return round(v) when v is within relative tolerance of an integer.

    The test is |v - round(Re v)| <= tol * max(1, |v|), which also rejects
    values with a non-negligible imaginary part.
    """
    n = round(complex(v).real)
    scale = abs(v)
    if abs(v - n) <= (tol * scale if scale > 1.0 else tol):
        return n
    return None


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPoly:
    """Dense complex polynomial, coefficients ascending by degree.

    The zero polynomial is stored as ``(0j,)``.  Construction trims trailing
    (near-)zero leading coefficients relative to the largest coefficient so
    the invariant "leading coefficient nonzero unless zero polynomial" holds.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable[complex]):
        cs = [complex(c) for c in coeffs]
        if not cs:
            cs = [0j]
        scale = max(abs(c) for c in cs)
        if scale == 0.0:
            cs = [0j]
        else:
            while len(cs) > 1 and abs(cs[-1]) <= 1e-14 * scale:
                cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "CPoly") -> "CPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return CPoly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "CPoly":
        return CPoly([-c for c in self.coeffs])

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + (-other)

    def __mul__(self, other) -> "CPoly":
        if isinstance(other, (int, float, complex)):
            return CPoly([c * other for c in self.coeffs])
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "CPoly":
        if self.degree == 0:
            return CPoly([0j])
        return CPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "CPoly":
        p = cls([leading])
        for r in roots:
            p = p * cls([-r, 1.0])
        return p

    @classmethod
    def one(cls) -> "CPoly":
        return cls([1.0])


def poly_roots(p: CPoly, tol: float = ROOT_TOL) -> list:
    """All roots of p with multiplicity, via companion-matrix eigenvalues.

    Each returned root r satisfies |p(r)| <= tol * sum_k |c_k| |r|^k (the
    coefficient scale evaluated at the root).  Raises DegenerateInputError for
    the zero polynomial; a constant nonzero polynomial has no roots.
    """
    if p.is_zero:
        raise DegenerateInputError("zero polynomial has no well-defined roots")
    if p.degree == 0:
        return []
    c = np.asarray(p.coeffs, dtype=complex)
    n = p.degree
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    roots = [lam for lam, _ in eig_small(comp)]
    for r in roots:
        pointwise_scale = sum(abs(ck) * max(1.0, abs(r)) ** k for k, ck in enumerate(p.coeffs))
        if abs(p(r)) > tol * pointwise_scale:
            raise ArithmeticGuard(
                f"root residual {abs(p(r)):.3e} exceeds {tol:.1e} * scale at root {r}"
            )
    return sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CRat:
    """Quotient of two CPoly, stored reduced.

    Reduction cancels near-common roots (approximate GCD by root matching at
    GCD_MATCH_TOL); exact cancellation is not needed because all downstream
    uses evaluate pointwise.
    """

    num: CPoly
    den: CPoly

    def __init__(self, num: CPoly, den: CPoly):
        if den.is_zero:
            raise DegenerateInputError("CRat denominator is the zero polynomial")
        if not num.is_zero and num.degree >= 1 and den.degree >= 1:
            num, den = _cancel_common_roots(num, den)
        # normalize: monic denominator
        lead = den.coeffs[-1]
        num = num * (1.0 / lead)
        den = den * (1.0 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, x: complex) -> complex:
        return self.num(x) / self.den(x)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def poles(self, tol: float = ROOT_TOL) -> list:
        return [] if self.den.degree == 0 else poly_roots(self.den, tol)

    def zeros(self, tol: float = ROOT_TOL) -> list:
        if self.num.is_zero or self.num.degree == 0:
            return []
        return poly_roots(self.num, tol)

    def __add__(self, other) -> "CRat":
        other = _as_crat(other)
        return CRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other) -> "CRat":
        other = _as_crat(other)
        return CRat(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "CRat":
        return CRat(-self.num, self.den)

    def __mul__(self, other) -> "CRat":
        other = _as_crat(other)
        return CRat(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "CRat":
        other = _as_crat(other)
        if other.num.is_zero:
            raise DegenerateInputError("division by the zero rational function")
        return CRat(self.num * other.den, self.den * other.num)

    def derivative(self) -> "CRat":
        return CRat(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    @classmethod
    def zero(cls) -> "CRat":
        return cls(CPoly([0.0]), CPoly([1.0]))

    @classmethod
    def from_const(cls, c: complex) -> "CRat":
        return cls(CPoly([c]), CPoly([1.0]))


def _as_crat(v) -> CRat:
    if isinstance(v, CRat):
        return v
    if isinstance(v, CPoly):
        return CRat(v, CPoly.one())
    return CRat.from_const(complex(v))


def _cancel_common_roots(num: CPoly, den: CPoly):
    rn = poly_roots(num)
    rd = poly_roots(den)
    scale = max(max((abs(r) for r in rn + rd), default=1.0), 1.0)
    used = [False] * len(rn)
    keep_den = []
    for dr in rd:
        hit = None
        for i, nr in enumerate(rn):
            if not used[i] and abs(nr - dr) <= GCD_MATCH_TOL * scale:
                hit = i
                break
        if hit is None:
            keep_den.append(dr)
        else:
            used[hit] = True
    keep_num = [r for i, r in enumerate(rn) if not used[i]]
    if len(keep_den) == len(rd):  # nothing cancelled
        return num, den
    new_num = CPoly.from_roots(keep_num, num.coeffs[-1])
    new_den = CPoly.from_roots(keep_den, den.coeffs[-1])
    return new_num, new_den


# ---------------------------------------------------------------------------
# small dense eigenproblems
# ---------------------------------------------------------------------------

def as_cmat(entries, rows: int = None, cols: int = None) -> np.ndarray:
    """Validate/convert to a dense complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape != (rows, cols):
        raise ShapeError(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


def _eig2(m: np.ndarray):
    """Closed-form eigenpairs of a 2x2 via the numerically stable branch."""
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    tr, det = a + d, a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    # pick the sign that avoids cancellation in tr +/- disc
    if abs(tr + disc) >= abs(tr - disc):
        l1 = (tr + disc) / 2.0
    else:
        l1 = (tr - disc) / 2.0
    l2 = det / l1 if l1 != 0 else tr - l1
    pairs = []
    for lam in (l1, l2):
        # null vector of (m - lam I): take the larger row's cross
        r1 = (a - lam, b)
        r2 = (c, d - lam)
        row = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
        if max(abs(row[0]), abs(row[1])) == 0.0:
            v = np.array([1.0, 0.0], dtype=complex)
        else:
            v = np.array([-row[1], row[0]], dtype=complex)
            v = v / np.linalg.norm(v)
        pairs.append((lam, v))
    return pairs


def eig_small(M: np.ndarray, residual_tol: float = LINALG_TOL) -> list:
    """Eigenpairs of a square matrix of size <= 64.

    Returns a list of (eigenvalue, unit eigenvector) with residual
    ||M v - lam v|| <= residual_tol * ||M|| (after LAPACK balancing; for 2x2
    a closed-form stable branch is used).  Raises ShapeError on non-square
    input and ArithmeticGuard when the residual bound fails.
    """
    M = as_cmat(M)
    n, nc = M.shape
    if n != nc:
        raise ShapeError(f"eig_small needs a square matrix, got {M.shape}")
    if n > 64:
        raise ShapeError("eig_small is restricted to size <= 64")
    norm = np.linalg.norm(M)
    if n == 2:
        pairs = _eig2(M)
    else:
        vals, vecs = np.linalg.eig(M)
        pairs = [(vals[i], vecs[:, i] / np.linalg.norm(vecs[:, i])) for i in range(n)]
    if norm > 0:
        for lam, v in pairs:
            res = np.linalg.norm(M @ v - lam * v)
            if res > max(residual_tol, 50 * np.finfo(float).eps * n) * norm:
                raise ArithmeticGuard(
                    f"eigenpair residual {res:.3e} > {residual_tol:.1e} * ||M||"
                )
    return pairs


def sorted_eigenpairs(M: np.ndarray) -> list:
    """``eig_small``'s pairs, eigenvalue made complex, in the q-set order."""
    return sorted(((complex(lam), v) for lam, v in eig_small(M)),
                  key=lambda p: (round(p[0].real, 10), round(p[0].imag, 10)))


def common_eigenvector(ms: Sequence[np.ndarray], tol: float = LINALG_TOL):
    """A vector that is an eigenvector of every 2x2 matrix in ms, or None.

    Candidates are drawn from the eigenvectors of each matrix; a candidate v
    passes when for every M_i there is lam_i with
    ||M_i v - lam_i v|| <= tol * max(1, ||M_i||).  Returns the first passing
    candidate with the normalization ||v|| = 1 and the largest component made
    real positive; returns None if no candidate passes.
    """
    ms = [as_cmat(m, 2, 2) for m in ms]
    if not ms:
        raise DegenerateInputError("common_eigenvector of an empty collection")
    candidates = []
    for m in ms:
        # candidate vectors only; accept sloppier eigenpairs than the final
        # acceptance test, which re-checks against every matrix at tol
        for _, v in eig_small(m, residual_tol=max(tol, LINALG_TOL)):
            candidates.append(v)
    for v in candidates:
        ok = True
        for m in ms:
            w = m @ v
            k = int(np.argmax(np.abs(v)))
            lam = w[k] / v[k]
            if np.linalg.norm(w - lam * v) > tol * max(1.0, np.linalg.norm(m)):
                ok = False
                break
        if ok:
            k = int(np.argmax(np.abs(v)))
            v = v / v[k] * abs(v[k])  # largest component real positive
            return v / np.linalg.norm(v)
    return None


def is_diagonalisable_2x2(M: np.ndarray, tol: float = LINALG_TOL) -> bool:
    """True iff the 2x2 matrix has distinct eigenvalues or is scalar."""
    M = as_cmat(M, 2, 2)
    (l1, _), (l2, _) = eig_small(M)
    scale = max(1.0, float(np.linalg.norm(M)))
    if abs(l1 - l2) > tol * scale:
        return True
    # repeated eigenvalue: diagonalisable only if M is scalar
    return bool(np.linalg.norm(M - l1 * np.eye(2)) <= tol * scale)


def simultaneously_diagonalisable(M: np.ndarray, N: np.ndarray,
                                  tol: float = LINALG_TOL) -> bool:
    """Whether two diagonalisable 2x2 matrices share a full eigenbasis.

    Commuting diagonalisable matrices are simultaneously diagonalisable, so
    the test is ||MN - NM|| <= tol * ||M|| ||N||.  Non-diagonalisable input
    raises PreconditionError naming the offender.  Symmetric in (M, N).
    """
    M = as_cmat(M, 2, 2)
    N = as_cmat(N, 2, 2)
    for name, mat in (("first", M), ("second", N)):
        if not is_diagonalisable_2x2(mat, tol):
            raise PreconditionError(f"{name} matrix is not diagonalisable")
    comm = M @ N - N @ M
    return bool(np.linalg.norm(comm) <= tol * np.linalg.norm(M) * np.linalg.norm(N))

"""Real polynomial arithmetic and certified real-root factorization.

Root candidates are the eigenvalues of the companion matrix, which
LAPACK balances before the QR iteration. Their multiplicity structure
is the numerical one of Zeng (2005, Computing multiple roots of inexact
polynomials): the coarsest clustering of the eigenvalues whose product,
expanded from the cluster centroids, reconstructs the polynomial within
the backward tolerance. A cluster closed under conjugation is a real
root, with the cluster's size as its multiplicity; any other cluster,
with its mirror image, is a quadratic factor of that multiplicity.
Each factor is then polished on the derivative of matching order, so
that multiple roots reach full precision.

What is certified is that backward error: every profile is rebuilt from
its factors and compared coefficientwise with the input, relative to the
coefficient inf-norm. Inputs that no clustering reconstructs within tol
raise IllConditionedError instead of returning a guess.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, ZeroPolyError

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# low-level coefficient helpers (ascending order, plain floats)

def _trim(cs) -> tuple[float, ...]:
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(float(c) for c in cs)


def _horner(cs, x: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deriv(cs) -> tuple[float, ...]:
    if len(cs) <= 1:
        return (0.0,)
    return tuple(i * cs[i] for i in range(1, len(cs)))


def _inf_norm(cs) -> float:
    return max(abs(c) for c in cs)


def _deflate_linear(cs, r: complex) -> tuple[tuple[complex, ...], complex]:
    """Synthetic division by (x - r), r real or complex; returns
    (quotient, remainder)."""
    q = [0.0] * (len(cs) - 1)
    acc = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        q[i] = acc
        acc = cs[i] + r * acc
    return tuple(q), acc


def _taylor(cs, r: complex) -> list[complex]:
    """Coefficients of p(r + t) in powers of t, via repeated synthetic
    division; r may be real or complex."""
    work = list(cs)
    out = []
    for _ in range(len(cs)):
        work, rem = _deflate_linear(work, r)
        out.append(rem)
        if not work:
            break
    return out


def _mul(a, b) -> tuple[float, ...]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


# ---------------------------------------------------------------------------
# Poly

@dataclass(frozen=True)
class Poly:
    """Dense real polynomial with ascending coefficients.

    The highest stored coefficient is nonzero except for the zero
    polynomial, which is stored as (0.0,).
    """

    coeffs: tuple[float, ...]

    @staticmethod
    def from_coeffs(seq) -> "Poly":
        return Poly(_trim(seq))

    @staticmethod
    def from_factors(real_roots, quad_factors=(), leading: float = 1.0) -> "Poly":
        """Build leading * prod (x-r)^m * prod ((x-b)^2+g^2)^m.

        real_roots: iterable of (root, multiplicity);
        quad_factors: iterable of (beta, gamma, multiplicity).
        """
        # each factor is multiplied in with the additions in the order of
        # _mul, so the coefficients are the same floats
        cs = [float(leading)]
        for r, m in real_roots:
            for _ in range(m):
                cs = [a - r * c for a, c in zip([0.0, *cs], [*cs, 0.0])]
        for b, g, m in quad_factors:
            u, v = -2.0 * b, b * b + g * g
            for _ in range(m):
                cs = [
                    a + c * u + e * v
                    for a, c, e in zip([0.0, 0.0, *cs], [0.0, *cs, 0.0], [*cs, 0.0, 0.0])
                ]
        return Poly.from_coeffs(cs)

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ZeroPolyError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        return _horner(self.coeffs, x)

    def derivative(self) -> "Poly":
        return Poly.from_coeffs(_deriv(self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly.from_coeffs(_mul(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


@dataclass(frozen=True)
class RootProfile:
    """Real factorization of a polynomial, certified by its backward error.

    Rebuilding the polynomial from these factors reproduces the input's
    coefficients within the tol of real_root_profile, relative to their
    inf-norm; the multiplicities are the numerical ones at that tol.

    real_roots: ((value, multiplicity), ...) strictly increasing in value;
    quad_factors: ((beta, gamma, multiplicity), ...) with gamma > 0, sorted;
    leading: leading coefficient of the input.
    """

    real_roots: tuple[tuple[float, int], ...]
    quad_factors: tuple[tuple[float, float, int], ...]
    leading: float

    def reconstruct(self) -> Poly:
        return Poly.from_factors(self.real_roots, self.quad_factors, self.leading)


# ---------------------------------------------------------------------------
# root candidates, numerical multiplicity and polish

def _bracketed_newton(cs, dcs, a: float, b: float) -> float:
    """Root of cs in [a, b] assuming a sign change; Newton inside the bracket.

    Stops on an exact zero, or when the Newton point leaves a bracket
    narrower than 4 eps (1 + |x|).
    """
    fa = _horner(cs, a)
    fb = _horner(cs, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    lo, hi = a, b
    flo = fa
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = _horner(cs, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi = x
        # a Newton point inside the bracket is always taken, so the
        # iterate keeps converging once the bracket is at rounding width
        dfx = _horner(dcs, x)
        if dfx != 0.0:
            step = fx / dfx
            xn = x - step
            if lo < xn < hi and abs(step) <= 0.5 * (hi - lo):
                x = xn
                continue
        if hi - lo <= 4.0 * _EPS * (1.0 + abs(x)):
            break
        x = 0.5 * (lo + hi)
    return x


def _polish(cs, r: float, m: int) -> float:
    """Re-polish a multiplicity-m root of cs on the (m-1)-th derivative."""
    d = cs
    for _ in range(m - 1):
        d = _deriv(d)
    dd = _deriv(d)
    delta = 1e-12 * (1.0 + abs(r))
    # cap wide enough to cover the spread of a perturbed m-fold root,
    # which scales like eps**(1/m)
    while delta <= 1e-2 * (1.0 + abs(r)):
        a, b = r - delta, r + delta
        fa, fb = _horner(d, a), _horner(d, b)
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0):
            return _bracketed_newton(d, dd, a, b)
        delta *= 8.0
    return r


def _bairstow_polish(cs, beta: float, gamma: float) -> tuple[float, float]:
    """Newton-polish the quadratic factor (x-beta)^2 + gamma^2 of cs.

    Bairstow's recurrence on x^2 - r x - q: b_i = a_i + r b_{i+1} + q b_{i+2}
    leaves the remainder terms b_1, b_0, and the same recurrence run on b
    gives the c of the Newton system [c_2 c_3; c_1 c_2] (dr, dq) = -(b_1, b_0).
    """
    r = 2.0 * beta
    q = -(beta * beta + gamma * gamma)
    n = len(cs) - 1
    for _ in range(30):
        b = [0.0] * (n + 3)
        c = [0.0] * (n + 3)
        for i in range(n, -1, -1):
            b[i] = cs[i] + r * b[i + 1] + q * b[i + 2]
            c[i] = b[i] + r * c[i + 1] + q * c[i + 2]
        det = c[2] * c[2] - c[1] * c[3]
        if det == 0.0:
            break
        dr = (b[0] * c[3] - b[1] * c[2]) / det
        dq = (b[1] * c[1] - b[0] * c[2]) / det
        r += dr
        q += dq
        if abs(dr) <= 1e-15 * (1.0 + abs(r)) and abs(dq) <= 1e-15 * (1.0 + abs(q)):
            break
    beta = 0.5 * r
    disc = -q - beta * beta
    gamma = math.sqrt(disc) if disc > 0.0 else gamma
    return beta, gamma


def _candidates(cs) -> list[complex]:
    """Companion eigenvalues of cs, with its zero low-order coefficients
    put back as exact 0.0 roots.

    LAPACK returns each complex pair consecutively, positive imaginary
    part first.
    """
    z = next(i for i, c in enumerate(cs) if c != 0.0)
    tail = cs[z:]
    d = len(tail) - 1
    zs = [0j] * z
    if d > 0:
        comp = np.eye(d, k=-1)
        comp[:, -1] = [-c / tail[-1] for c in tail[:-1]]
        zs.extend(complex(w) for w in np.linalg.eigvals(comp))
    return zs


def _clusterings(zs) -> tuple[list[int], list[list[int]]]:
    """Conjugate index of each candidate, and the candidates' partitions
    from finest to coarsest, as one cluster label per candidate.

    Pairs merge in order of increasing |zi - zj| / (1 + max(|zi|, |zj|)),
    each together with its conjugate pair, so every partition is closed
    under conjugation.
    """
    conj = list(range(len(zs)))
    for i, w in enumerate(zs):
        if w.imag > 0.0:
            conj[i], conj[i + 1] = i + 1, i
    pairs = sorted(
        (abs(zi - zj) / (1.0 + max(abs(zi), abs(zj))), i, j)
        for i, zi in enumerate(zs)
        for j, zj in enumerate(zs[i + 1:], i + 1)
    )
    label = list(range(len(zs)))
    out = [label]
    for _, i, j in pairs:
        new = label
        for a, b in ((i, j), (conj[i], conj[j])):
            if new[a] != new[b]:
                new = [new[a] if lb == new[b] else lb for lb in new]
        if new is not label:
            label = new
            out.append(label)
    return conj, out


def _factors(zs, conj, label):
    """Real roots and quadratic factors at the centroids of the clusters.

    A cluster closed under conjugation is a real root; of any other
    cluster and its mirror, the one with the smaller label stands for
    the quadratic factor.
    """
    clusters: dict[int, list[complex]] = {}
    mirror = {}
    for i, lb in enumerate(label):
        clusters.setdefault(lb, []).append(zs[i])
        mirror[lb] = label[conj[i]]
    reals, quads = [], []
    for lb, members in clusters.items():
        c = sum(members) / len(members)
        if mirror[lb] == lb:
            reals.append((c.real, len(members)))
        elif lb < mirror[lb]:
            quads.append((c.real, abs(c.imag), len(members)))
    return reals, quads


def _residual(cs, real_roots, quad_factors) -> float:
    """Coefficient inf-norm of the factors' product minus cs, relative to cs."""
    recon = Poly.from_factors(real_roots, quad_factors, cs[-1]).coeffs
    return max(abs(a - b) for a, b in zip(recon, cs)) / _inf_norm(cs)


def real_root_profile(p: Poly, tol: float = 1e-9) -> RootProfile:
    """Real factorization of p with the coarsest multiplicities tol allows.

    The companion eigenvalues merge into clusters, closest pairs first
    and always with their conjugates; the coarsest clustering whose
    product, expanded from the cluster centroids, reconstructs p within
    tol relative to the coefficient inf-norm fixes the multiplicities.
    Its factors are then polished, and the polished product is held to
    the same bound: IllConditionedError (with the residual attached) is
    raised when it misses p by more than tol.
    """
    if p.is_zero:
        raise ZeroPolyError("cannot factor the zero polynomial")
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    cs = p.coeffs
    zs = _candidates(cs)
    conj, labels = _clusterings(zs)
    # when no clustering passes, the loop ends on the finest one, which
    # the gate below then rejects
    for label in reversed(labels):
        reals, quads = _factors(zs, conj, label)
        if _residual(cs, reals, quads) <= tol:
            break

    real_roots = sorted((_polish(cs, r, m), m) for r, m in reals)
    quad_factors = []
    for beta, gamma, m in quads:
        d = cs
        for _ in range(m - 1):
            d = _deriv(d)
        quad_factors.append((*_bairstow_polish(d, beta, gamma), m))
    quad_factors.sort()

    if any(g <= 0.0 for _, g, _ in quad_factors):
        raise IllConditionedError(1.0, "quadratic factor degenerated to a real pair")
    residual = _residual(cs, real_roots, quad_factors)
    if residual > tol:
        raise IllConditionedError(residual, "reconstruction residual exceeds tolerance")
    return RootProfile(tuple(real_roots), tuple(quad_factors), cs[-1])

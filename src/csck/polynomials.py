"""Real polynomial arithmetic and certified real-root factorization.

Root candidates are the eigenvalues of the companion matrix, which
LAPACK balances before the QR iteration. Their multiplicity structure
is the numerical one of Zeng (2005, Computing multiple roots of inexact
polynomials): the coarsest clustering of the eigenvalues whose product,
expanded from the cluster centroids, reconstructs the polynomial within
the backward tolerance. A cluster closed under conjugation is a real
root, with the cluster's size as its multiplicity; any other cluster,
with its mirror image, is a quadratic factor of that multiplicity.
A zero low-order coefficient is an exact root 0.0, never clustered with
a nonzero eigenvalue, so an H with no such coefficient pays nothing for
the rule. Without it, a simple root e with e^2 / 4 below the tolerance
would merge with 0.0 into a double root at e / 2 that passes the gate.
Each factor is then polished by Newton's method on the derivative of
matching order, where its root is simple, so that multiple roots reach
full precision: a real root from its centroid on the real line, a
quadratic factor (x - beta)^2 + gamma^2 from beta + i gamma.

Most clusterings fail. Before one is expanded, its product is compared
with the polynomial at one point, where coefficients within tol move the
value by at most tol ||p||inf sum |z|^j: a larger gap (beyond rounding)
rules it out, a necessary condition for the gate that never changes the
clustering taken.

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
# Newton converges quadratically from a cluster centroid; the cap only
# bounds steps that keep shrinking |d| by rounding noise
_POLISH_STEPS = 50


# ---------------------------------------------------------------------------
# low-level coefficient helpers (ascending order, plain floats)

def _trim(cs) -> tuple[float, ...]:
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(float(c) for c in cs)


def _horner(cs, x: complex) -> complex:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deriv(cs) -> tuple[float, ...]:
    if len(cs) <= 1:
        return (0.0,)
    return tuple(i * cs[i] for i in range(1, len(cs)))


def _inf_norm(cs) -> float:
    return max(map(abs, cs))


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


def _expand(real_roots, quad_factors, leading: float) -> list[float]:
    """Coefficients of leading * prod (x-r)^m * prod ((x-b)^2+g^2)^m, each
    factor multiplied in with the additions in the order of _mul (so the
    same floats)."""
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
    return cs


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
        return Poly.from_coeffs(_expand(real_roots, quad_factors, leading))

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

def _polish(cs, z, m: int):
    """Newton on the (m-1)-th derivative of cs, where a multiplicity-m
    root is simple, from z (a float for a real root, beta + i gamma for a
    quadratic factor; the arithmetic keeps a real z real).

    A step is taken only while it shrinks |d(z)|, so the polished root
    is never a worse zero of d than its start.
    """
    d = cs
    for _ in range(m - 1):
        d = _deriv(d)
    dd = _deriv(d)
    dz = _horner(d, z)
    for _ in range(_POLISH_STEPS):
        slope = _horner(dd, z)
        if dz == 0.0 or slope == 0.0:
            break
        zn = z - dz / slope
        dn = _horner(d, zn)
        if not abs(dn) < abs(dz):
            break
        z, dz = zn, dn
    return z


def _candidates(cs) -> list[complex]:
    """Companion eigenvalues of cs, with its zero low-order coefficients
    put back as exact 0.0 roots.

    LAPACK returns each complex pair consecutively, positive imaginary
    part first. A companion matrix that is not finite (a subnormal
    leading coefficient) raises IllConditionedError.
    """
    z = next(i for i, c in enumerate(cs) if c != 0.0)
    tail = cs[z:]
    d = len(tail) - 1
    zs = [0j] * z
    if d > 0:
        comp = np.eye(d, k=-1)
        comp[:, -1] = [-c / tail[-1] for c in tail[:-1]]
        try:
            zs.extend(complex(w) for w in np.linalg.eigvals(comp))
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(math.inf, f"companion eigenvalues failed: {exc}") from None
    return zs


def _clusterings(zs) -> tuple[list[int], list[list[int]]]:
    """Conjugate index of each candidate, and the candidates' partitions
    from finest to coarsest, as one cluster label per candidate.

    Pairs merge in order of increasing |zi - zj| / (1 + max(|zi|, |zj|)),
    each together with its conjugate pair, so every partition is closed
    under conjugation. The exact zeros that _candidates lists first never
    merge with a nonzero candidate. The last partition is one cluster, or
    the zeros and one cluster of the rest.
    """
    conj = list(range(len(zs)))
    for i, w in enumerate(zs):
        if w.imag > 0.0:
            conj[i], conj[i + 1] = i + 1, i
    mags = [abs(w) for w in zs]
    pairs = sorted(
        (abs(zi - zj) / (1.0 + max(mags[i], mags[j])), i, j)
        for i, zi in enumerate(zs)
        for j, zj in enumerate(zs[i + 1:], i + 1)
    )
    zeros = next((i for i, w in enumerate(zs) if w), len(zs))
    if zeros:
        pairs = [t for t in pairs if not t[1] < zeros <= t[2]]
    label = list(range(len(zs)))
    out = [label]
    left = len(zs)
    for _, i, j in pairs:
        if left == 1:
            break
        new = label
        for a, b in ((i, j), (conj[i], conj[j])):
            if new[a] != new[b]:
                new = [new[a] if lb == new[b] else lb for lb in new]
                left -= 1
        if new is not label:
            label = new
            out.append(label)
    return conj, out


def _centroids(zs, label) -> tuple[dict[int, complex], dict[int, int]]:
    """Centroid and size of each cluster, by label in order of first member."""
    sums, sizes = {}, {}
    for w, lb in zip(zs, label):
        sums[lb] = sums.get(lb, 0j) + w
        sizes[lb] = sizes.get(lb, 0) + 1
    return {lb: w / sizes[lb] for lb, w in sums.items()}, sizes


def _factors(zs, conj, label):
    """Real roots and quadratic factors at the centroids of the clusters.

    A cluster closed under conjugation is a real root; of any other
    cluster and its mirror, the one with the smaller label stands for
    the quadratic factor.
    """
    cent, sizes = _centroids(zs, label)
    mirror = {lb: label[conj[i]] for i, lb in enumerate(label)}
    reals, quads = [], []
    for lb, c in cent.items():
        if mirror[lb] == lb:
            reals.append((c.real, sizes[lb]))
        elif lb < mirror[lb]:
            quads.append((c.real, abs(c.imag), sizes[lb]))
    return reals, quads


def _misses(cs, zs, label, tol: float) -> bool:
    """Whether the product of a clustering misses cs at one point by more
    than _residual <= tol allows; the gate can pass only when it does not.

    q = lead * prod_k (x - c_k)^m_k over the clusters' centroids (exactly
    real for a cluster closed under conjugation) is compared with p at
    the candidate z farthest from its centroid, where p nearly vanishes.
    Since |e(z)| <= ||e||inf S for any coefficients e, S = sum_{j<=d} |z|^j,
    a passing gate puts its expansion q~ within tol ||p||inf S of p(z).
    Rounding (u = eps/2, first order, no underflow or overflow) adds, with
    P = prod_k (1 + |c_k|)^m_k and prod_k (|z| + |c_k|)^m_k <= P S:
    - 2d u |lead| P S for the expansion, at 2 roundings per degree;
    - (sqrt 5 + 1)(d + 1) u |lead| P S for the product at z, which rounds
      at most d times (CPython raises a complex to an integer power m by
      repeated squaring, which rounds at most m - 1 times);
    - (sqrt 5 + 1) d u ||p||inf S for Horner at z.
    So with gamma = 4 (d + 1) eps the clustering is ruled out only when
    the gap exceeds twice
        (tol ||p||inf + gamma (|lead| P + ||p||inf)) S,
    the factor 2 covering the rounding of this bound and of the gate's
    quotient. A gap that is not finite, or an overflow, rules nothing out.
    """
    cent, sizes = _centroids(zs, label)
    far = -1.0
    for w, lb in zip(zs, label):
        if abs(w - cent[lb]) > far:
            far, z = abs(w - cent[lb]), w
    q, lead_p = cs[-1], abs(cs[-1])
    try:
        for lb, c in cent.items():
            q *= (z - c) ** sizes[lb]
            lead_p *= (1.0 + abs(c)) ** sizes[lb]
    except OverflowError:
        return False
    pz, s, r = 0j, 0.0, abs(z)
    for a in reversed(cs):
        pz = pz * z + a
        s = s * r + 1.0
    norm = _inf_norm(cs)
    bound = 2.0 * (tol * norm + 4.0 * len(cs) * _EPS * (lead_p + norm)) * s
    gap = q - pz
    return bound < math.hypot(gap.real, gap.imag) < math.inf


def _residual(cs, real_roots, quad_factors) -> float:
    """Coefficient inf-norm of the factors' product minus cs, relative to cs."""
    recon = _expand(real_roots, quad_factors, cs[-1])
    return max(abs(a - b) for a, b in zip(recon, cs)) / _inf_norm(cs)


def _certified(cs, reals, quads, tol: float) -> RootProfile:
    """Polish the factors of a clustering and hold their product to tol."""
    real_roots = sorted((_polish(cs, r, m), m) for r, m in reals)
    quad_factors = []
    for beta, gamma, m in quads:
        z = _polish(cs, complex(beta, gamma), m)
        quad_factors.append((z.real, abs(z.imag), m))
    quad_factors.sort()

    if any(g <= 0.0 for _, g, _ in quad_factors):
        raise IllConditionedError(1.0, "quadratic factor degenerated to a real pair")
    residual = _residual(cs, real_roots, quad_factors)
    if not residual <= tol:
        raise IllConditionedError(residual, "reconstruction residual exceeds tolerance")
    return RootProfile(tuple(real_roots), tuple(quad_factors), cs[-1])


def real_root_profile(p: Poly, tol: float = 1e-9) -> RootProfile:
    """Real factorization of p with the coarsest multiplicities tol allows.

    The companion eigenvalues merge into clusters, closest pairs first
    and always with their conjugates; the coarsest clustering whose
    product, expanded from the cluster centroids, reconstructs p within
    tol relative to the coefficient inf-norm fixes the multiplicities.
    A clustering whose product misses p at one point by more than that
    bound allows is ruled out before it is expanded (_misses). The
    factors are then polished, and the polished product is held to the
    same bound: IllConditionedError (with the residual attached) is
    raised when it misses p by more than tol, or when the residual is
    nan. A coefficient that is not finite raises ValueError.
    """
    if p.is_zero:
        raise ZeroPolyError("cannot factor the zero polynomial")
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    cs = p.coeffs
    if not all(map(math.isfinite, cs)):
        raise ValueError(f"coefficients must be finite, got {list(cs)}")
    zs = _candidates(cs)
    conj, labels = _clusterings(zs)
    for label in reversed(labels[1:]):
        if not _misses(cs, zs, label, tol) and _residual(cs, *_factors(zs, conj, label)) <= tol:
            break
    else:
        # the finest clustering stands, and _certified decides on it
        label = labels[0]
    return _certified(cs, *_factors(zs, conj, label), tol)

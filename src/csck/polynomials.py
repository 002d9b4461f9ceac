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
quadratic factor (x - beta)^2 + gamma^2 from beta + i gamma. One chain
of derivatives, built up to the highest multiplicity, serves every
factor of a profile.

The scan expands the clusterings' products, coarsest first, until one
passes the gate. Most inputs have simple roots only, and for them the
scan is skipped when inclusion discs prove up front that the finest
clustering wins (Smith 1970; the test of MPSolve, Bini & Fiorentino
2000). Every coarser clustering's product has a multiple root: a real
cluster of two or more candidates, or a repeated quadratic factor. A
product that passes the gate has the leading coefficient of p and
coefficients within eps of p's, eps being tol ||p||inf plus the rounding
of its expansion (as _gate_reach bounds it). By Smith's theorem, when
the discs about the candidates z_i of radius d (|p(z_i)| + eps sum
|z_i|^j) / (|lead| prod_{j != i} |z_i - z_j|) are pairwise disjoint,
every polynomial within eps of p with its leading coefficient has
exactly one root in each, so none has a multiple root and no coarser
clustering can pass. Overlapping discs, an overflow or two exact zeros
leave the choice to the scan, so the certificate never changes a
profile. The values p(z_i) that its Horner pass computes start the
polish of each simple root, which then evaluates p at a new point only.

What is certified is that backward error: every profile is rebuilt from
its factors and compared coefficientwise with the input, relative to the
coefficient inf-norm. Inputs that no clustering reconstructs within tol
raise IllConditionedError instead of returning a guess.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import IllConditionedError, ZeroPolyError

_EPS = sys.float_info.epsilon
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


def _taylor(cs, r: complex, order: int | None = None) -> list[complex]:
    """Coefficients of p(r + t) in powers of t, via repeated synthetic
    division, r real or complex: the first order of them, or all."""
    work, out = list(cs), []
    while work and len(out) != order:
        work, rem = _deflate_linear(work, r)
        out.append(rem)
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
    factor multiplied in place, top coefficient first, with the additions
    in the order of _mul (so the same floats)."""
    cs = [float(leading)]
    for r, m in real_roots:
        for _ in range(m):
            cs.append(0.0)
            for k in range(len(cs) - 1, 0, -1):
                cs[k] = cs[k - 1] - r * cs[k]
            cs[0] = 0.0 - r * cs[0]
    for b, g, m in quad_factors:
        u, v = -2.0 * b, b * b + g * g
        for _ in range(m):
            cs += (0.0, 0.0)
            for k in range(len(cs) - 1, 1, -1):
                cs[k] = cs[k - 2] + cs[k - 1] * u + cs[k] * v
            cs[1] = 0.0 + cs[0] * u + cs[1] * v
            cs[0] = 0.0 + 0.0 * u + cs[0] * v
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

def _polish(chain, z, m: int, dz=None):
    """Newton on chain[m - 1], the (m-1)-th derivative of the polynomial
    whose derivative chain _certified builds, where a multiplicity-m root
    is simple, from z (a float for a real root, beta + i gamma for a
    quadratic factor; the arithmetic keeps a real z real). dz is that
    derivative at z when the caller has it: _isolated's Horner value of
    the polynomial at a simple root's candidate.

    A step is taken only while it shrinks |d(z)|, so the polished root
    is never a worse zero of d than its start.
    """
    d, dd = chain[m - 1], chain[m]
    if dz is None:
        dz = _horner(d, z)
    for _ in range(_POLISH_STEPS):
        slope = _horner(dd, z)
        if dz == 0.0 or slope == 0.0:
            break
        zn = z - dz / slope
        dn = _horner(d, zn)
        try:
            if not abs(dn) < abs(dz):
                break
        except OverflowError:  # the modulus of a complex d passes the float range
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
    import numpy as np  # on first use, so that importing this module loads no numpy

    z = next(i for i, c in enumerate(cs) if c != 0.0)
    tail = cs[z:]
    d = len(tail) - 1
    zs = [0j] * z
    if d > 0:
        comp = np.zeros(d * d)
        comp[d::d + 1] = 1.0
        comp[d - 1::d] = [-c / tail[-1] for c in tail[:-1]]
        try:
            zs.extend(np.linalg.eigvals(comp.reshape(d, d)).astype(complex).tolist())
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(math.inf, f"companion eigenvalues failed: {exc}") from None
    return zs


def _conjugates(zs) -> list[int]:
    """Index of each candidate's conjugate: its neighbour in a complex
    pair as _candidates lists it, itself for a real candidate."""
    conj = list(range(len(zs)))
    for i, w in enumerate(zs):
        if w.imag > 0.0:
            conj[i], conj[i + 1] = i + 1, i
    return conj


def _clusterings(zs, conj) -> list[list[int]]:
    """The candidates' partitions from finest to coarsest, as one cluster
    label per candidate; conj is the conjugate index of each candidate.

    Pairs merge in order of increasing |zi - zj| / (1 + max(|zi|, |zj|)),
    each together with its conjugate pair, so every partition is closed
    under conjugation. The exact zeros that _candidates lists first never
    merge with a nonzero candidate. The last partition is one cluster, or
    the zeros and one cluster of the rest.
    """
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
    return out


def _factors(zs, conj, label):
    """Real roots and quadratic factors at the centroids of the clusters,
    in the order of each cluster's first member.

    A cluster closed under conjugation is a real root; of any other
    cluster and its mirror, the one with the smaller label stands for
    the quadratic factor.
    """
    sums, sizes = {}, {}
    for w, lb in zip(zs, label):
        sums[lb] = sums.get(lb, 0j) + w
        sizes[lb] = sizes.get(lb, 0) + 1
    mirror = {lb: label[conj[i]] for i, lb in enumerate(label)}
    reals, quads = [], []
    for lb, w in sums.items():
        c = w / sizes[lb]
        if mirror[lb] == lb:
            reals.append((c.real, sizes[lb]))
        elif lb < mirror[lb]:
            quads.append((c.real, abs(c.imag), sizes[lb]))
    return reals, quads


def _value_and_power_sum(cs, z: complex) -> tuple[complex, float]:
    """p(z) by Horner, and S = sum_{j<=d} |z|^j, which bounds |e(z)| /
    ||e||inf for any coefficients e of degree <= d."""
    pz, s, r = 0j, 0.0, abs(z)
    for a in reversed(cs):
        pz = pz * z + a
        s = s * r + 1.0
    return pz, s


def _gate_reach(cs, lead_p: float, tol: float) -> float:
    """2 (tol ||p||inf + gamma (lead_p + ||p||inf)), gamma = 4 (d + 1) eps.

    Times S = sum_{j<=d} |z|^j, it bounds how far Horner's p(z) lies from
    the value at z of a product q = lead prod_k (x - c_k)^m_k with
    |lead| P <= lead_p, P = prod_k (1 + |c_k|)^m_k, whose expansion q~
    passes the gate. Since |e(z)| <= ||e||inf S for any coefficients e, a
    passing gate puts q~(z) within tol ||p||inf S of p(z). Rounding
    (u = eps/2, first order, no underflow or overflow) adds, with
    prod_k (|z| + |c_k|)^m_k <= P S:
    - 2d u |lead| P S for the expansion, at 2 roundings per degree;
    - (sqrt 5 + 1)(d + 1) u |lead| P S for q(z) taken factor by factor,
      which rounds at most d times (CPython raises a complex to an
      integer power m by repeated squaring, which rounds at most m - 1
      times);
    - (sqrt 5 + 1) d u ||p||inf S for Horner at z.
    So (tol ||p||inf + gamma (|lead| P + ||p||inf)) S bounds the gap, and
    the factor 2 covers the rounding of this bound and of the gate's
    quotient.
    """
    norm = _inf_norm(cs)
    return 2.0 * (tol * norm + 4.0 * len(cs) * _EPS * (lead_p + norm))


def _isolated(cs, zs, conj, tol: float) -> list[complex] | None:
    """p(z_i) at each candidate when Smith's inclusion discs prove that no
    clustering coarser than the finest passes the gate (the argument is in
    the module docstring), that is when the discs about the candidates are
    pairwise disjoint; None when they are not. _certified starts the
    polish of each simple root from these values.

    The disc about z_i has twice the radius
    d (|p(z_i)| + eps S_i) / (|lead| prod_{j != i} |z_i - z_j|), with
    S_i = sum_{j<=d} |z_i|^j and eps from _gate_reach at
    P <= (1 + max |z_j|)^d, a bound for every clustering since no
    centroid lies farther from 0 than its farthest member. The factor 2
    covers the rounding of the radius and of the test, so a conjugate
    takes its mirror's radius and the conjugate of its mirror's value.
    An overflow, or two equal candidates such as two exact zeros, fails
    the test.
    """
    d, lead = len(zs), abs(cs[-1])
    try:
        eps = _gate_reach(cs, lead * (1.0 + max(map(abs, zs))) ** d, tol)
        # 1.0 on the diagonal, in place of |z_i - z_i| = 0, left out of the product
        dist = [[1.0] * d for _ in zs]
        for i, z in enumerate(zs):
            for j in range(i + 1, d):
                dist[i][j] = dist[j][i] = abs(z - zs[j])
        values, radii = [], []
        for i, z in enumerate(zs):
            k = conj[i]
            if k < i:
                values.append(values[k].conjugate())
                radii.append(radii[k])
                continue
            pz, s = _value_and_power_sum(cs, z)
            values.append(pz)
            radii.append(2.0 * d * (abs(pz) + eps * s) / math.prod(dist[i], start=lead))
    except (OverflowError, ZeroDivisionError):
        return None
    for i in range(d):
        for j in range(i + 1, d):
            if not radii[i] + radii[j] < dist[i][j]:
                return None
    return values


def _singletons(zs, conj, values):
    """The finest clustering's real roots and quadratic factors, as
    _factors has them without its dicts, and p at each factor's start
    from _isolated's values, the real roots' first. The centroid of one
    candidate w is w, with -0.0 read as 0.0."""
    reals, quads, real_at, quad_at = [], [], [], []
    for i, (z, k, pz) in enumerate(zip(zs, conj, values)):
        if k == i:
            reals.append((z.real + 0.0, 1))
            real_at.append(pz.real)
        elif i < k:
            quads.append((z.real + 0.0, z.imag, 1))
            quad_at.append(pz)
    return reals, quads, real_at + quad_at


def _residual(cs, real_roots, quad_factors) -> float:
    """Coefficient inf-norm of the factors' product minus cs, relative to cs."""
    recon = _expand(real_roots, quad_factors, cs[-1])
    return max(abs(a - b) for a, b in zip(recon, cs)) / _inf_norm(cs)


def _certified(cs, reals, quads, tol: float, starts=None) -> RootProfile:
    """Polish the factors of a clustering and hold their product to tol.

    One derivative chain of cs, up to the highest multiplicity, serves
    every polish. starts, when given, are p at each factor's start, the
    real roots' first, as _isolated computed them, so that no polish
    evaluates p there again.
    """
    chain = [cs]
    for _ in range(max(m for *_, m in (*reals, *quads))):
        chain.append(_deriv(chain[-1]))
    if starts is None:
        starts = [None] * (len(reals) + len(quads))
    real_roots = sorted((_polish(chain, r, m, v), m) for (r, m), v in zip(reals, starts))
    quad_factors = []
    for (beta, gamma, m), v in zip(quads, starts[len(reals):]):
        z = _polish(chain, complex(beta, gamma), m, v)
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
    When Smith's inclusion discs prove that no coarser clustering can
    pass, the finest is taken without the scan (_isolated), so the scan
    runs only where the discs overlap. The factors are then polished,
    and the polished product is held to the same bound:
    IllConditionedError (with the residual attached) is raised when it
    misses p by more than tol, or when the residual is nan. A
    coefficient that is not finite raises ValueError.
    """
    if p.is_zero:
        raise ZeroPolyError("cannot factor the zero polynomial")
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    cs = p.coeffs
    if not all(map(math.isfinite, cs)):
        raise ValueError(f"coefficients must be finite, got {list(cs)}")
    zs = _candidates(cs)
    conj = _conjugates(zs)
    values = _isolated(cs, zs, conj, tol)
    if values is not None:
        reals, quads, starts = _singletons(zs, conj, values)
        return _certified(cs, reals, quads, tol, starts)
    for label in reversed(_clusterings(zs, conj)):
        reals, quads = _factors(zs, conj, label)
        if _residual(cs, reals, quads) <= tol:
            break
    # when no clustering passes, the finest stands and _certified decides on it
    return _certified(cs, reals, quads, tol)

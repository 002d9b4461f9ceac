"""Real polynomial arithmetic and certified real-root factorization.

Real roots are isolated with a Sturm chain (sign-variation counts over
bisected intervals) and refined by safeguarded Newton inside a verified
bracket.  Multiplicities come from repeated deflation against the
polynomial with a relative clustering threshold; each multiple root is
then re-polished on the derivative of matching order so that double and
triple roots reach full precision.  Whatever factor is left after all
real roots are removed is split into irreducible quadratics.

Every profile is certified by rebuilding the polynomial from its factors
and comparing coefficients; inputs that cannot be certified raise
IllConditionedError instead of returning a guess.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, ZeroPolyError

# Remainders whose norm falls below this (inputs are normalized to unit
# inf-norm) end the Sturm chain: the previous element is treated as the gcd.
# Rounding noise at the gcd step of a degree <= 7 chain reaches a few 1e-12,
# so the cutoff sits well above that while staying far below genuine
# remainders, which do not drop under 1e-6 for separated roots.
_CHAIN_EPS = 1e-10
# Two refined roots closer than _CLUSTER_REL * (1 + |root|) merge into one
# higher-multiplicity root.
_CLUSTER_REL = 1e-7
# Conjugate pairs cluster more loosely: a double pair under coefficient
# rounding splits by about the square root of machine precision.
_QUAD_CLUSTER_REL = 1e-5
# |w(r)| below _DEFLATE_REL * scale keeps r as a root of the deflation w.
_DEFLATE_REL = 1e-9

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


def _scaled(cs) -> tuple[float, ...]:
    m = _inf_norm(cs)
    if m == 0.0:
        return tuple(cs)
    return tuple(c / m for c in cs)


def _poly_divmod(a, b) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Quotient and remainder of a / b, ascending coefficients."""
    a = list(a)
    db = len(b) - 1
    while db > 0 and b[db] == 0.0:
        db -= 1
    lead = b[db]
    if len(a) - 1 < db:
        return (0.0,), tuple(a)
    q = [0.0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] / lead
        q[i - db] = f
        if f != 0.0:
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
        a[i] = 0.0
    return tuple(q), tuple(a[:db] if db > 0 else [0.0])


def _deflate_linear(cs, r: float) -> tuple[tuple[float, ...], float]:
    """Synthetic division by (x - r); returns (quotient, remainder)."""
    q = [0.0] * (len(cs) - 1)
    acc = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        q[i] = acc
        acc = cs[i] + r * acc
    return tuple(q), acc


def _taylor(cs, r: float) -> list[float]:
    """Coefficients of p(r + t) in powers of t, via repeated synthetic division."""
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
        cs: tuple[float, ...] = (float(leading),)
        for r, m in real_roots:
            for _ in range(m):
                cs = _mul(cs, (-r, 1.0))
        for b, g, m in quad_factors:
            quad = (b * b + g * g, -2.0 * b, 1.0)
            for _ in range(m):
                cs = _mul(cs, quad)
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
    """Certified real factorization of a polynomial.

    real_roots: ((value, multiplicity), ...) strictly increasing in value;
    quad_factors: ((beta, gamma, multiplicity), ...) with gamma > 0, sorted;
    leading: leading coefficient of the input.
    """

    real_roots: tuple[tuple[float, int], ...]
    quad_factors: tuple[tuple[float, float, int], ...]
    leading: float

    def reconstruct(self) -> Poly:
        return Poly.from_factors(self.real_roots, self.quad_factors, self.leading)

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.real_roots) + 2 * sum(m for *_, m in self.quad_factors)


# ---------------------------------------------------------------------------
# Sturm machinery

def _sturm_chain(cs) -> list[tuple[float, ...]]:
    p0 = _scaled(_trim(cs))
    chain = [p0]
    d1 = _deriv(p0)
    if len(d1) == 1 and d1[0] == 0.0:
        return chain
    chain.append(_scaled(d1))
    while len(chain[-1]) > 1:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        rem = [(-c) for c in rem]
        m = max(abs(c) for c in rem)
        if m <= _CHAIN_EPS:
            break  # gcd reached (multiple roots); generalized chain still counts distinct roots
        while len(rem) > 1 and abs(rem[-1]) <= _CHAIN_EPS * m:
            rem.pop()
        chain.append(_scaled(rem))
    return chain


def _variations(chain, x: float) -> int:
    prev = 0
    v = 0
    for cs in chain:
        val = _horner(cs, x)
        if val == 0.0:
            continue
        s = 1 if val > 0.0 else -1
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def _nonroot(cs, x: float, width: float) -> float:
    # nudge a proposed evaluation point off an exact root
    step = max(width * 1e-3, 1e-12 * (1.0 + abs(x)))
    for _ in range(60):
        if _horner(cs, x) != 0.0:
            return x
        x += step
        step *= 2.0
    return x


def _isolate(chain, cs, lo: float, hi: float) -> list[tuple[float, float]]:
    """Intervals (a, b] each holding exactly one distinct real root.

    Midpoints are nudged off the zero set of cs itself, not of the scaled
    chain head, so that refinement never lands on an exact root endpoint.
    """
    total = _variations(chain, lo) - _variations(chain, hi)
    out: list[tuple[float, float]] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt <= 0:
            continue
        if cnt == 1 or (b - a) <= 1e-13 * (1.0 + abs(a) + abs(b)):
            out.append((a, b))
            continue
        mid = _nonroot(cs, 0.5 * (a + b), b - a)
        if not (a < mid < b):
            out.append((a, b))
            continue
        vm = _variations(chain, mid)
        left = _variations(chain, a) - vm
        right = vm - _variations(chain, b)
        stack.append((a, mid, left))
        stack.append((mid, b, right))
    out.sort()
    return out


def _bracketed_newton(cs, dcs, a: float, b: float) -> float:
    """Root of cs in [a, b] assuming a sign change; Newton inside the bracket."""
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
        if hi - lo <= 4.0 * _EPS * (1.0 + abs(x)):
            break
        dfx = _horner(dcs, x)
        if dfx != 0.0:
            step = fx / dfx
            xn = x - step
            if lo < xn < hi and abs(step) <= 0.5 * (hi - lo):
                x = xn
                continue
        x = 0.5 * (lo + hi)
    return x


def _distinct_real_roots(cs, lo: float | None = None, hi: float | None = None) -> list[float]:
    cs = _trim(cs)
    d = len(cs) - 1
    if d <= 0:
        return []
    if d == 1:
        r = -cs[0] / cs[1]
        if lo is not None and not (lo < r <= hi):
            return []
        return [r]
    bound = 1.0 + max(abs(c) for c in cs[:-1]) / abs(cs[-1])
    if lo is None:
        lo, hi = -bound - 1.0, bound + 1.0
    lo = _nonroot(cs, lo, (hi - lo))
    hi = _nonroot(cs, hi, (hi - lo))
    if lo >= hi:
        return []
    chain = _sturm_chain(cs)
    dcs = _deriv(cs)
    roots = []
    for a, b in _isolate(chain, cs, lo, hi):
        fa, fb = _horner(cs, a), _horner(cs, b)
        if fa == 0.0:
            roots.append(a)
            continue
        if fb == 0.0:
            roots.append(b)
            continue
        if (fa > 0.0) != (fb > 0.0):
            roots.append(_bracketed_newton(cs, dcs, a, b))
            continue
        # even multiplicity: the root also annihilates the derivative
        sub = _distinct_real_roots(dcs, a, b)
        if sub:
            roots.append(min(sub, key=lambda r: abs(_horner(cs, r))))
        else:
            roots.append(0.5 * (a + b))
    roots.sort()
    return roots


def _deflation_count(cs, r: float) -> int:
    m = 0
    work = list(cs)
    while len(work) > 1:
        q, rem = _deflate_linear(work, r)
        scale = _inf_norm(work) * max(1.0, abs(r)) ** (len(work) - 1)
        if abs(rem) > _DEFLATE_REL * scale:
            break
        m += 1
        work = list(q)
    return m


def _polish(cs, r: float, m: int) -> float:
    """Re-polish a multiplicity-m root of cs on the (m-1)-th derivative."""
    d = cs
    for _ in range(m - 1):
        d = _deriv(d)
    dd = _deriv(d)
    delta = 1e-12 * (1.0 + abs(r))
    # cap wide enough to cover bisection noise on high-multiplicity roots,
    # which scales like eps**(1/m)
    while delta <= 1e-2 * (1.0 + abs(r)):
        a, b = r - delta, r + delta
        fa, fb = _horner(d, a), _horner(d, b)
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0):
            return _bracketed_newton(d, dd, a, b)
        delta *= 8.0
    return r


def _root_with_multiplicity(cs, r: float) -> tuple[float, int] | None:
    """Polished value and multiplicity for a root candidate of cs.

    An m-fold root found by bisection is only accurate to roughly
    eps**(1/m), which is not enough to count deflations directly.  Trying
    multiplicities from the top: polishing on the (m-1)-th derivative
    turns the root simple, and only the true multiplicity survives the
    deflation count at the polished point.  Candidates that fail the
    count even as simple roots are not roots at all and yield None.
    """
    deg = len(cs) - 1
    for m_try in range(deg, 1, -1):
        rp = _polish(cs, r, m_try)
        if _deflation_count(cs, rp) >= m_try:
            return rp, m_try
    rp = _polish(cs, r, 1)
    if _deflation_count(cs, rp) >= 1:
        return rp, 1
    return None


def _quad_residual_map(cs, u: float, v: float) -> tuple[float, float]:
    # remainder of cs modulo x^2 + u x + v
    _, rem = _poly_divmod(cs, (v, u, 1.0))
    r0 = rem[0]
    r1 = rem[1] if len(rem) > 1 else 0.0
    return r0, r1


def _bairstow_polish(cs, beta: float, gamma: float) -> tuple[float, float]:
    """Newton-polish the quadratic factor (x-beta)^2 + gamma^2 of cs."""
    u = -2.0 * beta
    v = beta * beta + gamma * gamma
    for _ in range(30):
        r0, r1 = _quad_residual_map(cs, u, v)
        h = 1e-7 * (1.0 + abs(u) + abs(v))
        r0u, r1u = _quad_residual_map(cs, u + h, v)
        r0l, r1l = _quad_residual_map(cs, u - h, v)
        r0v, r1v = _quad_residual_map(cs, u, v + h)
        r0w, r1w = _quad_residual_map(cs, u, v - h)
        j00 = (r0u - r0l) / (2 * h)
        j01 = (r0v - r0w) / (2 * h)
        j10 = (r1u - r1l) / (2 * h)
        j11 = (r1v - r1w) / (2 * h)
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            break
        du = (r0 * j11 - r1 * j01) / det
        dv = (r1 * j00 - r0 * j10) / det
        u -= du
        v -= dv
        if abs(du) <= 1e-15 * (1.0 + abs(u)) and abs(dv) <= 1e-15 * (1.0 + abs(v)):
            break
    beta = -0.5 * u
    disc = v - beta * beta
    gamma = math.sqrt(disc) if disc > 0.0 else gamma
    return beta, gamma


def _quad_split(cs) -> list[tuple[float, float, int]]:
    """Split a real polynomial with no real roots into quadratic factors."""
    cs = _trim(cs)
    d = len(cs) - 1
    if d <= 0:
        return []
    if d == 2:
        beta = -cs[1] / (2.0 * cs[2])
        disc = cs[0] / cs[2] - beta * beta
        gamma = math.sqrt(disc) if disc > 0.0 else 0.0
        return [(beta, gamma, 1)]
    vals = np.roots(list(reversed(cs)))
    pairs = sorted(
        ((float(z.real), float(abs(z.imag))) for z in vals if z.imag > 0.0),
        key=lambda p: (p[0], p[1]),
    )
    # cluster repeated quadratic factors
    quads: list[list[float | int]] = []
    for b, g in pairs:
        if quads:
            pb, pg, pm = quads[-1]
            tol = _QUAD_CLUSTER_REL * (1.0 + abs(pb) + abs(pg))
            if abs(b - pb) <= tol and abs(g - pg) <= tol:
                quads[-1][2] = pm + 1
                continue
        quads.append([b, g, 1])
    out = []
    for b, g, m in quads:
        d_cs = cs
        for _ in range(m - 1):
            d_cs = _deriv(d_cs)
        b, g = _bairstow_polish(d_cs, b, g)
        out.append((b, g, m))
    return out


def real_root_profile(p: Poly, tol: float = 1e-9) -> RootProfile:
    """Certified real factorization of p.

    Raises IllConditionedError (with the residual attached) when the
    reconstructed polynomial does not match p coefficientwise within
    tol relative to the coefficient norm.
    """
    if p.is_zero:
        raise ZeroPolyError("cannot factor the zero polynomial")
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    cs = p.coeffs
    leading = cs[-1]
    norm = _inf_norm(cs)

    # Isolation on the full polynomial can leak counts near multiple roots
    # (the chain elements flip sign at noise-separated points), so roots
    # are collected over several rounds: verified roots are deflated out
    # and isolation runs again on the quotient, where conditioning is
    # restored.  Stops when a round adds nothing new.
    found: list[tuple[float, int]] = []
    work = cs
    for _ in range(p.degree):
        if len(work) <= 1:
            break
        fresh = False
        for r in _distinct_real_roots(work):
            rm = _root_with_multiplicity(cs, r)
            if rm is None:
                continue
            rp, m = rm
            if any(abs(rp - fr) <= _CLUSTER_REL * (1.0 + abs(rp)) for fr, _ in found):
                continue
            found.append((rp, m))
            fresh = True
        if not fresh:
            break
        work = cs
        for rp, m in found:
            for _ in range(m):
                if len(work) <= 1:
                    raise IllConditionedError(1.0, "claimed multiplicities exceed the degree")
                work, _ = _deflate_linear(work, rp)
    real_roots = sorted(found)
    quad_factors = _quad_split(work) if len(work) > 1 else []

    if any(g <= 0.0 for _, g, _ in quad_factors):
        raise IllConditionedError(1.0, "quadratic factor degenerated to a real pair")
    profile = RootProfile(tuple(real_roots), tuple(quad_factors), leading)
    recon = profile.reconstruct().coeffs
    width = max(len(recon), len(cs))
    rc = list(recon) + [0.0] * (width - len(recon))
    pc = list(cs) + [0.0] * (width - len(cs))
    residual = max(abs(a - b) for a, b in zip(rc, pc)) / norm
    if profile.total_degree != p.degree:
        raise IllConditionedError(residual, "factor degrees do not sum to the input degree")
    if residual > tol:
        raise IllConditionedError(residual, "reconstruction residual exceeds tolerance")
    return profile

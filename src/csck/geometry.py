"""Metric reconstruction and curvature verification from a radial profile.

Given a gauge-fixed profile g(s), the potential is the closed form
u(s) = A log s + G(g(s)) + const, with A the Lelong number and G the
antiderivative of x^k (x - A) / H from RadialSolution.G. The metric at
z is delta_jk u' + u'' zbar_j z_k with u' = g/s, and the scalar
curvature comes out of the density f = log(g^{n-1} g' / s^{n-1}) as

    R = -[s g^{n-1} f']' / (g^{n-1} g').

All derivatives of g are obtained analytically from the first order
equation s g^{n-1} g' = H(g), so the curvature chain is exact in
(s, g): it returns R for any g, accurate or not. On that equation the
bracket s g^{n-1} f' is lam - (R/n) g^n, so the finite-difference check
is R times a ratio of slopes, (R/n) [g^n]' / (g^{n-1} g'), with [g^n]'
differenced across neighbouring abscissae, each inverted on its own.
It tests the inversion g(s) where R != 0; at R = 0 it reads 0 for any g.

The formulas are written once, over numpy-broadcastable (s, g). One
reader, _kahler_point, inverts and checks every point (float or array)
that metric_tensor, metric_sample and the curvatures read; verify_solution
reports instead of raising, so its whole-grid pass reads its own. Where
the arithmetic of metric_sample or a curvature leaves the float range,
an array s reads inf or nan and a float s raises IllConditionedError
naming it (_names_s); metric_tensor, at the float s = |z|^2, raises it
too.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, NotKahlerError, OutOfDomainError
from .quadrature import RadialSolution, solve_g

__all__ = [
    "MetricSample",
    "VerificationReport",
    "curvature_fd",
    "metric_sample",
    "metric_tensor",
    "potential_u",
    "scalar_curvature",
    "verify_solution",
]


@dataclass(frozen=True)
class MetricSample:
    """Radial data at s: profile, potential, derivatives, density, curvature.

    Each field is a float, or an array of the shape of s when metric_sample
    was given an array.
    """

    s: float
    g: float
    u: float
    up: float
    upp: float
    f: float
    R_num: float


@dataclass(frozen=True)
class VerificationReport:
    """Maxima of the verification residuals over a log-spaced sample grid.

    max_curvature_residual and curvature_stddev come from the analytic
    (s, g) chain, which returns R for any g, so they check the algebra
    and its rounding, not the inversion. max_fd_mismatch compares that
    chain with (R/n) [g^n]' / (g^{n-1} g'), [g^n]' differenced across
    neighbouring abscissae, each inverted on its own. It tests g(s) only
    where R != 0; at R = 0 an independent shoot_ode is the check.
    """

    n_samples: int
    s_lo: float
    s_hi: float
    R_target: float
    max_curvature_residual: float
    curvature_stddev: float
    max_fd_mismatch: float
    max_det_residual: float
    positivity_margin: float
    kahler_ok: bool


def _radial(ode, s, g):
    """u' = g / s, u'' = (g' - u') / s and g' = H(g) / (s g^k) at (s, g)."""
    g1 = ode.H(g) / (s * g**ode.k)
    up = g / s
    return up, (g1 - up) / s, g1


def _kahler_point(sol: RadialSolution, s):
    """(g, u', u'', g') at s, a float or an array, with g inverted once.

    Raises NotKahlerError at the first entry where u' or u' + s u'' = g'
    is not positive: the chain divides by g', which vanishes where
    rounding pins g to a window end.
    """
    g = solve_g(sol, s)
    up, upp, g1 = _radial(sol.ode, s, g)
    bad = np.flatnonzero(np.logical_not((up > 0.0) & (g1 > 0.0)))
    if bad.size:
        s, up, g1 = (float(np.ravel(v)[bad[0]]) for v in (s, up, g1))
        raise NotKahlerError(f"u' = {up:.6g}, u' + s u'' = {g1:.6g} at s = {s:.6g}")
    return g, up, upp, g1


def _tensor(up, upp, z) -> np.ndarray:
    """delta_jk u' + u'' zbar_j z_k, stacked over the leading axes of z."""
    up = np.asarray(up)[..., None, None]
    upp = np.asarray(upp)[..., None, None]
    return up * np.eye(z.shape[-1]) + upp * (np.conj(z)[..., :, None] * z[..., None, :])


def _curvature(ode, s, g):
    """R = -[s g^k f']' / (g^k g') at (s, g), for the density
    f = k (log g - log s) + log g'; g', g'' and g''' come from
    differentiating s g^k g' = H(g)."""
    H, Hp, Hpp, k = ode.H, ode.Hp, ode.Hpp, ode.k
    P = H(g)
    Q = s * g**k
    g1 = P / Q
    P1 = Hp(g) * g1
    Q1 = g**k + k * s * g ** (k - 1) * g1
    g2 = (P1 * Q - P * Q1) / Q**2
    P2 = Hpp(g) * g1**2 + Hp(g) * g2
    Q2 = (
        2.0 * k * g ** (k - 1) * g1
        + k * (k - 1) * s * g ** (k - 2) * g1**2
        + k * s * g ** (k - 1) * g2
    )
    g3 = (P2 * Q - P * Q2) / Q**2 - 2.0 * g2 * Q1 / Q
    f1 = k * (g1 / g - 1.0 / s) + g2 / g1
    f2 = k * (g2 / g - (g1 / g) ** 2) + (g3 * g1 - g2**2) / g1**2 + k / s**2
    phi1 = g**k * f1 + k * s * g ** (k - 1) * g1 * f1 + s * g**k * f2
    return -phi1 / (g**k * g1)


def _neighbours(s):
    """Step h = 1e-4 s and the abscissae s + h, s - h, s + h/2, s - h/2."""
    h = 1e-4 * s
    return h, (s + h, s - h, s + 0.5 * h, s - 0.5 * h)


def _richardson(ode, g, g1, h, gn):
    """(R/n) [g^n]' / (g^k g') at (s, g), with g' = g1 there and [g^n]'
    the Richardson difference of the values gn at _neighbours(s)."""
    d1 = (gn[0] - gn[1]) / (2.0 * h)
    d2 = (gn[2] - gn[3]) / h
    return ode.problem.R / ode.problem.n * ((4.0 * d2 - d1) / 3.0) / (g**ode.k * g1)


def _out_of_range(s) -> IllConditionedError:
    return IllConditionedError(
        math.inf, f"a value overflows or a denominator underflows at s = {s!r}"
    )


def _names_s(reader):
    """reader(sol, s), with an OverflowError or ZeroDivisionError of its
    float arithmetic raised as IllConditionedError naming s, the way
    quadrature._singular names x; numpy arithmetic on an array raises
    neither."""

    @functools.wraps(reader)
    def named(sol, s):
        try:
            return reader(sol, s)
        except (OverflowError, ZeroDivisionError):
            raise _out_of_range(s) from None

    return named


def _potential(sol: RadialSolution, s, g, g_a):
    """A log(s / s_a) + G(g) - G(g_a), with g = g(s) and g_a = g(s_a)."""
    G = sol.G()
    return sol.branch.A * np.log(s / sol.s_anchor) + (G(g) - G(g_a))


def potential_u(sol: RadialSolution, s: float) -> float:
    """u(s) = A log(s / s_a) + G(g(s)) - G(g(s_a)), which vanishes at s_a = 1.

    du = g ds / s integrates in closed form through RadialSolution.G, so
    no quadrature is involved. When 1 is not interior to the domain
    (ball-normalized solutions end at s = 1) the anchor s_a falls back to
    the domain midpoint; the additive constant carries no geometric content.
    """
    return _potential(sol, s, solve_g(sol, s), sol.g_anchor())


def metric_tensor(sol: RadialSolution, z) -> np.ndarray:
    """Hermitian matrix delta_jk u' + u'' zbar_j z_k at the point z.

    Eigenvalues are u' (multiplicity n - 1, tangent to the sphere) and
    u' + s u'' = g' (radial), both positive on a valid solution. Where u'
    or u'' leaves the float range, IllConditionedError names s = |z|^2.
    """
    n = sol.ode.problem.n
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"z must have shape ({n},), got {z.shape}")
    s = float(np.real(np.vdot(z, z)))
    if s == 0.0:
        raise OutOfDomainError("the metric is defined away from the origin")
    up, upp = _radial_derivatives(sol, s)
    return _tensor(up, upp, z)


@_names_s
def _radial_derivatives(sol: RadialSolution, s: float):
    """u' and u'' at a float s, both finite."""
    _, up, upp, _ = _kahler_point(sol, s)
    if not (math.isfinite(up) and math.isfinite(upp)):
        raise _out_of_range(s)
    return up, upp


@_names_s
def scalar_curvature(sol: RadialSolution, s: float) -> float:
    """Scalar curvature at s through the analytic derivative chain.

    The chain returns R for any g, so this value does not test the
    inversion; curvature_fd does where R != 0. Non-Kahler data at s
    raises NotKahlerError, as in metric_sample.
    """
    return _curvature(sol.ode, s, _kahler_point(sol, s)[0])


@_names_s
def curvature_fd(sol: RadialSolution, s: float) -> float:
    """Curvature (R/n) [g^n]' / (g^{n-1} g'), [g^n]' differenced across
    neighbours of s, each inverted on its own: it tests g where R != 0.

    Non-Kahler data at s or at a neighbour raises NotKahlerError.
    """
    g, _, _, g1 = _kahler_point(sol, s)  # first, so an s outside the domain is named as such
    h, near = _neighbours(s)
    gn = [_kahler_point(sol, x)[0] ** sol.ode.problem.n for x in near]
    return _richardson(sol.ode, g, g1, h, gn)


@_names_s
def metric_sample(sol: RadialSolution, s) -> MetricSample:
    """Assemble the full radial record at s; rejects non-Kahler data.

    s is a float or a numpy array, whose fields are evaluated over the
    whole array at once. g(s) is inverted once and feeds the potential
    and the curvature chain; the potential's anchor value is the
    solution's own g(s_a). For an array s, a field whose arithmetic
    overflows or divides 0 by 0 reads inf or nan, with no numpy warning;
    a float s raises IllConditionedError naming s there.
    """
    ode = sol.ode
    with np.errstate(all="ignore"):
        g, up, upp, g1 = _kahler_point(sol, s)
        return MetricSample(
            s=s,
            g=g,
            u=_potential(sol, s, g, sol.g_anchor()),
            up=up,
            upp=upp,
            # the density of reduction.f_of, from the g and g' at hand
            f=ode.k * (np.log(g) - np.log(s)) + np.log(g1),
            R_num=_curvature(ode, s, g),
        )


def verify_solution(sol: RadialSolution, n_samples: int) -> VerificationReport:
    """Residual maxima over a log-spaced grid: curvature, determinant, positivity.

    Every domain starts at s = 0. The grid spans [0.01, 100] on ray
    domains and [0.05, 0.998 s_hi] on finite ones (0, s_hi): near both
    ends of a finite domain the profile is pinned against a singular
    abscissa where float spacing makes the finite-difference cross-check
    noise dominated, while the analytic values stay accurate. A finite
    domain too short for that floor (0.998 s_hi at or below it) starts at
    0.05 s_hi instead. Failures are reported, not raised.

    The grid and its four Richardson neighbours are inverted by one array
    call of solve_g, the derivative chain runs on the grid row alone, and
    every residual is evaluated over the whole grid at once.
    max_curvature_residual comes from the analytic chain, which returns R
    for any g; max_fd_mismatch tests the inversion where R != 0.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples!r} must be at least 1")
    hi = sol.s_domain[1]
    if math.isinf(hi):
        bottom, top = 0.01, 100.0
    else:
        bottom, top = 0.05, 0.998 * hi
        if bottom >= top:
            bottom = 0.05 * hi
    grid = np.geomspace(bottom, top, n_samples)
    ode = sol.ode
    n = ode.problem.n
    R_target = ode.problem.R

    h, near = _neighbours(grid)
    points = np.stack((grid, *near))
    gs = solve_g(sol, points)
    g = gs[0]
    z = np.zeros((n_samples, n), dtype=complex)
    z[:, 0] = np.sqrt(grid)
    with np.errstate(all="ignore"):  # nan or inf where g' = 0 or a value overflows
        up, upp, g1 = _radial(ode, grid, g)
        curv = _curvature(ode, grid, g)
        r_fd = _richardson(ode, g, g1, h, gs[1:] ** n)
        det = np.real(np.linalg.det(_tensor(up, upp, z)))
        want = up ** (n - 1) * g1
        margin = min(float(np.min(up)), float(np.min(g1)))
        return VerificationReport(
            n_samples=n_samples,
            s_lo=float(grid[0]),
            s_hi=float(grid[-1]),
            R_target=R_target,
            max_curvature_residual=float(np.max(np.abs(curv - R_target))),
            curvature_stddev=float(np.std(curv)),
            max_fd_mismatch=float(np.max(np.abs(r_fd - curv) / (1.0 + np.abs(curv)))),
            max_det_residual=float(np.max(np.abs(det - want) / np.abs(want))),
            positivity_margin=margin,
            kahler_ok=bool(margin > 0.0),
        )

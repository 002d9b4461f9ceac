"""Metric reconstruction and curvature verification from a radial profile.

Given a gauge-fixed profile g(s), the potential is the closed form
u(s) = A log s + G(g(s)) + const, with A the Lelong number and G the
antiderivative of x^k (x - A) / H from RadialSolution.G. The metric at
z is delta_jk u' + u'' zbar_j z_k with u' = g/s, and the scalar
curvature comes out of the density f = log(g^{n-1} g' / s^{n-1}) as

    R = -[s g^{n-1} f']' / (g^{n-1} g').

All derivatives of g are obtained analytically from the first order
equation s g^{n-1} g' = H(g), so the curvature chain is exact in
(s, g): it returns R for any g, accurate or not. A Richardson finite
difference of the bracket s g^{n-1} f' across neighbouring abscissae,
each inverted on its own, is what tests the inversion g(s).

The formulas are written once, over numpy-broadcastable (s, g); the
one-point functions and verify_solution's whole-grid pass share them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotKahlerError, OutOfDomainError
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
    """Radial data at one abscissa: potential, derivatives, density, curvature."""

    s: float
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
    chain with finite differences across neighbouring abscissae, each
    inverted on its own; it and an independent shoot_ode are the checks
    that test g(s).
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


def _check_domain(sol: RadialSolution, s: float) -> None:
    lo, hi = sol.s_domain
    if not (lo < s < hi):
        raise OutOfDomainError(f"s = {s!r} is outside the solution domain ({lo}, {hi})")


def _slope(ode, s, g):
    """g' = H(g) / (s g^k), from the first order equation."""
    return ode.H(g) / (s * g**ode.k)


def _radial(ode, s, g):
    """u' = g / s, u'' = (g' - u') / s and g' = u' + s u'' at (s, g)."""
    g1 = _slope(ode, s, g)
    up = g / s
    return up, (g1 - up) / s, g1


def _require_kahler(s: float, up: float, g1: float) -> None:
    if not (up > 0.0 and g1 > 0.0):
        raise NotKahlerError(f"u' = {up:.6g}, u' + s u'' = {g1:.6g} at s = {s:.6g}")


def _tensor(up, upp, z) -> np.ndarray:
    """delta_jk u' + u'' zbar_j z_k, stacked over the leading axes of z."""
    up = np.asarray(up)[..., None, None]
    upp = np.asarray(upp)[..., None, None]
    return up * np.eye(z.shape[-1]) + upp * (np.conj(z)[..., :, None] * z[..., None, :])


def _profile_derivatives(ode, s, g):
    """g', g'', g''' at (s, g), differentiating s g^k g' = H(g)."""
    H = ode.H
    Hp = H.derivative()
    Hpp = Hp.derivative()
    k = ode.k
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
    return g1, g2, g3


def _density_derivatives(ode, s, g):
    """g', f' and f'' at (s, g), for the density f = k (log g - log s) + log g'."""
    k = ode.k
    g1, g2, g3 = _profile_derivatives(ode, s, g)
    f1 = k * (g1 / g - 1.0 / s) + g2 / g1
    f2 = k * (g2 / g - (g1 / g) ** 2) + (g3 * g1 - g2**2) / g1**2 + k / s**2
    return g1, f1, f2


def _curvature(ode, s, g):
    """Scalar curvature at (s, g) through the analytic derivative chain."""
    k = ode.k
    g1, f1, f2 = _density_derivatives(ode, s, g)
    phi1 = g**k * f1 + k * s * g ** (k - 1) * g1 * f1 + s * g**k * f2
    return -phi1 / (g**k * g1)


def _bracket(ode, s, g):
    """s g^{n-1} f', the bracket whose derivative carries the curvature."""
    _, f1, _ = _density_derivatives(ode, s, g)
    return s * g**ode.k * f1


def _neighbours(s):
    """Step h = 1e-4 s and the abscissae s + h, s - h, s + h/2, s - h/2."""
    h = 1e-4 * s
    return h, (s + h, s - h, s + 0.5 * h, s - 0.5 * h)


def _richardson(ode, s, g, h, phi):
    """Curvature at (s, g) from the bracket values phi at _neighbours(s)."""
    d1 = (phi[0] - phi[1]) / (2.0 * h)
    d2 = (phi[2] - phi[3]) / h
    phi1 = (4.0 * d2 - d1) / 3.0
    return -phi1 / (g**ode.k * _slope(ode, s, g))


def potential_u(sol: RadialSolution, s: float) -> float:
    """u(s) = A log(s / s_a) + G(g(s)) - G(g(s_a)), which vanishes at s_a = 1.

    du = g ds / s integrates in closed form through RadialSolution.G, so
    no quadrature is involved. When 1 is not interior to the domain
    (ball-normalized solutions end at s = 1) the anchor s_a falls back to
    the domain midpoint; the additive constant carries no geometric content.
    """
    _check_domain(sol, s)
    lo, hi = sol.s_domain
    anchor = 1.0 if lo < 1.0 < hi else 0.5 * (lo + hi)
    if s == anchor:
        return 0.0
    G = sol.G()
    return sol.branch.A * math.log(s / anchor) + (
        G(solve_g(sol, s)) - G(solve_g(sol, anchor))
    )


def metric_tensor(sol: RadialSolution, z) -> np.ndarray:
    """Hermitian matrix delta_jk u' + u'' zbar_j z_k at the point z.

    Eigenvalues are u' (multiplicity n - 1, tangent to the sphere) and
    u' + s u'' = g' (radial), both positive on a valid solution.
    """
    n = sol.ode.problem.n
    z = np.asarray(z, dtype=complex)
    assert z.shape == (n,)
    s = float(np.real(np.vdot(z, z)))
    if s == 0.0:
        raise OutOfDomainError("the metric is defined away from the origin")
    _check_domain(sol, s)
    up, upp, g1 = _radial(sol.ode, s, solve_g(sol, s))
    _require_kahler(s, up, g1)
    return _tensor(up, upp, z)


def scalar_curvature(sol: RadialSolution, s: float) -> float:
    """Scalar curvature at s through the analytic derivative chain.

    The chain returns R for any g, so this value does not test the
    inversion; curvature_fd does.
    """
    _check_domain(sol, s)
    return _curvature(sol.ode, s, solve_g(sol, s))


def _phi(sol: RadialSolution, s: float) -> float:
    return _bracket(sol.ode, s, solve_g(sol, s))


def curvature_fd(sol: RadialSolution, s: float) -> float:
    """Curvature with the outer derivative taken by Richardson differences."""
    _check_domain(sol, s)
    h, near = _neighbours(s)
    phi = [_phi(sol, x) for x in near]
    return _richardson(sol.ode, s, solve_g(sol, s), h, phi)


def metric_sample(sol: RadialSolution, s: float) -> MetricSample:
    """Assemble the full radial record at s; rejects non-Kahler data."""
    _check_domain(sol, s)
    g = solve_g(sol, s)
    up, upp, g1 = _radial(sol.ode, s, g)
    _require_kahler(s, up, g1)
    return MetricSample(
        s=s,
        u=potential_u(sol, s),
        up=up,
        upp=upp,
        # the density of reduction.f_of, from the g and g' at hand
        f=float(sol.ode.k * (np.log(g) - np.log(s)) + np.log(g1)),
        R_num=scalar_curvature(sol, s),
    )


def verify_solution(sol: RadialSolution, n_samples: int) -> VerificationReport:
    """Residual maxima over a log-spaced grid: curvature, determinant, positivity.

    The grid spans [0.01, 100] on ray domains and [0.05, 0.998 s_hi] on
    finite ones: near both ends of a finite domain the profile is pinned
    against a singular abscissa where float spacing makes the
    finite-difference cross-check noise dominated, while the analytic
    values stay accurate. Failures are reported, not raised.

    The grid and its four Richardson neighbours are inverted by one array
    call of solve_g, and every residual is evaluated over the whole grid
    at once. max_curvature_residual comes from the analytic chain, which
    returns R for any g; max_fd_mismatch is the residual that tests the
    inversion.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples!r} must be at least 1")
    lo, hi = sol.s_domain
    if math.isinf(hi):
        bottom, top = max(0.01, 2.0 * lo), 100.0
    else:
        bottom, top = max(0.05, 2.0 * lo), 0.998 * hi
    grid = np.geomspace(bottom, top, n_samples)
    ode = sol.ode
    n = ode.problem.n
    R_target = ode.problem.R

    h, near = _neighbours(grid)
    points = np.stack((grid, *near))
    gs = solve_g(sol, points)
    g = gs[0]
    up, upp, g1 = _radial(ode, grid, g)
    curv = _curvature(ode, grid, g)
    r_fd = _richardson(ode, grid, g, h, _bracket(ode, points[1:], gs[1:]))
    z = np.zeros((n_samples, n), dtype=complex)
    z[:, 0] = np.sqrt(grid)
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

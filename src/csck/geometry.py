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
one-point functions, metric_sample's array path and verify_solution's
whole-grid pass share them.
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


def _slope(ode, s, g):
    """g' = H(g) / (s g^k), from the first order equation."""
    return ode.H(g) / (s * g**ode.k)


def _radial(ode, s, g):
    """u' = g / s, u'' = (g' - u') / s and g' = u' + s u'' at (s, g)."""
    g1 = _slope(ode, s, g)
    up = g / s
    return up, (g1 - up) / s, g1


def _require_kahler(s, up, g1) -> None:
    """Raise at the first entry where u' or u' + s u'' = g' is not positive."""
    bad = np.flatnonzero(np.logical_not((up > 0.0) & (g1 > 0.0)))
    if bad.size:
        s, up, g1 = (float(np.ravel(v)[bad[0]]) for v in (s, up, g1))
        raise NotKahlerError(f"u' = {up:.6g}, u' + s u'' = {g1:.6g} at s = {s:.6g}")


def _tensor(up, upp, z) -> np.ndarray:
    """delta_jk u' + u'' zbar_j z_k, stacked over the leading axes of z."""
    up = np.asarray(up)[..., None, None]
    upp = np.asarray(upp)[..., None, None]
    return up * np.eye(z.shape[-1]) + upp * (np.conj(z)[..., :, None] * z[..., None, :])


def _profile_derivatives(ode, s, g):
    """g', g'', g''' at (s, g), differentiating s g^k g' = H(g)."""
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
    return g1, g2, g3


def _density_derivatives(ode, s, g):
    """g', f' and f'' at (s, g), for the density f = k (log g - log s) + log g'."""
    k = ode.k
    g1, g2, g3 = _profile_derivatives(ode, s, g)
    f1 = k * (g1 / g - 1.0 / s) + g2 / g1
    f2 = k * (g2 / g - (g1 / g) ** 2) + (g3 * g1 - g2**2) / g1**2 + k / s**2
    return g1, f1, f2


def _curvature(k, s, g, g1, f1, f2):
    """Scalar curvature at (s, g) from the density derivatives there."""
    phi1 = g**k * f1 + k * s * g ** (k - 1) * g1 * f1 + s * g**k * f2
    return -phi1 / (g**k * g1)


def _bracket(k, s, g, f1):
    """s g^{n-1} f', the bracket whose derivative carries the curvature."""
    return s * g**k * f1


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
    u' + s u'' = g' (radial), both positive on a valid solution.
    """
    n = sol.ode.problem.n
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"z must have shape ({n},), got {z.shape}")
    s = float(np.real(np.vdot(z, z)))
    if s == 0.0:
        raise OutOfDomainError("the metric is defined away from the origin")
    up, upp, g1 = _radial(sol.ode, s, solve_g(sol, s))
    _require_kahler(s, up, g1)
    return _tensor(up, upp, z)


def _kahler_g(sol: RadialSolution, s: float) -> float:
    """g(s), once u' and g' are checked positive there (the chain divides
    by g', which vanishes where rounding pins g to a window end)."""
    g = solve_g(sol, s)
    up, _, g1 = _radial(sol.ode, s, g)
    _require_kahler(s, up, g1)
    return g


def scalar_curvature(sol: RadialSolution, s: float) -> float:
    """Scalar curvature at s through the analytic derivative chain.

    The chain returns R for any g, so this value does not test the
    inversion; curvature_fd does. Non-Kahler data at s raises
    NotKahlerError, as in metric_sample.
    """
    g = _kahler_g(sol, s)
    return _curvature(sol.ode.k, s, g, *_density_derivatives(sol.ode, s, g))


def _phi(sol: RadialSolution, s: float) -> float:
    g = _kahler_g(sol, s)
    _, f1, _ = _density_derivatives(sol.ode, s, g)
    return _bracket(sol.ode.k, s, g, f1)


def curvature_fd(sol: RadialSolution, s: float) -> float:
    """Curvature with the outer derivative taken by Richardson differences.

    Non-Kahler data at s or at a neighbour raises NotKahlerError.
    """
    g = _kahler_g(sol, s)  # first, so an s outside the domain is named as such
    h, near = _neighbours(s)
    phi = [_phi(sol, x) for x in near]
    return _richardson(sol.ode, s, g, h, phi)


def metric_sample(sol: RadialSolution, s) -> MetricSample:
    """Assemble the full radial record at s; rejects non-Kahler data.

    s is a float or a numpy array. g(s) is inverted once and feeds the
    potential and the curvature chain. For a float, the potential's
    anchor value is the solution's own g(s_a); for an array, s_a joins
    the same solve_g call, and every field is evaluated over the whole
    array at once.
    """
    if isinstance(s, np.ndarray):
        gs = solve_g(sol, np.append(s, sol.s_anchor))
        g, g_a = gs[:-1].reshape(s.shape), gs[-1]
    else:
        g, g_a = solve_g(sol, s), sol.g_anchor()
    ode = sol.ode
    up, upp, g1 = _radial(ode, s, g)
    _require_kahler(s, up, g1)
    return MetricSample(
        s=s,
        g=g,
        u=_potential(sol, s, g, g_a),
        up=up,
        upp=upp,
        # the density of reduction.f_of, from the g and g' at hand
        f=ode.k * (np.log(g) - np.log(s)) + np.log(g1),
        R_num=_curvature(ode.k, s, g, *_density_derivatives(ode, s, g)),
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
    call of solve_g, the derivative chain runs once over all five rows,
    and every residual is evaluated over the whole grid at once.
    max_curvature_residual comes from the analytic chain, which returns R
    for any g; max_fd_mismatch is the residual that tests the inversion.
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
    up, upp, g1 = _radial(ode, grid, g)
    _, f1, f2 = _density_derivatives(ode, points, gs)
    curv = _curvature(ode.k, grid, g, g1, f1[0], f2[0])
    r_fd = _richardson(ode, grid, g, h, _bracket(ode.k, points[1:], gs[1:], f1[1:]))
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

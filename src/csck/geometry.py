"""Metric reconstruction and curvature verification from a radial profile.

Given a gauge-fixed profile g(s), the potential is the closed form
u(s) = A log s + G(g(s)) + const, with A the Lelong number and G the
antiderivative of x^k (x - A) / H from RadialSolution.G. The metric at
z is delta_jk u' + u'' zbar_j z_k with u' = g/s, and the scalar
curvature comes out of the density f = log(g^{n-1} g' / s^{n-1}) as

    R = -[s g^{n-1} f']' / (g^{n-1} g').

All derivatives of g are obtained analytically from the first order
equation s g^{n-1} g' = H(g), so the curvature chain is exact in
(s, g); an optional Richardson finite difference of the same bracket
cross-checks the analytic route.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotKahlerError, OutOfDomainError
from .quadrature import RadialSolution, solve_g
from .reduction import FunctionHandle, f_of

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
    """Maxima of the verification residuals over a log-spaced sample grid."""

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


def _slope(ode, s: float, g: float) -> float:
    """g' = H(g) / (s g^k), from the first order equation."""
    return ode.H(g) / (s * g**ode.k)


def _profile_derivatives(ode, s: float, g: float):
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


def _g_handle(sol: RadialSolution) -> FunctionHandle:
    def value(t: float) -> float:
        return solve_g(sol, t)

    def deriv(t: float) -> float:
        return _slope(sol.ode, t, solve_g(sol, t))

    return FunctionHandle(value=value, deriv=deriv)


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
    g = solve_g(sol, s)
    g1 = _slope(sol.ode, s, g)
    up = g / s
    upp = (g1 - up) / s
    if not (up > 0.0 and g1 > 0.0):
        raise NotKahlerError(f"u' = {up:.6g}, u' + s u'' = {g1:.6g} at s = {s:.6g}")
    return up * np.eye(n, dtype=complex) + upp * np.outer(np.conj(z), z)


def scalar_curvature(sol: RadialSolution, s: float) -> float:
    """Scalar curvature at s through the analytic derivative chain."""
    _check_domain(sol, s)
    k = sol.ode.k
    g = solve_g(sol, s)
    g1, g2, g3 = _profile_derivatives(sol.ode, s, g)
    f1 = k * (g1 / g - 1.0 / s) + g2 / g1
    f2 = k * (g2 / g - (g1 / g) ** 2) + (g3 * g1 - g2**2) / g1**2 + k / s**2
    phi1 = g**k * f1 + k * s * g ** (k - 1) * g1 * f1 + s * g**k * f2
    return -phi1 / (g**k * g1)


def _phi(sol: RadialSolution, s: float) -> float:
    # the bracket s g^{n-1} f' whose derivative carries the curvature
    k = sol.ode.k
    g = solve_g(sol, s)
    g1, g2, _ = _profile_derivatives(sol.ode, s, g)
    f1 = k * (g1 / g - 1.0 / s) + g2 / g1
    return s * g**k * f1


def curvature_fd(sol: RadialSolution, s: float) -> float:
    """Curvature with the outer derivative taken by Richardson differences."""
    _check_domain(sol, s)
    h = 1e-4 * s
    d1 = (_phi(sol, s + h) - _phi(sol, s - h)) / (2.0 * h)
    d2 = (_phi(sol, s + 0.5 * h) - _phi(sol, s - 0.5 * h)) / h
    phi1 = (4.0 * d2 - d1) / 3.0
    g = solve_g(sol, s)
    return -phi1 / (g**sol.ode.k * _slope(sol.ode, s, g))


def metric_sample(sol: RadialSolution, s: float) -> MetricSample:
    """Assemble the full radial record at s; rejects non-Kahler data."""
    _check_domain(sol, s)
    n = sol.ode.problem.n
    g = solve_g(sol, s)
    g1 = _slope(sol.ode, s, g)
    up = g / s
    upp = (g1 - up) / s
    if not (up > 0.0 and g1 > 0.0):
        raise NotKahlerError(f"u' = {up:.6g}, u' + s u'' = {g1:.6g} at s = {s:.6g}")
    return MetricSample(
        s=s,
        u=potential_u(sol, s),
        up=up,
        upp=upp,
        f=float(f_of(_g_handle(sol), n)(s)),
        R_num=scalar_curvature(sol, s),
    )


def verify_solution(sol: RadialSolution, n_samples: int) -> VerificationReport:
    """Residual maxima over a log-spaced grid: curvature, determinant, positivity.

    The grid spans [0.01, 100] on ray domains and [0.05, 0.998 s_hi] on
    finite ones: near both ends of a finite domain the profile is pinned
    against a singular abscissa where float spacing makes the
    finite-difference cross-check noise dominated, while the analytic
    values stay accurate. Failures are reported, not raised.
    """
    lo, hi = sol.s_domain
    if math.isinf(hi):
        bottom, top = max(0.01, 2.0 * lo), 100.0
    else:
        bottom, top = max(0.05, 2.0 * lo), 0.998 * hi
    grid = np.geomspace(bottom, top, n_samples)
    n = sol.ode.problem.n
    R_target = sol.ode.problem.R

    curv = []
    fd_miss = []
    det_res = []
    margin = math.inf
    for s in grid:
        s = float(s)
        g = solve_g(sol, s)
        g1 = _slope(sol.ode, s, g)
        up = g / s
        upp = (g1 - up) / s
        margin = min(margin, up, g1)
        r_an = scalar_curvature(sol, s)
        curv.append(r_an)
        r_fd = curvature_fd(sol, s)
        fd_miss.append(abs(r_fd - r_an) / (1.0 + abs(r_an)))
        z = np.zeros(n, dtype=complex)
        z[0] = math.sqrt(s)
        det = float(np.real(np.linalg.det(metric_tensor(sol, z))))
        want = up ** (n - 1) * g1
        det_res.append(abs(det - want) / abs(want))
    curv = np.asarray(curv)
    return VerificationReport(
        n_samples=n_samples,
        s_lo=float(grid[0]),
        s_hi=float(grid[-1]),
        R_target=R_target,
        max_curvature_residual=float(np.max(np.abs(curv - R_target))),
        curvature_stddev=float(np.std(curv)),
        max_fd_mismatch=float(np.max(fd_miss)),
        max_det_residual=float(np.max(det_res)),
        positivity_margin=float(margin),
        kahler_ok=bool(margin > 0.0),
    )

"""Reduced ODE data for rotation-invariant csck metrics.

The radial potential enters through g(s) = s*u'(s).  For target scalar
curvature R in dimension n the whole problem collapses to

    s * g^{n-1}(s) * g'(s) = H(g(s)),
    H(x) = -R/(n(n+1)) * x^{n+1} + x^n + lambda*x + mu,

with two free constants.  This module builds H, forms the volume-density
log f = log(g^{n-1} g' / s^{n-1}), and recovers (lambda, mu) from any
candidate solution for round-trip validation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .errors import EndpointSampleError, NotCsckError, NotKahlerError
from .polynomials import Poly, RootProfile, real_root_profile


@dataclass(frozen=True)
class RadialProblem:
    """Dimension, target curvature, and the two reduction constants.

    lam and mu are the constants usually written lambda and mu; lambda is
    reserved in Python.
    """

    n: int
    R: float
    lam: float
    mu: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"dimension n = {self.n!r} must be an integer")
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        for name in ("R", "lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r} must be finite")

    @cached_property
    def ode(self) -> OdeData:
        """H(x) = -R/(n(n+1)) x^{n+1} + x^n + lam*x + mu and k = n-1, built
        once, on first use; build_ode returns it."""
        n = self.n
        coeffs = [0.0] * (n + 2)
        coeffs[0] = self.mu
        coeffs[1] = self.lam
        coeffs[n] = 1.0
        coeffs[n + 1] = -self.R / (n * (n + 1))
        return OdeData(self, Poly.from_coeffs(coeffs), n - 1)


@dataclass(frozen=True)
class OdeData:
    """The slope polynomial H of a problem and the exponent k = n - 1.

    Each problem has one OdeData, its ode attribute, so H is built and
    factored once per problem, whoever asks first. roots is the root
    profile of H, whose product is certified to reconstruct H within
    real_root_profile's default tol. It is factored on first use;
    classify, both closed antiderivatives and the shoot's window lookup
    all read it. Hp and Hpp, the first two derivatives of H that the
    curvature chain reads, are also built once.
    """

    problem: RadialProblem
    H: Poly
    k: int  # numerator exponent n-1

    @cached_property
    def roots(self) -> RootProfile:
        return real_root_profile(self.H)

    @cached_property
    def Hp(self) -> Poly:
        return self.H.derivative()

    @cached_property
    def Hpp(self) -> Poly:
        return self.Hp.derivative()


def build_ode(problem: RadialProblem) -> OdeData:
    """The problem's single OdeData: H(x) = -R/(n(n+1)) x^{n+1} + x^n
    + lam*x + mu and k = n-1, with H's root profile factored at most once.

    Every call, like classify's, returns problem.ode.
    """
    return problem.ode


@dataclass(frozen=True)
class FunctionHandle:
    """Scalar function with its derivative, and optionally a second one."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    second: Optional[Callable[[float], float]] = None


def f_of(g: FunctionHandle, n: int) -> Callable[[float], float]:
    """Volume-density log s |-> log(g^{n-1} g' / s^{n-1}).

    The returned handle raises NotKahler when g or g' is nonpositive at
    the queried point.
    """
    import numpy as np  # on first use, so that importing this module loads no numpy

    def f(s: float) -> float:
        gv = g.value(s)
        gd = g.deriv(s)
        if gv <= 0.0 or gd <= 0.0:
            raise NotKahlerError(f"g={gv:.6g}, g'={gd:.6g} at s={s:.6g}")
        return (n - 1) * (np.log(gv) - np.log(s)) + np.log(gd)

    return f


def _fd1(fn: Callable[[float], float], s: float, h: float) -> float:
    # centered first derivative with one Richardson step
    d1 = (fn(s + h) - fn(s - h)) / (2.0 * h)
    d2 = (fn(s + 0.5 * h) - fn(s - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


@dataclass(frozen=True)
class RecoveredConstants:
    """(lam, mu) recovered from a candidate g, with constancy diagnostics."""

    lam: float
    mu: float
    lam_spread: float
    mu_spread: float

    def __iter__(self) -> Iterator[float]:
        yield self.lam
        yield self.mu


def recover_constants(
    g: FunctionHandle,
    n: int,
    R: float,
    s_points: Optional[Iterable[float]] = None,
    tol: float = 1e-7,
) -> RecoveredConstants:
    """Recover (lam, mu) from a candidate solution g, checking constancy.

    lam := s g^{n-1} f' + (R/n) g^n and
    mu  := s g^{n-1} g' + R/(n(n+1)) g^{n+1} - g^n - lam*g
    are evaluated on a sample window (default: 8 log-spaced points in
    [1/2, 2]).  If either quantity varies across the window by more than
    tol relative to its mean, g does not solve the constant-R equation
    and NotCsck is raised with the spread attached.
    """
    import numpy as np

    if s_points is None:
        s_points = np.geomspace(0.5, 2.0, 8)
    f = f_of(g, n)
    lams = []
    mus = []
    for s in s_points:
        s = float(s)
        gv = g.value(s)
        gd = g.deriv(s)
        if gv <= 0.0 or gd <= 0.0:
            raise NotKahlerError(f"g={gv:.6g}, g'={gd:.6g} at s={s:.6g}")
        if g.second is not None:
            fp = (n - 1) * gd / gv + g.second(s) / gd - (n - 1) / s
        else:
            fp = _fd1(f, s, 1e-5 * s)
        lam = s * gv ** (n - 1) * fp + (R / n) * gv**n
        mu = s * gv ** (n - 1) * gd + (R / (n * (n + 1))) * gv ** (n + 1) - gv**n - lam * gv
        lams.append(lam)
        mus.append(mu)
    lam_mean = float(np.mean(lams))
    mu_mean = float(np.mean(mus))
    lam_spread = float(np.max(lams) - np.min(lams))
    mu_spread = float(np.max(mus) - np.min(mus))
    if lam_spread > tol * (1.0 + abs(lam_mean)):
        raise NotCsckError(lam_spread)
    if mu_spread > tol * (1.0 + abs(mu_mean)):
        raise NotCsckError(mu_spread)
    return RecoveredConstants(lam_mean, mu_mean, lam_spread, mu_spread)


def ode_residual(samples: Iterable[tuple[float, float, float]], ode: OdeData) -> float:
    """Max relative defect of s g^k g' = H(g) over (s, g, g') samples;
    nan when a sample's defect is nan."""
    worst = 0.0
    for s, gv, gd in samples:
        hg = ode.H(gv)
        if hg == 0.0:
            raise EndpointSampleError(f"H(g)=0 at s={s:.6g}, g={gv:.6g}")
        defect = abs(s * gv**ode.k * gd - hg) / (1.0 + abs(hg))
        # max() would keep worst over a nan defect; a nan worst stays
        if defect > worst or math.isnan(defect):
            worst = defect
    return worst

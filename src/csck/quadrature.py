"""Closed antiderivative of x^k / H, gauge fixing, and inversion to g(s).

On an admissible window (A, B) the radial profile is pinned down by the
implicit relation

    F(g(s)) = log s + c,        F'(x) = x^k / H(x),

so everything reduces to three steps: split x^k / H into tagged
closed-form terms (logs, reciprocal powers, arctangents), fix the gauge
constant c (through an anchor point, or by normalizing a finite
extension so its boundary sits at s = 1), and invert the relation with
a bracketed bisection plus a Newton polish. The same split applied to
x^k (x - A) / H gives the potential in closed form (RadialSolution.G).
A direct Runge-Kutta shoot of the first order equation s g^k g' = H(g)
is provided as an independent cross check; it is the only code that
needs scipy, imported when it runs.
"""

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .branches import admissible_branches
from .errors import (
    BadAnchorError,
    NotNormalizableError,
    OutOfDomainError,
    UnsupportedMultiplicityError,
)
from .polynomials import _deflate_linear, _poly_divmod, _taylor, real_root_profile
from .reduction import OdeData

__all__ = [
    "AntiderivativeF",
    "ArcTan",
    "LogLinear",
    "LogQuadratic",
    "RadialSolution",
    "RecipPower",
    "ShootResult",
    "ball_normalize",
    "eval_F",
    "gauge_from_anchor",
    "partial_fractions",
    "shoot_ode",
    "solve_g",
]

# tolerance for the analytic cancellation of log terms at infinity
_LOG_CANCEL_TOL = 1e-9
# relative bracket width before the Newton polish takes over
_BISECT_REL = 1e-13
# outward bracket expansion attempts before giving up
_EXPAND_CAP = 300
# warm-start cache size; halved by decimation when full
_CACHE_CAP = 512
# g value treated as a blow-up while shooting
_SHOOT_GCAP = 1e9


@dataclass(frozen=True)
class LogLinear:
    """c * log|x - alpha|."""

    c: float
    alpha: float


@dataclass(frozen=True)
class RecipPower:
    """c / (x - alpha)^p with p >= 1, already in antiderivative form."""

    c: float
    alpha: float
    p: int


@dataclass(frozen=True)
class LogQuadratic:
    """c * log((x - beta)^2 + gamma^2) with gamma > 0."""

    c: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class ArcTan:
    """c * arctan((x - beta) / gamma) with gamma > 0."""

    c: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class Linear:
    """c * x, the polynomial part of the potential's antiderivative at R = 0."""

    c: float


@dataclass(frozen=True)
class AntiderivativeF:
    """Antiderivative of x^k / H (or of the potential's x^k (x - A) / H)
    as a sum of tagged closed-form terms.

    The value at x is the sum of the term values; the terms absorb the
    leading coefficient of H. At a log or pole abscissa the value and the
    derivative report the signed infinite limit from the right, matching
    the convention that window interiors are approached from above the
    left endpoint.
    """

    terms: tuple

    def __call__(self, x: float) -> float:
        return eval_F(self, x)

    def derivative(self, x: float) -> float:
        total = 0.0
        pole_c = 0.0
        pole_p = 0
        for t in self.terms:
            if isinstance(t, LogLinear):
                d = x - t.alpha
                if d == 0.0:
                    if pole_p < 1:
                        pole_p, pole_c = 1, t.c
                else:
                    total += t.c / d
            elif isinstance(t, RecipPower):
                d = x - t.alpha
                if d == 0.0:
                    if t.p + 1 > pole_p:
                        pole_p, pole_c = t.p + 1, -t.c
                else:
                    total -= t.p * t.c / d ** (t.p + 1)
            elif isinstance(t, LogQuadratic):
                q = (x - t.beta) ** 2 + t.gamma**2
                total += 2.0 * t.c * (x - t.beta) / q
            elif isinstance(t, ArcTan):
                q = (x - t.beta) ** 2 + t.gamma**2
                total += t.c * t.gamma / q
            else:
                total += t.c
        # as in eval_F: the strongest pole wins, approached from the right
        if pole_p > 0:
            return math.copysign(math.inf, pole_c)
        return total

    def limit_at_inf(self) -> float:
        """Limit of F at +infinity; signed infinity when the logs survive.

        The log terms combine to (sum c_log + 2 sum c_logquad) * log x for
        large x, so the limit is finite exactly when that sum cancels; the
        arctangents then contribute c * pi/2 each and everything else dies.
        """
        log_sum = 0.0
        arctan_sum = 0.0
        for t in self.terms:
            if isinstance(t, LogLinear):
                log_sum += t.c
            elif isinstance(t, LogQuadratic):
                log_sum += 2.0 * t.c
            elif isinstance(t, ArcTan):
                arctan_sum += t.c
        if abs(log_sum) > _LOG_CANCEL_TOL:
            return math.copysign(math.inf, log_sum)
        return arctan_sum * 0.5 * math.pi


def eval_F(F: AntiderivativeF, x: float) -> float:
    """Value of F at x; a singular abscissa gives a signed infinity."""
    total = 0.0
    pole_c = 0.0
    pole_p = 0
    log_c = 0.0
    for t in F.terms:
        if isinstance(t, LogLinear):
            d = x - t.alpha
            if d == 0.0:
                log_c += t.c
            else:
                total += t.c * math.log(abs(d))
        elif isinstance(t, RecipPower):
            d = x - t.alpha
            if d == 0.0:
                if t.p > pole_p:
                    pole_p, pole_c = t.p, t.c
            else:
                total += t.c / d**t.p
        elif isinstance(t, LogQuadratic):
            total += t.c * math.log((x - t.beta) ** 2 + t.gamma**2)
        elif isinstance(t, ArcTan):
            total += t.c * math.atan((x - t.beta) / t.gamma)
        else:
            total += t.c * x
    # the strongest pole wins; a bare log diverges to -inf from either side
    if pole_p > 0:
        return math.copysign(math.inf, pole_c)
    if log_c != 0.0:
        return math.copysign(math.inf, -log_c)
    return total


def partial_fractions(ode: OdeData, branch) -> AntiderivativeF:
    """Split x^k / H into closed antiderivative terms on the given window.

    A real root of multiplicity m contributes a log plus reciprocal powers
    up to order m - 1, with coefficients read off a local series quotient
    (the residue and derivative formulas, organized as one Taylor division).
    Each simple quadratic factor contributes a log and an arctangent whose
    numerator is recovered from a linear system; a repeated quadratic
    factor raises UnsupportedMultiplicityError. Shared roots of x^k and H
    cancel automatically because their leading quotient entries vanish.
    """
    return _split(ode.H, ode.k, branch)


def _split(H, k: int, branch, root: Optional[float] = None) -> AntiderivativeF:
    """Antiderivative of P / H with P = x^k, or P = x^k (x - root) when given.

    The second numerator is the one of the potential (see RadialSolution.G).
    Its degree reaches deg H when R = 0; the polynomial part of P / H is
    then the constant 1 / lead(H), integrated as a Linear term.
    """
    profile = real_root_profile(H)
    for beta, gamma, mult in profile.quad_factors:
        if mult >= 2:
            raise UnsupportedMultiplicityError(
                f"quadratic factor at ({beta}, {gamma}) has multiplicity {mult}"
            )

    d = len(H.coeffs) - 1
    lin = 1.0 / H.coeffs[-1] if root is not None and k + 1 == d else 0.0
    terms = [Linear(lin)] if lin else []
    principal = []
    for value, mult in profile.real_roots:
        shifted = _taylor(H.coeffs, value)
        denom = shifted[mult:]
        assert denom and denom[0] != 0.0
        # Taylor coefficients of P at value; (value - root) is exactly 0 at root
        numer = [
            float(math.comb(k, j)) * value ** (k - j) if j <= k else 0.0
            for j in range(mult)
        ]
        if root is not None:
            numer = [(value - root) * a + b for a, b in zip(numer, [0.0] + numer)]
        quo = []
        for i in range(mult):
            acc = numer[i]
            for j in range(i):
                if i - j < len(denom):
                    acc -= quo[j] * denom[i - j]
            quo.append(acc / denom[0])
        for j in range(1, mult + 1):
            a = quo[mult - j]
            principal.append((value, j, a))
            if a == 0.0:
                continue
            if j == 1:
                terms.append(LogLinear(a, value))
            else:
                terms.append(RecipPower(a / (1.0 - j), value, j - 1))

    if profile.quad_factors:
        # remainder after subtracting the polynomial and real-root principal
        # parts: T = P - lin H - sum a_j H/(x-r)^j equals sum (B x + C) H/q
        # over the quads
        numer = np.zeros(d + 1)
        numer[k] = 1.0
        if root is not None:
            numer[k] = -root
            numer[k + 1] = 1.0
        target = (numer - lin * np.asarray(H.coeffs))[:d]
        for value, j, a in principal:
            work = list(H.coeffs)
            for _ in range(j):
                work, _rem = _deflate_linear(work, value)
            padded = np.zeros(d)
            padded[: len(work)] = work
            target -= a * padded
        cols = []
        pairs = []
        for beta, gamma, _m in profile.quad_factors:
            q = (beta * beta + gamma * gamma, -2.0 * beta, 1.0)
            hq, rem = _poly_divmod(H.coeffs, q)
            assert max(abs(r) for r in rem) <= 1e-9 * max(abs(h) for h in H.coeffs)
            base = np.zeros(d)
            base[: len(hq)] = hq
            xbase = np.zeros(d)
            xbase[1 : len(hq) + 1] = hq
            cols.append(xbase)
            cols.append(base)
            pairs.append((beta, gamma))
        matrix = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        resid = matrix @ coef - target
        assert float(np.max(np.abs(resid))) <= 1e-8 * (1.0 + float(np.max(np.abs(target))))
        for (beta, gamma), bq, cq in zip(pairs, coef[0::2], coef[1::2]):
            bq = float(bq)
            cq = float(cq)
            if bq != 0.0:
                terms.append(LogQuadratic(0.5 * bq, beta, gamma))
            aq = (cq + bq * beta) / gamma
            if aq != 0.0:
                terms.append(ArcTan(aq, beta, gamma))

    F = AntiderivativeF(tuple(terms))
    probe = probe_point(branch.A, branch.B)
    want = probe**k / H(probe)
    if root is not None:
        want *= probe - root
    got = F.derivative(probe)
    assert got > 0.0 and abs(got - want) <= 1e-8 * (1.0 + abs(want))
    return F


class RadialSolution:
    """Gauge-fixed radial profile g(s) on one admissible window.

    Immutable apart from a monotone sample cache that warm-starts the
    inversion: reads grab the current tuple pair without locking and
    writes swap in a fresh pair under a lock, so concurrent readers are
    safe and writers are serialized. The potential's antiderivative G is
    built on first use; a race builds it twice, to the same value.
    """

    __slots__ = ("ode", "branch", "F", "c", "s_domain", "_lock", "_cache", "_G")

    def __init__(self, ode, branch, F, c, s_domain, seed_samples=()):
        self.ode = ode
        self.branch = branch
        self.F = F
        self.c = c
        self.s_domain = s_domain
        self._lock = threading.Lock()
        seeds = tuple(sorted(seed_samples))
        self._cache = (
            tuple(s for s, _ in seeds),
            tuple(g for _, g in seeds),
        )
        self._G = None

    def g(self, s: float) -> float:
        return solve_g(self, s)

    def G(self) -> AntiderivativeF:
        """Antiderivative of x^k (x - A) / H, A the window's left endpoint.

        Along the profile du = g ds / s = x^n dx / H, and x^n splits as
        x^k (x - A) + A x^k, so u(s) = A log s + G(g(s)) + const. The
        A log s part takes the log|x - A| term of a simple root A, so G is
        smooth at A and stays accurate where rounding pins g to A.
        """
        if self._G is None:
            self._G = _split(self.ode.H, self.ode.k, self.branch, self.branch.A)
        return self._G

    def _remember(self, s: float, g: float) -> None:
        with self._lock:
            ss, gs = self._cache
            i = bisect.bisect_left(ss, s)
            if i < len(ss) and ss[i] == s:
                return
            if len(ss) >= _CACHE_CAP:
                ss = ss[::2]
                gs = gs[::2]
                i = bisect.bisect_left(ss, s)
            self._cache = (ss[:i] + (s,) + ss[i:], gs[:i] + (g,) + gs[i:])


def probe_point(A: float, B: float) -> float:
    """Interior point of the window (A, B): A + 1 on a ray, else the midpoint."""
    return A + 1.0 if math.isinf(B) else 0.5 * (A + B)


def solve_g(sol: RadialSolution, s: "float | np.ndarray"):
    """Invert F(g) = log s + c by bracketed bisection and a Newton polish.

    The bracket starts from cached neighbours when available and expands
    geometrically toward the window endpoints otherwise; bisection stops at
    relative width 1e-13 and Newton runs only inside the verified bracket.

    A numpy array of s (any order, repeats allowed) returns the array of
    g in the same shape. Its entries run the same steps in lockstep, from
    the probe-point bracket, and neither read nor write the warm cache.
    """
    if isinstance(s, np.ndarray):
        return _solve_g_array(sol, s)
    s_lo, s_hi = sol.s_domain
    if not (s_lo < s < s_hi):
        raise OutOfDomainError(
            f"s = {s!r} is outside the solution domain ({s_lo}, {s_hi})"
        )
    t = math.log(s) + sol.c
    F = sol.F
    A, B = sol.branch.A, sol.branch.B

    ss, gs = sol._cache
    i = bisect.bisect_left(ss, s)
    if i < len(ss) and ss[i] == s:
        return gs[i]
    lo = gs[i - 1] if i > 0 else None
    hi = gs[i] if i < len(ss) else None

    if lo is None or eval_F(F, lo) > t:
        x = lo if lo is not None else (hi if hi is not None else probe_point(A, B))
        for _ in range(_EXPAND_CAP):
            if eval_F(F, x) <= t:
                break
            x = A + 0.5 * (x - A)
        else:
            raise OutOfDomainError(f"no lower bracket for s = {s!r}")
        lo = x
    if hi is None or eval_F(F, hi) < t:
        x = hi if hi is not None else lo
        for _ in range(_EXPAND_CAP):
            if eval_F(F, x) >= t:
                break
            x = 2.0 * x - A + 1.0 if math.isinf(B) else B - 0.5 * (B - x)
        else:
            raise OutOfDomainError(f"no upper bracket for s = {s!r}")
        hi = x

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if eval_F(F, mid) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_REL * (1.0 + abs(mid)):
            break
    g = 0.5 * (lo + hi)

    for _ in range(3):
        slope = F.derivative(g)
        if not math.isfinite(slope) or slope <= 0.0:
            break
        step = (eval_F(F, g) - t) / slope
        cand = g - step
        if not (lo <= cand <= hi):
            break
        g = cand
        if abs(step) <= 1e-16 * (1.0 + abs(g)):
            break

    sol._remember(s, g)
    return g


def _F_array(F: AntiderivativeF, x: np.ndarray) -> np.ndarray:
    """eval_F over an array.

    An entry whose sum is not finite, such as one on a log or pole
    abscissa, is recomputed by eval_F and so gets its signed infinity.
    """
    total = np.zeros_like(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in F.terms:
            if isinstance(t, LogLinear):
                total += t.c * np.log(np.abs(x - t.alpha))
            elif isinstance(t, RecipPower):
                total += t.c / (x - t.alpha) ** t.p
            elif isinstance(t, LogQuadratic):
                total += t.c * np.log((x - t.beta) ** 2 + t.gamma**2)
            elif isinstance(t, ArcTan):
                total += t.c * np.arctan((x - t.beta) / t.gamma)
            else:
                total += t.c * x
    bad = ~np.isfinite(total)
    if bad.any():
        total[bad] = [eval_F(F, float(v)) for v in x[bad]]
    return total


def _dF_array(F: AntiderivativeF, x: np.ndarray) -> np.ndarray:
    """F.derivative over an array, with the same treatment of singular entries."""
    total = np.zeros_like(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in F.terms:
            if isinstance(t, LogLinear):
                total += t.c / (x - t.alpha)
            elif isinstance(t, RecipPower):
                total -= t.p * t.c / (x - t.alpha) ** (t.p + 1)
            elif isinstance(t, LogQuadratic):
                total += 2.0 * t.c * (x - t.beta) / ((x - t.beta) ** 2 + t.gamma**2)
            elif isinstance(t, ArcTan):
                total += t.c * t.gamma / ((x - t.beta) ** 2 + t.gamma**2)
            else:
                total += t.c
    bad = ~np.isfinite(total)
    if bad.any():
        total[bad] = [F.derivative(float(v)) for v in x[bad]]
    return total


def _expand(F, x, t, step, too_far, side, s):
    """Step each entry of x until too_far(F(x), t) fails, as solve_g does."""
    todo = np.arange(x.size)
    for _ in range(_EXPAND_CAP):
        todo = todo[too_far(_F_array(F, x[todo]), t[todo])]
        if not todo.size:
            return x
        x[todo] = step(x[todo])
    raise OutOfDomainError(f"no {side} bracket for s = {float(s[todo[0]])!r}")


def _solve_g_array(sol: RadialSolution, s: np.ndarray) -> np.ndarray:
    """Cold solve_g of every entry of s, with bisection and Newton in lockstep."""
    shape = s.shape
    s = np.asarray(s, dtype=float).ravel()
    s_lo, s_hi = sol.s_domain
    outside = np.flatnonzero(~((s_lo < s) & (s < s_hi)))
    if outside.size:
        raise OutOfDomainError(
            f"s = {float(s[outside[0]])!r} is outside the solution domain ({s_lo}, {s_hi})"
        )
    t = np.log(s) + sol.c
    F = sol.F
    A, B = sol.branch.A, sol.branch.B

    lo = _expand(
        F, np.full(s.size, probe_point(A, B)), t,
        lambda x: A + 0.5 * (x - A), np.greater, "lower", s,
    )
    up = (lambda x: 2.0 * x - A + 1.0) if math.isinf(B) else (lambda x: B - 0.5 * (B - x))
    hi = _expand(F, lo.copy(), t, up, np.less, "upper", s)

    # the entries still bisecting, compacted only when some of them stop
    idx, a, b, tt = np.arange(s.size), lo, hi, t
    for _ in range(200):
        if not idx.size:
            break
        mid = 0.5 * (a + b)
        inside = (a < mid) & (mid < b)
        below = _F_array(F, mid) < tt
        a = np.where(inside & below, mid, a)
        b = np.where(inside & ~below, mid, b)
        stop = ~inside | (b - a <= _BISECT_REL * (1.0 + np.abs(mid)))
        if stop.any():
            lo[idx[stop]], hi[idx[stop]] = a[stop], b[stop]
            go = ~stop
            idx, a, b, tt = idx[go], a[go], b[go], tt[go]
    lo[idx], hi[idx] = a, b
    g = 0.5 * (lo + hi)

    todo = np.arange(s.size)
    for _ in range(3):
        x = g[todo]
        slope = _dF_array(F, x)
        usable = np.isfinite(slope) & (slope > 0.0)
        todo, x, slope = todo[usable], x[usable], slope[usable]
        step = (_F_array(F, x) - t[todo]) / slope
        cand = x - step
        held = (lo[todo] <= cand) & (cand <= hi[todo])
        todo, cand, step = todo[held], cand[held], step[held]
        g[todo] = cand
        todo = todo[np.abs(step) > 1e-16 * (1.0 + np.abs(cand))]
        if not todo.size:
            break
    return g.reshape(shape)


def gauge_from_anchor(ode, branch, F, anchor) -> RadialSolution:
    """Fix the gauge so the profile passes through anchor = (s0, g0)."""
    s0, g0 = anchor
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise BadAnchorError(f"anchor abscissa s0 = {s0!r} must be positive and finite")
    if not (math.isfinite(g0) and branch.A < g0 < branch.B):
        raise BadAnchorError(
            f"anchor value g0 = {g0!r} is not interior to ({branch.A}, {branch.B})"
        )
    c = eval_F(F, g0) - math.log(s0)
    if branch.diverges_left:
        s_lo = 0.0
    else:
        s_lo = math.exp(eval_F(F, branch.A) - c)
    if branch.diverges_right:
        s_hi = math.inf
    else:
        edge = F.limit_at_inf() if math.isinf(branch.B) else eval_F(F, branch.B)
        s_hi = math.exp(edge - c)
    return RadialSolution(ode, branch, F, c, (s_lo, s_hi), seed_samples=((s0, g0),))


def ball_normalize(ode, branch, F) -> RadialSolution:
    """Fix c to the right-endpoint limit of F so that s_hi = 1 exactly.

    Only finite-extension windows qualify; the constant comes out of the
    analytic limit (log terms cancel by degree counting, arctangents give
    c * pi/2), never out of a numerical evaluation at large g.
    """
    if branch.diverges_right:
        raise NotNormalizableError(
            "the antiderivative diverges at the right endpoint, "
            "so the domain cannot be scaled to end at s = 1"
        )
    assert math.isinf(branch.B)
    c = F.limit_at_inf()
    assert math.isfinite(c)
    s_lo = 0.0 if branch.diverges_left else math.exp(eval_F(F, branch.A) - c)
    return RadialSolution(ode, branch, F, c, (s_lo, 1.0))


@dataclass(frozen=True)
class ShootResult:
    """Samples (s, g) from direct integration of the radial equation.

    domain_end carries the abscissa where integration stopped when the
    profile left its admissible window before exhausting the targets;
    it stays None on a clean run.
    """

    samples: tuple
    domain_end: Optional[float]
    message: str


def shoot_ode(ode, s0: float, g0: float, s_targets) -> ShootResult:
    """Integrate s g^k g' = H(g) from (s0, g0) to each target abscissa.

    Runs an adaptive Runge-Kutta 4(5) in t = log s, forward and backward
    from the anchor, with rtol 1e-10. When g blows up at a finite
    extension boundary (or the stepper gives up) the result keeps the
    partial samples and records the reached abscissa in domain_end.
    """
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise BadAnchorError(f"shoot abscissa s0 = {s0!r} must be positive and finite")
    window = None
    for b in admissible_branches(ode):
        if b.A < g0 < b.B:
            window = b
            break
    if window is None:
        raise BadAnchorError(f"g0 = {g0!r} lies in no admissible window")

    from scipy.integrate import solve_ivp  # only the cross-check needs scipy

    k = ode.k
    H = ode.H

    def rhs(t, y):
        g = y[0]
        return (H(g) / g**k,)

    floor = window.A + 1e-12 * (1.0 + abs(window.A))

    def hit_floor(t, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1.0

    events = [hit_floor]
    if not window.diverges_right:
        cap = _SHOOT_GCAP if math.isinf(window.B) else window.B

        def hit_cap(t, y):
            return y[0] - cap

        hit_cap.terminal = True
        hit_cap.direction = 1.0
        events.append(hit_cap)

    t0 = math.log(s0)
    targets = sorted(set(float(s) for s in s_targets))
    assert all(s > 0.0 for s in targets)
    collected = {}
    domain_end = None
    message = ""

    for s in targets:
        if s == s0:
            collected[s] = g0

    for sign in (-1, 1):
        if sign < 0:
            side = [s for s in targets if s < s0]
            side.sort(reverse=True)
        else:
            side = [s for s in targets if s > s0]
        if not side:
            continue
        t_eval = [math.log(s) for s in side]
        run = solve_ivp(
            rhs,
            (t0, t_eval[-1]),
            [g0],
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
            t_eval=t_eval,
            events=events,
        )
        for t_val, g_val in zip(run.t, run.y[0]):
            j = t_eval.index(float(t_val))
            collected[side[j]] = float(g_val)
        if run.status == 1:
            stopped = min(
                (float(te[0]) for te in run.t_events if te.size), default=None
            )
            if stopped is not None:
                domain_end = math.exp(stopped)
                message = (
                    f"DomainEnd(s_reached={domain_end!r}): "
                    "g left the admissible window"
                )
        elif run.status < 0:
            edge = float(run.t[-1]) if run.t.size else t0
            domain_end = math.exp(edge)
            message = (
                f"DomainEnd(s_reached={domain_end!r}): step size underflow"
            )

    samples = tuple(sorted(collected.items()))
    return ShootResult(samples=samples, domain_end=domain_end, message=message)

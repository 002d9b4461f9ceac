"""Closed antiderivative of x^k / H, gauge fixing, and inversion to g(s).

On an admissible window (A, B) the radial profile is pinned down by the
implicit relation

    F(g(s)) = log s + c,        F'(x) = x^k / H(x),

so everything reduces to three steps: split x^k / H into tagged
closed-form terms (logs, reciprocal powers, arctangents), fix the gauge
constant c (through an anchor point, or by normalizing a finite
extension so its boundary sits at s = 1), and invert the relation with
Newton steps kept inside a verified bracket. The split follows one
residue rule: a Taylor series division at each root of H, real or
complex, gives the principal part there, and the logs at a conjugate
pair combine into a log of the quadratic factor and an arctangent. The
same split applied to x^k (x - A) / H gives the potential in closed
form (RadialSolution.G). One value-and-slope loop over the terms serves
floats and arrays alike; eval_F keeps a value-only loop (see there).
A direct Runge-Kutta shoot of the first order equation s g^k g' = H(g),
a plain-float Dormand-Prince 5(4) integrator, is provided as an
independent cross check.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .branches import admissible_branches
from .errors import (
    BadAnchorError,
    IllConditionedError,
    NotNormalizableError,
    OutOfDomainError,
    UnsupportedMultiplicityError,
)
from .polynomials import _taylor
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
# relative bracket width at which a Newton point outside the bracket ends
# the inversion
_BISECT_REL = 1e-13
# points of a bracket walk, the probe point included, before giving up; it
# keeps a ray's walk at or below 2**300, since eval_F raises OverflowError
# further out: (x - beta)**2 near 1.3e154, a double pole's d**3 near 5.6e102
_EXPAND_CAP = 300
# inversion steps (Newton or bisection) before the iterate is returned
_ITER_CAP = 200
# g value treated as a blow-up while shooting
_SHOOT_GCAP = 1e9
# the shoot's error tolerances: relative to |g|, and absolute
_SHOOT_RTOL = 1e-10
_SHOOT_ATOL = 1e-12
# row kinds of AntiderivativeF.table, the commonest first
_LOG, _LOGQ, _ATAN, _POLE, _LIN = range(5)


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
    left endpoint. Evaluation reads table, a flat copy of the terms.
    """

    terms: tuple

    @cached_property
    def table(self) -> tuple:
        """The terms as (kind, c, a, e) rows, in term order, built once.

        a is the term's alpha or beta; e is gamma**2 for a LogQuadratic,
        gamma for an ArcTan and p for a RecipPower. A LogLinear or Linear
        row has e = 0, and a Linear row a = 0.0.
        """
        rows = []
        for t in self.terms:
            if isinstance(t, LogLinear):
                rows.append((_LOG, t.c, t.alpha, 0))
            elif isinstance(t, LogQuadratic):
                rows.append((_LOGQ, t.c, t.beta, t.gamma**2))
            elif isinstance(t, ArcTan):
                rows.append((_ATAN, t.c, t.beta, t.gamma))
            elif isinstance(t, RecipPower):
                rows.append((_POLE, t.c, t.alpha, t.p))
            else:
                rows.append((_LIN, t.c, 0.0, 0))
        return tuple(rows)

    def __call__(self, x):
        """F at x, a float or an array of any shape."""
        if isinstance(x, np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return _F_dF_array(self, x)[0]
        return eval_F(self, x)

    def derivative(self, x: float) -> float:
        return _value_and_slope(self, x)[1]

    def limit_at_inf(self) -> float:
        """Limit of F at +infinity; signed infinity when the logs survive.

        The log terms combine to (sum c_log + 2 sum c_logquad) * log x for
        large x, so the limit is finite exactly when that sum cancels; the
        arctangents then contribute c * pi/2 each and everything else dies.
        """
        log_sum = 0.0
        arctan_sum = 0.0
        for kind, c, _a, _e in self.table:
            if kind == _LOG:
                log_sum += c
            elif kind == _LOGQ:
                log_sum += 2.0 * c
            elif kind == _ATAN:
                arctan_sum += c
        if abs(log_sum) > _LOG_CANCEL_TOL:
            return math.copysign(math.inf, log_sum)
        return arctan_sum * 0.5 * math.pi


def eval_F(F: AntiderivativeF, x: float) -> float:
    """Value of F at x, one pass over F.table; a log or pole abscissa gives
    the signed infinity of _singular."""
    # apart from _value_and_slope: the walk and the gauge need no slope, and
    # a pole's slope c / d**(p + 1) overflows where its value c / d**p is finite
    total = 0.0
    try:
        for kind, c, a, e in F.table:
            if kind == _LOG:
                total += c * math.log(abs(x - a))
            elif kind == _LOGQ:
                total += c * math.log((x - a) ** 2 + e)
            elif kind == _ATAN:
                total += c * math.atan((x - a) / e)
            elif kind == _POLE:
                total += c / (x - a) ** e
            else:
                total += c * x
    except (ValueError, ZeroDivisionError):
        return _singular(F, x)[0]
    return total


def _value_and_slope(F: AntiderivativeF, x, log=math.log, atan=math.atan):
    """(eval_F(F, x), F'(x)) in one pass over F.table, for a float x with
    the math functions, or for an array x with log=np.log, atan=np.arctan.

    The value takes eval_F's float operations, in the same order. At a log
    or pole abscissa of a float x both are the signed infinities of
    _singular; an array x leaves them to _F_dF_array.
    """
    value = slope = 0.0
    try:
        for kind, c, a, e in F.table:
            d = x - a
            if kind == _LOG:
                value += c * log(abs(d))
                slope += c / d
            elif kind == _LOGQ:
                q = d**2 + e
                value += c * log(q)
                slope += 2.0 * c * d / q
            elif kind == _ATAN:
                value += c * atan(d / e)
                slope += c * e / (d**2 + e**2)
            elif kind == _POLE:
                value += c / d**e
                slope -= e * c / d ** (e + 1)
            else:
                value += c * x
                slope += c
    except (ValueError, ZeroDivisionError):
        return _singular(F, x)
    return value, slope


def _singular(F: AntiderivativeF, x: float):
    """(F(x), F'(x)) at a log or pole abscissa x: the signed infinities of
    the limits from the right.

    The strongest term at x decides both: the first reciprocal power of
    the highest order p, which tends to c * inf with a slope of -c * inf,
    or else the log, which tends to -c * inf with a slope of c * inf.
    Called from a kernel's handler of the error that the zero distance
    raised; at any other x it re-raises that error.
    """
    order, sign = -1, 0.0
    for kind, c, a, e in F.table:
        # a log row has e = 0, below the order of every pole
        if a == x and kind in (_LOG, _POLE) and e > order:
            order, sign = e, c if kind == _POLE else -c
    if order < 0:
        raise
    return math.copysign(math.inf, sign), math.copysign(math.inf, -sign)


def partial_fractions(ode: OdeData, branch) -> AntiderivativeF:
    """Split x^k / H into closed antiderivative terms on the given window.

    Each root z of H, real or complex, contributes the principal part of
    x^k / H at z, read off one local series quotient (the residue and
    derivative formulas, organized as one Taylor division). A real root
    of multiplicity m gives a log plus reciprocal powers up to order
    m - 1. A simple quadratic factor (x - beta)^2 + gamma^2 takes its
    residue at z = beta + i gamma, and the logs at z and at its conjugate
    combine into a log of the factor and an arctangent; a repeated
    quadratic factor raises UnsupportedMultiplicityError. Shared roots of
    x^k and H cancel automatically because their leading quotient entries
    vanish.
    """
    return _split(ode, branch)


def _principal_part(H, k: int, z, mult: int, root: Optional[float]) -> list:
    """[a_1, ..., a_mult] with sum a_j / (x - z)^j the principal part of
    P / H at its root z of multiplicity mult, z real or complex.

    P is x^k, or x^k (x - root) when root is given. a_mult, ..., a_1 are
    the first mult Taylor coefficients at z of P (x - z)^mult / H, from a
    series division of P's Taylor coefficients at z by those of
    H / (x - z)^mult; a_1 of a simple root is P(z) / H'(z).
    """
    denom = _taylor(H.coeffs, z)[mult:]
    assert denom and denom[0] != 0.0
    # Taylor coefficients of P at z; (z - root) is exactly 0 at root
    numer = [
        float(math.comb(k, j)) * z ** (k - j) if j <= k else 0.0
        for j in range(mult)
    ]
    if root is not None:
        numer = [(z - root) * a + b for a, b in zip(numer, [0.0] + numer)]
    quo = []
    for i in range(mult):
        acc = numer[i]
        for j in range(i):
            if i - j < len(denom):
                acc -= quo[j] * denom[i - j]
        quo.append(acc / denom[0])
    return quo[::-1]


def _split(ode: OdeData, branch, root: Optional[float] = None) -> AntiderivativeF:
    """Antiderivative of P / H with P = x^k, or P = x^k (x - root) when given.

    The second numerator is the one of the potential (see RadialSolution.G).
    Its degree reaches deg H when R = 0; the polynomial part of P / H is
    then the constant 1 / lead(H), integrated as a Linear term. The pair
    rho log(x - z) + conj(rho) log(x - conj(z)) at z = beta + i gamma is,
    up to a constant, Re rho log((x - beta)^2 + gamma^2)
    - 2 Im rho arctan((x - beta) / gamma).
    """
    H, k, profile = ode.H, ode.k, ode.roots
    for beta, gamma, mult in profile.quad_factors:
        if mult >= 2:
            raise UnsupportedMultiplicityError(
                f"quadratic factor at ({beta}, {gamma}) has multiplicity {mult}"
            )

    lin = 1.0 / H.coeffs[-1] if root is not None and k + 2 == len(H.coeffs) else 0.0
    terms = [Linear(lin)] if lin else []
    for value, mult in profile.real_roots:
        for j, a in enumerate(_principal_part(H, k, value, mult, root), 1):
            if a == 0.0:
                continue
            if j == 1:
                terms.append(LogLinear(a, value))
            else:
                terms.append(RecipPower(a / (1.0 - j), value, j - 1))
    for beta, gamma, _m in profile.quad_factors:
        (rho,) = _principal_part(H, k, complex(beta, gamma), 1, root)
        if rho.real != 0.0:
            terms.append(LogQuadratic(rho.real, beta, gamma))
        if rho.imag != 0.0:
            terms.append(ArcTan(-2.0 * rho.imag, beta, gamma))

    F = AntiderivativeF(tuple(terms))
    probe = probe_point(branch.A, branch.B)
    want = probe**k / H(probe)
    if root is not None:
        want *= probe - root
    got = F.derivative(probe)
    if not (got > 0.0 and abs(got - want) <= 1e-8 * (1.0 + abs(want))):
        mismatch = abs(got - want) / (1.0 + abs(want))
        raise IllConditionedError(
            mismatch, f"F'({probe!r}) = {got!r} misses x^k/H = {want!r} by {mismatch:.3e} relative"
        )
    return F


class RadialSolution:
    """Gauge-fixed radial profile g(s) on one admissible window.

    Holds the problem, the window, F, the gauge constant c and the s-domain;
    solve_g inverts it. F diverges at the left end of every admissible
    window and at a finite right end, so the domain starts at s = 0, and
    it ends at inf, or on a finite extension at exp(F(inf) - c). A finite
    extension whose F has no finite limit at infinity (its log terms fail
    to cancel) raises IllConditionedError. The potential's antiderivative
    G and its anchor value g(s_a) are computed on first use and kept: both
    are fixed by the solution alone.
    """

    __slots__ = ("ode", "branch", "F", "c", "s_domain", "_G", "_g_anchor")

    def __init__(self, ode, branch, F, c):
        hi = math.inf
        if not branch.diverges_right:
            limit = F.limit_at_inf()
            if not math.isfinite(limit):
                raise IllConditionedError(
                    limit,
                    f"F has no finite limit at infinity on the finite extension"
                    f" ({branch.A}, inf): its log terms do not cancel",
                )
            hi = _exp(limit - c)
        self.ode = ode
        self.branch = branch
        self.F = F
        self.c = c
        self.s_domain = (0.0, hi)
        self._G = None
        self._g_anchor = None

    @property
    def s_anchor(self) -> float:
        """The abscissa s_a where the potential vanishes: 1, or the domain
        midpoint when 1 is not interior (ball-normalized domains end at 1)."""
        hi = self.s_domain[1]
        return 1.0 if 1.0 < hi else 0.5 * hi

    def g_anchor(self) -> float:
        """g(s_a), from the scalar solve_g."""
        if self._g_anchor is None:
            self._g_anchor = solve_g(self, self.s_anchor)
        return self._g_anchor

    def G(self) -> AntiderivativeF:
        """Antiderivative of x^k (x - A) / H, A the window's left endpoint.

        Along the profile du = g ds / s = x^n dx / H, and x^n splits as
        x^k (x - A) + A x^k, so u(s) = A log s + G(g(s)) + const. The
        A log s part takes the log|x - A| term of a simple root A, so G is
        smooth at A and stays accurate where rounding pins g to A.
        """
        if self._G is None:
            self._G = _split(self.ode, self.branch, self.branch.A)
        return self._G


def probe_point(A: float, B: float) -> float:
    """Interior point of the window (A, B): A + 1 on a ray, else the midpoint."""
    return A + 1.0 if math.isinf(B) else 0.5 * (A + B)


def _outside(s, sol: RadialSolution) -> OutOfDomainError:
    lo, hi = sol.s_domain
    return OutOfDomainError(f"s = {s!r} is outside the solution domain ({lo}, {hi})")


def solve_g(sol: RadialSolution, s: "float | np.ndarray"):
    """Invert F(g) = log s + c by Newton steps kept inside a bracket.

    The bracket F(lo) <= t <= F(hi), t = log s + c, is the last step of
    _walk: down toward A while F > t at the probe point, up toward B
    otherwise, to the first point that crosses t. From its midpoint, each
    step evaluates F at the iterate g, moves the bracket end on g's side
    of t to g, and goes to the Newton point g - (F(g) - t) / F'(g) when
    that lies strictly inside the bracket, to the bracket midpoint
    otherwise (rtsafe, Numerical Recipes 9.4). It stops when the Newton
    step is at most 2**-52 |g|, so that a Newton point that rounds back to
    g always stops, or when the Newton point falls outside a bracket
    already narrower than 1e-13 |g| (g > 0 on every window), and returns
    the Newton point clipped into the bracket: in the second case, the
    bracket end it crossed. The result depends on s alone, not on earlier
    calls.

    A numpy array of s (any order, repeats allowed) returns the array of
    g in the same shape. One _walk serves all entries, down to the least
    t and up to the greatest, and each entry takes the bracket of its own
    first crossing; the Newton steps then run in lockstep, each one pass
    over F and F' for all entries still iterating.
    """
    if isinstance(s, np.ndarray):
        return _solve_g_array(sol, s)
    s_lo, s_hi = sol.s_domain
    if not (s_lo < s < s_hi):
        raise _outside(s, sol)
    t = math.log(s) + sol.c
    F = sol.F
    down, up = _walk(F, sol.branch.A, sol.branch.B, t, t)
    rising = down[1][0] <= t
    xs, fs = up if rising else down
    if not (fs[-1] >= t if rising else fs[-1] <= t):
        raise OutOfDomainError(f"no {'upper' if rising else 'lower'} bracket for s = {s!r}")
    # a walk of one point, the probe point on t, brackets with itself
    lo, hi = sorted((xs[-2:][0], xs[-1]))

    g = 0.5 * (lo + hi)
    for _ in range(_ITER_CAP):
        value, slope = _value_and_slope(F, g)
        r = value - t
        if r < 0.0:
            lo = g
        elif r > 0.0:
            hi = g
        step = r / slope if slope > 0.0 else math.nan
        cand = g - step
        if abs(step) <= 2.0**-52 * abs(g) or (
            not lo < cand < hi and hi - lo <= _BISECT_REL * abs(g)
        ):
            # a nan candidate keeps g
            return g if cand != cand else min(max(cand, lo), hi)
        g = cand if lo < cand < hi else 0.5 * (lo + hi)
    return g


def _F_dF_array(F: AntiderivativeF, x: np.ndarray):
    """_value_and_slope over an array: the arrays of F and F' at x.

    Call it under np.errstate(divide="ignore", invalid="ignore",
    over="ignore"). An entry whose value or slope is not finite, such as
    one on a log or pole abscissa, is recomputed by the float
    _value_and_slope and so gets its signed infinity.
    """
    # np.full: a lone Linear row, G's at R = 0, leaves the slope a constant
    value, slope = (v if np.ndim(v) else np.full(x.shape, v)
                    for v in _value_and_slope(F, x, np.log, np.arctan))
    for i in np.flatnonzero(~(np.isfinite(value) & np.isfinite(slope))):
        v, dv = _value_and_slope(F, float(x.flat[i]))
        if not math.isfinite(value.flat[i]):
            value.flat[i] = v
        if not math.isfinite(slope.flat[i]):
            slope.flat[i] = dv
    return value, slope


def _walk(F: AntiderivativeF, A: float, B: float, lo: float, hi: float):
    """solve_g's bracket walks on the window (A, B), F evaluated once per
    point: ((xs, fs) down, (xs, fs) up), the points and F there.

    Both start at the probe point. Down, each next point halves the
    distance to A, until the first F(x) <= lo; up, it halves the distance
    to B, or on a ray doubles the distance to A - 1, until the first
    F(x) >= hi. A walk also stops after _EXPAND_CAP points, read at each
    call, or at the first point its step leaves fixed, since no later
    point could cross there.
    """
    x = probe_point(A, B)
    f = eval_F(F, x)
    walks = [([x], [f]), ([x], [f])]
    for up, (xs, fs) in enumerate(walks):
        while not (fs[-1] >= hi if up else fs[-1] <= lo) and len(xs) < _EXPAND_CAP:
            x = xs[-1]
            if not up:
                step = A + 0.5 * (x - A)
            elif math.isinf(B):
                step = 2.0 * x - A + 1.0
            else:
                step = B - 0.5 * (B - x)
            if step == x:
                break
            xs.append(step)
            fs.append(eval_F(F, step))
    return walks


def _brackets(sol: RadialSolution, s: np.ndarray, t: np.ndarray):
    """solve_g's bracket for every entry of s at once: arrays lo, hi.

    Each entry's bracket is the one the scalar path finds: down from the
    probe point to its first F(x) <= t, or, when the probe point is
    already there, up to its first F(x) >= t. One _walk goes down to the
    least t and up to the greatest, and the running maximum of sign F
    makes each entry's first crossing a binary search, whatever the
    rounding of F. A failure names the first entry without a bracket,
    lower brackets first.
    """
    walks = _walk(sol.F, sol.branch.A, sol.branch.B, t.min(initial=math.inf),
                  t.max(initial=-math.inf))
    rising = walks[0][1][0] <= t
    lo, hi = np.empty(t.size), np.empty(t.size)
    sides = zip(("lower", "upper"), (-1.0, 1.0), (~rising, rising), walks)
    for side, sign, pick, (xs, fs) in sides:
        xs = np.array(xs)
        i = np.searchsorted(np.maximum.accumulate(sign * np.array(fs)), sign * t[pick])
        miss = np.flatnonzero(i == xs.size)
        if miss.size:
            raise OutOfDomainError(f"no {side} bracket for s = {float(s[pick][miss[0]])!r}")
        # the walk point before the crossing closes the bracket
        near, x = xs[np.maximum(i - 1, 0)], xs[i]
        lo[pick], hi[pick] = np.minimum(near, x), np.maximum(near, x)
    return lo, hi


def _solve_g_array(sol: RadialSolution, s: np.ndarray) -> np.ndarray:
    """solve_g of every entry of s, with the iteration run in lockstep."""
    shape = s.shape
    s = np.asarray(s, dtype=float).ravel()
    s_lo, s_hi = sol.s_domain
    outside = np.flatnonzero(~((s_lo < s) & (s < s_hi)))
    if outside.size:
        raise _outside(float(s[outside[0]]), sol)
    t = np.log(s) + sol.c
    F = sol.F
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi = _brackets(sol, s, t)

        # the entries still iterating, compacted only when some of them stop
        out = np.empty(s.size)
        idx, g = np.arange(s.size), 0.5 * (lo + hi)
        for _ in range(_ITER_CAP):
            if not idx.size:
                break
            value, slope = _F_dF_array(F, g)
            r = value - t
            lo = np.where(r < 0.0, g, lo)
            hi = np.where(r > 0.0, g, hi)
            step = np.where(slope > 0.0, r / slope, math.nan)
            cand = g - step
            inside = (lo < cand) & (cand < hi)
            stop = (np.abs(step) <= 2.0**-52 * np.abs(g)) | (
                ~inside & (hi - lo <= _BISECT_REL * np.abs(g))
            )
            if stop.any():
                # as on the scalar path, a nan candidate keeps g
                out[idx[stop]] = np.where(np.isnan(cand), g, np.clip(cand, lo, hi))[stop]
                go = ~stop
                idx, g, cand, inside, lo, hi, t = (
                    v[go] for v in (idx, g, cand, inside, lo, hi, t)
                )
            g = np.where(inside, cand, 0.5 * (lo + hi))
    out[idx] = g
    return out.reshape(shape)


def _exp(t: float) -> float:
    """e**t, reading inf past the float range instead of raising."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def gauge_from_anchor(ode, branch, F, anchor) -> RadialSolution:
    """Fix the gauge so the profile passes through anchor = (s0, g0)."""
    s0, g0 = anchor
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise BadAnchorError(f"anchor abscissa s0 = {s0!r} must be positive and finite")
    if not (math.isfinite(g0) and branch.A < g0 < branch.B):
        raise BadAnchorError(
            f"anchor value g0 = {g0!r} is not interior to ({branch.A}, {branch.B})"
        )
    try:
        f0 = eval_F(F, g0)
    except OverflowError:
        raise BadAnchorError(f"F overflows at the anchor value g0 = {g0!r}") from None
    return RadialSolution(ode, branch, F, f0 - math.log(s0))


def ball_normalize(ode, branch, F) -> RadialSolution:
    """Fix c to the right-endpoint limit of F so that s_hi = 1 exactly.

    Only finite-extension windows qualify; the constant comes out of the
    analytic limit (log terms cancel by degree counting, arctangents give
    c * pi/2), never out of a numerical evaluation at large g. When the
    log terms fail to cancel, RadialSolution raises IllConditionedError.
    """
    if branch.diverges_right:
        raise NotNormalizableError(
            "the antiderivative diverges at the right endpoint, "
            "so the domain cannot be scaled to end at s = 1"
        )
    return RadialSolution(ode, branch, F, F.limit_at_inf())


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


def _dp_step(rhs, y: float, f: float, h: float):
    """One Dormand-Prince 5(4) step (the tableau of Dormand & Prince 1980).

    The equation is autonomous, so the stage nodes are not needed. Returns
    the 5th order value, the slope there (first stage of the next step)
    and the local error estimate, the 5th minus the embedded 4th order.
    """
    k2 = rhs(y + h * (1 / 5 * f))
    k3 = rhs(y + h * (3 / 40 * f + 9 / 40 * k2))
    k4 = rhs(y + h * (44 / 45 * f - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = rhs(y + h * (19372 / 6561 * f - 25360 / 2187 * k2 + 64448 / 6561 * k3
                      - 212 / 729 * k4))
    k6 = rhs(y + h * (9017 / 3168 * f - 355 / 33 * k2 + 46732 / 5247 * k3
                      + 49 / 176 * k4 - 5103 / 18656 * k5))
    y_new = y + h * (35 / 384 * f + 500 / 1113 * k3 + 125 / 192 * k4
                     - 2187 / 6784 * k5 + 11 / 84 * k6)
    f_new = rhs(y_new)
    err = h * (-71 / 57600 * f + 71 / 16695 * k3 - 71 / 1920 * k4
               + 17253 / 339200 * k5 - 22 / 525 * k6 + 1 / 40 * f_new)
    return y_new, f_new, err


def _first_step(rhs, y: float, f: float, span: float, direction: float) -> float:
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4)."""
    if span == 0.0:
        return 0.0
    scale = _SHOOT_ATOL + abs(y) * _SHOOT_RTOL
    d0 = abs(y) / scale
    d1 = abs(f) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = abs(rhs(y + direction * h0 * f) - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100.0 * h0, h1, span)


def _crossing(level, t, y, f, t_new, y_new, f_new) -> float:
    """Abscissa where the step's cubic Hermite interpolant reaches level.

    Bisects [t, t_new] until no float lies strictly between the ends; y
    is on one side of level and y_new on the other (or on it).
    """
    h = t_new - t
    c2 = 3.0 * (y_new - y) - h * (2.0 * f + f_new)
    c3 = 2.0 * (y - y_new) + h * (f + f_new)
    before = y < level
    a, b = t, t_new
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return b
        th = (m - t) / h
        if (y + th * (h * f + th * (c2 + th * c3)) < level) == before:
            a = m
        else:
            b = m


def _dopri(rhs, t: float, y: float, ts, floor: float, cap: float):
    """Adaptive Dormand-Prince 5(4) from (t, y) through the abscissae ts.

    ts is ordered away from t. Each step is clamped so that t lands on the
    next target exactly. Returns the values at the targets reached and,
    when integration stopped early, (abscissa, reason): y fell through
    floor or rose through cap during a step, or the step size underflowed.
    """
    direction = 1.0 if ts[-1] > t else -1.0
    f = rhs(y)
    h_abs = _first_step(rhs, y, f, abs(ts[-1] - t), direction)
    values = []
    for target in ts:
        while t != target:
            min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    return values, (t, "step size underflow")
                t_new = t + direction * h_abs
                if direction * (t_new - target) > 0.0:
                    t_new = target
                h = t_new - t
                h_abs = abs(h)
                y_new, f_new, err = _dp_step(rhs, y, f, h)
                norm = abs(err) / (_SHOOT_ATOL + max(abs(y), abs(y_new)) * _SHOOT_RTOL)
                # a nan norm (the rhs left its domain) fails this test and
                # shrinks the step by the largest factor
                if norm < 1.0:
                    factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** -0.2)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * norm ** -0.2)
                rejected = True
            if y >= floor >= y_new or y <= cap <= y_new:
                level = floor if floor >= y_new else cap
                return values, (_crossing(level, t, y, f, t_new, y_new, f_new),
                                "g left the admissible window")
            t, y, f = t_new, y_new, f_new
        values.append(y)
    return values, None


def shoot_ode(ode, s0: float, g0: float, s_targets) -> ShootResult:
    """Integrate s g^k g' = H(g) from (s0, g0) to each target abscissa.

    Runs an adaptive Dormand-Prince 5(4) in t = log s on plain floats,
    backward and then forward from the anchor, with rtol 1e-10 and atol
    1e-12. It uses only H, never F or solve_g, so it checks the inversion
    independently. Integration stops when g falls to the window's left
    endpoint or, on a finite extension, rises to 1e9; the crossing is
    located on the cubic Hermite interpolant of the step. The result then
    keeps the partial samples and records the reached abscissa in
    domain_end, as it does when the step size underflows.
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

    k = ode.k
    coeffs = ode.H.coeffs[::-1]

    def rhs(g):
        acc = 0.0
        for c in coeffs:
            acc = acc * g + c
        try:
            return acc / g**k
        except (ZeroDivisionError, OverflowError):
            return math.nan  # a trial stage left the domain; the step is rejected

    floor = window.A + 1e-12 * (1.0 + abs(window.A))
    cap = math.inf if window.diverges_right else _SHOOT_GCAP

    t0 = math.log(s0)
    targets = sorted(set(float(s) for s in s_targets))
    bad = [s for s in targets if not s > 0.0]
    if bad:
        raise ValueError(f"shoot targets must be positive, got s = {bad[0]!r}")
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
        values, stop = _dopri(rhs, t0, g0, [math.log(s) for s in side], floor, cap)
        collected.update(zip(side, values))
        if stop is not None:
            domain_end = math.exp(stop[0])
            message = f"DomainEnd(s_reached={domain_end!r}): {stop[1]}"

    samples = tuple(sorted(collected.items()))
    return ShootResult(samples=samples, domain_end=domain_end, message=message)

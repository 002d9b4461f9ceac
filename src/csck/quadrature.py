"""Closed antiderivative of x^k / H, gauge fixing, and inversion to g(s).

On an admissible window (A, B) the radial profile is pinned down by the
implicit relation

    F(g(s)) = log s + c,        F'(x) = x^k / H(x),

so everything reduces to three steps: split x^k / H into tagged
closed-form terms (logs, reciprocal powers, arctangents), fix the gauge
constant c (through an anchor point, or by normalizing a finite
extension so its boundary sits at s = 1), and invert the relation with
Newton steps kept inside a verified bracket, started at the inverse
cubic Hermite point of the bracket's step on the solution's one walk
table, which a float s and an array of s both search. The split
follows one residue rule: a Taylor series division at each root of H,
real or complex, gives the principal part there, and the logs at a
conjugate pair combine into a log of the quadratic factor and an
arctangent. The same split applied to x^k (x - A) / H gives the
potential in closed form (RadialSolution.G). One value-and-slope loop
over the terms serves floats and arrays alike; eval_F keeps a
value-only loop (see there).
A direct Runge-Kutta shoot of the first order equation s g^k g' = H(g),
a plain-float Dormand-Prince 5(4) integrator in the window's log chart
u = log(g - A) (log((g - A)/(B - g)) on a finite window) that reads its
targets off each step's continuous extension and stops at the inverse
cubic Hermite point of a floor or cap crossing, is provided as an
independent cross check.
"""

import math
from bisect import bisect_left, bisect_right
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
from .polynomials import _horner, _taylor
from .reduction import OdeData

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
# inversion steps an array of s takes in lockstep before the entries left
# go on one at a time
_LOCKSTEP = 5
# g value treated as a blow-up while shooting
_SHOOT_GCAP = 1e9
# the shoot's error tolerance, absolute in its chart u: relative in g - A
_SHOOT_TOL = 1e-10
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
    raised. At any other x a power of x - a underflowed to 0, which raises
    IllConditionedError naming x.
    """
    order, sign = -1, 0.0
    for kind, c, a, e in F.table:
        # a log row has e = 0, below the order of every pole
        if a == x and kind in (_LOG, _POLE) and e > order:
            order, sign = e, c if kind == _POLE else -c
    if order < 0:
        raise IllConditionedError(math.inf, f"a denominator of F or F' underflows at x = {x!r}")
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
    x^k and H cancel because their leading quotient entries vanish. A
    value that leaves the float range, or a root whose multiplicity H's
    Taylor coefficients miss, raises IllConditionedError naming it.
    """
    return _split(ode, branch)


def _principal_part(H, k: int, z, mult: int, root: Optional[float]) -> list:
    """[a_1, ..., a_mult] with sum a_j / (x - z)^j the principal part of
    P / H at its root z of multiplicity mult, z real or complex.

    P is x^k, or x^k (x - root) when root is given. a_mult, ..., a_1 are
    the first mult Taylor coefficients at z of P (x - z)^mult / H, from a
    series division of P's Taylor coefficients at z by the first mult of
    H / (x - z)^mult, H's orders mult to 2 mult - 1; a_1 of a simple root
    is P(z) / H'(z).
    """
    denom = _taylor(H.coeffs, z, 2 * mult)[mult:]
    if not (denom and denom[0] != 0.0):
        raise IllConditionedError(
            0.0, f"H's Taylor coefficient of order {mult} at its {mult}-fold root {z!r} is 0"
        )
    # Taylor coefficients of P at z; (z - root) is exactly 0 at root
    try:
        numer = [float(math.comb(k, j)) * z ** (k - j) if j <= k else 0.0 for j in range(mult)]
    except OverflowError:
        raise IllConditionedError(math.inf, f"x^{k} overflows at the root {z!r} of H") from None
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
    # on a ray with A >= 2**53 the probe point A + 1 rounds to A, where H is 0
    if not branch.A < probe < branch.B:
        raise IllConditionedError(
            math.inf, f"probe point {probe!r} is not inside ({branch.A}, {branch.B})"
        )
    want = probe**k / H(probe)
    if root is not None:
        want *= probe - root
    try:
        got = F.derivative(probe)
    except (OverflowError, IllConditionedError):
        raise IllConditionedError(math.inf, f"F' is not finite at {probe!r}") from None
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
    to cancel) raises IllConditionedError, and a c for which that end
    underflows to 0 raises OutOfDomainError. It keeps these from first
    use, all fixed by the solution alone: the potential's antiderivative
    G, g(s_a), and solve_g's walk table (_walk), the walks toward A and
    toward B out of the probe point with the running minimum and maximum
    of F along them, which the scalar and the array path both search.
    """

    __slots__ = ("ode", "branch", "F", "c", "s_domain", "_G", "_g_anchor", "_walk")

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
            if hi == 0.0:
                raise OutOfDomainError(f"the s-domain (0, exp(F(inf) - c)) is empty at c = {c!r}")
        self.ode = ode
        self.branch = branch
        self.F = F
        self.c = c
        self.s_domain = (0.0, hi)
        self._G = None
        self._g_anchor = None
        self._walk = None

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

    The bracket F(lo) <= t <= F(hi), t = log s + c, is a step of the
    solution's one walk table (_walk; F is evaluated only where the walk
    goes further): down toward A while F > t at the probe point, up
    toward B otherwise, to the first point that crosses t, found by one
    binary search of the running minimum (down) or maximum (up) of F
    that the table keeps. The first iterate is the point where the step's
    inverse cubic Hermite interpolant, x as a function of F through the
    two ends with the slopes 1/F' = H/x^k that the table keeps, reads t;
    where that point is not strictly inside the bracket, the bracket
    midpoint. From there each step evaluates F at the
    iterate g, moves the bracket end on g's side of t to g, and goes to the
    Newton point g - (F(g) - t) / F'(g) when that lies strictly inside the
    bracket, to the bracket midpoint otherwise (rtsafe, Numerical Recipes
    9.4). It stops when the Newton step is at most 2**-52 |g|, so that a
    Newton point that rounds back to g always stops, or when the Newton
    point falls outside a bracket already narrower than 1e-13 |g| (g > 0
    on every window), and returns the Newton point clipped into the
    bracket: in the second case, the bracket end it crossed. The result
    depends on s alone, not on earlier calls, stored walk or not.

    A numpy array of s (any order, repeats allowed) returns the array of
    g in the same shape. The table is extended to the lowest and the
    highest t, and each entry takes the bracket and first iterate of its
    own first crossing, from one search per side of that table; the
    first _LOCKSTEP Newton steps then run in lockstep, each one pass over
    F and F' for all entries still iterating, and the entries left after
    them go on one at a time in the float loop of a single s.
    """
    if isinstance(s, np.ndarray):
        return _solve_g_array(sol, s)
    s_lo, s_hi = sol.s_domain
    if not (s_lo < s < s_hi):
        raise _outside(s, sol)
    t = math.log(s) + sol.c
    return _newton(sol.F, t, *_bracket(sol, t, s), _ITER_CAP)


def _newton(F: AntiderivativeF, t: float, lo: float, hi: float, g: float, steps: int) -> float:
    """At most steps of solve_g's safeguarded Newton iteration from the
    iterate g in the bracket [lo, hi], on floats."""
    for _ in range(steps):
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


def _walk(sol: RadialSolution, low: float, high: float):
    """(nd, xs, fs, ds): the solution's walk table, extended until
    fs[0] <= low and fs[-1] >= high, or until a side holds _EXPAND_CAP
    points or its step leaves its end fixed.

    The table is the walk toward A reversed and then the walk toward B,
    both out of the probe point, which is entries nd - 1 and nd. So xs
    increases but from entry nd - 1 to nd, and fs, the running minimum
    of F toward A and its running maximum toward B (both skip a nan F),
    does not decrease; ds is 1/F' = H/x^k at each point (_dx_dF). Toward
    A each next point halves the distance to A; toward B it halves the
    distance to B, or on a ray doubles the distance to A - 1. The
    solution keeps the table, fixed by it alone, and a call stores its
    extension in one assignment of new tuples: a concurrent call reads a
    whole table, and gets back one it read or built. Two calls that
    extend opposite sides at once may drop one extension, which a later
    call walks again through the same points.
    """
    table = sol._walk
    if table is None:
        x = probe_point(sol.branch.A, sol.branch.B)
        f, d = eval_F(sol.F, x), _dx_dF(sol.ode, x)
        # min and max skip a nan F, as the running values do
        table = sol._walk = (1, (x, x), (min(math.inf, f), max(-math.inf, f)), (d, d))
    nd, xs, fs, ds = table
    dx, dm, dd = _steps(sol, False, xs[0], fs[0], low, _EXPAND_CAP - nd)
    ux, um, ud = _steps(sol, True, xs[-1], fs[-1], high, _EXPAND_CAP - len(xs) + nd)
    if dx or ux:
        table = sol._walk = (nd + len(dx), tuple(dx[::-1]) + xs + tuple(ux),
                             tuple(dm[::-1]) + fs + tuple(um), tuple(dd[::-1]) + ds + tuple(ud))
    return table


def _steps(sol: RadialSolution, up: bool, x: float, m: float, reach: float, room: int):
    """Lists of x, of F's running maximum (up) or minimum, and of 1/F'
    at the points that _walk adds to one side past its end x, where the
    running value is m: toward B (up) or toward A, at most room points,
    until the running value reaches reach."""
    A, B = sol.branch.A, sol.branch.B
    xs, ms, ds = [], [], []
    while (m < reach if up else m > reach) and len(xs) < room:
        if not up:
            step = A + 0.5 * (x - A)
        elif math.isinf(B):
            step = 2.0 * x - A + 1.0
        else:
            step = B - 0.5 * (B - x)
        if step == x:
            break
        x, f = step, eval_F(sol.F, step)
        m = f if (f > m if up else f < m) else m
        xs.append(x)
        ms.append(m)
        ds.append(_dx_dF(sol.ode, x))
    return xs, ms, ds


def _dx_dF(ode: OdeData, x: float) -> float:
    """1/F'(x) = H(x)/x^k by Horner, nan where x^k leaves the float range;
    not from F.table, whose pole slope c/d**(p + 1) overflows where the
    value is finite."""
    try:
        return ode.H(x) / x**ode.k
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _hermite(t, p, fp, dp, q, fq, dq):
    """Where the cubic Hermite interpolant of x as a function of F, through
    (fp, p) and (fq, q) with the slopes dx/dF dp and dq, reads F = t; floats
    with fp != fq, or arrays."""
    h = fq - fp
    u = (t - fp) / h
    return p + u * u * (3.0 - 2.0 * u) * (q - p) + h * u * (1.0 - u) * ((1.0 - u) * dp - u * dq)


def _bracket(sol: RadialSolution, t: float, s: float):
    """solve_g's bracket lo, hi and first iterate for one s at t = log s + c.

    The side is down when F at the probe point exceeds t (or t is nan), up
    otherwise, and _walk extends only that side. The step that brackets t
    ends at the far entry of the walk table: down, the last entry before
    the probe point with fs <= t; up, the first entry from the probe point
    on with fs >= t. The first iterate is _hermite's point on that step
    when it is strictly inside, the midpoint otherwise.
    """
    nd, xs, fs, ds = _walk(sol, t, t)
    if fs[nd - 1] <= t:
        far = bisect_left(fs, t, nd)
        if far == len(fs):
            raise OutOfDomainError(f"no upper bracket for s = {s!r}")
        # the probe point on t brackets with itself
        near = max(far - 1, nd)
    else:
        far = bisect_right(fs, t, 0, nd) - 1
        if far < 0 or not fs[far] <= t:  # a nan t crosses nowhere
            raise OutOfDomainError(f"no lower bracket for s = {s!r}")
        near = far + 1
    lo, hi = sorted((xs[near], xs[far]))
    g = _hermite(t, xs[near], fs[near], ds[near], xs[far], fs[far], ds[far]) if far != near else lo
    return lo, hi, g if lo < g < hi else 0.5 * (lo + hi)


def _brackets(sol: RadialSolution, s: np.ndarray, t: np.ndarray):
    """_bracket for every entry of s at once: arrays lo, hi and the first
    iterates.

    One _walk call extends the walk table to the lowest and the highest
    t, and the entries read arrays built from it for this call: one
    searchsorted per side, on the down part with side="right" and on the
    up part with side="left", and one _hermite over all entries. A
    failure names the first entry without a bracket, lower brackets first.
    """
    nd, xs, fs, ds = _walk(sol, t.min(initial=math.inf), t.max(initial=-math.inf))
    x, f, d = np.array(xs), np.array(fs), np.array(ds)
    # a down entry's crossing is its down walk's last point with f <= t,
    # an up entry's its up walk's first point with f >= t
    p = np.maximum(np.searchsorted(f[:nd], t, "right") - 1, 0)
    q = np.minimum(nd + np.searchsorted(f[nd:], t, "left"), f.size - 1)
    is_up = f[nd - 1] <= t
    for miss, side in ((~is_up & ~(f[p] <= t), "lower"), (is_up & ~(f[q] >= t), "upper")):
        if miss.any():
            raise OutOfDomainError(f"no {side} bracket for s = {float(s[miss.argmax()])!r}")
    # the step's end nearer the probe point, which on t brackets with itself
    near = np.where(is_up, np.maximum(q - 1, nd), p + 1)
    far = np.where(is_up, q, p)
    x_near, x_far = x[near], x[far]
    a, b = np.minimum(x_near, x_far), np.maximum(x_near, x_far)
    start = _hermite(t, x_near, f[near], d[near], x_far, f[far], d[far])
    return a, b, np.where((a < start) & (start < b), start, 0.5 * (a + b))


def _solve_g_array(sol: RadialSolution, s: np.ndarray) -> np.ndarray:
    """solve_g of every entry of s: _LOCKSTEP rounds for all entries at
    once, then _newton for each entry left."""
    shape = s.shape
    s = np.asarray(s, dtype=float).ravel()
    s_lo, s_hi = sol.s_domain
    outside = np.flatnonzero(~((s_lo < s) & (s < s_hi)))
    if outside.size:
        raise _outside(float(s[outside[0]]), sol)
    t = np.log(s) + sol.c
    F = sol.F
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, g = _brackets(sol, s, t)

        # the entries still iterating, compacted only when some of them stop
        out = np.empty(s.size)
        idx = np.arange(s.size)
        for _ in range(_LOCKSTEP):
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
    for i, *state in zip(idx.tolist(), t.tolist(), lo.tolist(), hi.tolist(), g.tolist()):
        out[i] = _newton(F, *state, _ITER_CAP - _LOCKSTEP)
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
    the 5th order value, the slope there (first stage of the next step),
    the local error estimate, the 5th minus the embedded 4th order, and
    the stage slopes k3 to k6 that the continuous extension reads.
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
    return y_new, f_new, err, (k3, k4, k5, k6)


def _dense(f, ks, f_new):
    """(q2, q3, q4): the step's quartic continuous extension is
    y + h th (f + th (q2 + th (q3 + th q4))) at th = (t - t_step) / h.

    Shampine's coefficients for Dormand-Prince 5(4) (Shampine 1986; the P
    of scipy's RK45 and the interpolant of MATLAB's ode45); k2 has none.
    """
    k3, k4, k5, k6 = ks
    q2 = (-8048581381 / 2820520608 * f + 131558114200 / 32700410799 * k3
          - 1754552775 / 470086768 * k4 + 127303824393 / 49829197408 * k5
          - 282668133 / 205662961 * k6 + 40617522 / 29380423 * f_new)
    q3 = (8663915743 / 2820520608 * f - 68118460800 / 10900136933 * k3
          + 14199869525 / 1410260304 * k4 - 318862633887 / 49829197408 * k5
          + 2019193451 / 616988883 * k6 - 110615467 / 29380423 * f_new)
    q4 = (-12715105075 / 11282082432 * f + 87487479700 / 32700410799 * k3
          - 10690763975 / 1880347072 * k4 + 701980252875 / 199316789632 * k5
          - 1453857185 / 822651844 * k6 + 69997945 / 29380423 * f_new)
    return q2, q3, q4


def _dopri(rhs, t: float, y: float, ts, floor: float, cap: float):
    """Adaptive Dormand-Prince 5(4) from (t, y) through the abscissae ts.

    ts is ordered away from t. The first trial step is the whole way to
    ts[0]; from there the error test alone sets each step, which is
    clamped only so that t lands on ts[-1] exactly. Each other target an
    accepted step passes is read off that step's quartic continuous
    extension (_dense). Returns the values at the targets reached and,
    when integration stopped early, (abscissa, reason): y fell through
    floor or rose through cap during a step, the targets before that
    crossing being read off the step, or the step size underflowed.
    """
    direction = 1.0 if ts[-1] > t else -1.0
    end = ts[-1]
    f = rhs(y)
    h_abs = abs(ts[0] - t)
    values = []
    while t != end:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return values, (t, "step size underflow")
            t_new = t + direction * h_abs
            if direction * (t_new - end) > 0.0:
                t_new = end
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, ks = _dp_step(rhs, y, f, h)
            norm = abs(err) / _SHOOT_TOL
            # a nan norm (the rhs left its domain) fails this test and
            # shrinks the step by the largest factor
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm ** -0.2)
            rejected = True
        stop = None
        if y >= floor >= y_new or y <= cap <= y_new:
            # y is strictly inside (floor, cap), so y_new != y; a zero
            # slope, where H underflows at a multiple end, or a nan point
            # keeps t_new, and a point before t is clipped to t
            at = t_new
            if f and f_new:
                level = floor if floor >= y_new else cap
                x = _hermite(level, t, y, 1.0 / f, t_new, y_new, 1.0 / f_new)
                if direction * (x - t_new) < 0.0:
                    at = x if direction * (x - t) > 0.0 else t
            stop = (at, "g left the admissible window")
        # the targets this step passes: up to t_new, or short of the crossing
        i = j = len(values)
        while j < len(ts) and (direction * (ts[j] - t_new) <= 0.0 if stop is None
                               else direction * (ts[j] - stop[0]) < 0.0):
            j += 1
        if j > i:
            q2, q3, q4 = _dense(f, ks, f_new)
            for target in ts[i:j]:
                th = (target - t) / h
                values.append(y_new if target == t_new
                              else y + h * th * (f + th * (q2 + th * (q3 + th * q4))))
        if stop is not None:
            return values, stop
        t, y, f = t_new, y_new, f_new
    return values, None


def shoot_ode(ode, s0: float, g0: float, s_targets) -> ShootResult:
    """Integrate s g^k g' = H(g) from (s0, g0) to each target abscissa.

    Runs an adaptive Dormand-Prince 5(4) in t = log s on plain floats,
    backward and then forward from the anchor, in the window's log chart:
    u = log(g - A) on a ray or a finite extension, u = log((g - A)/(B - g))
    on a finite window (A, B). Near an end, where g - A behaves like
    C s^alpha, u is close to linear in t. The error norm is absolute in u,
    1e-10, which is relative in g - A (and B - g). The right side takes H
    from its Taylor coefficients at the nearer window end, that end's
    rounded H value dropped, so it keeps its digits where g presses
    against the end. Each side's first trial step is the whole way to its
    nearest target; after it, the error test alone sets the steps, and
    only the side's last target is landed on exactly. Every other target
    is read off the quartic continuous extension of the step that passes
    it, whose error is of the order of the step's error estimate rather
    than of its 5th order value. It uses only H, never F or solve_g, so
    it checks the inversion independently. Integration stops when g
    falls to the floor A + 1e-12 (1 + |A|) or, on a finite extension,
    rises to 1e9, both mapped into u; the crossing is where the step's
    inverse cubic Hermite interpolant, t as a function of u with the
    slopes dt/du = 1/u', reads the level, clipped into the step (the
    step's end where a slope is 0). The result then keeps the
    samples before it and records the reached abscissa in domain_end, as
    it does when the step size underflows. An anchor g0 at or past the
    floor or the cap raises BadAnchorError.

    Near a blow-up at t*, the error tolerance bounds the error in t*
    rather than in g, so the relative error in g grows like the error in
    t* divided by t* - t. On R = -6 (n = 2) from (0.5, 1), g(0.999999)
    reads 999951.93 against the exact s/(1 - s) = 999999, 4.7e-5
    relative.
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

    k, A, B = ode.k, window.A, window.B
    ray = math.isinf(B)
    # H(A + d) / d and H(B + d) / d from H's Taylor coefficients at the
    # window ends, its roots: the constant term, H's rounding there, is dropped
    at_A = _taylor(ode.H.coeffs, A)[1:]
    at_B = None if ray else _taylor(ode.H.coeffs, B)[1:]

    def rhs(u):
        """du/dt at u; nan where a trial stage left the domain, which
        rejects the step."""
        try:
            if ray:
                d = math.exp(u)
                return _horner(at_A, d) / (A + d) ** k
            # d is the distance to the nearer end, and with w = B - A,
            # du/dt = H(g) w / (g^k (g - A) (B - g)), w / (the farther
            # distance) = 1 + e
            e = math.exp(-abs(u))
            d = (B - A) * e / (1.0 + e)
            if u <= 0.0:
                return _horner(at_A, d) * (1.0 + e) / (A + d) ** k
            return -_horner(at_B, -d) * (1.0 + e) / (B - d) ** k
        except (ZeroDivisionError, OverflowError):
            return math.nan

    def g_at(u):
        """g at u, the inverse of chart."""
        if ray:
            return A + math.exp(u)
        e = math.exp(-abs(u))
        d = (B - A) * e / (1.0 + e)
        return A + d if u <= 0.0 else B - d

    def chart(g):
        """u at g; -inf at or below A, inf at or above B."""
        if not A < g < B:
            return -math.inf if g <= A else math.inf
        return math.log(g - A) if ray else math.log((g - A) / (B - g))

    g_floor = A + 1e-12 * (1.0 + abs(A))
    g_cap = math.inf if window.diverges_right else _SHOOT_GCAP
    floor, cap, u0 = chart(g_floor), chart(g_cap), chart(g0)
    if u0 <= floor:
        raise BadAnchorError(f"g0 = {g0!r} is at or below the shoot's floor {g_floor!r}")
    if u0 >= cap:
        raise BadAnchorError(f"g0 = {g0!r} is at or above the shoot's cap {g_cap!r}")

    t0 = math.log(s0)
    targets = sorted(set(float(s) for s in s_targets))
    bad = [s for s in targets if not 0.0 < s < math.inf]
    if bad:
        raise ValueError(f"shoot targets must be positive and finite, got s = {bad[0]!r}")
    below = [s for s in targets if s < s0][::-1]
    above = [s for s in targets if s > s0]
    samples = [(s, g0) for s in targets if s == s0]
    domain_end = None
    message = ""
    for side in (below, above):
        if not side:
            continue
        values, stop = _dopri(rhs, t0, u0, [math.log(s) for s in side], floor, cap)
        samples += ((s, g_at(u)) for s, u in zip(side, values))
        if stop is not None:
            domain_end = math.exp(stop[0])
            message = f"DomainEnd(s_reached={domain_end!r}): {stop[1]}"
    return ShootResult(tuple(sorted(samples)), domain_end, message)

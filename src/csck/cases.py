"""Catalogued solution families of the low-dimensional classification.

Every family is one factorization of the slope polynomial

    H(x) = -c x^(n+1) + x^n + lambda x + mu = lead * prod (x - r)^m * q,

with c = R / (n (n + 1)) the curvature factor, lead = -c (or 1 when
c = 0) and q an optional factor (x - beta)^2 + gamma^2. The catalogue
tabulates each family at c = -1, 0 or 1, the sign of R: the homothety
g = sigma y with R -> sigma R maps every other R of that sign onto it.
signed_curvature(sign, n) = sign n (n + 1) is the one rule from the sign
to R, for the fixtures, the CLI's --curvature-sign and the unit ball.
A family is one CaseFixture record, written once. Its root pattern is:

- roots(p, n): the real roots and multiplicities, increasing in value;
- quad: the names of the (beta, gamma) parameters of q, if present;
- ineqs: the inequality clauses, comparison chains whose predicates
  are read from their texts;
- eqs: the texts of the equality clauses. H has x^n coefficient 1 and
  coefficients n-1 ... 2 equal to 0; the texts name these constraints
  on the product from the top coefficient down (the x^n one holds by
  itself when c = 0). A family whose roots satisfy them identically
  lists none;
- window: the index of the left root A of the branch window; B is the
  next root, or infinity after the last one.

validate, lambda_mu (through Poly.from_factors), branch_range,
labels_for, canonical_label and match_label are derived from the root
pattern. The record also holds what is written by hand: the verdict,
the branch kind and the oracles, the closed form g(s) and the implicit
identity F(g) = log s + c.

reference_F closures return F already divided by the overall scale of
the identity, so F'(x) = x^(n-1) / H(x) holds exactly and cross checks
can compare F against the quadrature route up to an additive constant.
Families without a usable identity carry reference_F = None.
"""

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConstraintViolationError, NotClassifiedError
from .polynomials import Poly
from .reduction import FunctionHandle

# Equality clauses are checked to this absolute slack; the catalogued
# parameter sets satisfy them to round-off.
_EQ_TOL = 1e-9

# the curvature signs by name
_SIGNS = {"neg": -1, "zero": 0, "pos": 1}


def signed_curvature(sign, n) -> float:
    """R = sign n (n + 1) for the sign -1, 0 or 1, in floats: an n past
    1e154 gives an infinite R, which RadialProblem rejects."""
    return sign * float(n) * float(n + 1)


@dataclass(frozen=True)
class CaseFixture:
    """One solution family: its root pattern (see the module docstring),
    its outcome and its oracles."""

    label: str
    n: int
    curv_factor: int  # the sign of R: R = signed_curvature(curv_factor, n)
    defaults: dict
    verdict: str
    kind: Optional[str]
    roots: Callable
    quad: Optional[tuple] = None
    ineqs: tuple = ()
    eqs: tuple = ()
    window: Optional[int] = None
    n_is_free: bool = False
    closed_form: Optional[Callable] = None
    reference_F: Optional[Callable] = None

    @property
    def param_names(self) -> tuple:
        return tuple(self.defaults)

    @property
    def branch_range(self) -> Optional[Callable]:
        """p |-> (A, B), the expected window; None without a window."""
        return None if self.window is None else self._window_ends

    def curvature(self, n=None) -> float:
        return signed_curvature(self.curv_factor, self.n if n is None else n)

    def _coeffs(self, p):
        # the dimension-free families have lambda = mu = 0 in every
        # dimension, so expanding them at the fixture n serves
        quads = ((p[self.quad[0]], p[self.quad[1]], 1),) if self.quad else ()
        lead = float(-self.curv_factor or 1)
        return Poly.from_factors(self.roots(p, self.n), quads, lead).coeffs

    def validate(self, p):
        for text, holds in self.ineqs:
            if not holds(p):
                raise ConstraintViolationError(self.label, text)
        if not self.eqs:
            return
        cs = self._coeffs(p)
        top = self.n if self.curv_factor else self.n - 1
        for j, text in zip(range(top, 1, -1), self.eqs):
            target = 1.0 if j == self.n else 0.0
            if not abs(cs[j] - target) <= _EQ_TOL:
                raise ConstraintViolationError(self.label, text)

    def lambda_mu(self, p):
        cs = self._coeffs(p)
        # + 0.0 turns the signed zero an exact zero root can leave into 0.0
        return float(cs[1]) + 0.0, float(cs[0]) + 0.0

    def _window_ends(self, p):
        values = [r for r, _ in self.roots(p, self.n)]
        right = self.window + 1
        return values[self.window], values[right] if right < len(values) else math.inf

    def match_key(self, n):
        """What match_label sees of the default member in dimension n."""
        roots = self.roots(self.defaults, n)
        return _match_key(n, self.curv_factor, roots, self.quad is not None)


# ---------------------------------------------------------------------------
# closed forms for g(s)

def _g_affine(a, b):
    return FunctionHandle(value=lambda s: a * s + b, deriv=lambda s: a)


def _g_round_sphere(a):
    # g = s / (s + a), the smooth positive-curvature profile
    return FunctionHandle(value=lambda s: s / (s + a), deriv=lambda s: a / (s + a) ** 2)


def _g_power_pole(a, k):
    # g = (k + 1)/2 - k a / (s^k + a), increasing from (1-k)/2 to (1+k)/2
    return FunctionHandle(
        value=lambda s: 0.5 * (k + 1.0) - k * a / (s**k + a),
        deriv=lambda s: a * k * k * s ** (k - 1.0) / (s**k + a) ** 2,
    )


def _g_hyperbolic_sqrt(a, b):
    # g = a sqrt(s^2 + b^2)
    return FunctionHandle(
        value=lambda s: a * math.sqrt(s * s + b * b),
        deriv=lambda s: a * s / math.sqrt(s * s + b * b),
    )


def _g_unit_ball():
    # g = s / (1 - s) on (0, 1)
    return FunctionHandle(value=lambda s: s / (1.0 - s), deriv=lambda s: 1.0 / (1.0 - s) ** 2)


def _g_ball_power(k):
    # g = -(k + 1)/2 + k / (1 - s^k) on (0, 1)
    return FunctionHandle(
        value=lambda s: -0.5 * (k + 1.0) + k / (1.0 - s**k),
        deriv=lambda s: k * k * s ** (k - 1.0) / (1.0 - s**k) ** 2,
    )


# ---------------------------------------------------------------------------
# reference antiderivatives, one closure per distinct identity

def _F_log(p):
    return lambda x: math.log(x)


def _F_log_shift(p):
    b = p["b"]
    return lambda x: math.log(x - b)


def _F_two_log_ratio(p):
    al, be = p["alpha"], p["beta"]
    d = be - al

    def F(x):
        return (be * math.log(x - be) - al * math.log(x - al)) / d

    return F


def _F_double_root_n2(p):
    al = p["alpha"]

    def F(x):
        return math.log(x - al) - al / (x - al)

    return F


def _F_round_sphere(p):
    def F(x):
        return math.log(x) - math.log(1.0 - x)

    return F


def _F_power_pole(p):
    k = p["k"]
    al = 0.5 * (1.0 - k)
    be = 0.5 * (1.0 + k)

    def F(x):
        return (math.log(x - al) - math.log(be - x)) / (be - al)

    return F


def _F_three_log_capped(p):
    # shared by the positive-curvature three-root families; the top root
    # bounds the window, so its log argument is (gamma - x)
    al, be, ga = p["alpha"], p["beta"], p["gamma"]
    scale = (be - al) * (ga - be) * (ga - al)

    def F(x):
        t = (
            -al * (ga - be) * math.log(x - al)
            + be * (ga - al) * math.log(x - be)
            - ga * (be - al) * math.log(ga - x)
        )
        return t / scale

    return F


def _F_double_below_simple(p):
    al, be = p["alpha"], p["beta"]
    scale = (be - al) ** 2

    def F(x):
        t = al * math.log(x - be) - al * math.log(al - x) + be * (be - al) / (x - be)
        return t / scale

    return F


def _F_sqrt_profile(p):
    c = p["a"] * p["b"]

    def F(x):
        return 0.5 * math.log(x * x - c * c)

    return F


def _F_three_log_open(p):
    # three simple roots with the window unbounded above
    al, be, ga = p["alpha"], p["beta"], p["gamma"]
    scale = (be - al) * (ga - be) * (ga - al)

    def F(x):
        t = (
            al * al * (ga - be) * math.log(x - al)
            - be * be * (ga - al) * math.log(x - be)
            + ga * ga * (be - al) * math.log(x - ga)
        )
        return t / scale

    return F


def _F_cubic_double(p):
    al = p["alpha"]

    def F(x):
        return (
            (5.0 / 9.0) * math.log(x - al)
            + (4.0 / 9.0) * math.log(x + 2.0 * al)
            - (al / 3.0) / (x - al)
        )

    return F


def _F_cubic_quad_pair(p):
    al, be, ga = p["alpha"], p["beta"], p["gamma"]
    scale = (al - be) ** 2 + ga * ga
    q = be * be + ga * ga

    def F(x):
        t = (
            al * al * math.log(x - al)
            + 0.5 * (q - 2.0 * al * be) * math.log((x - be) ** 2 + ga * ga)
            + ((be * q - al * be * be + al * ga * ga) / ga)
            * math.atan((x - be) / ga)
        )
        return t / scale

    return F


def _F_four_log(p):
    al, be, ga, de = p["alpha"], p["beta"], p["gamma"], p["delta"]

    def F(x):
        return (
            al * al / ((be - al) * (ga - al) * (de - al)) * math.log(x - al)
            - be * be / ((be - al) * (ga - be) * (de - be)) * math.log(x - be)
            + ga * ga / ((ga - al) * (ga - be) * (de - ga)) * math.log(x - ga)
            - de * de / ((de - al) * (de - be) * (de - ga)) * math.log(de - x)
        )

    return F


def _F_quartic_double(p):
    al, be, ga = p["alpha"], p["beta"], p["gamma"]

    def F(x):
        return (
            -ga * ga / ((ga - be) * (ga - al) ** 2) * math.log(ga - x)
            + be * be / ((ga - be) * (be - al) ** 2) * math.log(x - be)
            - (2.0 * al * be * ga - al * al * (be + ga))
            / ((ga - al) ** 2 * (be - al) ** 2)
            * math.log(x - al)
            + al * al / ((ga - al) * (be - al)) / (x - al)
        )

    return F


def _F_quartic_quad_pair(p):
    a1, a2, be, ga = p["alpha1"], p["alpha2"], p["beta"], p["gamma"]
    q = be * be + ga * ga
    d1 = (a1 - be) ** 2 + ga * ga
    d2 = (a2 - be) ** 2 + ga * ga

    def F(x):
        quad = math.log((x - be) ** 2 + ga * ga)
        at = math.atan((x - be) / ga)
        s1 = (
            a1 * a1 * math.log(x - a1)
            + 0.5 * (q - 2.0 * a1 * be) * quad
            + (((a1 + be) * q - 2.0 * a1 * be * be) / ga) * at
        )
        s2 = (
            a2 * a2 * math.log(a2 - x)
            + 0.5 * (q - 2.0 * a2 * be) * quad
            + (((a2 + be) * q - 2.0 * a2 * be * be) / ga) * at
        )
        return (s1 / d1 - s2 / d2) / (a2 - a1)

    return F


def _F_ball_smooth(p):
    def F(x):
        return math.log(x) - math.log(x + 1.0)

    return F


def _F_ball_power(p):
    k = p["k"]
    rp = 0.5 * (k - 1.0)
    rm = -0.5 * (k + 1.0)

    def F(x):
        return (math.log(x - rp) - math.log(x - rm)) / k

    return F


def _F_ball_three_log(p):
    al, be, ga = p["alpha"], p["beta"], p["gamma"]
    scale = (be - al) * (ga - al) * (ga - be)

    def F(x):
        t = (
            al * (ga - be) * math.log(x - al)
            - be * (ga - al) * math.log(x - be)
            + ga * (be - al) * math.log(x - ga)
        )
        return t / scale

    return F


def _F_ball_double(p):
    al, be = p["alpha"], p["beta"]
    scale = (be - al) ** 2

    def F(x):
        t = -al * math.log(x - be) + al * math.log(x - al) - be * (be - al) / (x - be)
        return t / scale

    return F


# ---------------------------------------------------------------------------
# root patterns

_COMPARE = {"<": operator.lt, ">": operator.gt, "!=": operator.ne}


def _clause(text):
    """(text, predicate) of a comparison chain such as 'alpha < 0 < beta'.

    Each operand is a number or a product of parameter names.
    """
    parts = re.split(r" (<|>|!=) ", text)
    ops = [_COMPARE[op] for op in parts[1::2]]
    terms = [term.split() for term in parts[::2]]

    def holds(p):
        v = [
            math.prod(p[f] if f.isidentifier() else float(f) for f in term)
            for term in terms
        ]
        return all(op(a, b) for op, a, b in zip(ops, v, v[1:]))

    return text, holds


def _match_key(n, sign, roots, has_quad):
    # multiplicities in root order, each with whether that root is exactly 0
    return n, sign, tuple([(m, r == 0.0) for r, m in roots]), has_quad


def _named(*names):
    # simple roots, one per named parameter
    return lambda p, n: tuple((p[x], 1) for x in names)


def _origin(p, n):  # H = x^n
    return ((0.0, n),)


def _sphere(p, n):  # H = -x^n (x - 1)
    return ((0.0, n), (1.0, 1))


def _ball(p, n):  # H = x^n (x + 1)
    return ((-1.0, 1), (0.0, n))


# (verdict, kind) of a family
_SMOOTH = ("SmoothFamily", "SmoothOrigin")
_SINGULAR = ("SingularFamilies", "FullRay")
_FINITE = ("FiniteExtensionOnly", "FiniteExtension")
_NONE = ("Nonexistent", None)


def _family(label, n, curv_factor, defaults, outcome, roots, *, ineqs=(), **fields):
    ineqs = tuple(_clause(text) for text in ineqs)
    return CaseFixture(label, n, curv_factor, defaults, *outcome, roots, ineqs=ineqs, **fields)


_SQ5 = math.sqrt(5.0)
_SQ6 = math.sqrt(6.0)
_SQ21 = math.sqrt(21.0)

# coefficient 2 of the n = 3, R = 12 quartic with a double root alpha
_E2_DOUBLE = "alpha^2 + 2 alpha beta + 2 alpha gamma + beta gamma = 0"

_ALL = (
    # smooth metrics on the whole of C^n, any dimension
    _family(
        "1.1.1", 2, 0, {"a": 1.0}, _SMOOTH, _origin, ineqs=("a > 0",), window=0,
        closed_form=lambda p: _g_affine(p["a"], 0.0), reference_F=_F_log, n_is_free=True,
    ),
    _family(
        "1.1.2", 2, 1, {"a": 1.0}, _SMOOTH, _sphere, ineqs=("a > 0",), window=0,
        closed_form=lambda p: _g_round_sphere(p["a"]), reference_F=_F_round_sphere,
        n_is_free=True,
    ),
    _family("1.1.3", 2, -1, {}, _NONE, _ball, n_is_free=True),
    # n = 2, R = 0
    _family(
        "1.2.1", 2, 0, {"a": 1.0, "b": 0.0}, _SMOOTH, _origin, ineqs=("a > 0",),
        window=0, closed_form=lambda p: _g_affine(p["a"], 0.0), reference_F=_F_log,
    ),
    _family(
        "1.2.2", 2, 0, {"a": 1.0, "b": 1.0}, _SINGULAR,
        lambda p, n: ((0.0, 1), (p["b"], 1)), ineqs=("a > 0", "b > 0"), window=1,
        closed_form=lambda p: _g_affine(p["a"], p["b"]), reference_F=_F_log_shift,
    ),
    _family(
        "1.2.3", 2, 0, {"alpha": -1.0, "beta": 1.0}, _SINGULAR, _named("alpha", "beta"),
        ineqs=("alpha != 0", "beta > 0", "alpha < beta"), window=1,
        reference_F=_F_two_log_ratio,
    ),
    _family(
        "1.2.4", 2, 0, {"alpha": 1.0}, _SINGULAR, lambda p, n: ((p["alpha"], 2),),
        ineqs=("alpha > 0",), window=0, reference_F=_F_double_root_n2,
    ),
    # n = 2, R = 6
    _family(
        "1.3.1", 2, 1, {"a": 1.0}, _SMOOTH, _sphere, ineqs=("a > 0",), window=0,
        closed_form=lambda p: _g_round_sphere(p["a"]), reference_F=_F_round_sphere,
    ),
    _family(
        "1.3.2", 2, 1, {"a": 1.0, "k": 0.5}, _SINGULAR,
        lambda p, n: ((0.0, 1), (0.5 * (1.0 - p["k"]), 1), (0.5 * (1.0 + p["k"]), 1)),
        ineqs=("a > 0", "0 < k < 1"), window=1,
        closed_form=lambda p: _g_power_pole(p["a"], p["k"]), reference_F=_F_power_pole,
    ),
    _family(
        "1.3.3", 2, 1, {"alpha": -1.0, "beta": 0.5, "gamma": 1.5}, _SINGULAR,
        _named("alpha", "beta", "gamma"),
        ineqs=("alpha != 0", "beta > 0", "alpha < beta < gamma"),
        eqs=("alpha + beta + gamma = 1",), window=1, reference_F=_F_three_log_capped,
    ),
    _family(
        "1.3.4", 2, 1, {"alpha": 0.5, "beta": 0.25}, _SINGULAR,
        lambda p, n: ((p["beta"], 2), (p["alpha"], 1)), ineqs=("0 < beta < alpha",),
        eqs=("alpha + 2 beta = 1",), window=0, reference_F=_F_double_below_simple,
    ),
    # n = 3, R = 0
    _family(
        "1.4.1", 3, 0, {"a": 1.0, "b": 0.0}, _SMOOTH, _origin, ineqs=("a > 0",),
        window=0, closed_form=lambda p: _g_affine(p["a"], 0.0), reference_F=_F_log,
    ),
    _family(
        "1.4.2", 3, 0, {"a": 1.0, "b": 1.0}, _SINGULAR,
        lambda p, n: ((-p["a"] * p["b"], 1), (0.0, 1), (p["a"] * p["b"], 1)),
        ineqs=("a > 0", "b > 0"), window=2,
        closed_form=lambda p: _g_hyperbolic_sqrt(p["a"], p["b"]),
        reference_F=_F_sqrt_profile,
    ),
    _family(
        "1.4.3", 3, 0, {"alpha": -3.0, "beta": 1.0, "gamma": 2.0}, _SINGULAR,
        _named("alpha", "beta", "gamma"),
        ineqs=("alpha < 0", "beta != 0", "gamma > 0", "alpha < beta < gamma"),
        eqs=("alpha + beta + gamma = 0",), window=2, reference_F=_F_three_log_open,
    ),
    _family(
        "1.4.4", 3, 0, {"alpha": -1.0}, _SINGULAR,
        lambda p, n: ((p["alpha"], 2), (-2.0 * p["alpha"], 1)),
        ineqs=("alpha < 0",), window=1, reference_F=_F_cubic_double,
    ),
    _family(
        "1.4.5", 3, 0, {"alpha": 1.0}, _SINGULAR,
        lambda p, n: ((-2.0 * p["alpha"], 1), (p["alpha"], 2)),
        ineqs=("alpha > 0",), window=1, reference_F=_F_cubic_double,
    ),
    _family(
        "1.4.6", 3, 0, {"alpha": 1.0, "beta": -0.5, "gamma": 1.0}, _SINGULAR,
        _named("alpha"), quad=("beta", "gamma"), ineqs=("alpha > 0", "gamma > 0"),
        eqs=("alpha + 2 beta = 0",), window=0, reference_F=_F_cubic_quad_pair,
    ),
    # n = 3, R = 12
    _family(
        "1.5.1", 3, 1, {"a": 1.0}, _SMOOTH, _sphere, ineqs=("a > 0",), window=0,
        closed_form=lambda p: _g_round_sphere(p["a"]), reference_F=_F_round_sphere,
    ),
    _family(
        "1.5.2", 3, 1,
        {"alpha": 0.25 * (1.0 - _SQ5), "beta": 0.5, "gamma": 0.25 * (1.0 + _SQ5)},
        _SINGULAR,
        lambda p, n: ((p["alpha"], 1), (0.0, 1), (p["beta"], 1), (p["gamma"], 1)),
        ineqs=("alpha < 0 < beta < gamma",),
        eqs=("alpha + beta + gamma = 1", "alpha beta + beta gamma + gamma alpha = 0"),
        window=2, reference_F=_F_three_log_capped,
    ),
    _family(
        "1.5.3", 3, 1,
        {"alpha": 0.125 * (1.0 - _SQ21), "beta": 0.25, "gamma": 0.5,
         "delta": 0.125 * (1.0 + _SQ21)},
        _SINGULAR, _named("alpha", "beta", "gamma", "delta"),
        ineqs=("alpha < beta < gamma < delta", "gamma > 0", "alpha beta delta != 0"),
        eqs=("alpha + beta + gamma + delta = 1", "sum of pairwise products = 0"),
        window=2, reference_F=_F_four_log,
    ),
    _family(
        "1.5.4", 3, 1, {"alpha": -1.0 / 6.0, "beta": 0.5, "gamma": 5.0 / 6.0},
        _SINGULAR, lambda p, n: ((p["alpha"], 2), (p["beta"], 1), (p["gamma"], 1)),
        ineqs=("alpha < 0 < beta < gamma",),
        eqs=("2 alpha + beta + gamma = 1", _E2_DOUBLE),
        window=1, reference_F=_F_quartic_double,
    ),
    _family(
        "1.5.5", 3, 1,
        {"alpha": 0.25, "beta": 0.25 * (1.0 - _SQ6), "gamma": 0.25 * (1.0 + _SQ6)},
        _SINGULAR, lambda p, n: ((p["beta"], 1), (p["alpha"], 2), (p["gamma"], 1)),
        ineqs=("beta < 0 < alpha < gamma",),
        eqs=("2 alpha + beta + gamma = 1", _E2_DOUBLE),
        window=1, reference_F=_F_quartic_double,
    ),
    _family(
        "1.5.6", 3, 1,
        {"alpha1": 0.5, "alpha2": 1.0, "beta": -0.25, "gamma": 0.25 * math.sqrt(3.0)},
        _SINGULAR, _named("alpha1", "alpha2"), quad=("beta", "gamma"),
        ineqs=("0 < alpha1 < alpha2", "gamma > 0"),
        eqs=(
            "alpha1 + alpha2 + 2 beta = 1",
            "alpha1 alpha2 + 2 beta (alpha1 + alpha2) + beta^2 + gamma^2 = 0",
        ),
        window=0, reference_F=_F_quartic_quad_pair,
    ),
    # n = 2, R = -6, metrics on the unit ball
    _family(
        "1.7.1", 2, -1, {}, _FINITE, _ball, window=1,
        closed_form=lambda p: _g_unit_ball(), reference_F=_F_ball_smooth,
    ),
    _family(
        "1.7.2", 2, -1, {"k": 2.0}, _FINITE,
        lambda p, n: ((-0.5 * (p["k"] + 1.0), 1), (0.0, 1), (0.5 * (p["k"] - 1.0), 1)),
        ineqs=("k > 1",), window=2,
        closed_form=lambda p: _g_ball_power(p["k"]), reference_F=_F_ball_power,
    ),
    _family(
        "1.7.3", 2, -1, {"alpha": -2.0, "beta": 0.2, "gamma": 0.8}, _FINITE,
        _named("alpha", "beta", "gamma"), ineqs=("alpha < beta < gamma", "gamma > 0"),
        eqs=("alpha + beta + gamma = -1",), window=2, reference_F=_F_ball_three_log,
    ),
    _family(
        "1.7.4", 2, -1, {"alpha": -3.0, "beta": 1.0}, _FINITE,
        lambda p, n: ((p["alpha"], 1), (p["beta"], 2)), ineqs=("alpha < 0", "beta > 0"),
        eqs=("alpha + 2 beta = -1",), window=1, reference_F=_F_ball_double,
    ),
    _family(
        "1.7.5", 2, -1, {"alpha": 1.0, "beta": -1.0}, _FINITE,
        lambda p, n: ((p["beta"], 2), (p["alpha"], 1)), ineqs=("alpha > 0", "beta < 0"),
        eqs=("alpha + 2 beta = -1",), window=1, reference_F=_F_ball_double,
    ),
    _family(
        "1.7.6", 2, -1, {"alpha": 1.0, "beta": -1.0, "gamma": 1.0}, _FINITE,
        _named("alpha"), quad=("beta", "gamma"), ineqs=("alpha > 0", "gamma > 0"),
        eqs=("alpha + 2 beta = -1",), window=0,
    ),
)

CASES = {fix.label: fix for fix in _ALL}

# One entry per windowed family of a fixed dimension: the multiplicity
# sequence, the positions of exact zero roots and the presence of a
# quadratic factor tell apart the families of one (n, R) table.
_MATCH = {
    fix.match_key(fix.n): label
    for label, fix in CASES.items()
    if fix.branch_range is not None and not fix.n_is_free
}
_FREE = tuple(f for f in CASES.values() if f.n_is_free and f.branch_range is not None)


def get_case(label):
    try:
        return CASES[label]
    except KeyError:
        raise NotClassifiedError(f"no catalogued case with label {label!r}") from None


def canonical_label(label, n):
    """Dimension-specific alias of a smooth-family label, if one exists."""
    fix = CASES.get(label)
    if fix is None or not fix.n_is_free or fix.branch_range is None:
        return label
    return _MATCH.get(fix.match_key(n), label)


def labels_for(n, r_sign):
    """Labels catalogued for dimension n and curvature sign r_sign.

    r_sign is one of 'neg', 'zero', 'pos', or 'smooth'; the last selects
    the dimension-free smooth families.
    """
    if r_sign == "smooth":
        return tuple(sorted(l for l, f in CASES.items() if f.n_is_free))
    sign = _SIGNS.get(r_sign)
    labels = sorted(
        l
        for l, f in CASES.items()
        if not f.n_is_free and f.n == n and f.curv_factor == sign
    )
    if not labels:
        raise NotClassifiedError(
            f"no catalogued families for n = {n} with curvature sign {r_sign!r}"
        )
    return tuple(labels)


def match_label(n, R, lam, mu, real_roots, has_quad, has_branch):
    """Label of the catalogued family a classified problem falls into,
    up to homothety.

    real_roots must be the root profile of the slope polynomial as
    classify reads it, sorted increasing: a multiple root within 1e-10
    of zero snapped to 0.0, a simple one left where it is. The match
    reads R's sign, not its value, and the pattern of the roots, so a
    problem and its image under g = sigma y (sigma > 0) get one label.
    Returns None when the problem admits no branch, and 'unclassified'
    when branches exist but no catalogued family covers the combination.
    """
    if not has_branch:
        return None
    sign = (R > 0.0) - (R < 0.0)
    label = _MATCH.get(_match_key(n, sign, real_roots, has_quad))
    if label is None and lam == 0.0 and mu == 0.0:
        label = next((f.label for f in _FREE if f.curv_factor == sign), None)
    return label or "unclassified"

"""Sign certification for two constrained symmetric forms.

The nonexistence arguments rest on strict negativity of

    J(a, b, c, d) = ab + ac + ad + bc + bd + cd   on  a+b+c+d = -1, a < 0 < b < c < d,
    I(a, b, c)    = a^2 + 2ab + 2ac + bc          on  2a+b+c = -1, b < 0 < c < a.

Each sign is one line of algebra.

J: put S = b+c+d, so a = -1-S. Then 2(bc+bd+cd) = S^2 - b^2 - c^2 - d^2
and 2J = 2aS + S^2 - b^2 - c^2 - d^2, hence

    J = -(2S + S^2 + b^2 + c^2 + d^2)/2 < 0,

since S > 0. J -> 0 as b, c, d -> 0.

I: the constraint gives b + c = -1-2a, so I = a^2 + 2a(-1-2a) + bc, hence

    I = -3a^2 - 2a + bc < 0,

since a > 0 and b < 0 < c. I -> 0 as a, c -> 0.

So the supremum of each form over its set is 0, and no point attains it.

Both sides of each identity are polynomials of total degree 2 in the
free coordinates, (b, c, d) for J and (a, c) for I; the dependent one
comes from the linear constraint. A polynomial of total degree <= 2 in k
variables that vanishes on the principal lattice {y in N^k : sum(y) <= 2}
vanishes everywhere, because that lattice is unisolvent for the degree-2
polynomials (Chung & Yao 1977). ``certify_negative`` checks the identity
at those points (10 for J, 6 for I) in exact integer arithmetic, with J
scaled by 2, so the check is a proof and not a sample.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import product

__all__ = ["ConstraintSample", "I_value", "J_value", "certify_negative"]


def J_value(alpha: float, beta: float, gamma: float, delta: float) -> float:
    """Sum of the six pairwise products of the four arguments."""
    return alpha * (beta + gamma + delta) + beta * (gamma + delta) + gamma * delta


def I_value(alpha: float, beta: float, gamma: float) -> float:
    """alpha^2 + 2 alpha beta + 2 alpha gamma + beta gamma."""
    return alpha * alpha + 2 * alpha * (beta + gamma) + beta * gamma


@dataclass(frozen=True)
class ConstraintSample:
    """A feasible point, its linear-constraint residuals, and its objective."""

    point: tuple
    constraint_residuals: tuple
    objective: float


# point_of maps the free coordinates to a point of the constraint plane;
# claim is scale times the identity's right side, so J needs no fractions;
# witness holds dyadic free coordinates, so its residual is exactly 0
_Lemma = namedtuple("_Lemma", "identity point_of residual value scale claim witness")

_LEMMAS = {
    "J": _Lemma(
        "J = -(2S + S^2 + b^2 + c^2 + d^2)/2, S = b+c+d, on a = -1-S",
        lambda b, c, d: (-1 - (b + c + d), b, c, d),
        lambda a, b, c, d: a + b + c + d + 1,
        J_value,
        2,
        lambda a, b, c, d: -(2 * (b + c + d) + (b + c + d) ** 2 + b * b + c * c + d * d),
        (0.25, 0.5, 1.0),
    ),
    "I": _Lemma(
        "I = -3a^2 - 2a + bc, on b = -1-2a-c",
        lambda a, c: (a, -1 - 2 * a - c, c),
        lambda a, b, c: 2 * a + b + c + 1,
        I_value,
        1,
        lambda a, b, c: -3 * a * a - 2 * a + b * c,
        (0.5, 0.25),
    ),
}


def certify_negative(which: str):
    """Certify J < 0 or I < 0 on its constraint set by its identity.

    Returns (identity, holds, witness): the identity's text, whether it
    held at every point of the degree-2 principal lattice, and a fixed
    feasible witness whose constraint residual is exactly 0.
    """
    if which not in _LEMMAS:
        raise ValueError(f"unknown objective {which!r}, expected 'J' or 'I'")
    lemma = _LEMMAS[which]
    lattice = (y for y in product(range(3), repeat=len(lemma.witness)) if sum(y) <= 2)
    holds = all(
        lemma.scale * lemma.value(*p) == lemma.claim(*p)
        for p in (lemma.point_of(*y) for y in lattice)
    )
    point = lemma.point_of(*lemma.witness)
    witness = ConstraintSample(
        point=point,
        constraint_residuals=(lemma.residual(*point),),
        objective=lemma.value(*point),
    )
    return lemma.identity, holds, witness

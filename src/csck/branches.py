"""Branch enumeration and classification for the reduced slope equation.

A solution branch lives in a window between consecutive roots of H
where H > 0: the slope equation s g^k g' = H(g) forces g to increase
through that window. Whether the branch reaches the puncture s -> 0,
and whether it exhausts s -> +inf, is decided by the divergence of
int x^k / H(x) dx at the window endpoints. A window whose antiderivative
stays finite at the left endpoint never reaches s = 0 and is discarded.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .cases import match_label
from .reduction import OdeData, RadialProblem, build_ode

# A multiple root this close to zero is treated as exactly zero so that
# the lambda = mu = 0 families land on the A = 0 patterns they belong to:
# the centroid of a numerical m-fold root is only known to about
# tol**(1/m). A simple root is known to full precision and stays put.
_ZERO_SNAP = 1e-10


class BranchKind(str, Enum):
    FULL_RAY = "FullRay"
    FINITE_EXTENSION = "FiniteExtension"
    SMOOTH_ORIGIN = "SmoothOrigin"


class Verdict(str, Enum):
    SMOOTH_FAMILY = "SmoothFamily"
    SINGULAR_FAMILIES = "SingularFamilies"
    FINITE_EXTENSION_ONLY = "FiniteExtensionOnly"
    NONEXISTENT = "Nonexistent"


@dataclass(frozen=True)
class Branch:
    """One admissible window (A, B) of the slope polynomial.

    diverges_left is true for every branch classify returns, since a
    window whose antiderivative stays finite at A is discarded; the field
    stays for the report schema.
    """

    A: float
    B: float
    diverges_left: bool
    diverges_right: bool
    kind: BranchKind


@dataclass(frozen=True)
class CaseReport:
    problem: RadialProblem
    ode: OdeData  # the problem's OdeData: H and its root profile, factored once
    verdict: Verdict
    branches: tuple
    matched_case: Optional[str]
    diagnostics: tuple


def _snap_roots(real_roots):
    snapped = []
    for value, mult in real_roots:
        if mult >= 2 and abs(value) <= _ZERO_SNAP:
            value = 0.0
        if snapped and snapped[-1][0] == value:
            snapped[-1] = (value, snapped[-1][1] + mult)
        else:
            snapped.append((value, mult))
    return tuple(snapped)


def _enumerate(ode: OdeData):
    roots = _snap_roots(ode.roots.real_roots)
    has_quad = bool(ode.roots.quad_factors)
    k = ode.k
    lead_positive = ode.H.coeffs[-1] > 0.0

    nonneg = [(r, m) for r, m in roots if r >= 0.0]
    windows = []
    for (a, ma), (b, _) in zip(nonneg, nonneg[1:]):
        # no root lies strictly between consecutive nonnegative roots,
        # so one midpoint sample decides the sign on the whole window
        if ode.H(0.5 * (a + b)) > 0.0:
            windows.append((a, ma, b))
    if nonneg and lead_positive:
        windows.append((*nonneg[-1], math.inf))

    notes = []
    branches = []
    for a, ma, b in windows:
        # near a root a > 0 of H, x^k / H behaves like a^k / (c (x - a)^ma),
        # and near a = 0 like x^(k - ma): the left end diverges iff a > 0
        # or ma >= k + 1 = n. A finite right end b > a >= 0 is a positive
        # root, so it always diverges; a ray diverges iff deg H <= k + 1.
        if not (a > 0.0 or ma >= k + 1):
            notes.append(
                f"window ({a:g}, {b:g}) discarded: finite antiderivative "
                "at the left endpoint, s = 0 is unreachable"
            )
            continue
        dr = not math.isinf(b) or ode.H.degree <= k + 1
        kind = BranchKind.FULL_RAY if dr else BranchKind.FINITE_EXTENSION
        branch = Branch(a, b, True, dr, kind)
        if dr and smooth_origin_test(branch, ode):
            branch = replace(branch, kind=BranchKind.SMOOTH_ORIGIN)
        branches.append(branch)
    return tuple(branches), roots, has_quad, tuple(notes)


def admissible_branches(ode: OdeData):
    """All branches of the slope equation that reach the puncture s = 0."""
    branches, _, _, _ = _enumerate(ode)
    return branches


def smooth_origin_test(branch: Branch, ode: OdeData) -> bool:
    """Whether the branch closes up smoothly over the origin.

    Requires the window to start at g = 0 with both linear terms of the
    slope polynomial absent; the potential then extends over 0 with no
    logarithmic pole.
    """
    return branch.A == 0.0 and ode.problem.lam == 0.0 and ode.problem.mu == 0.0


def lelong_number(branch: Branch) -> float:
    """Mass of the logarithmic pole of the potential at the origin.

    g(s) -> A as s -> 0, so u behaves like A log s; the left endpoint is
    exactly the Lelong number (zero for branches smooth over the origin).
    """
    return branch.A


def _root_text(roots):
    if not roots:
        return "no real roots"
    parts = []
    for value, mult in roots:
        parts.append(f"{value:g}" if mult == 1 else f"{value:g} (x{mult})")
    return "real roots: " + ", ".join(parts)


def classify(problem: RadialProblem, allow_finite_extension: bool = False) -> CaseReport:
    """Enumerate admissible branches and report the existence verdict.

    Branches that only extend over a finite ball are reported when
    allow_finite_extension is set; otherwise they are dropped and a
    problem admitting nothing else is declared nonexistent.
    """
    ode = build_ode(problem)
    branches, roots, has_quad, notes = _enumerate(ode)

    diagnostics = [
        f"H has degree {ode.H.degree} with k = {ode.k}",
        _root_text(roots),
    ]
    diagnostics.extend(notes)

    kept = branches
    if not allow_finite_extension:
        dropped = sum(1 for b in branches if b.kind is BranchKind.FINITE_EXTENSION)
        if dropped:
            diagnostics.append(
                f"{dropped} finite-extension branch(es) suppressed; "
                "pass allow_finite_extension to report them"
            )
        kept = tuple(b for b in branches if b.kind is not BranchKind.FINITE_EXTENSION)

    kinds = {b.kind for b in kept}
    if BranchKind.SMOOTH_ORIGIN in kinds:
        verdict = Verdict.SMOOTH_FAMILY
    elif BranchKind.FULL_RAY in kinds:
        verdict = Verdict.SINGULAR_FAMILIES
    elif kept:
        verdict = Verdict.FINITE_EXTENSION_ONLY
    else:
        verdict = Verdict.NONEXISTENT

    for b in kept:
        right = "inf" if math.isinf(b.B) else f"{b.B:g}"
        diagnostics.append(f"branch ({b.A:g}, {right}): {b.kind.value}")

    matched = match_label(
        problem.n, problem.R, problem.lam, problem.mu, roots, has_quad, bool(kept)
    )
    return CaseReport(
        problem=problem,
        ode=ode,
        verdict=verdict,
        branches=kept,
        matched_case=matched,
        diagnostics=tuple(diagnostics),
    )

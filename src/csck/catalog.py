"""Pipeline plumbing over the catalogued solution families.

instantiate turns a label and a parameter map into the reduced problem
plus the branch data the family is expected to occupy. cross_check
drives the whole engine against that expectation: classification, the
closed antiderivative, gauge fixing (unit-ball normalization for the
negative-curvature families), curvature verification, and, when the
family carries a printed implicit identity, agreement of the engine's
antiderivative with it up to an additive constant. enumerate_cases
lists what the catalogue covers for a dimension and curvature sign.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .branches import BranchKind, classify
from .cases import get_case, labels_for
from .errors import ConstraintViolationError, IllConditionedError, NotClassifiedError, StageError
from .geometry import VerificationReport, verify_solution
from .quadrature import ball_normalize, gauge_from_anchor, partial_fractions, probe_point
from .reduction import RadialProblem

_ENDPOINT_TOL = 1e-8
_REFERENCE_TOL = 1e-9
_REFERENCE_POINTS = 50
# the size of the grid that cross_check's verify stage samples
_VERIFY_SAMPLES = 80


@dataclass(frozen=True)
class ExpectedBranch:
    """Window endpoints, branch kind, and verdict a family should produce."""

    A: float
    B: float
    kind: str
    verdict: str


@dataclass(frozen=True)
class CrossCheckReport:
    label: str
    n: int
    verdict: str
    branch_window: Optional[tuple] = None
    s_domain: Optional[tuple] = None
    reference_deviation: Optional[float] = None
    verification: Optional[VerificationReport] = None


def merged_params(fix, params):
    """Fixture defaults overridden by params, and the "n" entry split off.

    Returns the merged parameter map without "n", and the value of "n"
    (None when params does not set it).
    """
    p = dict(fix.defaults)
    if params:
        p.update(params)
    return p, p.pop("n", None)


def instantiate(label: str, params: Optional[dict] = None, n: Optional[int] = None):
    """Reduced problem and expected branch data for a catalogued family.

    params overrides the fixture defaults. The dimension-free smooth
    families accept the dimension through n (or a params key "n");
    everything else has it pinned. A violated constraint raises
    ConstraintViolationError naming the clause; a parameter that is not a
    finite real number, or an n that is not an integer, raises ValueError
    naming it. Families that admit no solution return None in place of the
    expected branch.
    """
    fix = get_case(label)
    p, dim = merged_params(fix, params)
    if n is not None:
        dim = n
    if dim is None:
        dim = fix.n
    elif isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise ValueError(f"dimension n = {dim!r} must be an integer")
    if not fix.n_is_free and dim != fix.n:
        raise ConstraintViolationError(label, f"dimension is fixed at n = {fix.n}")
    if dim < 2:
        raise ConstraintViolationError(label, "n >= 2")
    unknown = sorted(set(p) - set(fix.param_names))
    if unknown:
        raise ConstraintViolationError(
            label, "unknown parameter(s) " + ", ".join(unknown)
        )
    for key, value in p.items():
        if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and math.isfinite(value)
        ):
            raise ValueError(
                f"parameter {key} = {value!r} must be a finite real number"
            )
    fix.validate(p)
    lam, mu = fix.lambda_mu(p)
    problem = RadialProblem(n=dim, R=fix.curvature(dim), lam=float(lam), mu=float(mu))
    if fix.branch_range is None:
        return problem, None
    a, b = fix.branch_range(p)
    return problem, ExpectedBranch(
        A=float(a), B=float(b), kind=fix.kind, verdict=fix.verdict
    )


def _run_stage(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _ends_match(found: float, wanted: float) -> bool:
    if math.isinf(found) or math.isinf(wanted):
        return math.isinf(found) and math.isinf(wanted)
    return abs(found - wanted) <= _ENDPOINT_TOL * (1.0 + abs(wanted))


def _matching_branch(branches, expected):
    for br in branches:
        if _ends_match(br.A, expected.A) and _ends_match(br.B, expected.B):
            return br
    raise NotClassifiedError(
        f"no admissible branch matches the expected window"
        f" ({expected.A}, {expected.B})"
    )


def _interior_points(a: float, b: float, count: int):
    if math.isinf(b):
        return a + (1.0 + abs(a)) * np.geomspace(0.02, 50.0, count)
    return a + (b - a) * np.linspace(0.02, 0.98, count)


def _reference_deviation(engine_F, reference_F, branch) -> float:
    # both antiderivatives have derivative x^k / H, so consecutive
    # differences must agree; the additive gauge constant drops out
    xs = _interior_points(branch.A, branch.B, _REFERENCE_POINTS)
    engine = np.array([engine_F(float(x)) for x in xs])
    printed = np.array([reference_F(float(x)) for x in xs])
    deviation = float(np.max(np.abs(np.diff(engine) - np.diff(printed))))
    if not deviation < _REFERENCE_TOL:
        raise IllConditionedError(
            deviation,
            f"engine antiderivative deviates from the printed identity"
            f" by {deviation:.3e}",
        )
    return deviation


def cross_check(
    label: str,
    params: Optional[dict] = None,
    n: Optional[int] = None,
) -> CrossCheckReport:
    """Run the full pipeline for a family and verify it against expectations.

    Stages: classify, partial_fractions, gauge (unit-ball normalization
    when the branch only extends over a finite ball, anchored gauge
    otherwise), verify (verify_solution on _VERIFY_SAMPLES = 80 grid
    points), and reference (printed-identity comparison, when the family
    has one). A stage failure is wrapped in StageError with the stage
    tag.
    """
    fix = get_case(label)
    p, _ = merged_params(fix, params)
    problem, expected = instantiate(label, params, n=n)

    # ball families only exist when finite extensions are admitted; every
    # other catalogued verdict is the strict one
    allow_fe = fix.kind == "FiniteExtension"
    case_report = _run_stage(
        "classify", classify, problem, allow_finite_extension=allow_fe
    )
    verdict = str(case_report.verdict.value)
    if verdict != fix.verdict:
        raise StageError(
            "classify",
            NotClassifiedError(f"verdict {verdict}, catalogue expects {fix.verdict}"),
        )
    if expected is None:
        return CrossCheckReport(label=label, n=problem.n, verdict=verdict)

    branch = _run_stage("classify", _matching_branch, case_report.branches, expected)

    ode = case_report.ode
    F = _run_stage("partial_fractions", partial_fractions, ode, branch)

    if branch.kind == BranchKind.FINITE_EXTENSION:
        sol = _run_stage("gauge", ball_normalize, ode, branch, F)
    else:
        if fix.closed_form is not None:
            anchor = (1.0, fix.closed_form(p).value(1.0))
        else:
            anchor = (1.0, probe_point(branch.A, branch.B))
        sol = _run_stage("gauge", gauge_from_anchor, ode, branch, F, anchor)

    deviation = None
    if fix.reference_F is not None:
        reference = fix.reference_F(p)
        deviation = _run_stage("reference", _reference_deviation, F, reference, branch)

    verification = _run_stage("verify", verify_solution, sol, _VERIFY_SAMPLES)

    return CrossCheckReport(
        label=label,
        n=problem.n,
        verdict=verdict,
        branch_window=(branch.A, branch.B),
        s_domain=sol.s_domain,
        reference_deviation=deviation,
        verification=verification,
    )


def enumerate_cases(n: int, r_sign: str):
    """Catalogued labels for dimension n and curvature sign r_sign.

    r_sign is 'neg', 'zero', 'pos', or 'smooth'; combinations outside the
    catalogue raise NotClassifiedError.
    """
    return list(labels_for(n, r_sign))

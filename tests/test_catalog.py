"""Instantiation and full-pipeline cross checks for the catalogued families."""

import math
from dataclasses import replace

import pytest

import csck.catalog as catalog_module
from csck.branches import Verdict, classify
from csck.cases import CASES
from csck.catalog import cross_check, enumerate_cases, instantiate
from csck.errors import ConstraintViolationError, NotClassifiedError, StageError
from csck.reduction import build_ode

ALL_LABELS = sorted(CASES)
BRANCHED = [label for label in ALL_LABELS if CASES[label].branch_range is not None]

SQRT5 = math.sqrt(5.0)


def test_instantiate_three_simple_roots():
    params = {"alpha": -0.5, "beta": 0.5, "gamma": 1.0}
    problem, expected = instantiate("1.3.3", params)
    assert problem.n == 2
    assert problem.R == 6.0
    assert abs(problem.lam - 0.25) < 1e-12
    # the factored cubic forces mu = alpha * beta * gamma
    assert abs(problem.mu - (-0.25)) < 1e-12
    assert abs(expected.A - 0.5) < 1e-12
    assert abs(expected.B - 1.0) < 1e-12
    # the synthesized slope polynomial vanishes at all three roots
    H = build_ode(problem).H
    for root in params.values():
        assert abs(H(root)) < 1e-12


def test_instantiate_uses_catalogued_defaults():
    problem, expected = instantiate("1.5.2")
    assert problem.n == 3
    assert problem.R == 12.0
    assert abs(expected.A - 0.5) < 1e-12
    assert abs(expected.B - 0.25 * (1.0 + SQRT5)) < 1e-12
    assert expected.verdict == "SingularFamilies"
    assert expected.kind == "FullRay"


def test_instantiate_smooth_family_any_dimension():
    problem, expected = instantiate("1.1.2", {"a": 1.0}, n=3)
    assert (problem.n, problem.R, problem.lam, problem.mu) == (3, 12.0, 0.0, 0.0)
    assert (expected.A, expected.B) == (0.0, 1.0)

    problem, _ = instantiate("1.1.2", {"a": 1.0, "n": 5})
    assert (problem.n, problem.R) == (5, 30.0)


def test_instantiate_nonexistent_family_has_no_branch():
    problem, expected = instantiate("1.1.3", n=3)
    assert expected is None
    assert problem.R == -12.0


def test_instantiate_rejects_inconsistent_quadruple():
    data = {"alpha1": 0.5, "alpha2": 1.5, "beta": -1.0, "gamma": 1.5}
    with pytest.raises(ConstraintViolationError) as err:
        instantiate("1.5.6", data)
    assert "alpha1 + alpha2 + 2 beta" in str(err.value)


def test_instantiate_rejects_unknown_parameter():
    with pytest.raises(ConstraintViolationError) as err:
        instantiate("1.2.4", {"zeta": 1.0})
    assert "zeta" in str(err.value)


def test_instantiate_rejects_wrong_dimension():
    with pytest.raises(ConstraintViolationError):
        instantiate("1.3.1", n=3)
    with pytest.raises(ConstraintViolationError):
        instantiate("1.1.1", n=1)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"params": {"a": "x"}}, "parameter a"),
        ({"params": {"a": [1]}}, "parameter a"),
        ({"params": {"a": None}}, "parameter a"),
        ({"params": {"a": True}}, "parameter a"),
        ({"params": {"a": math.inf}}, "parameter a"),
        ({"params": {"a": math.nan}}, "parameter a"),
        ({"params": {"n": 3.7}}, "dimension n"),
        ({"params": {"n": "3"}}, "dimension n"),
        ({"n": 3.9}, "dimension n"),
    ],
)
def test_instantiate_rejects_malformed_parameter(kwargs, name):
    with pytest.raises(ValueError, match=name):
        instantiate("1.1.1", **kwargs)


def test_instantiate_unknown_label():
    with pytest.raises(NotClassifiedError):
        instantiate("9.9.9")


@pytest.mark.parametrize("label", ALL_LABELS)
def test_instantiate_defaults_match_fixture(label):
    fix = CASES[label]
    problem, expected = instantiate(label)
    assert problem.n == fix.n
    assert problem.R == fix.curvature()
    if fix.branch_range is None:
        assert expected is None
    else:
        assert expected.verdict == fix.verdict
        assert expected.kind == fix.kind


def test_cross_check_affine_family():
    report = cross_check("1.2.2")
    assert report.verdict == "SingularFamilies"
    assert report.branch_window[0] == pytest.approx(1.0, abs=1e-12)
    assert math.isinf(report.branch_window[1])
    assert report.reference_deviation < 1e-9
    assert report.verification.kahler_ok
    assert report.verification.max_curvature_residual < 1e-8


def test_cross_check_unit_ball():
    report = cross_check("1.7.1")
    assert report.verdict == "FiniteExtensionOnly"
    assert report.s_domain == (0.0, 1.0)
    assert report.verification.max_curvature_residual < 1e-5
    assert report.reference_deviation < 1e-9


def test_cross_check_double_root_three_dim():
    report = cross_check("1.4.4", {"alpha": -1.0})
    assert report.reference_deviation < 1e-9
    assert report.verification.kahler_ok


def test_cross_check_without_printed_identity():
    report = cross_check("1.7.6")
    assert report.reference_deviation is None
    assert report.s_domain == (0.0, 1.0)
    assert report.verification.max_curvature_residual < 1e-5


def test_cross_check_nonexistent_family():
    report = cross_check("1.1.3")
    assert report.verdict == "Nonexistent"
    assert report.branch_window is None
    assert report.verification is None


@pytest.mark.parametrize("label", BRANCHED)
def test_cross_check_all_fixtures(label):
    report = cross_check(label, n_samples=60)
    scale = 1.0 + abs(CASES[label].curvature())
    assert report.verification.kahler_ok
    assert report.verification.max_curvature_residual < 1e-5 * scale
    if CASES[label].reference_F is not None:
        assert report.reference_deviation < 1e-9


@pytest.mark.parametrize("k", [0.9999, 0.99999, 0.999999])
def test_cross_check_power_pole_with_a_root_next_to_zero(k):
    # H = -x (x - (1 - k)/2) (x - (1 + k)/2) with mu = 0 exactly: the
    # root 0 and the left window end must stay two simple roots
    report = cross_check("1.3.2", {"k": k})
    assert report.branch_window == pytest.approx((0.5 * (1.0 - k), 0.5 * (1.0 + k)))
    assert report.verification.kahler_ok
    assert report.verification.max_curvature_residual < 1e-10


def test_stage_failures_carry_the_stage_tag(monkeypatch):
    def boom(sol, n_samples):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(catalog_module, "verify_solution", boom)
    with pytest.raises(StageError) as err:
        cross_check("1.2.2")
    assert err.value.stage == "verify"
    assert isinstance(err.value.original, RuntimeError)


@pytest.mark.parametrize("change, message", [
    ({"verdict": Verdict.NONEXISTENT}, "verdict Nonexistent, catalogue expects SingularFamilies"),
    ({"branches": ()}, "no admissible branch matches the expected window"),
])
def test_classify_disagreement_is_a_classify_stage_error(monkeypatch, change, message):
    def altered(problem, **kwargs):
        return replace(classify(problem, **kwargs), **change)

    monkeypatch.setattr(catalog_module, "classify", altered)
    with pytest.raises(StageError) as err:
        cross_check("1.2.2")
    assert err.value.stage == "classify"
    assert isinstance(err.value.original, NotClassifiedError)
    assert message in str(err.value.original)


def test_enumerate_case_lists():
    assert enumerate_cases(2, "zero") == ["1.2.1", "1.2.2", "1.2.3", "1.2.4"]
    assert len(enumerate_cases(2, "pos")) == 4
    assert len(enumerate_cases(3, "zero")) == 6
    assert len(enumerate_cases(3, "pos")) == 6
    assert enumerate_cases(2, "neg") == [
        "1.7.1", "1.7.2", "1.7.3", "1.7.4", "1.7.5", "1.7.6",
    ]
    assert enumerate_cases(2, "smooth") == ["1.1.1", "1.1.2", "1.1.3"]


def test_enumerate_uncovered_combinations():
    with pytest.raises(NotClassifiedError):
        enumerate_cases(4, "zero")
    with pytest.raises(NotClassifiedError):
        enumerate_cases(3, "neg")

"""Value oracles and the identity certificates of the constrained forms."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from csck import inequalities
from csck.cli import main
from csck.inequalities import ConstraintSample, I_value, J_value, certify_negative

SQRT21 = math.sqrt(21.0)


def test_J_pairwise_sum_oracle():
    # hand sum of the six pairwise products
    assert abs(J_value(-2.0, 0.2, 0.3, 0.5) - (-1.69)) < 1e-12


def test_J_zero_at_origin():
    assert J_value(0.0, 0.0, 0.0, 0.0) == 0.0


def test_J_zero_locus_quartic_root_data():
    # four reals with vanishing second elementary symmetric function
    val = J_value((1.0 - SQRT21) / 8.0, 0.25, 0.5, (1.0 + SQRT21) / 8.0)
    assert abs(val) < 1e-12


def test_J_symmetric_under_permutation():
    a, b, c, d = -2.0, 0.2, 0.3, 0.5
    assert abs(J_value(a, b, c, d) - J_value(d, b, a, c)) < 1e-15


def test_I_oracle_on_constraint_point():
    # 2a + b + c = -1 with b < 0 < c < a
    assert abs(I_value(0.5, -2.2, 0.2) - (-2.19)) < 1e-12


def test_I_zero_at_origin():
    assert I_value(0.0, 0.0, 0.0) == 0.0


def test_I_zero_locus():
    assert abs(I_value(-1.0 / 6.0, 0.5, 5.0 / 6.0)) < 1e-12


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        certify_negative("K")


def _J_identity(a, b, c, d):
    s = b + c + d
    return -(2.0 * s + s * s + b * b + c * c + d * d) / 2.0


def _I_identity(a, b, c):
    return -3.0 * a * a - 2.0 * a + b * c


@pytest.mark.parametrize("which", ["J", "I"])
def test_certified_max_is_negative(which):
    identity, holds, witness = certify_negative(which)
    assert identity.startswith(which + " = ")
    assert holds is True
    assert isinstance(witness, ConstraintSample)
    assert witness.objective < 0.0
    assert witness.constraint_residuals == (0.0,)


def test_witness_respects_J_sign_pattern():
    _, _, witness = certify_negative("J")
    a, b, c, d = witness.point
    assert a < 0.0 < b < c < d
    assert J_value(a, b, c, d) == witness.objective
    assert _J_identity(a, b, c, d) == witness.objective


def test_witness_respects_I_sign_pattern():
    _, _, witness = certify_negative("I")
    a, b, c = witness.point
    assert b < 0.0 < c < a
    assert I_value(a, b, c) == witness.objective
    assert _I_identity(a, b, c) == witness.objective


@pytest.mark.parametrize("which", ["J", "I"])
def test_lattice_check_rejects_a_claim_off_by_one_monomial(which, monkeypatch):
    # b*c is nonzero at some lattice point, so a claim off by it must fail;
    # b and c are the point's second and third coordinates for J and for I
    lemma = inequalities._LEMMAS[which]
    wrong = lambda *p: lemma.claim(*p) + p[1] * p[2]  # noqa: E731
    monkeypatch.setitem(inequalities._LEMMAS, which, lemma._replace(claim=wrong))
    assert certify_negative(which)[1] is False
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["lemmas", "--which", which])
    assert code == 1
    assert json.loads(out.getvalue())["negative"] is False

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csck import RadialProblem, build_ode, polynomials
from csck.cases import CASES
from csck.catalog import instantiate
from csck.errors import IllConditionedError, ZeroPolyError
from csck.polynomials import (
    Poly,
    _candidates,
    _certified,
    _conjugates,
    _deriv,
    _isolated,
    _polish,
    _taylor,
    real_root_profile,
)


def test_zero_poly_has_no_degree():
    z = Poly.from_coeffs((0.0, 0.0))
    assert z.is_zero
    with pytest.raises(ZeroPolyError):
        z.degree
    with pytest.raises(ZeroPolyError):
        real_root_profile(z)


def test_a_constant_has_no_root_profile():
    with pytest.raises(ValueError, match="degree >= 1 required"):
        real_root_profile(Poly.from_coeffs([2.0]))


def test_trim_and_eval():
    p = Poly.from_coeffs((1.0, -2.0, 1.0, 0.0))
    assert p.degree == 2
    assert p(3.0) == 4.0
    assert p.derivative().coeffs == (-2.0, 2.0)


def test_simple_quadratic_roots():
    p = Poly.from_coeffs((-2.0, 0.0, 1.0))  # x^2 - 2
    prof = real_root_profile(p)
    assert len(prof.real_roots) == 2
    (r0, m0), (r1, m1) = prof.real_roots
    assert m0 == m1 == 1
    assert abs(r0 + np.sqrt(2.0)) < 1e-12
    assert abs(r1 - np.sqrt(2.0)) < 1e-12
    assert prof.quad_factors == ()


def test_double_root_detected_exactly():
    p = Poly.from_factors([(1.0, 2), (-0.5, 1)], leading=3.0)
    prof = real_root_profile(p)
    assert [(round(r, 9), m) for r, m in prof.real_roots] == [(-0.5, 1), (1.0, 2)]
    assert prof.leading == 3.0


def test_triple_root_detected_exactly():
    p = Poly.from_factors([(0.75, 3), (-2.0, 1)])
    prof = real_root_profile(p)
    mults = {round(r, 6): m for r, m in prof.real_roots}
    assert mults == {0.75: 3, -2.0: 1}


def test_full_degree_multiple_root():
    p = Poly.from_factors([(1.0, 6)])
    prof = real_root_profile(p)
    assert len(prof.real_roots) == 1
    r, m = prof.real_roots[0]
    assert m == 6
    assert abs(r - 1.0) < 1e-10


def test_exact_zero_root_is_never_merged_with_a_nonzero_one():
    # x (x - e) with e^2 / 4 below tol would pass the gate as a double
    # root at e / 2; the zero coefficient makes 0.0 an exact root
    for e in (5e-5, 5e-6, 5e-7):
        p = Poly.from_factors([(0.0, 1), (e, 1), (1.0 - e, 1)], leading=-1.0)
        prof = real_root_profile(p)
        assert [m for _, m in prof.real_roots] == [1, 1, 1]
        assert prof.real_roots[0][0] == 0.0
        assert prof.real_roots[1][0] == pytest.approx(e, rel=1e-9)


def test_complex_pair_goes_to_quad_factor():
    p = Poly.from_coeffs((1.0, 0.0, 1.0))  # x^2 + 1
    prof = real_root_profile(p)
    assert prof.real_roots == ()
    ((b, g, m),) = prof.quad_factors
    assert m == 1
    assert abs(b) < 1e-12 and abs(g - 1.0) < 1e-12


def test_repeated_quad_factor():
    p = Poly.from_coeffs((1.0, 0.0, 2.0, 0.0, 1.0))  # (x^2+1)^2
    prof = real_root_profile(p)
    ((b, g, m),) = prof.quad_factors
    assert m == 2
    assert abs(b) < 1e-9 and abs(g - 1.0) < 1e-9


def test_mixed_real_and_quad():
    p = Poly.from_factors([(2.0, 1)], quad_factors=[(0.5, 1.5, 1)], leading=-2.0)
    prof = real_root_profile(p)
    assert len(prof.real_roots) == 1 and len(prof.quad_factors) == 1
    r, m = prof.real_roots[0]
    assert m == 1 and abs(r - 2.0) < 1e-12
    b, g, qm = prof.quad_factors[0]
    assert qm == 1 and abs(b - 0.5) < 1e-10 and abs(g - 1.5) < 1e-10


def test_reduced_ode_polynomial_fubini_study():
    # -x^3 + x^2 for n=2, R=6: roots 0 (double) and 1
    p = Poly.from_coeffs((0.0, 0.0, 1.0, -1.0))
    prof = real_root_profile(p)
    assert [(round(r, 9), m) for r, m in prof.real_roots] == [(0.0, 2), (1.0, 1)]


def test_reconstruction_residual_gate(monkeypatch):
    p = Poly.from_coeffs((-2.0, 0.0, 1.0))
    monkeypatch.setattr(polynomials, "_GATE_TOL", 1e-30)
    with pytest.raises(IllConditionedError) as exc:
        real_root_profile(p)
    assert exc.value.residual > 1e-30


def test_from_factors_roundtrip_matches_numpy():
    p = Poly.from_factors([(1.0, 1), (-2.0, 2)], quad_factors=[(0.0, 1.0, 1)], leading=2.0)
    xs = np.linspace(-3.0, 3.0, 17)
    ref = 2.0 * (xs - 1.0) * (xs + 2.0) ** 2 * (xs**2 + 1.0)
    got = np.array([p(x) for x in xs])
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-12)
    # the same floats as multiplying the factors one by one
    p = Poly.from_factors([(0.1, 1), (-2.7, 2)], quad_factors=[(0.3, 1.7, 1)], leading=-1.3)
    by_mul = Poly.from_coeffs((-1.3,))
    for factor in [(-0.1, 1.0), (2.7, 1.0), (2.7, 1.0), (0.3 * 0.3 + 1.7 * 1.7, -0.6, 1.0)]:
        by_mul = by_mul * Poly.from_coeffs(factor)
    assert p.coeffs == by_mul.coeffs


def test_planted_root_recovery_seeded():
    # randomized factorizations with well-separated planted roots
    rng = np.random.default_rng(7)
    grid = np.arange(-3.0, 3.01, 0.25)
    for _ in range(300):
        deg_budget = int(rng.integers(1, 7))
        reals = []
        quads = []
        while deg_budget > 0:
            if deg_budget >= 2 and rng.random() < 0.25:
                b = float(rng.uniform(-2.0, 2.0))
                g = float(rng.uniform(0.4, 2.0))
                mq = 1
                if deg_budget >= 4 and rng.random() < 0.2:
                    mq = 2
                quads.append((b, g, mq))
                deg_budget -= 2 * mq
            else:
                m = int(rng.integers(1, min(3, deg_budget) + 1))
                taken = {r for r, _ in reals}
                choices = [v for v in grid if all(abs(v - t) > 0.1 for t in taken)]
                reals.append((float(rng.choice(choices)), m))
                deg_budget -= m
        lead = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        p = Poly.from_factors(reals, quads, leading=lead)
        prof = real_root_profile(p)
        want = sorted(reals)
        got = list(prof.real_roots)
        assert len(got) == len(want), (reals, quads, got)
        for (wr, wm), (gr, gm) in zip(want, got):
            assert gm == wm, (reals, quads, got)
            assert abs(gr - wr) <= 1e-8 * (1.0 + abs(wr)), (reals, quads, got)
        assert len(prof.quad_factors) == len(quads)
        rec = prof.reconstruct().coeffs
        norm = max(abs(c) for c in p.coeffs)
        assert max(abs(a - b) for a, b in zip(rec, p.coeffs)) <= 1e-9 * norm


def _sturm_count(coeffs):
    """Distinct real roots of the polynomial with these (float) coefficients.

    An exact Sturm sequence over the rationals: p, p', then negated
    remainders, ending at gcd(p, p'). The sign variations at -inf and +inf
    differ by the number of distinct real roots.
    """
    p = [Fraction(c) for c in coeffs]
    while p[-1] == 0:
        p.pop()
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        rem = list(chain[-2])
        div = chain[-1]
        while len(rem) >= len(div):
            f = rem[-1] / div[-1]
            shift = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] -= f * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_pos = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg = [s if (len(q) - 1) % 2 == 0 else -s for s, q in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos)


def test_real_root_count_matches_exact_sturm_on_slope_polynomials():
    # the oracle itself: (x - 1)^2 (x + 2) (x^2 + 1), x^2 + 1, x^3 - x
    p = Poly.from_factors([(1.0, 2), (-2.0, 1)], quad_factors=[(0.0, 1.0, 1)])
    assert _sturm_count(p.coeffs) == 2
    assert _sturm_count((1.0, 0.0, 1.0)) == 0
    assert _sturm_count((0.0, -1.0, 0.0, 1.0)) == 3
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = (float(v) for v in rng.normal(0.0, 3.0, 2))
        H = build_ode(RadialProblem(n, R, lam, mu)).H
        assert len(real_root_profile(H).real_roots) == _sturm_count(H.coeffs), (n, R, lam, mu)


@st.composite
def planted_products(draw, max_degree):
    """A polynomial from planted factors: real roots at least 0.2 scale
    apart, conjugate pairs with gamma >= 0.2 scale and at least 0.2 scale
    from each other, and at most one multiple factor, of order <= 3."""
    scale = 10.0 ** draw(st.floats(-1.0, 3.0))
    unit = st.floats(-1.0, 1.0)
    reals = []
    for x in draw(st.lists(unit, max_size=max_degree)):
        if all(abs(x - r) >= 0.2 for r in reals):
            reals.append(x)
    pairs = []
    for z in draw(st.lists(st.builds(complex, unit, st.floats(0.2, 1.0)), max_size=max_degree // 2)):
        if all(abs(z - w) >= 0.2 for w in pairs):
            pairs.append(z)
    factors = [(scale * x, 1, 1) for x in reals] + [(scale * z, 2, 1) for z in pairs]
    if factors:
        i = draw(st.integers(0, len(factors) - 1))
        value, width, _ = factors[i]
        factors[i] = (value, width, draw(st.integers(1, 3)))
    kept, degree = [], 0
    for value, width, m in factors:
        if degree + width * m <= max_degree:
            kept.append((value, m))
            degree += width * m
    assume(degree >= 1)
    lead = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    want_reals = sorted((v, m) for v, m in kept if isinstance(v, float))
    want_quads = sorted((v.real, v.imag, m) for v, m in kept if isinstance(v, complex))
    return want_reals, want_quads, Poly.from_factors(want_reals, want_quads, leading=lead)


def _matches_planted(prof, want_reals, want_quads):
    """Same multiplicities, and every value within 1e-8 (1 + |value|).

    Real roots pair up in sorted order; quadratic factors, which may
    share beta, pair up with any unused factor of the same multiplicity.
    """
    if [m for _, m in prof.real_roots] != [m for _, m in want_reals]:
        return False
    if any(abs(g - w) > 1e-8 * (1.0 + abs(w)) for (g, _), (w, _) in zip(prof.real_roots, want_reals)):
        return False
    found = [(complex(b, g), m) for b, g, m in prof.quad_factors]
    for b, g, m in want_quads:
        w = complex(b, g)
        hit = next((f for f in found if f[1] == m and abs(f[0] - w) <= 1e-8 * (1.0 + abs(w))), None)
        if hit is None:
            return False
        found.remove(hit)
    return not found


@pytest.mark.parametrize("max_degree", [9, 12])
def test_planted_structure_property(max_degree):
    # up to degree 9 the planted structure is always recovered; up to
    # degree 12 the only other outcome allowed is a refusal
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(planted_products(max_degree))
    def check(case):
        want_reals, want_quads, p = case
        try:
            prof = real_root_profile(p)
        except IllConditionedError:
            assert max_degree > 9, (want_reals, want_quads)
            return
        assert _matches_planted(prof, want_reals, want_quads), (want_reals, want_quads, prof)

    check()


def test_polish_lands_on_the_planted_quadratic_factor():
    # (x - 1)^2 + 4 times (x - 3)(x + 1), polished from a start 10% off
    p = Poly.from_factors([(3.0, 1), (-1.0, 1)], quad_factors=[(1.0, 2.0, 1)])
    z = _polish([p.coeffs, _deriv(p.coeffs)], complex(1.1, 1.8), 1)
    beta, gamma = z.real, abs(z.imag)
    assert abs(beta - 1.0) <= 1e-15 and abs(gamma - 2.0) <= 1e-15


def _exact(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


def _ulps(x, k, toward):
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


def test_simple_real_roots_are_bracketed_within_4_ulp():
    # 400 H from the sweep's distribution: H, evaluated exactly, changes
    # sign (or vanishes) between 4 ulp below and 4 ulp above each nonzero
    # simple real root
    rng = random.Random(0)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        factor = rng.choice((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0))
        lam = rng.gauss(0.0, 3.0)
        while abs(lam) < 0.25:
            lam = rng.gauss(0.0, 3.0)
        H = build_ode(RadialProblem(n, factor * n * (n + 1), lam, rng.gauss(0.0, 3.0))).H
        for r, m in real_root_profile(H).real_roots:
            if m != 1 or r == 0.0:
                continue
            lo = _exact(H.coeffs, _ulps(r, 4, -math.inf))
            hi = _exact(H.coeffs, _ulps(r, 4, math.inf))
            assert lo == 0 or hi == 0 or (lo > 0) != (hi > 0), (n, factor, lam, r)
            checked += 1
    assert checked == 610


def test_small_simple_roots_reach_full_precision():
    # the roots of H for (n, R, lambda, mu) = (2, 12, -0.00888..., 5.39...e-06)
    # to 50 digits; the left end A of the window (0.00065..., 0.00837...)
    # is the second
    H = build_ode(RadialProblem(2, 12.0, -0.008883133255605843, 5.3937305551519845e-06)).H
    want = (
        "0.00065549388033866507493870726094807657751289816972704",
        "0.0083799312008221212844793049822284867761039473944957",
        "0.49096457491883921364058198775682343664638315443578",
    )
    prof = real_root_profile(H)
    assert [m for _, m in prof.real_roots] == [1, 1, 1]
    for (r, _), w in zip(prof.real_roots, want):
        assert abs(Fraction(r) - Fraction(w)) <= Fraction(math.ulp(r)), (r, w)


def test_non_finite_coefficient_is_a_value_error():
    for coeffs in ([math.nan, 1.0], [1.0, math.inf], [1.0, -math.inf, 2.0]):
        with pytest.raises(ValueError, match="finite"):
            real_root_profile(Poly.from_coeffs(coeffs))


def test_subnormal_leading_coefficient_is_ill_conditioned():
    # H for n = 2, R = 1e-310, lambda = 0, mu = 1: the companion column
    # -c / lead overflows to inf
    H = build_ode(RadialProblem(2, 1e-310, 0.0, 1.0)).H
    assert 0.0 < abs(H.coeffs[-1]) < np.finfo(float).tiny
    with pytest.raises(IllConditionedError, match="companion"):
        real_root_profile(H)


def test_nan_residual_fails_the_gate():
    # a nan factor gives a nan residual, which must fail the gate
    p = Poly.from_coeffs((-2.0, 0.0, 1.0))
    with pytest.raises(IllConditionedError) as exc:
        _certified(p.coeffs, [(math.nan, 1), (1.0, 1)], [])
    assert math.isnan(exc.value.residual)
    # on these finite coefficients Bairstow's polish runs to nan; a
    # profile that comes back must hold finite values only
    p = Poly.from_coeffs((
        -1.0849280332619938e148, 8.460773411980591e-110, 7.554177926754768e148,
        2.5520375963930557e-193, 3.019071752253796e-200, 22.160840168144805,
        -2.0004810686191745e-119, -9.485447622151063e-71, -3.809210403638828e-74,
    ))
    try:
        prof = real_root_profile(p)
    except IllConditionedError:
        return
    values = [v for r in prof.real_roots for v in r] + [v for q in prof.quad_factors for v in q]
    assert all(math.isfinite(v) for v in values), prof


def _H(n, R, lam, mu):
    return build_ode(RadialProblem(n, R, lam, mu)).H


def _seeded_H(seed, draws, planted):
    """H from sweep-like draws (n in 2..11, R in {0, +-1/2, +-1, +-2} n(n+1),
    lambda and mu from N(0, 3^2)), and H with a planted double or triple
    root at a, each also with mu moved by t _GATE_TOL ||H||inf, t
    log-uniform in [0.1, 10], which splits the root so that the residual
    of merging it again lies within 10x of _GATE_TOL."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        n = int(rng.integers(2, 12))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = (float(v) for v in rng.normal(0.0, 3.0, 2))
        out.append(_H(n, R, lam, mu))
    for i in range(planted):
        n = int(rng.integers(2, 12))
        if i % 2:
            # H'' vanishes at a = (n - 1)/R as well: a triple root
            R = float(rng.choice([0.5, 1.0, 2.0, -0.5, -1.0])) * n * (n + 1)
            a = (n - 1) / R
        else:
            R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
            a = float(rng.uniform(-2.0, 2.0))
        lam = R / n * a**n - n * a ** (n - 1)
        mu = R / (n * (n + 1)) * a ** (n + 1) - a**n - lam * a
        H = _H(n, R, lam, mu)
        out.append(H)
        for _ in range(2):
            t = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1.0, 1.0)
            out.append(_H(n, R, lam, mu + t * 1e-9 * max(map(abs, H.coeffs))))
    return out


def _catalog_H():
    return [
        build_ode(instantiate(label, n=n)[0]).H
        for label, fix in sorted(CASES.items())
        for n in ((2, 3) if fix.n_is_free else (None,))
    ]


def _sweep_H(seed, draws, scaled):
    """H from the sweep recipe: n in 2..8, R in {0, +-1/2, +-1, +-2} n(n+1),
    lambda and mu from N(0, 3^2), each times 10**U(-12, 0) when scaled."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        n = int(rng.integers(2, 9))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = (float(v) for v in rng.normal(0.0, 3.0, 2))
        if scaled:
            lam, mu = (v * 10.0 ** rng.uniform(-12.0, 0.0) for v in (lam, mu))
        out.append(_H(n, R, lam, mu))
    return out


def _hex_outcome(p):
    try:
        prof = real_root_profile(p)
    except IllConditionedError as exc:
        return ("IllConditionedError", str(exc), exc.residual.hex())
    return tuple(
        tuple(tuple(float(v).hex() for v in factor) for factor in part)
        for part in (prof.real_roots, prof.quad_factors, ((prof.leading,),))
    )


def _certifies(p):
    cs = p.coeffs
    zs = _candidates(cs)
    return _isolated(cs, zs, _conjugates(zs)) is not None


def test_inclusion_discs_leave_every_profile_as_the_scan_has_it(monkeypatch):
    sweep, scaled = _sweep_H(29, 1500, False), _sweep_H(30, 1500, True)
    seeded = _seeded_H(31, 0, 300)
    # H with an exact double or triple root comes first in each triple of _seeded_H
    multiple = seeded[::3] + [
        Poly.from_factors([(1.0, 2), (-0.5, 1)], leading=3.0),
        Poly.from_factors([(0.75, 3), (-2.0, 1)]),
        Poly.from_factors([(1.0, 6)]),
        Poly.from_coeffs((1.0, 0.0, 2.0, 0.0, 1.0)),
    ]
    two_zeros = [
        Poly.from_coeffs((0.0, 0.0, 1.0, -1.0)),
        *(Poly.from_factors([(0.0, 2), (r, 1)], leading=-2.0) for r in (1e-12, -0.5, 3.0)),
    ]
    inputs = sweep + scaled + seeded + multiple + two_zeros + _catalog_H()

    # the sweep draws are certified, so they never reach the scan
    assert all(map(_certifies, sweep))
    assert sum(map(_certifies, scaled)) >= 0.7 * len(scaled)
    assert not any(map(_certifies, multiple + two_zeros))
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_clusterings", lambda *args: pytest.fail("the scan ran"))
        for p in sweep:
            real_root_profile(p)

    shipped = [_hex_outcome(p) for p in inputs]
    monkeypatch.setattr(polynomials, "_isolated", lambda cs, zs, conj: None)
    assert [_hex_outcome(p) for p in inputs] == shipped


def test_point_test_leaves_every_profile_as_the_full_scan_has_it(monkeypatch):
    # near-multiple roots and the catalog, each factored with the inclusion
    # discs and with every clustering scanned, agree to the last bit
    Hs = _seeded_H(2027, 2000, 500) + _catalog_H()
    assert len(Hs) >= 3000
    shipped = [_hex_outcome(H) for H in Hs]
    monkeypatch.setattr(polynomials, "_isolated", lambda cs, zs, conj: None)
    assert [_hex_outcome(H) for H in Hs] == shipped


def test_one_derivative_chain_serves_a_profile(monkeypatch):
    # the polish of every root reads one chain of H's derivatives, built
    # up to the highest multiplicity, on the certified path and the scan
    calls = []

    def counted(cs):
        calls.append(cs)
        return deriv(cs)

    deriv = polynomials._deriv
    monkeypatch.setattr(polynomials, "_deriv", counted)
    planted = _seeded_H(31, 0, 300)
    checked = multiple = 0
    for p in _sweep_H(34, 500, False) + planted[::3]:
        calls.clear()
        try:
            prof = real_root_profile(p)
        except IllConditionedError:
            continue
        top = max(m for *_, m in prof.real_roots + prof.quad_factors)
        assert len(calls) <= top, (p, prof, len(calls))
        checked += 1
        multiple += top > 1
    assert checked >= 550 and multiple >= 50


def test_truncated_taylor_expansion_is_a_prefix_of_the_full_one():
    for p in _sweep_H(32, 50, False) + _seeded_H(33, 0, 20):
        for z in _candidates(p.coeffs) + [1.5, -0.25]:
            full = _taylor(p.coeffs, z)
            for k in range(len(full) + 2):
                assert [repr(c) for c in _taylor(p.coeffs, z, k)] == [repr(c) for c in full[:k]]

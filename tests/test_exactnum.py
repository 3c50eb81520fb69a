import random
import time
from fractions import Fraction

import pytest

from hermsig import exactnum
from hermsig.errors import (
    EmptyConditions,
    NotIsolating,
    NotSquarefree,
    SignConditionDegenerate,
    ZeroPolynomial,
)
from hermsig.exactnum import (
    Interval,
    Polynomial,
    count_real_roots,
    count_roots_with_signs,
    count_roots_with_signs_formula,
    is_coprime,
    is_squarefree,
    isolate_real_roots,
    refine_interval,
    sturm_sequence,
    tarski_query,
)


def P(*coeffs):
    return Polynomial(coeffs)


def _value(p, x):
    """p(x) by Horner over Fraction."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


X2_MINUS_2 = P(-2, 0, 1)


def test_polynomial_normalization_and_arithmetic():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).is_zero
    assert (P(1, 1) * P(-1, 1)).coeffs == (-1, 0, 1)
    assert _value(P(-2, 0, 1), Fraction(3, 2)) == Fraction(1, 4)


def test_gcd_and_squarefree():
    p = P(-1, 0, 1) * P(-1, 1)  # (x^2-1)(x-1): double root at 1
    # the Sturm chain of (p, p') ends at gcd(p, p') = x - 1
    assert sturm_sequence(p).members[-1] == (-1, 1)
    assert not is_squarefree(p)
    # coprimality read off the Tarski chain of squarefree m = x^2 - 1
    assert not is_coprime(P(-1, 0, 1), P(-1, 1))
    assert not is_coprime(P(-1, 0, 1), P(-1, 0, 1) * P(5, 1))
    assert is_coprime(P(-1, 0, 1), P(-2, 1))
    assert is_coprime(P(-1, 0, 1), P(3))
    with pytest.raises(NotSquarefree):
        is_coprime(p, P(-2, 1))
    assert is_squarefree(X2_MINUS_2)


def test_sturm_sequence_x2_minus_2():
    # hand computation: p' = 2x has primitive part x; the remainder of
    # (x^2-2, x) is -2, primitive part -1, negated to 1
    chain = sturm_sequence(X2_MINUS_2)
    assert chain.members == ((-2, 0, 1), (0, 1), (1,))


def test_sturm_sequence_linear():
    chain = sturm_sequence(P(-1, 1))
    assert chain.members == ((-1, 1), (1,))


def test_sturm_sequence_non_squarefree_ends_at_gcd():
    # x^2 has remainder 0 against x, the primitive part of 2x: the chain
    # stops at x
    chain = sturm_sequence(P(0, 0, 1))
    assert chain.members == ((0, 0, 1), (0, 1))


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(P())


def test_count_real_roots_whole_line():
    assert count_real_roots(X2_MINUS_2) == 2
    assert count_real_roots(P(1, 0, 1)) == 0


def test_count_real_roots_window():
    assert count_real_roots(X2_MINUS_2, Interval(0, 2)) == 1


def test_count_counts_distinct_roots():
    assert count_real_roots(P(0, 0, 1)) == 1  # x^2, double root at 0


def test_isolate_x2_minus_2():
    ivs = isolate_real_roots(X2_MINUS_2)
    assert len(ivs) == 2
    assert ivs[0].hi <= ivs[1].lo
    for iv in ivs:
        assert count_real_roots(X2_MINUS_2, iv) == 1
    neg = refine_interval(X2_MINUS_2, ivs[0], Fraction(1, 4))
    pos = refine_interval(X2_MINUS_2, ivs[1], Fraction(1, 4))
    assert Fraction(-2) < neg.lo and neg.hi < 0
    assert 0 < pos.lo and pos.hi < 2


def test_isolate_rational_root():
    ivs = isolate_real_roots(P(0, 1))  # x
    assert len(ivs) == 1
    assert ivs[0].lo <= 0 <= ivs[0].hi


def test_isolate_three_roots():
    p = P(0, -2, 0, 1)  # x^3 - 2x, roots -sqrt2, 0, sqrt2
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for iv in ivs:
        assert count_real_roots(p, iv) == 1
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo


def _prod(*ps):
    out = P(1)
    for p in ps:
        out = out * p
    return out


# isolating intervals, then each refined to width 1/64, as recorded before
# isolation moved to an integer grid; x^3 - x, x(4x^2 - 1)(x - 3) and
# x^3 - 2x have roots on bisection midpoints, so windows are carved
PINNED_ISOLATION = [
    (P(0, -1, 0, 1),
     ["[-2, -1/2]", "[-1/2, 1/2]", "[1/2, 2]"],
     ["[-257/256, -127/128]", "[0, 0]", "[127/128, 257/256]"]),
    (_prod(P(0, 1), P(-1, 0, 4), P(-3, 1)),
     ["[-4, -1/4]", "[-1/4, 1/4]", "[1/4, 17/8]", "[17/8, 4]"],
     ["[-263/512, -511/1024]", "[0, 0]", "[511/1024, 263/512]", "[3061/1024, 769/256]"]),
    (X2_MINUS_2, ["[-3, 0]", "[0, 3]"], ["[-363/256, -45/32]", "[45/32, 363/256]"]),
    (P(0, -2, 0, 1),
     ["[-3, -3/4]", "[-3/4, 3/4]", "[3/4, 3]"],
     ["[-363/256, -1443/1024]", "[0, 0]", "[1443/1024, 363/256]"]),
    (P(1, 0, -10, 0, 1),
     ["[-11/2, -11/4]", "[-11/4, 0]", "[0, 11/4]", "[11/4, 11/2]"],
     ["[-3223/1024, -803/256]", "[-165/512, -319/1024]", "[319/1024, 165/512]",
      "[803/256, 3223/1024]"]),
    (P(0, 1), ["[-1, 1]"], ["[0, 0]"]),
    (_prod(*[P(-k, 1) for k in range(1, 7)]),
     ["[0, 1765/1024]", "[1765/1024, 5295/2048]", "[5295/2048, 1765/512]",
      "[1765/512, 8825/2048]", "[8825/2048, 5295/1024]", "[5295/1024, 1765/256]"],
     ["[65305/65536, 132375/131072]", "[65305/32768, 262985/131072]",
      "[195915/65536, 393595/131072]", "[524205/131072, 262985/65536]",
      "[654815/131072, 164145/32768]", "[785425/131072, 393595/65536]"]),
    (P(Fraction(3, 7), -2, Fraction(1, 2), 5, 0, -1, Fraction(2, 3), 0, 1),
     ["[9/32, 21/64]", "[21/64, 3/8]"],
     ["[81/256, 21/64]", "[87/256, 45/128]"]),
    (P(1, 0, 1), [], []),
    (P(7), [], []),
]


@pytest.mark.parametrize("p, isolated, refined", PINNED_ISOLATION)
def test_isolation_is_pinned(p, isolated, refined):
    ivs = isolate_real_roots(p)
    assert [f"[{iv.lo}, {iv.hi}]" for iv in ivs] == isolated
    small = [refine_interval(p, iv, Fraction(1, 64)) for iv in ivs]
    assert [f"[{iv.lo}, {iv.hi}]" for iv in small] == refined


def test_isolate_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        isolate_real_roots(P(0, 0, 1))


def test_tarski_query_examples():
    assert tarski_query(X2_MINUS_2, P(0, 1)) == 0  # sgn(sqrt2)+sgn(-sqrt2)
    assert tarski_query(X2_MINUS_2, P(0, 0, 1)) == 2  # both squares positive
    assert tarski_query(P(1, 0, 1), P(0, 1)) == 0  # no real roots
    assert tarski_query(X2_MINUS_2, P(1)) == count_real_roots(X2_MINUS_2)


def test_count_roots_with_signs_examples():
    for count in (count_roots_with_signs, count_roots_with_signs_formula):
        assert count(X2_MINUS_2, [P(0, 1)]) == 1
        assert count(X2_MINUS_2, [P(0, -1), P(-10, 1)]) == 0
        with pytest.raises(SignConditionDegenerate):
            count(P(0, -1, 0, 1), [P(0, 1)])  # shared root at 0
        with pytest.raises(EmptyConditions):
            count(X2_MINUS_2, [])
        with pytest.raises(NotSquarefree):
            count(P(0, 0, 1), [P(1)])
        # an irrational shared factor: m = (x^2 - 2)(x - 3), g = x^2 - 2
        with pytest.raises(SignConditionDegenerate):
            count(X2_MINUS_2 * P(-3, 1), [X2_MINUS_2])
        # x - 10 excludes both roots before the degenerate x^2 - 2 is reached
        with pytest.raises(SignConditionDegenerate):
            count(X2_MINUS_2, [P(-10, 1), X2_MINUS_2])
        # no real roots at all
        with pytest.raises(SignConditionDegenerate):
            count(P(1, 0, 1), [P(1, 0, 1)])


@pytest.fixture
def built(monkeypatch):
    """The conditions of the Tarski chains built while the test runs."""
    built = []
    tarski_chain = exactnum._tarski_chain

    def counted(m, g):
        built.append(g)
        return tarski_chain(m, g)

    monkeypatch.setattr(exactnum, "_tarski_chain", counted)
    return built


def _sextic():
    """(x - 1)(x - 2)...(x - 6) and the conditions x > 1/2, x > 3/2, ..., x > 9/2."""
    sextic = P(1)
    for k in range(1, 7):
        sextic = sextic * P(-k, 1)
    return sextic, [P(-Fraction(2 * k + 1, 2), 1) for k in range(5)]


def test_formula_builds_one_chain_per_nonempty_subset(built):
    # the empty product's term is the root count of m, read off the Sturm
    # chain it already has, so r conditions cost 2^r - 1 Tarski chains
    sextic, gs = _sextic()
    # the first r conditions leave the roots r..6
    for r in range(1, 6):
        built.clear()
        m = Polynomial(sextic.coeffs)
        assert count_roots_with_signs_formula(m, gs[:r]) == 7 - r
        assert len(built) == 2**r - 1
        # the reference path fills nothing on m
        assert m._tarski is None and m._roots is None


def test_formula_reads_the_singleton_chains_m_keeps(built):
    # after the localized count m keeps one chain per condition, and the
    # formula builds only the 2^r - 1 - r chains of products of two or more
    sextic, gs = _sextic()
    m = Polynomial(sextic.coeffs)
    assert count_roots_with_signs(m, gs) == 2
    roots, keys = m._roots, set(m._tarski)
    for r in range(1, 6):
        want = count_roots_with_signs_formula(Polynomial(sextic.coeffs), gs[:r])
        built.clear()
        assert count_roots_with_signs_formula(m, gs[:r]) == want == 7 - r
        assert len(built) == 2**r - 1 - r
        assert m._roots is roots and set(m._tarski) == keys
    # a positive multiple of a condition has its primitive coefficients and
    # reads its chain; the negated condition is another chain
    g = gs[2]  # x > 5/2 holds at 3, 4, 5, 6
    for h, chains, count in ((g * 2, 0, 4), (g * Fraction(1, 3), 0, 4), (-g, 1, 2)):
        built.clear()
        assert count_roots_with_signs_formula(m, [h]) == count
        assert len(built) == chains
        assert m._roots is roots and set(m._tarski) == keys


def test_formula_rejects_a_kept_degenerate_chain(built):
    # m = (x - 1)(x - 2)(x - 3) and g = (x - 2)(x + 5) share the root 2;
    # is_coprime keeps g's chain, which ends at gcd(m, g) = x - 2
    g = P(-2, 1) * P(5, 1)
    for gs, chains in (([g], 0), ([P(0, 1), P(1, 0, 1), g], 1)):
        m = P(-6, 11, -6, 1)
        assert not is_coprime(m, g)
        built.clear()
        with pytest.raises(SignConditionDegenerate):
            count_roots_with_signs_formula(m, gs)
        # r = 1 reads the kept chain; r = 3 builds the full product's chain
        # first and rejects the query before any other chain
        assert len(built) == chains


def test_condition_sharing_only_non_real_roots_is_degenerate():
    # m = (x^2 + 1)(x - 3) has the real root 3; g = (x^2 + 1)(x + 5) is
    # positive there but shares the non-real roots +-i with m
    m = P(1, 0, 1) * P(-3, 1)
    g = P(1, 0, 1) * P(5, 1)
    other = P(-1, 1)
    for count in (count_roots_with_signs, count_roots_with_signs_formula):
        for gs in ([g, other], [other, g], [g]):
            with pytest.raises(SignConditionDegenerate):
                count(Polynomial(m.coeffs), gs)


def test_constant_m_has_no_roots_to_count():
    for count in (count_roots_with_signs, count_roots_with_signs_formula):
        for m in (P(3), P(Fraction(-1, 2))):
            assert count(m, [P(0, 1)]) == 0
            assert count(m, [P(1, 0, 1), P(-2, 1), P(0, 1)]) == 0


def test_count_roots_with_signs_twenty_conditions():
    # m = (x-1)(x-2)...(x-6).  The lower bounds x > a leave the roots >= 3
    # (x > 5/2 is the tightest), the upper bounds b > x leave those <= 5
    # (11/2 > x is the tightest), and the positive-definite quadratics hold
    # everywhere: exactly the roots 3, 4, 5 satisfy all twenty conditions.
    # The formula would build 2^20 - 1 Tarski chains here, one per nonempty
    # subset of the conditions.
    m = P(1)
    for k in range(1, 7):
        m = m * P(-k, 1)
    lower = [Fraction(5, 2), Fraction(1, 2), Fraction(3, 2), -1, Fraction(9, 4), 0, Fraction(2, 3)]
    upper = [Fraction(11, 2), Fraction(13, 2), 7, 10, Fraction(23, 4), Fraction(61, 10)]
    quadratics = [
        P(1, 0, 1),  # x^2 + 1
        P(Fraction(19, 2), -6, 1),  # (x-3)^2 + 1/2
        P(18, -8, 1),  # (x-4)^2 + 2
        P(1, 1, 1),  # x^2 + x + 1
        P(5, -4, 2),  # 2(x-1)^2 + 3
        P(26, -10, 1),  # (x-5)^2 + 1
        P(2, 0, 1),  # x^2 + 2
    ]
    gs = [P(-a, 1) for a in lower] + [P(b, -1) for b in upper] + quadratics
    assert len(gs) == 20
    start = time.perf_counter()
    assert count_roots_with_signs(m, gs) == 3
    assert time.perf_counter() - start < 2.0


def test_refine_interval():
    iv = refine_interval(X2_MINUS_2, Interval(1, 2), Fraction(1, 100))
    assert iv.width <= Fraction(1, 100)
    assert _value(X2_MINUS_2, iv.lo) < 0 < _value(X2_MINUS_2, iv.hi)
    iv0 = refine_interval(P(0, 1), Interval(-1, 1), Fraction(1, 2))
    assert iv0.width <= Fraction(1, 2) and iv0.lo <= 0 <= iv0.hi
    with pytest.raises(NotIsolating):
        refine_interval(X2_MINUS_2, Interval(-2, 2), Fraction(1, 2))


def test_refine_interval_rejects_nonpositive_width():
    # bisection never lands on sqrt 2, so width 0 would never be reached
    for width in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            refine_interval(X2_MINUS_2, Interval(1, 2), width)


def test_refine_interval_rational_root_endpoint():
    iv = refine_interval(P(-1, 1), Interval(0, 1), Fraction(1, 8))
    assert iv.lo <= 1 <= iv.hi


def _random_poly(rng, max_deg=8, max_coeff=20):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-max_coeff, max_coeff)
    return Polynomial(coeffs + [lead])


def _eval_interval(g, lo, hi):
    """Bounds for the values of g on [lo, hi], by interval Horner."""
    glo = ghi = g.coeffs[-1]
    for c in reversed(g.coeffs[:-1]):
        cands = (glo * lo, glo * hi, ghi * lo, ghi * hi)
        glo, ghi = min(cands) + c, max(cands) + c
    return glo, ghi


def _interval_sign_at_root(g, p, iv):
    """Oracle-side sign of g at the unique root of p in iv, by refinement."""
    while True:
        glo, ghi = _eval_interval(g, iv.lo, iv.hi)
        if glo > 0:
            return 1
        if ghi < 0:
            return -1
        iv = refine_interval(p, iv, iv.width / 2)
        if iv.width == 0:
            return (_value(g, iv.lo) > 0) - (_value(g, iv.lo) < 0)


def test_isolation_count_agreement_randomized():
    rng = random.Random(20240901)
    done = 0
    while done < 300:
        p = _random_poly(rng)
        if not is_squarefree(p):
            continue
        assert count_real_roots(p) == len(isolate_real_roots(p))
        done += 1


def test_sign_condition_count_against_bruteforce():
    # isolate-and-evaluate oracle vs both sign-condition count paths
    rng = random.Random(777)
    done = 0
    while done < 200:
        m = _random_poly(rng, max_deg=6, max_coeff=12)
        if not is_squarefree(m):
            continue
        gs = []
        for _ in range(rng.randint(1, 3)):
            g = _random_poly(rng, max_deg=3, max_coeff=8)
            if is_coprime(m, g):
                gs.append(g)
        if not gs:
            continue
        expected = 0
        for iv in isolate_real_roots(m):
            if all(_interval_sign_at_root(g, m, iv) == 1 for g in gs):
                expected += 1
        assert count_roots_with_signs(m, gs) == expected
        assert count_roots_with_signs_formula(m, gs) == expected
        done += 1


def test_refinement_keeps_opposite_signs():
    rng = random.Random(5)
    done = 0
    while done < 50:
        p = _random_poly(rng, max_deg=5, max_coeff=10)
        if not is_squarefree(p):
            continue
        for iv in isolate_real_roots(p):
            small = refine_interval(p, iv, Fraction(1, 64))
            lo_s, hi_s = _value(p, small.lo), _value(p, small.hi)
            assert lo_s * hi_s < 0 or lo_s == 0 or hi_s == 0
        done += 1

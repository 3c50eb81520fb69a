import math
import random
import signal
from fractions import Fraction

import pytest

from hermsig.errors import (
    NotSquarefree,
    FieldMismatch,
    NotAnEmbedding,
    NotFormallyReal,
    NotInvertible,
    ReducibleMinPoly,
    ZeroElement,
)
from hermsig.orderings import (
    NumberField,
    embed_field,
    harrison_set,
    list_orderings,
    sign_of,
)


QQ = NumberField([0, 1])  # Q as Q[x]/(x)
RT2 = NumberField([-2, 0, 1])  # Q(sqrt 2)


def test_field_construction_screens():
    with pytest.raises(ReducibleMinPoly):
        NumberField([-1, 0, 1])  # x^2 - 1 has rational roots
    with pytest.raises(NotSquarefree):
        NumberField([0, 0, 1])  # x^2


@pytest.mark.parametrize(
    "min_poly, root",
    [
        ([-4, 0, 1], "2/1"),
        ([3, -4, 1], "1/1"),
        ([Fraction(-1, 4), 0, 1], "1/2"),
    ],
)
def test_rational_root_screen_names_the_root(min_poly, root):
    with pytest.raises(ReducibleMinPoly, match=f"^rational root {root}$"):
        NumberField(min_poly)


def test_large_constants_are_screened_at_once():
    # the screen reads rational roots off the isolating intervals; trial
    # division by the divisors of 10^18 + 3 would take minutes here
    def give_up(signum, frame):
        raise TimeoutError("the fields were not built within 5 s")

    c = 10**18 + 3
    big = 3 * 10**399 + 1  # 400 digits, not a square
    assert math.isqrt(big) ** 2 != big
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        F = NumberField([-c, 0, 1])
        assert [sign_of(F.generator(), P) for P in list_orderings(F)] == [-1, 1]
        for min_poly in ([-big, 0, 1], [-big, 0, 0, 0, 1]):
            G = NumberField(min_poly)
            assert [sign_of(G.generator(), P) for P in list_orderings(G)] == [-1, 1]
        # (x - c)(x + 1) and (2x - c)(x^2 + 1)
        with pytest.raises(ReducibleMinPoly, match="^rational root -1/1$"):
            NumberField([-c, 1 - c, 1])
        with pytest.raises(ReducibleMinPoly, match=f"^rational root {c}/2$"):
            NumberField([-c, 2, -c, 2])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_list_orderings():
    assert len(list_orderings(QQ)) == 1
    assert len(list_orderings(RT2)) == 2
    with pytest.raises(NotFormallyReal):
        list_orderings(NumberField([1, 0, 1]))


def test_element_arithmetic_and_inverse():
    g = RT2.generator()
    assert (g * g).coords == (Fraction(2), Fraction(0))
    x = RT2.element([1, 1])  # 1 + sqrt2
    inv = x.inverse()
    assert (x * inv).coords == (Fraction(1), Fraction(0))
    with pytest.raises(NotInvertible):
        RT2.zero().inverse()


def test_sign_of_generator_at_both_orderings():
    g = RT2.generator()
    neg, pos = list_orderings(RT2)
    assert sign_of(g, pos) == 1
    assert sign_of(g, neg) == -1


def test_sign_of_zero_element():
    g = RT2.generator()
    z = g * g - RT2.from_rational(2)
    for P in list_orderings(RT2):
        assert sign_of(z, P) == 0


def test_sign_of_field_mismatch():
    with pytest.raises(FieldMismatch):
        sign_of(RT2.one(), list_orderings(QQ)[0])


def test_sign_of_nearby_values():
    # sqrt2 - 1.41421356 is positive but tiny; needs real refinement
    g = RT2.generator()
    close = RT2.element([Fraction(-141421356, 100000000), 1])
    neg, pos = list_orderings(RT2)
    assert sign_of(close, pos) == 1
    far = RT2.element([Fraction(-141421357, 100000000), 1])
    assert sign_of(far, pos) == -1  # sqrt2 = 1.41421356237... < 1.41421357
    over = RT2.element([Fraction(-15, 10), 1])
    assert sign_of(over, pos) == -1


def test_harrison_set():
    g = RT2.generator()
    neg, pos = list_orderings(RT2)
    assert harrison_set([g]) == (pos,)
    assert harrison_set([RT2.one()]) == (neg, pos)
    assert harrison_set([-RT2.one()]) == ()
    with pytest.raises(ZeroElement):
        harrison_set([RT2.zero()])


def _compatible_orderings(emb, P):
    """Orderings of the target field that restrict to P."""
    return tuple(Q for Q in list_orderings(emb.dst) if emb.restrict(Q) == P)


def test_embed_q_into_rt2():
    emb = embed_field(QQ, RT2, RT2.zero())
    assert emb.push(QQ.from_rational(Fraction(3, 2))).coords == (
        Fraction(3, 2),
        Fraction(0),
    )
    P = list_orderings(QQ)[0]
    assert _compatible_orderings(emb, P) == list_orderings(RT2)


def test_embed_rt2_into_quartic():
    L = NumberField([-2, 0, 0, 0, 1])  # x^4 - 2
    image = L.element([0, 0, 1, 0])  # (2^(1/4))^2
    emb = embed_field(RT2, L, image)
    neg, pos = list_orderings(RT2)
    # sqrt2 maps to a square, so both orderings of L restrict to pos
    for Q in list_orderings(L):
        assert emb.restrict(Q) == pos
    assert _compatible_orderings(emb, neg) == ()


def test_embed_rejects_non_root():
    RT3 = NumberField([-3, 0, 1])
    with pytest.raises(NotAnEmbedding):
        embed_field(RT2, RT3, RT3.generator())


def _random_element(field, rng, height=6):
    return field.element(
        [Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(field.degree)]
    )


def test_sign_multiplicativity_and_squares():
    rng = random.Random(11)
    for field in (QQ, RT2, NumberField([-2, 0, 0, 0, 1])):
        orderings = list_orderings(field)
        for _ in range(60):
            a = _random_element(field, rng)
            b = _random_element(field, rng)
            for P in orderings:
                assert sign_of(a * b, P) == sign_of(a, P) * sign_of(b, P)
                sq = sign_of(a * a, P)
                assert sq >= 0
                assert (sq == 0) == a.is_zero


def test_ordering_axioms_sampled():
    rng = random.Random(23)
    field = RT2
    for P in list_orderings(field):
        nonneg = lambda x: sign_of(x, P) >= 0
        for _ in range(40):
            a = _random_element(field, rng)
            b = _random_element(field, rng)
            # totality
            assert nonneg(a) or nonneg(-a)
            # P cap -P = {0}
            if nonneg(a) and nonneg(-a):
                assert a.is_zero
            # closure under + and *
            if nonneg(a) and nonneg(b):
                assert nonneg(a + b)
                assert nonneg(a * b)


def test_embedding_preserves_signs():
    rng = random.Random(37)
    L = NumberField([-2, 0, 0, 0, 1])
    emb = embed_field(RT2, L, L.element([0, 0, 1, 0]))
    for Q in list_orderings(L):
        P = emb.restrict(Q)
        for _ in range(30):
            a = _random_element(RT2, rng)
            assert sign_of(a, P) == sign_of(emb.push(a), Q)


def test_reducible_minpoly_degrades_as_documented():
    # (x^2-2)(x^2-3) has no rational root, so it slips the screen; sign_of
    # still answers exactly, since the localized Tarski query reads 0 where
    # alpha vanishes, and inversion of a zero divisor surfaces as
    # NotInvertible
    F = NumberField([6, 0, -5, 0, 1])
    orderings = list_orderings(F)
    assert len(orderings) == 4  # -sqrt3 < -sqrt2 < sqrt2 < sqrt3
    alpha = F.element([-2, 0, 1, 0])  # gen^2 - 2
    signs = [sign_of(alpha, P) for P in orderings]
    assert signs == [1, 0, 0, 1]
    with pytest.raises(NotInvertible):
        alpha.inverse()

import random
from fractions import Fraction

import pytest

from liepoisson.scalars import (
    I,
    ONE,
    ZERO,
    format_scalar,
    gaussian_divisors,
    gr,
    is_square,
    parse_scalar,
    sqrt_fraction,
    sqrt_gaussian,
    square_free_part,
)


def random_scalar(rng, allow_zero=True, span=6):
    z = gr(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )
    if not allow_zero and z.is_zero():
        return ONE
    return z


def test_basic_identities():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == gr(2)
    assert gr(1, 2) + gr(2, -2) == gr(3)
    assert gr(Fraction(1, 2)) * 2 == ONE
    assert -I == ZERO - I


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a = random_scalar(rng, allow_zero=False)
        b = random_scalar(rng)
        # (a*b) / a == b exactly, no rounding
        assert (a * b) / a == b
        assert a * a.inverse() == ONE
        assert (a + b) - b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I ** 3 == -I
    assert gr(1, 1) ** 2 == gr(0, 2)
    assert gr(2) ** -2 == gr(Fraction(1, 4))


def test_string_round_trip():
    rng = random.Random(11)
    cases = [ZERO, ONE, -ONE, I, -I, gr(0, 3), gr(Fraction(-1, 2)), gr(Fraction(1, 2), Fraction(-3, 4))]
    cases += [random_scalar(rng) for _ in range(100)]
    for z in cases:
        assert parse_scalar(format_scalar(z)) == z


def test_parse_accepts_plain_forms():
    assert parse_scalar("3") == gr(3)
    assert parse_scalar("-1/2") == gr(Fraction(-1, 2))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2i") == gr(0, 2)
    assert parse_scalar("1/2+3/4i") == gr(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1-i") == gr(1, -1)
    with pytest.raises(ValueError):
        parse_scalar("2+x")


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


def test_sqrt_gaussian():
    # -1 and 2i are squares in Q(i); 2 is not
    assert sqrt_gaussian(gr(-1)) == I
    assert sqrt_gaussian(gr(0, 2)) == gr(1, 1)
    assert sqrt_gaussian(gr(2)) is None
    assert not is_square(gr(2))
    rng = random.Random(3)
    for _ in range(100):
        z = random_scalar(rng)
        s = sqrt_gaussian(z * z)
        assert s is not None and s * s == z * z


def squarefree_by_trial_division(n):
    out, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def test_square_free_part_real():
    assert square_free_part(ZERO) == (ZERO, ONE)
    cases = [Fraction(1), Fraction(-1), Fraction(12), Fraction(-50, 9),
             Fraction(2 * 3 * 5 * 7, 11 ** 2), Fraction(3 ** 2 * (2 ** 31 - 1))]
    rng = random.Random(17)
    cases += [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
              for _ in range(200)]
    for q in cases:
        rep, s = square_free_part(gr(q))
        assert rep * s * s == gr(q)
        assert rep.is_real() and s.is_real() and s.re > 0
        assert rep.re.denominator == 1 and (rep.re > 0) == (q > 0)
        sign = 1 if q > 0 else -1
        assert rep.re == sign * squarefree_by_trial_division(abs(q.numerator) * q.denominator)


def test_gaussian_divisors():
    divs = list(gaussian_divisors(gr(5)))
    # 5 = (2+i)(2-i); divisors up to units: 1, 2+i, 2-i, 5
    norms = sorted(int(d.norm()) for d in divs)
    assert norms == [1, 5, 5, 25]
    for d in divs:
        assert (gr(5) / d).is_gaussian_integer()


def test_sort_key_total_order():
    vals = [gr(1), gr(0, 1), gr(-1), gr(Fraction(1, 2), 3)]
    ordered = sorted(vals, key=lambda z: z.sort_key())
    assert ordered[0] == gr(-1)

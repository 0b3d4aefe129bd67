import operator
import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from unittest.mock import patch

import pytest
from hypothesis import Phase, given, settings, strategies as st

import gaussian_oracles as oracle
from gaussian_oracles import sqrt_fraction
from helpers import cpu_seconds_at_most, gaussian_ints
from liepoisson.scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    _factor_int,
    _gaussian_prime_over,
    _gi_divmod,
    _gi_exact_divide,
    _gi_factor,
    _square_free,
    gaussian_factor,
    gaussian_divisors,
    gr,
    parse_scalar,
    sqrt_gaussian,
    square_class_of_product,
    square_free_part,
    square_part,
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
        assert parse_scalar(str(z)) == z


def test_strings_of_imaginary_parts():
    cases = [(I, "i"), (-I, "-i"), (gr(0, 2), "2i"), (gr(1, 1), "1+i"), (gr(1, -1), "1-i"),
             (gr(Fraction(-1, 2), Fraction(-3, 4)), "-1/2-3/4i")]
    assert [str(z) for z, _ in cases] == [s for _, s in cases]


def test_complex_divides_by_the_common_denominator():
    assert complex(gr(Fraction(1, 3), Fraction(-2, 3))) == complex(1 / 3, -2 / 3)


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


def test_parse_rejects_zero_denominators():
    for text in ("1/0", "0/0", "-3/0", "1/0i", "2+1/0i", "1/0-i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


# ---------------------------------------------------------------------------
# Reference: the Fraction-pair representation the integer triple replaced
# ---------------------------------------------------------------------------

class FractionPairGaussian:
    """a + b*i stored as two Fractions, with the arithmetic written on them."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def is_zero(self):
        return not self.re and not self.im

    def is_one(self):
        return self.re == 1 and not self.im

    def is_real(self):
        return not self.im

    def is_gaussian_integer(self):
        return self.re.denominator == 1 and self.im.denominator == 1

    def __add__(self, other):
        other = _ref(other)
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref(other)
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _ref(other) - self

    def __mul__(self, other):
        other = _ref(other)
        return FractionPairGaussian(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionPairGaussian((self.re * other.re + self.im * other.im) / n,
                                    (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return _ref(other) / self

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def __pow__(self, k):
        if k < 0:
            return (FractionPairGaussian(1) / self) ** (-k)
        out, base = FractionPairGaussian(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return FractionPairGaussian(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        other = _ref(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        mag = abs(self.im)
        ims = "i" if mag == 1 else f"{mag}i"
        if not self.re and sign == "+":
            return ims if mag != 1 else "i"
        if not self.re:
            return f"-{ims}"
        return f"{self.re}{sign}{ims}"


def _ref(x):
    return x if isinstance(x, FractionPairGaussian) else FractionPairGaussian(x)


def ref_sqrt_gaussian(z):
    if z.is_zero():
        return FractionPairGaussian()
    if not z.im:
        for sign, unit in ((1, (1, 0)), (-1, (0, 1))):
            s = sqrt_fraction(sign * z.re)
            if s is not None:
                return FractionPairGaussian(unit[0] * s, unit[1] * s)
        return None
    r = sqrt_fraction(z.norm())
    if r is None:
        return None
    x = sqrt_fraction((z.re + r) / 2)
    if x is None or x == 0:
        return None
    return FractionPairGaussian(x, z.im / (2 * x))


def ref_gaussian_factor(z):
    out = []
    for p in sorted(_factor_int(int(z.norm()))):
        if p == 2:
            candidates = [FractionPairGaussian(1, 1)]
        elif p % 4 == 3:
            candidates = [FractionPairGaussian(p)]
        else:
            c = next(c for c in range(1, p) if isqrt(p - c * c) ** 2 == p - c * c)
            pi = FractionPairGaussian(c, isqrt(p - c * c))
            candidates = [pi, pi.conjugate()]
        for pi in candidates:
            e = 0
            while (z / pi).is_gaussian_integer():
                z = z / pi
                e += 1
            if e:
                out.append((pi, e))
    return out


def ref_square_free_part(z):
    if z.is_zero():
        return FractionPairGaussian(), FractionPairGaussian(1)
    if z.is_real():
        q = abs(z.re)
        sf = prod(p for p, e in _factor_int(q.numerator * q.denominator).items() if e % 2)
        return FractionPairGaussian(sf if z.re > 0 else -sf), FractionPairGaussian(sqrt_fraction(q / sf))
    den = lcm(z.re.denominator, z.im.denominator)
    rep = FractionPairGaussian(1)
    for prime, exp in ref_gaussian_factor(z * (den * den)):
        if exp % 2:
            rep = rep * prime
    s = ref_sqrt_gaussian(z / rep)
    if s is None:
        rep = rep * FractionPairGaussian(0, 1)
        s = ref_sqrt_gaussian(z / rep)
    return rep, s


BIG = 2 ** 64


def _components(bound):
    big = st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))
    return st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), big)


def _pairs(bound):
    return st.tuples(_components(bound), _components(bound))


def _operands(bound):
    """Gaussian rationals as (re, im) pairs, plain ints and plain Fractions."""
    return st.one_of(_pairs(bound), st.integers(-bound, bound),
                     st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound)))


def _both(x):
    """The operand as a scalar and as its reference (ints and Fractions stay as they are)."""
    if isinstance(x, tuple):
        return gr(*x), FractionPairGaussian(*x)
    return x, x


def assert_agrees(z, ref):
    assert isinstance(z, GaussianRational)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1
    assert z.denominator == lcm(ref.re.denominator, ref.im.denominator)
    assert str(z) == str(ref)
    assert parse_scalar(str(z)) == z
    assert hash(z) == hash(ref)
    assert bool(z) == bool(ref)
    for pred in ("is_zero", "is_one", "is_real", "is_gaussian_integer"):
        assert getattr(z, pred)() == getattr(ref, pred)(), pred
    assert z.norm() == ref.norm()
    assert_same_scalar(z.conjugate(), ref.conjugate())


def assert_same_scalar(z, ref):
    assert (z.re, z.im) == (ref.re, ref.im)
    assert gcd(z._a, z._b, z._d) == 1 and z._d > 0


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=_pairs(BIG), y=_operands(BIG), k=st.integers(-3, 4))
def test_arithmetic_matches_fraction_pair_reference(x, y, k):
    z, zr = _both(x)
    w, wr = _both(y)
    assert_agrees(z, zr)
    for op in BINARY:
        for (p, p_ref), (q, q_ref) in (((z, zr), (w, wr)), ((w, wr), (z, zr))):
            if op is operator.truediv and not q_ref:
                with pytest.raises(ZeroDivisionError):
                    op(p, q)
                continue
            assert_agrees(op(p, q), op(p_ref, q_ref))
    assert (z == w) == (zr == wr) and (w == z) == (zr == wr)
    assert (z != w) == (not zr == wr)
    if zr or k >= 0:
        assert_agrees(z ** k, zr ** k)
    assert_agrees(-z, -zr)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))
@pytest.mark.parametrize("make", [gr, GaussianRational])
def test_integer_parts_build_the_scalar_of_their_fractions(make, re, im):
    z, ref = make(re, im), make(Fraction(re), Fraction(im))
    assert (z._a, z._b, z._d) == (ref._a, ref._b, ref._d) == (re, im, 1)
    assert all(type(x) is int for x in (z._a, z._b, z._d))
    assert_same_scalar(make(re), make(Fraction(re)))


@pytest.mark.parametrize("re, im", [(True, 0), (0, False), (True, True)])
def test_bool_parts_still_build_through_fractions(re, im):
    z = gr(re, im)
    assert (z._a, z._b, z._d) == (int(re), int(im), 1)
    assert all(type(x) is int for x in (z._a, z._b, z._d))


@pytest.mark.parametrize("x", [gr(3), gr(-2), gr(Fraction(-5, 6)), gr(1, 2), gr(Fraction(1, 2), Fraction(-3, 4)),
                               I, ZERO, ONE])
def test_a_factor_of_one_gives_the_reduced_product(x):
    ref = FractionPairGaussian(x.re, x.im) * FractionPairGaussian(1)
    one = gr(2) / gr(2)  # equal to ONE, but another object
    for product in (x * ONE, ONE * x, x * one, one * x, x * 1, 1 * x):
        assert product == x
        assert_same_scalar(product, ref)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(x=_pairs(BIG))
def test_sqrt_gaussian_matches_fraction_pair_reference(x):
    z, zr = _both(x)
    for arg, ref in ((z, zr), (z * z, zr * zr), (-(z * z), -(zr * zr)), (z * z * I, zr * zr * FractionPairGaussian(0, 1))):
        got, want = sqrt_gaussian(arg), ref_sqrt_gaussian(ref)
        assert (got is None) == (want is None)
        if got is not None:
            assert_agrees(got, want)


def fraction_sqrt_gaussian(z):
    """The rational-arithmetic square root that ``sqrt_gaussian`` replaced, kept as its oracle."""
    if z.is_zero():
        return ZERO
    if not z.im:
        s = sqrt_fraction(z.re)
        if s is not None:
            return GaussianRational(s)
        s = sqrt_fraction(-z.re)
        if s is not None:
            return GaussianRational(0, s)
        return None
    r = sqrt_fraction(z.norm())
    if r is None:
        return None
    x = sqrt_fraction((z.re + r) / 2)
    if x is None or x == 0:
        return None
    y = z.im / (2 * x)
    return GaussianRational(x, y)


HEIGHT60 = 2 ** 60


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=_pairs(HEIGHT60), factor=st.sampled_from([ONE, -ONE, I, -I, gr(2), gr(-3), gr(1, 1), gr(1, 2), gr(5, 12)]))
def test_integer_sqrt_gaussian_matches_the_fraction_version(x, factor):
    # squares z^2 times a unit or a (non-)square factor, z itself, and zero, with 60-bit heights
    z = gr(*x)
    for arg in (ZERO, z, z * z, z * z * factor, z * factor, z + factor):
        got, want = sqrt_gaussian(arg), fraction_sqrt_gaussian(arg)
        assert (got is None) == (want is None), arg
        if got is not None:
            assert_same_scalar(got, want)
            assert got * got == arg
            assert got.re > 0 or (not got.re and got.im >= 0)
    if z:
        assert sqrt_gaussian(z * z) is not None


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(x=_pairs(2 ** 10))
def test_square_free_part_matches_fraction_pair_reference(x):
    # small operands: both sides factor by trial division
    z, zr = _both(x)
    (rep, s), (rep_r, s_r) = square_free_part(z), ref_square_free_part(zr)
    assert_agrees(rep, rep_r)
    assert_agrees(s, s_r)
    assert rep * s * s == z


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=_pairs(BIG))
def test_hash_matches_fraction_hashes(x):
    z = gr(*x)
    re, im = x
    assert hash(z) == (hash(re) if not im else hash((re, im)))
    # dict keys mixing ints, Fractions and scalars find each other
    keys = {z: "scalar"}
    if not im:
        assert keys[re] == "scalar"
        assert {re: "fraction"}[z] == "fraction"
        if re.denominator == 1:
            assert keys[int(re)] == "scalar" and {int(re): "int"}[z] == "int"


# ---------------------------------------------------------------------------
# The int-pair number theory against the scalar versions it replaced
# ---------------------------------------------------------------------------

UNIT_PAIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _times(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@st.composite
def _divisions(draw):
    """(a, b) drawn at random, as an exact multiple, or as a tie: a/b = q + h/2 with h in {-1, 0, 1}^2."""
    b = draw(gaussian_ints(2 ** 20, nonzero=True))
    q = draw(gaussian_ints(2 ** 20))
    kind = draw(st.sampled_from(["random", "exact", "tie"]))
    if kind == "random":
        return draw(gaussian_ints(2 ** 42)), b
    if kind == "exact":
        return _times(q, b), b
    h = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    qb, ch = _times(q, (2 * b[0], 2 * b[1])), _times(b, h)
    return (qb[0] + ch[0], qb[1] + ch[1]), (2 * b[0], 2 * b[1])


def test_gi_divmod_rounds_ties_to_even():
    # 5/2 = 2.5 -> 2, 7/2 = 3.5 -> 4, -5/2 -> -2, (3 + 3i)/2 -> 2 + 2i, (1 + 3i)/(2i) = 3/2 - i/2 -> 2 + 0i
    assert _gi_divmod((5, 0), (2, 0)) == ((2, 0), (1, 0))
    assert _gi_divmod((7, 0), (2, 0)) == ((4, 0), (-1, 0))
    assert _gi_divmod((-5, 0), (2, 0)) == ((-2, 0), (-1, 0))
    assert _gi_divmod((3, 3), (2, 0)) == ((2, 2), (-1, -1))
    assert _gi_divmod((1, 3), (0, 2)) == ((2, 0), (1, -1))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_divisions())
def test_gi_division_matches_the_fraction_version(ab):
    a, b = ab
    q, r = _gi_divmod(a, b)
    assert (gr(*q), gr(*r)) == oracle._gi_divmod(gr(*a), gr(*b))
    exact = _gi_exact_divide(a, b)
    want = oracle._gi_exact_divide(gr(*a), gr(*b))
    assert (exact is None) == (want is None)
    if exact is not None:
        assert gr(*exact) == want


def test_gaussian_prime_over_matches_the_search():
    for p in (q for q in range(5, 3000, 4) if _factor_int(q) == {q: 1}):
        assert GaussianRational(*_gaussian_prime_over(p)) == oracle._gaussian_prime_over(p)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(z=gaussian_ints(2 ** 12, nonzero=True), unit=st.sampled_from(UNIT_PAIRS))
def test_gaussian_factor_matches_the_fraction_version(z, unit):
    # an associate factors into the same primes
    for w in (z, _times(z, unit)):
        want = oracle.gaussian_factor(gr(*w))
        assert gaussian_factor(gr(*w)) == want
        assert [(gr(*pi), e) for pi, e in _gi_factor(w)] == want
    with pytest.raises(ValueError):
        gaussian_factor(gr(Fraction(1, 2)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(x=_pairs(2 ** 10), unit=st.sampled_from([ONE, -ONE, I, -I]))
def test_square_free_parts_match_the_fraction_versions(x, unit):
    # a rational, its associates, and each times a square and a non-square
    z = gr(*x)
    for w in (z, z * unit, z * gr(1, 1) ** 2 * unit, z * gr(2, 1) * unit, z * gr(0, 3) * unit):
        (rep, s), (rep_r, s_r) = square_free_part(w), oracle.square_free_part(w)
        assert (rep._a, rep._b, rep._d, s._a, s._b, s._d) == (rep_r._a, rep_r._b, rep_r._d, s_r._a, s_r._b, s_r._d)
        if not w.is_zero():
            # the Z[i] reduction the conic solver calls, on the numerator pair and the denominator
            rep_r, s_r = oracle.square_free_part_zi(w)
            assert rep_r._d == 1
            assert _square_free((w._a, w._b), w._d) == ((rep_r._a, rep_r._b), (s_r._a, s_r._b, s_r._d))


# Primes between 2^16 and 2^62, each split one as its c^2 + d^2 with c < d
LARGE_PRIMES = {65537: (1, 256), 2**31 - 1: None, 1099511627873: (10033, 1048528), 2**61 - 1: None,
                4611686018427387817: (1211408141, 1773182544)}


def test_the_large_primes_split_as_listed():
    for p, cd in LARGE_PRIMES.items():
        assert pow(3, p - 1, p) == 1 and (p % 4 == 1) == (cd is not None)
        if cd:
            assert cd[0] < cd[1] and cd[0] ** 2 + cd[1] ** 2 == p


def _factor_knowing_the_large_primes(n):
    out = {}
    for p in LARGE_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return {**out, **_factor_int(n)}


def full_square_free_part(z):
    """The oracle's square-free part, with the large primes' factoring and splitting looked up, not searched."""
    split = oracle._gaussian_prime_over
    with patch.object(oracle, "_factor_int", _factor_knowing_the_large_primes), \
            patch.object(oracle, "_gaussian_prime_over", lambda p: gr(*LARGE_PRIMES[p]) if p > 2**16 else split(p)):
        return oracle.square_free_part(z)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(x=_pairs(2 ** 3), q=st.sampled_from(sorted(LARGE_PRIMES)), r=st.sampled_from(sorted(LARGE_PRIMES)))
def test_square_part_is_the_square_free_part_unless_a_large_prime_repeats(x, q, r):
    # every prime of the norm of (re + im*i) d lies below 2^16, so the bounded trial division leaves
    # exactly q, q^2, q r, q^3, q^2 r or a Gaussian prime over q unfactored: a square goes into s, any
    # other cofactor joins rep
    z = gr(*x)
    c, d = LARGE_PRIMES[q] or (0, 0)
    over_q = (z * I * gr(c, d), z * gr(c, -d)) if c else ()
    for w in (z, z * q, z * I * q, z * q * q, z * q * r, *over_q):
        (rep, s), (rep_r, s_r) = square_part(w), full_square_free_part(w)
        assert (rep._a, rep._b, rep._d, s._a, s._b, s._d) == (rep_r._a, rep_r._b, rep_r._d, s_r._a, s_r._b, s_r._d)
    for w in (z * q ** 3, z * q * q * r):
        rep, s = square_part(w)
        assert rep * s * s == w


# no shrinking: a defect that factors a shared prime fails each example only at the CPU bound
@settings(derandomize=True, database=None, max_examples=100, deadline=None, phases=(Phase.generate,))
@given(xs=st.lists(_pairs(2 ** 3).filter(lambda x: x != (0, 0)), min_size=1, max_size=4),
       q=st.sampled_from(sorted(LARGE_PRIMES)), r=st.sampled_from(sorted(LARGE_PRIMES)),
       unit=st.sampled_from([ONE, -ONE, I, -I]))
def test_the_square_class_of_a_product_is_taken_from_its_factors(xs, q, r, unit):
    # the class of a product of small factors, then of the same factors with a large prime, or two, that
    # the first and an appended last factor share, in both numerators or one denominator: what the factors
    # share is never factored, so each is the oracle's class of the product with the primes looked up
    fs = [gr(*x) for x in xs]
    rep = square_class_of_product(fs)
    assert rep == square_free_part(prod(fs, start=ONE))[0]
    assert (rep in (ONE, -ONE)) == (sqrt_gaussian(prod(fs, start=ONE)) is not None)
    shared = [[fs[0] * q, *fs[1:], unit * q], [fs[0] * q * r, *fs[1:], unit * q * r], [fs[0] * q, *fs[1:], unit / q]]
    with cpu_seconds_at_most(0.5):
        reps = [square_class_of_product(gs) for gs in shared]
    for gs, rep in zip(shared, reps):
        assert rep == full_square_free_part(prod(gs, start=ONE))[0]
        assert (rep in (ONE, -ONE)) == (sqrt_gaussian(prod(gs, start=ONE)) is not None)

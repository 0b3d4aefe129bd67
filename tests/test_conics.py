import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gaussian_oracles as oracle
from helpers import cpu_seconds_at_most, gaussian_ints
from liepoisson.conics import (
    _gi_ext_gcd,
    _gi_mod,
    _gf2_mul,
    _gf2_pow,
    _small_ternary_search,
    _sqrt_mod_prime,
    _sqrt_mod_squarefree_all,
    _tonelli_shanks,
    isotropic_ternary,
    represent_binary,
)
from liepoisson.scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    _gi_factor,
    _gi_mul,
    _reduced,
    _square_free,
    gr,
    sqrt_gaussian,
)


def gi(z):
    """The scalar of the Gaussian integer pair z."""
    return gr(*z)


def pair(z):
    """The int pair of the Gaussian integer scalar z."""
    assert z.is_gaussian_integer()
    return z._a, z._b


def random_scalar(rng, span=9):
    return gr(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def test_tonelli_shanks():
    for p in (5, 13, 17, 97, 65537):
        squares = {pow(x, 2, p) for x in range(1, p)} if p < 1000 else None
        rng = random.Random(p)
        for _ in range(20):
            a = rng.randrange(1, p)
            r = _tonelli_shanks((a, 0), p, p - 1, ((x, 0) for x in range(2, p)))
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1
            else:
                assert r[1] == 0
                assert r[0] * r[0] % p == a % p
    # GF(q^2) = GF(q)[i] for inert q, every nonzero element
    for q in (3, 7, 11, 19, 23):
        order = q * q - 1
        for a in ((x, y) for x in range(q) for y in range(q) if x or y):
            r = _tonelli_shanks(a, q, order, ((x, y) for x in range(q) for y in range(q) if x or y))
            if r is None:
                assert _gf2_pow(a, order // 2, q) != (1, 0)
            else:
                assert _gf2_mul(r, r, q) == a


def test_gaussian_ext_gcd():
    rng = random.Random(4)
    for _ in range(50):
        a = (rng.randint(-20, 20), rng.randint(-20, 20))
        b = (rng.randint(-20, 20), rng.randint(-20, 20))
        if a == b == (0, 0):
            continue
        g, u, v = map(gi, _gi_ext_gcd(a, b))
        assert u * gi(a) + v * gi(b) == g
        if a != (0, 0):
            assert (gi(a) / g).is_gaussian_integer()
        if b != (0, 0):
            assert (gi(b) / g).is_gaussian_integer()


def test_sqrt_mod_squarefree_split_inert_ramified():
    rng = random.Random(8)
    # moduli with split (2+i), inert (3), and ramified (1+i) primes
    for m in ((2, 1), (3, 0), (1, 1), (6, 3), (7, 21)):  # 2+i, 3, 1+i, (2+i) 3, (2+i)(1+i) 7
        for _ in range(20):
            x = (rng.randint(-15, 15), rng.randint(-15, 15))
            if gi(_gi_ext_gcd(x, m)[0]).norm() != 1:
                continue
            roots = _sqrt_mod_squarefree_all(_gi_mod(_gi_mul(x, x), m), m, limit=1)
            assert roots
            t = gi(roots[0])
            assert _gi_mod(pair(t * t - gi(x) * gi(x)), m) == (0, 0)


def test_represent_binary_random_solvable():
    rng = random.Random(99)
    solved = 0
    while solved < 150:
        a, b = random_scalar(rng), random_scalar(rng)
        x, y = random_scalar(rng, 5), random_scalar(rng, 5)
        if a.is_zero() or b.is_zero():
            continue
        v = a * x * x + b * y * y
        if v.is_zero():
            continue
        pt = represent_binary(a, b, v)
        assert pt is not None
        px, py = pt
        assert a * px * px + b * py * py == v
        solved += 1


def test_represent_binary_real_instances():
    rng = random.Random(100)
    solved = 0
    while solved < 80:
        a = gr(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
        b = gr(Fraction(rng.randint(-9, 9) or 2, rng.randint(1, 4)))
        x = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        y = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        v = a * x * x + b * y * y
        if a.is_zero() or b.is_zero() or v.is_zero():
            continue
        pt = represent_binary(a, b, v)
        assert pt is not None and a * pt[0] ** 2 + b * pt[1] ** 2 == v
        solved += 1


def test_represent_binary_detects_obstruction():
    # x^2 = 2 has no Q(i) point (norm argument), so the rank-one conic fails
    assert represent_binary(gr(1), gr(0), gr(2)) is None
    assert represent_binary(gr(1), gr(0), gr(4)) == (gr(2), ZERO)
    # x^2 - 2 y^2 = i is anisotropic territory: verify the answer either way
    pt = represent_binary(gr(1), gr(-2), I)
    if pt is not None:
        assert pt[0] ** 2 - gr(2) * pt[1] ** 2 == I


GRID = [gr(re, im) for re in range(-2, 3) for im in range(-2, 3) if re or im]


def test_represent_binary_isotropic_grid():
    # b = a s^2 or -a s^2: b/a is a square either way, since -1 = i^2 over Q(i)
    roots = [ONE, gr(2), I, gr(1, 1), gr(2, -1)]
    for a in GRID[::3]:
        for s in roots:
            for b in (a * s * s, -a * s * s):
                for v in GRID[1::4]:
                    pt = represent_binary(a, b, v)
                    assert pt is not None, (a, b, v)
                    x, y = pt
                    assert x and a * x * x + b * y * y == v, (a, b, v)


def test_represent_binary_real_hyperbolic_pair_gives_a_real_point():
    for a in (1, -2, 3, Fraction(1, 2)):
        for s in (1, 2, Fraction(2, 3)):
            for v in (1, -1, 4, -7, Fraction(5, 3)):
                a_, b_, v_ = gr(a), gr(-a * s * s), gr(v)
                x, y = represent_binary(a_, b_, v_)
                assert x and x.is_real() and y.is_real()
                assert a_ * x * x + b_ * y * y == v_


def test_represent_binary_z_minus_one():
    # v / a = -1 on x^2 + y^2: the factor point (z + 1) / 2 vanishes
    x, y = represent_binary(ONE, ONE, -ONE)
    assert x and x * x + y * y == -ONE


def test_degenerate_conics_take_their_closed_forms():
    # a zero coefficient makes its unit vector a point, whatever the other two are
    assert isotropic_ternary(ZERO, gr(3), gr(5)) == (ONE, ZERO, ZERO)
    assert isotropic_ternary(gr(3), ZERO, gr(5)) == (ZERO, ONE, ZERO)
    assert isotropic_ternary(gr(3), gr(5), ZERO) == (ZERO, ZERO, ONE)
    # a = 0 leaves b y^2 = v: a point exactly when v / b is a square
    assert represent_binary(ZERO, gr(2), gr(8)) == (ZERO, gr(2))
    assert represent_binary(ZERO, gr(2), gr(6)) is None
    assert represent_binary(ZERO, ZERO, gr(6)) is None


def test_isotropic_ternary_known_cases():
    # x^2 + y^2 + z^2 = 0 has the point (1, i, 0) family over Q(i)
    sol = isotropic_ternary(ONE, ONE, ONE)
    assert sol is not None
    x, y, z = sol
    assert (x * x + y * y + z * z).is_zero()
    assert any((x, y, z))
    # hyperbolic: x^2 - y^2 + 7 z^2
    sol = isotropic_ternary(ONE, -ONE, gr(7))
    x, y, z = sol
    assert (x * x - y * y + gr(7) * z * z).is_zero()


def test_isotropic_ternary_random_orbits():
    rng = random.Random(17)
    done = 0
    while done < 60:
        # construct a guaranteed-isotropic form: value of a diagonal form at
        # a random point becomes the (negated) third coefficient
        a, b = random_scalar(rng, 6), random_scalar(rng, 6)
        x, y = random_scalar(rng, 4), random_scalar(rng, 4)
        if a.is_zero() or b.is_zero():
            continue
        v = a * x * x + b * y * y
        if v.is_zero():
            continue
        sol = isotropic_ternary(a, b, -v)
        assert sol is not None
        sx, sy, sz = sol
        assert (a * sx * sx + b * sy * sy - v * sz * sz).is_zero()
        done += 1


def test_square_free_part_zi():
    rng = random.Random(6)
    for _ in range(100):
        z = random_scalar(rng)
        if z.is_zero():
            continue
        (x, y), (sx, sy, se) = _square_free((z._a, z._b), z._d)
        rep, s = gr(x, y), gr(Fraction(sx, se), Fraction(sy, se))
        assert (rep, s) == oracle.square_free_part_zi(z)
        assert rep * s * s == z
        assert rep.is_gaussian_integer()
        # rep has no square prime factors
        from liepoisson.scalars import gaussian_factor

        assert all(e == 1 for _, e in gaussian_factor(rep)) or rep.norm() == 1


def loop_small_ternary_search(coeffs, bounds):
    """The box search with every Gaussian integer and b y^2 rebuilt inside the x loop."""
    a, b, c = coeffs
    for bound in bounds:
        box = range(-bound, bound + 1)
        for xr in box:
            for xi in box:
                x = gr(xr, xi)
                ax2 = a * x * x
                for yr in box:
                    for yi in box:
                        if xr == xi == yr == yi == 0:
                            continue
                        y = gr(yr, yi)
                        z = sqrt_gaussian(-(ax2 + b * y * y) / c)
                        if z is not None:
                            return x, y, z
    return None


@pytest.mark.parametrize("coeffs, bounds", [
    ((gr(11), gr(-66), gr(3)), (3, 8)),
    ((gr(1), gr(1), gr(-2)), (3, 8)),
    ((gr(3), gr(5), gr(-7)), (3, 8)),
    ((gr(1, 1), gr(3), gr(-2, 1)), (3, 8)),
    ((gr(1), gr(1), gr(3)), (1, 2)),
    ((gr(1), gr(0, 1), gr(5, 2)), (1, 2)),  # no point in either box
    ((gr(2), gr(3), gr(-7)), (1, 2)),
    ((gr(7), gr(1), gr(-1)), (1, 2)),  # the first point has x = 0
])
def test_small_ternary_search_finds_the_first_point_of_the_loop(coeffs, bounds):
    found = _small_ternary_search([pair(c) for c in coeffs], bounds)
    got = None if found is None else tuple(_reduced(*v, found[1]) for v in found[0])
    assert got == loop_small_ternary_search(coeffs, bounds)
    assert got == oracle._small_ternary_search(coeffs, bounds)
    if got is not None:
        x, y, z = got
        a, b, c = coeffs
        assert a * x * x + b * y * y + c * z * z == ZERO and (x or y)


# ---------------------------------------------------------------------------
# The int-pair number theory against the scalar versions it replaced
# ---------------------------------------------------------------------------

@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(a=gaussian_ints(60), b=gaussian_ints(60, nonzero=True), unit=st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
def test_gi_mod_and_ext_gcd_match_the_fraction_versions(a, b, unit):
    # small parts make exact rounding ties common; an associate of b changes the remainder's unit class
    for m in (b, _gi_mul(b, unit)):
        assert gi(_gi_mod(a, m)) == oracle._gi_mod(gi(a), gi(m))
        assert tuple(map(gi, _gi_ext_gcd(a, m))) == oracle._gi_ext_gcd(gi(a), gi(m))
        assert tuple(map(gi, _gi_ext_gcd(m, a))) == oracle._gi_ext_gcd(gi(m), gi(a))


def _square_free_moduli():
    """Square-free Gaussian integers: products of distinct primes over 2, 3, 5, 7, 11, 13 and 29."""
    primes = [pi for p in (2, 3, 5, 7, 11, 13, 29) for pi, _ in _gi_factor((p, 0))]
    return st.lists(st.sampled_from(primes), min_size=1, max_size=4, unique=True)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(primes=_square_free_moduli(), a=gaussian_ints(400))
def test_modular_square_roots_match_the_fraction_versions(primes, a):
    for pi in primes:
        r = _sqrt_mod_prime(_gi_mod(a, pi), pi)
        want = oracle._sqrt_mod_prime(oracle._gi_mod(gi(a), gi(pi)), gi(pi))
        assert (r is None) == (want is None)
        if r is not None:
            assert gi(r) == want
    m = (1, 0)
    for pi in primes:
        m = _gi_mul(m, pi)
    for square in (a, _gi_mul(a, a)):
        roots = _sqrt_mod_squarefree_all(square, m)
        assert [gi(t) for t in roots] == oracle._sqrt_mod_squarefree_all(gi(square), gi(m))


def _coefficients():
    """Small Gaussian rationals, zero excluded, with unit multiples of a few squares among them."""
    part = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4]))
    return st.builds(GaussianRational, part, part).filter(bool)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(a=_coefficients(), b=_coefficients(), c=_coefficients(), point=st.booleans())
def test_isotropic_ternary_matches_the_fraction_version(a, b, c, point):
    if point:
        # c = -(a + b): (1, 1, 1) is a point, so the form is isotropic
        c = -(a + b) or c
    got = isotropic_ternary(a, b, c)
    assert got == oracle.isotropic_ternary(a, b, c)
    if got is not None:
        x, y, z = got
        assert a * x * x + b * y * y + c * z * z == ZERO and any(got)


def test_isotropic_ternary_keeps_the_point_of_its_search():
    assert isotropic_ternary(gr(11), gr(-66), gr(3)) == (gr(0, -3), gr(-2), gr(11))


def test_an_anisotropic_conic_is_refused_in_a_tenth_of_a_second():
    # its reduction ends in the exhaustive search of both boxes, 2401 and 83,521 pairs
    with cpu_seconds_at_most(0.1):
        assert represent_binary(gr(3, 3), gr(Fraction(-3, 4), Fraction(-1, 2)), gr(2, 2)) is None

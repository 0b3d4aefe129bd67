import random
from fractions import Fraction

import pytest

from liepoisson.conics import (
    _gi_ext_gcd,
    _gi_mod,
    _gf2_mul,
    _gf2_pow,
    _small_ternary_search,
    _sqrt_mod_squarefree_all,
    _tonelli_shanks,
    isotropic_ternary,
    represent_binary,
)
from liepoisson.scalars import I, ONE, ZERO, gr, square_free_part_zi, sqrt_gaussian


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
        a = gr(rng.randint(-20, 20), rng.randint(-20, 20))
        b = gr(rng.randint(-20, 20), rng.randint(-20, 20))
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = _gi_ext_gcd(a, b)
        assert u * a + v * b == g
        if not a.is_zero():
            assert (a / g).is_gaussian_integer()
        if not b.is_zero():
            assert (b / g).is_gaussian_integer()


def test_sqrt_mod_squarefree_split_inert_ramified():
    rng = random.Random(8)
    # moduli with split (2+i), inert (3), and ramified (1+i) primes
    for m in (gr(2, 1), gr(3), gr(1, 1), gr(2, 1) * gr(3), gr(2, 1) * gr(1, 1) * gr(7)):
        for _ in range(20):
            x = gr(rng.randint(-15, 15), rng.randint(-15, 15))
            if _gi_ext_gcd(x, m)[0].norm() != 1:
                continue
            roots = _sqrt_mod_squarefree_all(_gi_mod(x * x, m), m, limit=1)
            assert roots
            t = roots[0]
            assert _gi_mod(t * t - x * x, m).is_zero()


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
        rep, s = square_free_part_zi(z)
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
    got = _small_ternary_search(coeffs, bounds)
    assert got == loop_small_ternary_search(coeffs, bounds)
    if got is not None:
        x, y, z = got
        a, b, c = coeffs
        assert a * x * x + b * y * y + c * z * z == ZERO and (x or y)

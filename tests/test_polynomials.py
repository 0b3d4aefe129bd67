from fractions import Fraction

import pytest

from liepoisson.polynomials import Poly
from liepoisson.scalars import GaussianRational, gr


def test_public_constructors_coerce_and_check_lengths():
    want = {(1, 0): gr(3), (0, 1): gr(Fraction(-1, 2)), (2, 0): gr(Fraction(1, 3), 2)}
    p = Poly(2, {(1, 0): 3, (0, 1): Fraction(-1, 2), (2, 0): "1/3+2i", (0, 2): 0})
    assert p.terms == want
    assert all(type(k) is tuple and type(c) is GaussianRational for k, c in p.terms.items())
    assert Poly.monomial(2, [1, 1], "i").terms == {(1, 1): gr(0, 1)}
    assert Poly.constant(3, Fraction(2, 3)).terms == {(0, 0, 0): gr(Fraction(2, 3))}
    with pytest.raises(ValueError):
        Poly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly.monomial(3, [1, 0], 1)
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.5})


def test_computed_polys_hold_only_nonzero_scalars():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = (x * x).scale(gr(1, 1)) + y.scale(Fraction(1, 2)) - Poly.constant(2, 3)
    results = [p, -p, p + x, p - p, p * p, p * 2, 3 * p, p.scale(0), p.scale("1/2-i"),
               p.diff(0), p.diff(1), (p * p).diff(0).diff(0), Poly.zero(2), x, y]
    for q in results:
        assert q.nvars == 2
        for e, c in q.terms.items():
            assert type(e) is tuple and len(e) == 2
            assert type(c) is GaussianRational and c
    assert (p - p).is_zero() and p.scale(0).is_zero()
    assert p.diff(0) == (x * gr(2, 2))
    assert (p * p).diff(0) == (p.diff(0) * p).scale(2)


@pytest.mark.parametrize("exponents", [(True, 0), (1.0, 0), (-1, 0)], ids=["bool", "float", "negative"])
def test_an_exponent_that_is_not_a_non_negative_int_is_refused(exponents):
    with pytest.raises(ValueError, match="non-negative int"):
        Poly(2, {exponents: 1})

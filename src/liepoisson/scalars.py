"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Every symbolic computation in this package is carried out over the field
Q(i) = {a + b*i : a, b rational}, represented as a pair of
``fractions.Fraction`` values.  The choice of Q(i) rather than plain Q is
deliberate: the classification of extension tensors uses complex coordinate
changes, and every one of them can be rescaled so that its entries lie in
Q(i).

The module also provides the small amount of Gaussian-integer number theory
(divisor enumeration, exact square roots) needed by the eigenvalue search in
:mod:`liepoisson.linalg`.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Optional, Union

Rat = Union[int, Fraction]


class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # fast path for arithmetic results: components are Fractions already
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_rational_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational._raw(self.re + other.re, self.im + other.im)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational._raw(self.re - other.re, self.im - other.im)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            if not self.im and not other.im:
                return GaussianRational._raw(self.re * other.re, _F_ZERO)
            return GaussianRational._raw(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational._raw(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianRational":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order on Q(i): by real part, then imaginary."""
        return (self.re, self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- conversion / display -----------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return float(self.re)

    def __str__(self) -> str:
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

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def as_scalar(x) -> "GaussianRational":
    """A Q(i) scalar from a scalar, an int, a Fraction or its string form."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a Q(i) scalar")


_F_ZERO = Fraction(0)
ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(re: Rat = 0, im: Rat = 0) -> GaussianRational:
    """Shorthand constructor for Q(i) scalars."""
    return GaussianRational(re, im)


_SCALAR_RE = _re.compile(
    r"""^\s*
        (?P<re>[+-]?\d+(?:/\d+)?)?            # optional real part
        (?P<im>(?:(?<=\S)\s*[+-]|^[+-]?)\s*  # sign (leading or separating)
             (?:\d+(?:/\d+)?)?\s?i)?          # imaginary magnitude + i
        \s*$""",
    _re.VERBOSE,
)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the string form produced by :func:`format_scalar`.

    Accepts "p/q", "p/q+r/si", "i", "-i", "3i", "1/2-3/4i".
    """
    m = _SCALAR_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a Q(i) scalar: {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(0)
    if m.group("im"):
        body = m.group("im")[:-1].replace(" ", "")  # strip trailing 'i' and spaces
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return GaussianRational(re_part, im_part)


def format_scalar(z: GaussianRational) -> str:
    """Serialize a scalar; inverse of :func:`parse_scalar`."""
    return str(z)


# ---------------------------------------------------------------------------
# Exact square roots
# ---------------------------------------------------------------------------

def sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_gaussian(z: GaussianRational) -> Optional[GaussianRational]:
    """Exact square root in Q(i), or None when z is not a square there.

    With w = x + y*i and w^2 = z: x^2 - y^2 = Re z and 2xy = Im z, so
    x^2 = (Re z + |z|)/2 where |z| is the rational square root of the norm.
    """
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


def is_square(z: GaussianRational) -> bool:
    return sqrt_gaussian(z) is not None


def _squarefree_int(n: int) -> int:
    out = 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2:
            out *= f
        f += 1
    return out * n


def square_free_part(z: GaussianRational):
    """(rep, s) with z = rep * s^2 and rep a small square-free representative.

    Real inputs keep a real signed representative (so real signatures
    survive); other inputs get a square-free Gaussian integer, with the unit
    class fixed up so that z / rep is an exact square.
    """
    if z.is_zero():
        return ZERO, ONE
    if z.is_real():
        q = abs(z.re)
        sf = Fraction(_squarefree_int(q.numerator * q.denominator))
        rep = sf if z.re > 0 else -sf
        s = sqrt_fraction(q / sf)
        return GaussianRational(rep), GaussianRational(s)
    return square_free_part_zi(z)


def square_free_part_zi(z: GaussianRational):
    """(rep, s) with z = rep * s^2 and rep a square-free Gaussian integer.

    Unlike :func:`square_free_part` this reduces over Z[i] even for real
    inputs (2 = -i (1+i)^2 loses its ramified square), which modular
    arithmetic modulo the representative requires.
    """
    if z.is_zero():
        return ZERO, ONE
    den = lcm(z.re.denominator, z.im.denominator)
    g = z * GaussianRational(den * den)
    rep = ONE
    for prime, exp in gaussian_factor(g):
        if exp % 2:
            rep = rep * prime
    s = sqrt_gaussian(z / rep)
    if s is None:
        rep = rep * I
        s = sqrt_gaussian(z / rep)
    if s is None:
        raise ArithmeticError(f"square-free reduction failed for {z}")
    return rep, s


# ---------------------------------------------------------------------------
# Gaussian integers: exact division, primes, divisors
# ---------------------------------------------------------------------------

def _gi_divmod(a: GaussianRational, b: GaussianRational):
    """Nearest-integer division in Z[i]; returns (q, r) with a = q*b + r."""
    w = a / b
    qre = Fraction(round(w.re))
    qim = Fraction(round(w.im))
    q = GaussianRational(qre, qim)
    return q, a - q * b


def _gi_exact_divide(a: GaussianRational, b: GaussianRational) -> Optional[GaussianRational]:
    q = a / b
    if q.is_gaussian_integer():
        return q
    return None


def _factor_int(n: int) -> dict:
    """Trial-division factorization; inputs here stay small."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gaussian_prime_over(p: int) -> GaussianRational:
    """A Gaussian prime dividing the rational prime p."""
    if p == 2:
        return GaussianRational(1, 1)
    if p % 4 == 3:
        return GaussianRational(p)
    # p = 1 mod 4 splits: find c^2 + d^2 = p by direct search (p is small).
    c = 1
    while True:
        d2 = p - c * c
        d = isqrt(d2)
        if d * d == d2:
            return GaussianRational(c, d)
        c += 1


def gaussian_factor(z: GaussianRational) -> list:
    """Factor a nonzero Gaussian integer into Gaussian primes.

    Returns a list of (prime, exponent); unit content is dropped (divisor
    enumeration is done up to units anyway).
    """
    if not z.is_gaussian_integer() or z.is_zero():
        raise ValueError("gaussian_factor expects a nonzero Gaussian integer")
    out = []
    n = int(z.norm())
    for p, _ in sorted(_factor_int(n).items()):
        if p == 2:
            candidates = [GaussianRational(1, 1)]
        elif p % 4 == 3:
            candidates = [GaussianRational(p)]
        else:
            pi = _gaussian_prime_over(p)
            candidates = [pi, pi.conjugate()]
        for pi in candidates:
            e = 0
            while True:
                q = _gi_exact_divide(z, pi)
                if q is None:
                    break
                z = q
                e += 1
            if e:
                out.append((pi, e))
    return out


def gaussian_divisors(z: GaussianRational) -> Iterator[GaussianRational]:
    """All divisors of a nonzero Gaussian integer, up to unit multiples."""
    factors = gaussian_factor(z)
    divs = [ONE]
    for pi, e in factors:
        divs = [d * pi ** k for d in divs for k in range(e + 1)]
    seen = set()
    for d in divs:
        if d not in seen:
            seen.add(d)
            yield d


UNITS = (ONE, -ONE, I, -I)

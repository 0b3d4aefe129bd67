"""Exact scalar arithmetic over the Gaussian rationals Q(i).

Every symbolic computation in this package is carried out over the field
Q(i) = {a + b*i : a, b rational}.  A scalar is stored as three integers
(a, b, d) meaning (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1, so that
equal scalars have equal triples and the field operations are integer
arithmetic followed by one gcd.  The real and imaginary parts are exposed
as ``fractions.Fraction`` values.  The choice of Q(i) rather than plain Q
is deliberate: the classification of extension tensors uses complex
coordinate changes, and every one of them can be rescaled so that its
entries lie in Q(i).

The module also provides the Gaussian-integer number theory that the
classifier's rescalings and conic points use: exact square roots, square-free
parts and factorization.  :func:`gaussian_divisors` has no package caller; it
is kept, with the eigenvalue search in :mod:`liepoisson.linalg`, only because
the benchmark's traced set names ``linalg.eigenvalues_gaussian``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterator, Optional, Union

Rat = Union[int, Fraction]


class GaussianRational:
    """An element (a + b*i)/d of Q(i) in lowest terms: d > 0, gcd(a, b, d) = 1.

    Immutable: ``re``, ``im`` and ``denominator`` are read-only properties,
    and no operation changes the three integers of an existing scalar.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        re, im = Fraction(re), Fraction(im)
        # over d = lcm of the two reduced denominators, gcd(a, b, d) = 1 already
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def denominator(self) -> int:
        """The least common denominator of the real and imaginary parts."""
        return self._d

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    def is_real(self) -> bool:
        return not self._b

    def is_gaussian_integer(self) -> bool:
        return self._d == 1

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not b and not e:
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not c and not e:
            raise ZeroDivisionError("division by zero in Q(i)")
        # z / w = z * conj(w) * f / (c^2 + e^2) for w = (c + e*i)/f
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * (c * c + e * e))

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

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
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 + b^2 (a nonnegative rational)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction pair: equal to hash(Fraction) for reals.
        # Python hashes an integral Fraction as its int, and a tuple by its
        # items' hashes, so Gaussian integers need no Fraction
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Deterministic total order on Q(i): by real part, then imaginary."""
        return (self.re, self.im)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- conversion / display -----------------------------------------------

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __float__(self) -> float:
        if self._b:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._a / self._d

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        sign = "+" if im >= 0 else "-"
        mag = abs(im)
        ims = "i" if mag == 1 else f"{mag}i"
        if not re and sign == "+":
            return ims if mag != 1 else "i"
        if not re:
            return f"-{ims}"
        return f"{re}{sign}{ims}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d from a triple already in lowest terms."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d for any d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator)
    return NotImplemented


def as_scalar(x) -> "GaussianRational":
    """A Q(i) scalar from a scalar, an int, a Fraction or its string form."""
    if isinstance(x, (GaussianRational, int, Fraction)):
        return _coerce(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a Q(i) scalar")


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

    Accepts "p/q", "p/q+r/si", "i", "-i", "3i", "1/2-3/4i".  A malformed
    string or a zero denominator raises ValueError.
    """
    m = _SCALAR_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a Q(i) scalar: {text!r}")
    body = m.group("im")[:-1].replace(" ", "") if m.group("im") else "0"  # strip 'i'
    try:
        re_part = Fraction(m.group("re") or 0)
        im_part = Fraction({"": 1, "+": 1, "-": -1}.get(body, body))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in Q(i) scalar: {text!r}") from None
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
        odd = [p for p, e in _factor_int(q.numerator * q.denominator).items() if e % 2]
        sf = Fraction(prod(odd))
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
    den = z.denominator
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
    """Trial-division factorization, the package's one trial division.

    Its step count is about the larger of the second-largest prime factor
    and the square root of the largest, so a prime factor above 2^60 costs
    more than 2^29 steps.
    """
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

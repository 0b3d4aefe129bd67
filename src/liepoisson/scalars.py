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
parts and factorization.  The factoring is trial division: complete in
:func:`square_free_part`, :func:`square_free_part_zi` and :func:`gaussian_factor`
(over 2^29 steps for a prime above 2^60), stopped at 2^16 in :func:`square_part`.
Inside the module a Gaussian integer is a plain (x, y) int pair, and a scalar
is built only where a value leaves it: those four and :func:`sqrt_gaussian`
take and return scalars, while the ``_gi_*`` helpers, which
:mod:`liepoisson.conics` shares, take and return pairs.  No ``Fraction`` is
built on the way.  Nearest-integer division rounds each part of a/b half to
even, exactly as ``round(Fraction)`` does, so Euclid's remainders, and every
gcd and conic point built from them, are the ones the scalar arithmetic gave.
:func:`gaussian_divisors` has no package caller; it is kept, with the
eigenvalue search in :mod:`liepoisson.linalg`, only because the benchmark's
traced set names ``linalg.eigenvalues_gaussian``.
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
        if type(re) is int and type(im) is int:
            # (re + im*i)/1 is in lowest terms already; a bool is no int here
            self._a, self._b, self._d = re, im, 1
            return
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
        # a factor that is exactly one returns the other, which is immutable
        if not b:
            if a == 1 and d == 1:
                return other
            if not e:
                return self if c == 1 and f == 1 else _reduced(a * c, 0, d * f)
        elif not e and c == 1 and f == 1:
            return self
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
            return ims
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
    """A Q(i) scalar from a scalar, an int, a Fraction or its string form.

    A bool is refused although it is an int: a JSON ``true`` is not the number 1.
    """
    if isinstance(x, (GaussianRational, int, Fraction)) and not isinstance(x, bool):
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
    """Parse the string form ``str(z)`` of a scalar; ``parse_scalar(str(z)) == z``.

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


# ---------------------------------------------------------------------------
# Exact square roots
# ---------------------------------------------------------------------------

def sqrt_gaussian(z: GaussianRational) -> Optional[GaussianRational]:
    """Exact square root in Q(i), or None when z is not a square there.

    For z = (a + b*i)/d, z = g / d^2 with the Gaussian integer g = (a + b*i) d,
    and Z[i] is integrally closed, so z is a square in Q(i) exactly when g
    is one in Z[i]: the root is :func:`_gi_sqrt` of g over d.  The root
    returned has a positive real part, or is i*s with s > 0 for a negative
    real z.
    """
    d = z._d
    root = _gi_sqrt((z._a * d, z._b * d))
    return None if root is None else _reduced(root[0], root[1], d)


# ---------------------------------------------------------------------------
# Gaussian integers as (x, y) int pairs
# ---------------------------------------------------------------------------

def _gi_mul(a, b):
    (x, y), (u, v) = a, b
    return x * u - y * v, x * v + y * u


def _gi_sqrt(g):
    """The square root of the Gaussian integer g in Z[i], or None.

    With (x + y*i)^2 = g: x^2 - y^2 = Re g, 2xy = Im g and x^2 + y^2 = r, the
    integer square root of the norm of g, so x^2 = (Re g + r)/2; every test
    is an integer one.  The root has x > 0, or is i*y with y >= 0.
    """
    ga, gb = g
    norm = ga * ga + gb * gb
    r = isqrt(norm)
    if r * r != norm:
        return None
    x2, odd = divmod(ga + r, 2)
    if odd:
        return None
    x = isqrt(x2)
    if x * x != x2:
        return None
    if not x:  # Re g + r = 0: g = ga <= 0 is an integer, and y^2 = -ga
        y = isqrt(-ga)
        return (0, y) if y * y == -ga else None
    # (r - Re g)/2 is an integer and equals (Im g / 2x)^2, so 2x divides Im g
    return x, gb // (2 * x)


def _round_half_even(n: int, d: int) -> int:
    """round(Fraction(n, d)) for d > 0: the nearest integer, a tie going to the even one."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _gi_divmod(a, b):
    """Nearest-integer division in Z[i]; returns (q, r) with a = q*b + r.

    Each part of q is the part of a/b = a conj(b) / N(b) rounded half to even.
    """
    (ax, ay), (bx, by) = a, b
    n = bx * bx + by * by
    qx = _round_half_even(ax * bx + ay * by, n)
    qy = _round_half_even(ay * bx - ax * by, n)
    return (qx, qy), (ax - qx * bx + qy * by, ay - qx * by - qy * bx)


def _gi_exact_divide(a, b):
    """a / b when it is a Gaussian integer, else None."""
    (ax, ay), (bx, by) = a, b
    n = bx * bx + by * by
    qx, rx = divmod(ax * bx + ay * by, n)
    qy, ry = divmod(ay * bx - ax * by, n)
    return None if rx or ry else (qx, qy)


def _trial_divide(n: int, bound: Optional[int] = None):
    """({prime: exponent}, cofactor) of n > 0 by each d < ``bound``: the package's one trial division.

    A loop that reaches the bound returns the cofactor it left, all of whose
    primes are at least ``bound``; one that ends first lists the rest as a
    prime and returns cofactor 1.
    """
    out: dict = {}
    d = 2
    while d * d <= n:
        if bound is not None and d >= bound:
            return out, n
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out, 1


def _factor_int(n: int) -> dict:
    """The full factorization {prime: exponent} of n > 0: :func:`_trial_divide` with no bound.

    Its step count is about the larger of the second-largest prime factor
    and the square root of the largest: over 2^29 for a prime above 2^60.
    """
    return _trial_divide(n)[0]


def _gaussian_prime_over(p: int):
    """The Gaussian prime (c, d) over the rational prime p = 1 mod 4 with c^2 + d^2 = p and c least.

    Found by direct search (p is small).
    """
    c = 1
    while True:
        d2 = p - c * c
        d = isqrt(d2)
        if d * d == d2:
            return c, d
        c += 1


def _gi_factor(z) -> list:
    """[(prime, exponent)] of the nonzero Gaussian integer z, unit content dropped.

    By rational prime p of the norm in increasing order: 1 + i over 2, p
    itself for an inert p = 3 mod 4, and c + di then c - di for a split p.
    """
    return _gi_divide_out(z, _factor_int(z[0] * z[0] + z[1] * z[1]))[0]


def _gi_divide_out(z, primes):
    """(factors, rest): z divided by the Gaussian primes over ``primes``, listed as :func:`_gi_factor` does."""
    out = []
    for p in sorted(primes):
        if p == 2:
            candidates = ((1, 1),)
        elif p % 4 == 3:
            candidates = ((p, 0),)
        else:
            c, d = _gaussian_prime_over(p)
            candidates = ((c, d), (c, -d))
        for pi in candidates:
            e = 0
            while (q := _gi_exact_divide(z, pi)) is not None:
                z = q
                e += 1
            if e:
                out.append((pi, e))
    return out, z


def gaussian_factor(z: GaussianRational) -> list:
    """Factor a nonzero Gaussian integer into Gaussian primes.

    Returns a list of (prime, exponent); unit content is dropped (divisor
    enumeration is done up to units anyway).
    """
    if not z.is_gaussian_integer() or z.is_zero():
        raise ValueError("gaussian_factor expects a nonzero Gaussian integer")
    return [(_make(x, y, 1), e) for (x, y), e in _gi_factor((z._a, z._b))]


def _square_free(z, d: int = 1, bound: Optional[int] = None):
    """(rep, s) with z/d = rep * s^2 for the nonzero Gaussian integer z and d > 0.

    rep is the square-free Gaussian integer made of the primes of z d that
    occur to an odd power, times i when that is what makes z/(d rep) a
    square; s = (x, y, e) means (x + y*i)/e, in lowest terms with e > 0.
    With a ``bound``, the rest w that :func:`_trial_divide` leaves is not
    split: unless a unit times w is a square, w joins rep whole, as a
    positive integer or as its associate with 0 < Re < |Im|, where the
    primes of :func:`_gi_factor` lie.
    """
    a, b = z
    g = (a * d, b * d)
    norm = g[0] * g[0] + g[1] * g[1]
    factors, w = _gi_divide_out(g, _trial_divide(norm, bound)[0] if bound else _factor_int(norm))
    rep = (1, 0)
    for prime, exp in factors:
        if exp % 2:
            rep = _gi_mul(rep, prime)
    if _gi_sqrt(w) is None and _gi_sqrt((-w[1], w[0])) is None:
        x, y = w if abs(w[0]) < abs(w[1]) else (-w[1], w[0])
        rep = _gi_mul(rep, (abs(x), y if x > 0 else -y) if x else (abs(y), 0))
    for _ in range(2):
        # z/(d rep) = q/n with q = z conj(rep) and n = d N(rep): its root is that of q n, over n
        n = d * (rep[0] * rep[0] + rep[1] * rep[1])
        root = _gi_sqrt(((a * rep[0] + b * rep[1]) * n, (b * rep[0] - a * rep[1]) * n))
        if root is not None:
            g = gcd(root[0], root[1], n)
            return rep, (root[0] // g, root[1] // g, n // g)
        rep = (-rep[1], rep[0])
    raise ArithmeticError(f"square-free reduction failed for {_reduced(a, b, d)}")


def _square_split(z: GaussianRational, bound: Optional[int]):
    """(rep, s) with z = rep * s^2 from trial division below ``bound`` (no bound when None).

    A real z = a/d gets rep = +-sf, sf the product of the odd-exponent primes
    of |a| d and of any non-square cofactor, and s = isqrt(|a| d / sf) / d.
    """
    if z.is_zero():
        return ZERO, ONE
    a, b, d = z._a, z._b, z._d
    if b:
        rep, s = _square_free((a, b), d, bound)
        return _make(rep[0], rep[1], 1), _make(*s)
    n = abs(a) * d
    primes, m = _trial_divide(n, bound) if bound else (_factor_int(n), 1)
    sf = prod(p for p, e in primes.items() if e % 2) * (1 if isqrt(m) ** 2 == m else m)
    return _make(sf if a > 0 else -sf, 0, 1), _reduced(isqrt(n // sf), 0, d)


def square_free_part(z: GaussianRational):
    """(rep, s) with z = rep * s^2 and rep a small square-free representative, by full factoring.

    Real inputs keep a real signed representative (so real signatures
    survive); others get a square-free Gaussian integer with the unit class
    fixed up so that z / rep is an exact square.
    """
    return _square_split(z, None)


def square_part(z: GaussianRational):
    """(rep, s) with z = rep * s^2, stripping only the squares of primes below 2^16.

    The congruence's size reduction, which needs a small rep, not the
    square class.  It gives :func:`square_free_part`'s result when the
    cofactor left is a square, or a product of distinct rational primes
    times at most one Gaussian prime; otherwise rep keeps the cofactor.
    """
    return _square_split(z, 1 << 16)


def square_free_part_zi(z: GaussianRational):
    """(rep, s) with z = rep * s^2 and rep a square-free Gaussian integer.

    Unlike :func:`square_free_part` this reduces over Z[i] even for real
    inputs (2 = -i (1+i)^2 loses its ramified square), which modular
    arithmetic modulo the representative requires.
    """
    if z.is_zero():
        return ZERO, ONE
    rep, s = _square_free((z._a, z._b), z._d)
    return _make(rep[0], rep[1], 1), _make(*s)


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

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

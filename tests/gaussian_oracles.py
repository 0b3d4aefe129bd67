"""The Gaussian-integer number theory as it was written on ``GaussianRational`` scalars.

The package now carries Gaussian integers through this number theory as
plain (x, y) int pairs (see :mod:`liepoisson.scalars` and
:mod:`liepoisson.conics`).  These are the scalar versions it replaced, kept
verbatim as the oracles that the tests compare the int-pair versions with
bit-exactly, with ``sqrt_fraction``, the rational square root they
take, which the package no longer needs.
"""

from fractions import Fraction
from math import isqrt, prod
from typing import Optional

from liepoisson.conics import _tonelli_shanks
from liepoisson.scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    _factor_int,
    gr,
    sqrt_gaussian,
)

Triple = tuple


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


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


def _gaussian_prime_over(p: int) -> GaussianRational:
    """A Gaussian prime c + di over the rational prime p = 1 mod 4, which splits as c^2 + d^2 = p.

    Found by direct search (p is small).
    """
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


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------

def _gi_mod(a: GaussianRational, m: GaussianRational) -> GaussianRational:
    return _gi_divmod(a, m)[1]


def _gi_ext_gcd(a: GaussianRational, b: GaussianRational):
    """(g, u, v) with u*a + v*b = g in Z[i]."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = _gi_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _sqrt_mod_prime(a: GaussianRational, pi: GaussianRational) -> Optional[GaussianRational]:
    """Square root of a modulo a Gaussian prime pi (pi does not divide a)."""
    p = int(pi.norm())
    if p == 2:
        return _gi_mod(a, pi)
    if pi.im == 0 or pi.re == 0:
        # inert: Z[i]/(q) is GF(q^2), non-residues searched in lexicographic order
        q = int(abs(pi.re if pi.im == 0 else pi.im))
        candidates = ((x, y) for x in range(q) for y in range(q) if x or y)
        root = _tonelli_shanks((int(a.re), int(a.im)), q, q * q - 1, candidates)
    else:
        # split: Z[i]/(pi) is GF(p) with i = r
        r = (-int(pi.re) * pow(int(pi.im), -1, p)) % p
        candidates = ((x, 0) for x in range(2, p))
        root = _tonelli_shanks((int(a.re) + int(a.im) * r, 0), p, p - 1, candidates)
    if root is None:
        return None
    return gr(root[0], root[1])


def _sqrt_mod_squarefree_all(a: GaussianRational, m: GaussianRational, limit: int = 16):
    """Balanced square roots of a modulo square-free m (CRT sign choices)."""
    candidates = [ZERO]
    mod = ONE
    for pi, exp in gaussian_factor(m):
        if exp != 1:
            raise ValueError("modulus must be square-free")
        root = _sqrt_mod_prime(_gi_mod(a, pi), pi)
        if root is None:
            return []
        g, u, _ = _gi_ext_gcd(mod, pi)
        u = u / g
        new = []
        for t in candidates:
            for r in (root, -root) if root else (root,):
                new.append(_gi_mod(t + (r - t) * u * mod, mod * pi))
            if len(new) >= limit:
                break
        mod = mod * pi
        candidates = new[:limit]
    return candidates


# ---------------------------------------------------------------------------
# Lagrange reduction for ternary forms
# ---------------------------------------------------------------------------

def _small_ternary_search(coeffs, bounds=(3, 8)) -> Optional[Triple]:
    """Bounded search for a x^2 + b y^2 + c z^2 = 0 over small Gaussian x, y.

    Each bound's box of Gaussian integers, and b y^2 for each of them, is
    built once; x and y run over it by real part, then imaginary part, so
    the first point found is the first in that order.
    """
    a, b, c = coeffs
    for bound in bounds:
        side = range(-bound, bound + 1)
        box = [gr(re, im) for re in side for im in side]
        by2 = [(y, b * y * y) for y in box]
        for x in box:
            ax2 = a * x * x
            for y, by in by2:
                if not (x or y):
                    continue
                z = sqrt_gaussian(-(ax2 + by) / c)
                if z is not None:
                    return x, y, z
    return None


def isotropic_ternary(a: GaussianRational, b: GaussianRational, c: GaussianRational) -> Optional[Triple]:
    """Nontrivial (x, y, z) with a x^2 + b y^2 + c z^2 = 0 over Q(i).

    Lagrange reduction: coefficients are kept square-free and pairwise
    coprime, and the largest is repeatedly shrunk using a balanced square
    root of the product of the other two.  Returns None when the form is
    anisotropic (certified by a failed modular square root).
    """
    coeffs = [a, b, c]
    for idx in range(3):
        if not coeffs[idx]:
            sol = [ZERO, ZERO, ZERO]
            sol[idx] = ONE
            return tuple(sol)
    stack = []
    stall = 0
    for _round in range(400):
        # square-free reduction of each coefficient
        for idx in range(3):
            rep, s = square_free_part_zi(coeffs[idx])
            if not s.is_one():
                stack.append(("scale", idx, s))
                coeffs[idx] = rep
        # common factor of all three
        g = _gi_ext_gcd(_gi_ext_gcd(coeffs[0], coeffs[1])[0], coeffs[2])[0]
        if int(g.norm()) > 1:
            coeffs = [x / g for x in coeffs]
            continue
        # pairwise shared factors move onto the third coefficient
        shared = None
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = _gi_ext_gcd(coeffs[i], coeffs[j])[0]
            if int(g.norm()) > 1:
                shared = (i, j, k, g)
                break
        if shared is not None:
            i, j, k, g = shared
            coeffs[i] = coeffs[i] / g
            coeffs[j] = coeffs[j] / g
            coeffs[k] = coeffs[k] * g
            stack.append(("mult", k, g))
            continue
        order = sorted(range(3), key=lambda idx: int(coeffs[idx].norm()))
        big = order[2]
        if int(coeffs[big].norm()) <= 128:
            sol = _small_ternary_search(coeffs)
            if sol is None:
                return None
            return _unwind(stack, sol)
        i, j = order[0], order[1]
        a_, b_, c_ = coeffs[i], coeffs[j], coeffs[big]
        roots = _sqrt_mod_squarefree_all(_gi_mod(-(a_ * b_), c_), c_)
        if not roots:
            return None
        best = None
        for t in roots:
            e = (t * t + a_ * b_) / c_
            if not e:
                sol = [ZERO, ZERO, ZERO]
                sol[i], sol[j] = t, a_
                return _unwind(stack, tuple(sol))
            e0, s = square_free_part_zi(e)
            if best is None or int(e0.norm()) < int(best[1].norm()):
                best = (t, e0, s)
        t, e0, s = best
        if int(e0.norm()) >= int(c_.norm()):
            stall += 1
            if stall > 6:
                sol = _small_ternary_search(coeffs, bounds=(12,))
                if sol is not None:
                    return _unwind(stack, sol)
                return None
        else:
            stall = 0
        stack.append(("lagrange", i, j, big, t, a_, b_, e0 * s))
        coeffs[big] = e0
    return None


def _unwind(stack, sol: Triple) -> Optional[Triple]:
    x = list(sol)
    for entry in reversed(stack):
        kind = entry[0]
        if kind == "scale":
            _, idx, s = entry
            x[idx] = x[idx] / s
        elif kind == "mult":
            _, idx, g = entry
            x[idx] = x[idx] * g
        else:
            _, i, j, k, t, a_, b_, zfac = entry
            xi, xj, xk = x[i], x[j], x[k]
            x[i] = t * xi + b_ * xj
            x[j] = t * xj - a_ * xi
            x[k] = zfac * xk
    if all(not v for v in x):
        return None
    return tuple(x)



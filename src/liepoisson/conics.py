"""Exact solution of conics over Q(i).

The tail normalizations in the classifier repeatedly need rational points
on conics a x^2 + b y^2 = v with a, b, v in Q(i); :func:`represent_binary`
is the one place they come from.  When b/a is a square (over Q(i) -1 = i^2
is a square, so this is also the case -b/a square) the form is isotropic
and a closed form gives the point.  Otherwise the point comes from an
isotropic vector of the ternary form (a, b, -v), found by Lagrange
reduction carried out in the Euclidean ring Z[i]:

* the three coefficients are kept square-free, with shared prime factors
  moved onto the third coefficient (a x^2 + b y^2 + c z^2 with g dividing
  a and b forces g | z, leaving (a/g, b/g, c g));
* the coefficient of largest norm, say c, is shrunk using a balanced
  square root t of -ab modulo c through the identity
  (t^2 + ab)(a X^2 + b Y^2) = a (t X + b Y)^2 + b (t Y - a X)^2,
  which turns a point on (a, b, (t^2 + ab)/c) into one on (a, b, c);
* sign choices of the square root per prime factor are enumerated and the
  one giving the smallest replacement is kept, which breaks the plateaus
  the reduction hits when all norms are comparable;
* small instances finish by a bounded search.

Square roots modulo a Gaussian prime live in GF(p) for split primes and in
GF(q^2) for inert ones; one Tonelli-Shanks on pairs x + y*i serves both.
A failed modular square root certifies that the conic has no Q(i)-rational
point, which callers report as a genuine obstruction.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .scalars import (
    Fraction,
    GaussianRational,
    I,
    ONE,
    ZERO,
    _gi_divmod,
    gaussian_factor,
    gr,
    sqrt_fraction,
    sqrt_gaussian,
    square_free_part_zi,
)

Point = Tuple[GaussianRational, GaussianRational]
Triple = Tuple[GaussianRational, GaussianRational, GaussianRational]


# ---------------------------------------------------------------------------
# Modular arithmetic in Z[i]
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


def _gf2_mul(x, y, q):
    return ((x[0] * y[0] - x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q)


def _gf2_pow(x, e, q):
    out = (1, 0)
    while e:
        if e & 1:
            out = _gf2_mul(out, x, q)
        x = _gf2_mul(x, x, q)
        e >>= 1
    return out


def _tonelli_shanks(a, q: int, order: int, candidates):
    """Square root of a = x + y*i modulo q in a field of ``order`` units, or None.

    Elements are pairs reduced mod q: GF(p) is the pairs (x, 0) with order
    p - 1, GF(q^2) = GF(q)[i] for an inert q has order q^2 - 1.  The first
    non-residue among ``candidates`` drives the 2-power part.
    """
    a = (a[0] % q, a[1] % q)
    if a == (0, 0):
        return (0, 0)
    if _gf2_pow(a, order // 2, q) != (1, 0):
        return None
    s, m = order, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = next(z for z in candidates if _gf2_pow(z, order // 2, q) != (1, 0))
    c = _gf2_pow(z, s, q)
    t = _gf2_pow(a, s, q)
    r = _gf2_pow(a, (s + 1) // 2, q)
    while t != (1, 0):
        i = 0
        t2 = t
        while t2 != (1, 0):
            t2 = _gf2_mul(t2, t2, q)
            i += 1
        b = _gf2_pow(c, 1 << (m - i - 1), q)
        m, c = i, _gf2_mul(b, b, q)
        t = _gf2_mul(t, c, q)
        r = _gf2_mul(r, b, q)
    return r


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


def represent_binary(
    a: GaussianRational, b: GaussianRational, v: GaussianRational
) -> Optional[Point]:
    """A point (x, y) with a x^2 + b y^2 = v over Q(i), preferring x != 0.

    An isotropic form (b/a a square; since -1 = i^2, the same as -b/a a
    square) takes a closed form: a real hyperbolic pair factors as a
    difference of squares, and a sum of two squares represents everything,
    with a real point preferred for real data.  Any other form goes through
    :func:`isotropic_ternary`.  Returns None when the conic has no
    Q(i)-rational point.
    """
    if not v:
        raise ValueError("v must be nonzero")
    if not a and not b:
        return None
    if not a:
        y = sqrt_gaussian(v / b)
        return None if y is None else (ZERO, y)
    if not b:
        x = sqrt_gaussian(v / a)
        return None if x is None else (x, ZERO)
    z = v / a
    real = a.is_real() and b.is_real() and v.is_real()
    if real and (b / a).re < 0:
        s = sqrt_fraction(-(b / a).re)
        if s is not None:
            # x^2 - (s y)^2 = z factors as a difference of squares
            for t in (ONE, gr(2), gr(Fraction(1, 2)), gr(3)):
                x = (t + z / t) / gr(2)
                if x:
                    y = ((z / t - t) / gr(2)) / gr(s)
                    return x, y
    s = sqrt_gaussian(b / a)
    if s is not None:
        if real and z.re >= 0:
            # prefer a real point when z is a sum of two rational squares
            for q in (1, 2, 3, 4, 5):
                for p in range(0, 4 * q + 1):
                    x = gr(Fraction(p, q))
                    rest = z - x * x
                    if rest.re < 0:
                        break
                    root = sqrt_fraction(rest.re)
                    if root is not None and x:
                        return x, gr(root) / s
        # x^2 + (s y)^2 = (x + i s y)(x - i s y) = z with factors z and 1
        x = (z + ONE) / gr(2)
        if not x:
            return I, ZERO
        y = (z - ONE) / gr(0, 2)
        return x, y / s
    sol = isotropic_ternary(a, b, -v)
    if sol is None:
        return None
    x0, y0, z0 = sol
    if not z0:
        return None
    x, y = x0 / z0, y0 / z0
    if a * x * x + b * y * y != v:
        return None
    return _ensure_x_nonzero(a, b, v, x, y)


def _ensure_x_nonzero(a, b, v, x, y) -> Point:
    if x:
        return x, y
    for u in (ZERO, ONE, -ONE, I, -I):
        denom = a + b * u * u
        if not denom:
            continue
        t = gr(-2) * (b * y * u) / denom
        if not t:
            continue
        nx, ny = t, y + t * u
        if nx and a * nx * nx + b * ny * ny == v:
            return nx, ny
    return x, y

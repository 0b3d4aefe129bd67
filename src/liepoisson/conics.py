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

The reduction runs on Gaussian integers as (x, y) int pairs, with the
``_gi_*`` helpers of :mod:`liepoisson.scalars` (which says how they round):
scalars enter at :func:`isotropic_ternary` and leave as its point, built
once over the one denominator its three coordinates keep.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional, Tuple

from .scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    _gi_divmod,
    _gi_exact_divide,
    _gi_factor,
    _gi_mul,
    _gi_sqrt,
    _reduced,
    _square_free,
    gr,
    sqrt_gaussian,
)

Point = Tuple[GaussianRational, GaussianRational]
Triple = Tuple[GaussianRational, GaussianRational, GaussianRational]


# ---------------------------------------------------------------------------
# Modular arithmetic in Z[i]
# ---------------------------------------------------------------------------

def _gi_mod(a, m):
    return _gi_divmod(a, m)[1]


def _gi_norm(z) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _gi_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g in Z[i]."""
    r0, r1 = a, b
    s0, s1 = (1, 0), (0, 0)
    t0, t1 = (0, 0), (1, 0)
    while r1 != (0, 0):
        q, r = _gi_divmod(r0, r1)
        r0, r1 = r1, r
        qs, qt = _gi_mul(q, s1), _gi_mul(q, t1)
        s0, s1 = s1, (s0[0] - qs[0], s0[1] - qs[1])
        t0, t1 = t1, (t0[0] - qt[0], t0[1] - qt[1])
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
    p - 1, GF(q^2) = GF(q)[i] for an inert q has order q^2 - 1, and a is
    a unit of it.  The first non-residue among ``candidates`` drives the
    2-power part.
    """
    a = (a[0] % q, a[1] % q)
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


def _sqrt_mod_prime(a, pi):
    """Square root of a modulo a Gaussian prime pi (pi does not divide a), or None."""
    p = _gi_norm(pi)
    if p == 2:
        return _gi_mod(a, pi)
    if not pi[0] or not pi[1]:
        # inert: Z[i]/(q) is GF(q^2), non-residues searched in lexicographic order
        q = abs(pi[0] or pi[1])
        candidates = ((x, y) for x in range(q) for y in range(q) if x or y)
        return _tonelli_shanks(a, q, q * q - 1, candidates)
    # split: Z[i]/(pi) is GF(p) with i = r
    r = (-pi[0] * pow(pi[1], -1, p)) % p
    candidates = ((x, 0) for x in range(2, p))
    return _tonelli_shanks((a[0] + a[1] * r, 0), p, p - 1, candidates)


def _sqrt_mod_squarefree_all(a, m, limit: int = 16):
    """Balanced square roots of a modulo square-free m (CRT sign choices)."""
    candidates = [(0, 0)]
    mod = (1, 0)
    for pi, exp in _gi_factor(m):
        if exp != 1:
            raise ValueError("modulus must be square-free")
        root = _sqrt_mod_prime(_gi_mod(a, pi), pi)
        if root is None:
            return []
        g, u, _ = _gi_ext_gcd(mod, pi)
        # g is a unit, and (u/g) mod = 1 modulo pi
        step = _gi_mul(_gi_exact_divide(u, g), mod)
        mod = _gi_mul(mod, pi)
        new = []
        for t in candidates:
            for r in (root, (-root[0], -root[1])) if root != (0, 0) else (root,):
                lift = _gi_mul((r[0] - t[0], r[1] - t[1]), step)
                new.append(_gi_mod((t[0] + lift[0], t[1] + lift[1]), mod))
            if len(new) >= limit:
                break
        candidates = new[:limit]
    return candidates


# ---------------------------------------------------------------------------
# Lagrange reduction for ternary forms
# ---------------------------------------------------------------------------

def _small_ternary_search(coeffs, bounds=(3, 8)):
    """Bounded search for a x^2 + b y^2 + c z^2 = 0 over small Gaussian x, y.

    x and y run over each bound's box of Gaussian integers by real part,
    then imaginary part, so the first point found is the first in that
    order; b y^2 is built once per box.  z^2 = -(a x^2 + b y^2)/c needs
    N(a x^2 + b y^2) N(c) to be a perfect square, which one integer square
    root tests before the root in Z[i] is taken.  Returns the point as
    ((x d, y d, z d), d), or None.
    """
    a, b, (cx, cy) = coeffs
    nc = cx * cx + cy * cy
    for bound in bounds:
        side = range(-bound, bound + 1)
        box = [(re, im) for re in side for im in side]
        by2 = [(y, *_gi_mul(b, _gi_mul(y, y))) for y in box]
        for x in box:
            ux, uy = _gi_mul(a, _gi_mul(x, x))
            for y, vx, vy in by2:
                sx, sy = ux + vx, uy + vy
                m = (sx * sx + sy * sy) * nc
                r = isqrt(m)
                if r * r != m or x == y == (0, 0):
                    continue
                # z^2 = -(sx + sy i) conj(c) / nc, whose root is that of its numerator times nc, over nc
                z = _gi_sqrt((-(sx * cx + sy * cy) * nc, (sx * cy - sy * cx) * nc))
                if z is not None:
                    return ((x[0] * nc, x[1] * nc), (y[0] * nc, y[1] * nc), z), nc
    return None


def isotropic_ternary(a: GaussianRational, b: GaussianRational, c: GaussianRational) -> Optional[Triple]:
    """Nontrivial (x, y, z) with a x^2 + b y^2 + c z^2 = 0 over Q(i).

    Lagrange reduction: coefficients are kept square-free and pairwise
    coprime, and the largest is repeatedly shrunk using a balanced square
    root of the product of the other two.  Returns None when the form is
    anisotropic (certified by a failed modular square root).  The
    reduction runs on Gaussian integers as int pairs; the first round's
    square-free parts take the scalars' denominators in.
    """
    for idx, z in enumerate((a, b, c)):
        if not z:
            sol = [ZERO, ZERO, ZERO]
            sol[idx] = ONE
            return tuple(sol)
    coeffs = [(z._a, z._b) for z in (a, b, c)]
    dens = [z._d for z in (a, b, c)]
    stack = []
    stall = 0
    for _round in range(400):
        # square-free reduction of each coefficient
        for idx in range(3):
            rep, s = _square_free(coeffs[idx], dens[idx])
            if s != (1, 0, 1):
                stack.append(("scale", idx, s))
            coeffs[idx] = rep
        dens = (1, 1, 1)
        # common factor of all three
        g = _gi_ext_gcd(_gi_ext_gcd(coeffs[0], coeffs[1])[0], coeffs[2])[0]
        if _gi_norm(g) > 1:
            coeffs = [_gi_exact_divide(x, g) for x in coeffs]
            continue
        # pairwise shared factors move onto the third coefficient
        shared = None
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = _gi_ext_gcd(coeffs[i], coeffs[j])[0]
            if _gi_norm(g) > 1:
                shared = (i, j, k, g)
                break
        if shared is not None:
            i, j, k, g = shared
            coeffs[i] = _gi_exact_divide(coeffs[i], g)
            coeffs[j] = _gi_exact_divide(coeffs[j], g)
            coeffs[k] = _gi_mul(coeffs[k], g)
            stack.append(("mult", k, g))
            continue
        order = sorted(range(3), key=lambda idx: _gi_norm(coeffs[idx]))
        big = order[2]
        if _gi_norm(coeffs[big]) <= 128:
            found = _small_ternary_search(coeffs)
            return None if found is None else _unwind(stack, *found)
        i, j = order[0], order[1]
        a_, b_, c_ = coeffs[i], coeffs[j], coeffs[big]
        ab = _gi_mul(a_, b_)
        roots = _sqrt_mod_squarefree_all(_gi_mod((-ab[0], -ab[1]), c_), c_)
        if not roots:
            return None
        best = None
        for t in roots:
            # t^2 = -ab modulo c_, so c_ divides t^2 + ab
            t2 = _gi_mul(t, t)
            e = _gi_exact_divide((t2[0] + ab[0], t2[1] + ab[1]), c_)
            if e == (0, 0):
                sol = [(0, 0)] * 3
                sol[i], sol[j] = t, a_
                return _unwind(stack, tuple(sol), 1)
            e0, s = _square_free(e)
            if best is None or _gi_norm(e0) < _gi_norm(best[1]):
                best = (t, e0, s)
        t, e0, s = best
        if _gi_norm(e0) >= _gi_norm(c_):
            stall += 1
            if stall > 6:
                found = _small_ternary_search(coeffs, bounds=(12,))
                return None if found is None else _unwind(stack, *found)
        else:
            stall = 0
        # e = e0 s^2 with s a Gaussian integer, since e is one
        stack.append(("lagrange", i, j, big, t, a_, b_, _gi_mul(e0, s[:2])))
        coeffs[big] = e0
    return None


def _unwind(stack, point, d: int) -> Triple:
    """The point (x/d, y/d, z/d) of the reduced form carried back through ``stack`` to the input form.

    The three coordinates keep one denominator d, so every step is integer
    arithmetic and the scalars are built once, at the end.  Every step is
    invertible, so a nonzero point stays nonzero.
    """
    x = list(point)
    for entry in reversed(stack):
        kind = entry[0]
        if kind == "scale":
            # x[idx] / s = x[idx] e conj(s_) / N(s_) for s = s_/e; the others take N(s_) into d
            _, idx, (sx, sy, e) = entry
            n = sx * sx + sy * sy
            x = [_gi_mul(v, (e * sx, -e * sy)) if k == idx else (v[0] * n, v[1] * n)
                 for k, v in enumerate(x)]
            d *= n
        elif kind == "mult":
            _, idx, g = entry
            x[idx] = _gi_mul(x[idx], g)
        else:
            _, i, j, k, t, a_, b_, zfac = entry
            xi, xj, xk = x[i], x[j], x[k]
            p, q = _gi_mul(t, xi), _gi_mul(b_, xj)
            x[i] = (p[0] + q[0], p[1] + q[1])
            p, q = _gi_mul(t, xj), _gi_mul(a_, xi)
            x[j] = (p[0] - q[0], p[1] - q[1])
            x[k] = _gi_mul(zfac, xk)
    return tuple(_reduced(v[0], v[1], d) for v in x)


def represent_binary(
    a: GaussianRational, b: GaussianRational, v: GaussianRational
) -> Optional[Point]:
    """A point (x, y) with a x^2 + b y^2 = v over Q(i).

    An isotropic form (b/a a square; since -1 = i^2, the same as -b/a a
    square) takes a closed form with x != 0: a real hyperbolic pair factors
    as a difference of squares, and a sum of two squares represents
    everything, with a real point preferred for real data.  Any other form
    goes through :func:`isotropic_ternary`; its x is nonzero when v/b is no
    square, as in every move of the square-class repair.  Returns None
    when the conic has no Q(i)-rational point.
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
    ratio = b / a
    # signs are those of the numerators (d > 0); a rational >= 0 is a square in Q(i) iff in Q
    real = a.is_real() and b.is_real() and v.is_real()
    if real and ratio._a < 0:
        s = sqrt_gaussian(-ratio)
        if s is not None:
            # x^2 - (s y)^2 = z factors as a difference of squares
            for t in (ONE, gr(2), _reduced(1, 0, 2), gr(3)):
                x = (t + z / t) / gr(2)
                if x:
                    y = ((z / t - t) / gr(2)) / s
                    return x, y
    s = sqrt_gaussian(ratio)
    if s is not None:
        if real and z._a >= 0:
            # prefer a real point when z is a sum of two rational squares
            for q in (1, 2, 3, 4, 5):
                for p in range(0, 4 * q + 1):
                    x = _reduced(p, 0, q)
                    rest = z - x * x
                    if rest._a < 0:
                        break
                    root = sqrt_gaussian(rest)
                    if root is not None and x:
                        return x, root / s
        # x^2 + (s y)^2 = (x + i s y)(x - i s y) = z with factors z and 1
        x = (z + ONE) / gr(2)
        if not x:
            return I, ZERO
        y = (z - ONE) / gr(0, 2)
        return x, y / s
    sol = isotropic_ternary(a, b, -v)
    if sol is None:
        return None
    # z0 != 0: a point with z0 = 0 would make -b/a a square, which the closed form above takes
    x0, y0, z0 = sol
    x, y = x0 / z0, y0 / z0
    if a * x * x + b * y * y != v:
        return None
    return x, y

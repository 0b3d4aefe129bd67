"""Sparse multivariate polynomials over Q(i).

Casimir coefficient polynomials are sparse (a handful of monomials even at
order eight), so terms live in a dict keyed by exponent tuples.  Printing and
canonical comparison use graded lexicographic order.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .scalars import GaussianRational, ONE, ZERO, as_scalar

Exponents = Tuple[int, ...]


class Poly:
    """Polynomial in nvars variables, term dict {exponent tuple: scalar}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, GaussianRational] = None):
        clean: Dict[Exponents, GaussianRational] = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars:
                raise ValueError(f"exponent tuple {e} has wrong length for {nvars} variables")
            if any(type(k) is not int or k < 0 for k in e):
                raise ValueError(f"exponent tuple {e} holds something other than a non-negative int")
            c = as_scalar(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _of(nvars: int, terms: Dict[Exponents, GaussianRational]) -> "Poly":
        """Trusted constructor: ``terms`` has nvars-long tuple keys and nonzero scalar values."""
        p = object.__new__(Poly)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._of(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: as_scalar(c)})

    @staticmethod
    def variable(nvars: int, idx: int) -> "Poly":
        e = [0] * nvars
        e[idx] = 1
        return Poly._of(nvars, {tuple(e): ONE})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c=1) -> "Poly":
        return Poly(nvars, {tuple(exps): as_scalar(c)})

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, ZERO) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return Poly._of(self.nvars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check(other)
            terms: Dict[Exponents, GaussianRational] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc = terms.get(e, ZERO) + c1 * c2
                    if acc:
                        terms[e] = acc
                    else:
                        terms.pop(e, None)
            return Poly._of(self.nvars, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_scalar(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly._of(self.nvars, {e: c * v for e, v in self.terms.items()})

    def diff(self, var: int) -> "Poly":
        terms: Dict[Exponents, GaussianRational] = {}
        for e, c in self.terms.items():
            if e[var]:
                e2 = list(e)
                e2[var] -= 1
                terms[tuple(e2)] = c * e[var]
        return Poly._of(self.nvars, terms)

    # -- queries --------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in graded-lex order (degree first, then lexicographic)."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), tuple(-x for x in ec[0])))

    def to_json(self) -> list:
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    def format(self, var_names: Sequence[str]) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for idx, k in enumerate(e):
                if k == 1:
                    factors.append(var_names[idx])
                elif k > 1:
                    factors.append(f"({var_names[idx]})^{k}")
            body = " ".join(factors)
            if not body:
                parts.append(str(c))
            elif c.is_one():
                parts.append(body)
            elif c == -ONE:
                parts.append(f"-{body}")
            else:
                cs = str(c)
                if ("+" in cs[1:]) or ("-" in cs[1:]):
                    cs = f"({cs})"
                parts.append(f"{cs} {body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return self.format([f"x{i}" for i in range(self.nvars)])

"""Casimir invariants of Lie-Poisson brackets built from extension tensors.

A Casimir density C(xi^0, ..., xi^n) must satisfy the symmetry condition

    W_lam^{mu nu} C_{,mu sig}  symmetric under lam <-> sig,  for every nu,

which :func:`casimir_condition_check` verifies symbolically, treating the
formal derivatives of the arbitrary functions as independent symbols.  The
check holds the upper half of the Hessian of C as coefficient dicts keyed by
(function derivative, monomial), built over each monomial's nonzero
exponents.  :func:`_condition_residuals` contracts it with W, each nonempty
Hessian cell, and its mirror, meeting only the nonzero entries of W that
contract with it; ``Poly`` objects are built only for the residual of a
failing triple.  :func:`quadratic_casimir_basis` takes its equations from
the same builder.

Synthesis takes one block in normal position, as the paper derives it:
every slice nilpotent, or W^(0) = I and every other slice nilpotent, all
lower-triangular.  :func:`_solvable_start` is the one test of this
contract; any other tensor is refused with one ``CasimirError``.

Synthesis works through the coextension.  With Wn the symmetric matrix of
the last slice restricted to the solvable indices (excluding the last), its
exact pseudoinverse and the projector P = Wn Wn^+ define the dual tensor
omega (the coextension), and the Casimir of direction nu is the series
C = sum_i g^(i) f_i(xi^n) whose coefficients obey

    g^(0) = P xi,   g^(1)_,ts = omega^nu_ts,   g^(i)_,ts = omega^mu_ts g^(i-1)_,mu.

Both layers stay sparse.  The coextension reads Wn and the subextension
slices as blocks W_(lam) of the tensor's stored rows and keeps omega as its
nonzeros, one tuple (lam, sig, value) per upper index; at nonsingular Wn
omega is read off the rows of Wn^-1 W_(sig) with no further product.  Each
g^(i) is one {exponent: coefficient} dict, built from the nonzeros of omega
and the terms of g^(i-1) by Euler's homogeneous-function identity and
scaled once; a ``Poly`` is made only of the finished series.  Nilpotency
terminates the series.

Singular Wn requires two conditions (the projector commuting with the
subextension slices, tested by :func:`linalg.noncommuting_pair`, and the
coextension product symmetry, summed from omega's nonzeros); when they
fail the tensor splits as a direct sum on the support of its slices and
the blocks are synthesized separately, with the
simultaneous-eigenvector directions merged into one arbitrary function of
several arguments: the common kernel of the slices past the semisimple
slot, that is of the stored rows (lam, nu), row lam of W^(nu) by
upper-index symmetry; it always holds e_(n-1).  A semidirect tensor
contributes one extra family in the semisimple direction exactly when Wn
is nonsingular, that is when P is the identity.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .extension import CasimirError, ExtensionTensor, SynthesisObstruction
from .linalg import ExactMatrix, _pseudoinverse_rank, _rref_rows, noncommuting_pair, null_space
from .polynomials import Poly
from .scalars import GaussianRational, ONE, ZERO, gr

GREEK_XI = "\N{GREEK SMALL LETTER XI}"
HALF = ONE / gr(2)


# ---------------------------------------------------------------------------
# Symbolic data types
# ---------------------------------------------------------------------------

# The records of this module are namedtuples, CoextensionResult aside:
# read-only fields and equality and hashing by value, for far less work per
# class at import than generating each method from source text.  A __new__
# normalizes its inputs.

class FormalFunction(namedtuple("FormalFunction", "label args")):
    """An arbitrary function of linear coordinates u^(a) . xi."""

    __slots__ = ()

    def __new__(cls, label: str, args: Sequence[Sequence[GaussianRational]]):
        return tuple.__new__(cls, (label, tuple(tuple(u) for u in args)))


class CasimirTerm(namedtuple("CasimirTerm", "poly func deriv")):
    """poly * (derivative of func), deriv a multi-index over func.args.

    With func None the term is the polynomial density poly alone, which
    the condition checker takes; comparison and formatting take families
    of function terms, the only ones synthesis and the tables build.
    """

    __slots__ = ()

    def __new__(cls, poly: Poly, func: Optional[FormalFunction], deriv: Sequence[int] = ()):
        deriv = tuple(deriv)
        if func is not None and len(deriv) != len(func.args):
            raise ValueError("derivative multi-index length must match args")
        return tuple.__new__(cls, (poly, func, deriv))


class CasimirFamily(namedtuple("CasimirFamily", "terms n semidirect")):
    __slots__ = ()

    def __new__(cls, terms: Sequence[CasimirTerm], n: int, semidirect: bool = False):
        return tuple.__new__(cls, (tuple(terms), n, semidirect))

    def to_json(self) -> dict:
        out = []
        for t in self.terms:
            entry = {"poly": t.poly.to_json(), "deriv": list(t.deriv)}
            if t.func is not None:
                entry["func"] = t.func.label
                entry["args"] = [[str(c) for c in u] for u in t.func.args]
            out.append(entry)
        return {"n": self.n, "semidirect": self.semidirect, "terms": out}


# ---------------------------------------------------------------------------
# Condition checker
# ---------------------------------------------------------------------------

def _hessian(fam: CasimirFamily) -> Dict[Tuple[int, int], Dict]:
    """Upper half of the Hessian of the density, {(mu, sig): {((label, deriv), monomial): scalar}}
    over mu <= sig; the Hessian is symmetric, so cell (sig, mu) is cell (mu, sig).

    Read off each term p(xi) F^(d)(u . xi) monomial by monomial, over the
    monomial's nonzero exponents only: derivatives of p keep the key
    (label, d), each chain-rule factor u^(a) raises d_a by one.  The raised
    keys and the argument products u^(a)_mu u^(b)_sig depend on the term
    alone and are formed once per term.  A value may be zero where terms
    cancel; it contributes nothing downstream.
    """
    hess: Dict[Tuple[int, int], Dict] = defaultdict(dict)
    for term in fam.terms:
        func, d = term.func, term.deriv
        key0 = (func.label if func else None, d)
        # cross[sig]: (raised(a), u^(a)_sig) for every argument a with a nonzero
        # entry at sig; pairs: ((mu, sig), raised(a, b), u^(a)_mu u^(b)_sig), mu <= sig
        cross: Dict[int, List] = {}
        pairs = []
        if func:
            supports = [[(m, c) for m, c in enumerate(u) if c] for u in func.args]
            for a, support in enumerate(supports):
                raised = (func.label, d[:a] + (d[a] + 1,) + d[a + 1:])
                for sig, u in support:
                    cross.setdefault(sig, []).append((raised, u))
                for b, support2 in enumerate(supports):
                    bumped = list(raised[1])
                    bumped[b] += 1
                    key = (func.label, tuple(bumped))
                    pairs += [((mu, sig), key, u * u2) for mu, u in support
                              for sig, u2 in support2 if mu <= sig]
        for e, c in term.poly.terms.items():
            exps = [(v, k) for v, k in enumerate(e) if k]
            for i, (mu, k) in enumerate(exps):
                e1 = e[:mu] + (k - 1,) + e[mu + 1:]
                c1 = c if k == 1 else c * k
                for sig, k2 in exps[i:]:
                    if sig == mu:
                        k2 -= 1
                    if k2:
                        cell = hess[mu, sig]
                        key = (key0, e1[:sig] + (k2 - 1,) + e1[sig + 1:])
                        y = cell.get(key)
                        x = c1 if k2 == 1 else c1 * k2
                        cell[key] = x if y is None else y + x
                # p_,mu u_sig F' and p_,sig u_mu F' meet in one cell, twice on the diagonal
                for sig, entries in cross.items():
                    cell = hess[(mu, sig) if mu <= sig else (sig, mu)]
                    c2 = c1 * 2 if sig == mu else c1
                    for raised, u in entries:
                        key = (raised, e1)
                        y = cell.get(key)
                        cell[key] = c2 * u if y is None else y + c2 * u
            for pos, raised, x in pairs:
                cell = hess[pos]
                key = (raised, e)
                y = cell.get(key)
                cell[key] = c * x if y is None else y + c * x
    return hess


class ConditionReport(namedtuple("ConditionReport", "passed failure residual", defaults=(None, None))):
    """``failure`` is the first failing (lam, sig, nu) and ``residual`` its {(label, deriv): Poly}."""

    __slots__ = ()

    def __bool__(self):
        return self.passed


def _condition_residuals(t: ExtensionTensor, hess: Dict[Tuple[int, int], Dict]) -> Dict[Tuple[int, int, int], Dict]:
    """W_lam^{mu nu} H_{mu sig} - W_sig^{mu nu} H_{mu lam} for each (nu, lam, sig), sig < lam.

    ``hess`` is the upper half {(mu, sig): {key: scalar}}, mu <= sig, of a
    symmetric H; zero coefficients are skipped, a ``ONE`` costs no product,
    and a residual keeps only its nonzero sums.  The tensor's nonzeros are
    grouped by their contracted index mu, so each cell (mu, sig), and its
    mirror (sig, mu), meets only the entries W_lam^{mu nu} of its own mu.
    """
    by_mu: Dict[int, List] = {}
    for lam, mu, nu, w in t.nonzeros():
        by_mu.setdefault(mu, []).append((lam, nu, w))
    residuals: Dict[Tuple[int, int, int], Dict] = defaultdict(dict)
    for (m, s), cell in hess.items():
        cell = [(key, c) for key, c in cell.items() if c]
        for mu, sig in ((m, s), (s, m)) if m != s else ((m, s),):
            for lam, nu, w in by_mu.get(mu, ()):
                if lam == sig:
                    continue
                plus = sig < lam
                acc = residuals[(nu, lam, sig) if plus else (nu, sig, lam)]
                for key, c in cell:
                    x = w if c is ONE else w * c
                    y = acc.get(key)
                    if y is None:
                        acc[key] = x if plus else -x
                        continue
                    y = y + x if plus else y - x
                    if y:
                        acc[key] = y
                    else:
                        del acc[key]
    return residuals


def casimir_condition_check(t: ExtensionTensor, fam: CasimirFamily) -> ConditionReport:
    """Verify the symmetry condition for a candidate Casimir family.

    The differences W_lam^{mu nu} C_{,mu sig} - W_sig^{mu nu} C_{,mu lam}
    are the :func:`_condition_residuals` of the Hessian's upper half, keyed
    by ((label, deriv), monomial).  The first triple (lam, sig, nu) with a
    nonzero one, in the order nu, then lam, then sig, is reported with its
    residual {(label, deriv): Poly}; no ``Poly`` is built when it passes.
    """
    if fam.n != t.n:
        raise CasimirError(f"family has {fam.n} variables, tensor has {t.n}")
    diffs = _condition_residuals(t, _hessian(fam))
    first = min((triple for triple, acc in diffs.items() if acc), default=None)
    if first is None:
        return ConditionReport(True)
    nu, lam, sig = first
    residual: Dict = {}
    for (fkey, e), c in diffs[first].items():
        residual.setdefault(fkey, {})[e] = c
    return ConditionReport(False, (lam, sig, nu), {k: Poly._of(t.n, v) for k, v in residual.items()})


# ---------------------------------------------------------------------------
# Coextension
# ---------------------------------------------------------------------------

class CoextensionResult:
    """Wn, its pseudoinverse, the projector P = Wn Wn^+ and omega on slots idx.

    ``idx`` lists storage slots; the last one carries Wn, the others are the
    solvable-local indices of ``sub`` and ``omega``.  ``sub[sig][rho, nu]``
    is W_sig^{rho nu} in local indices.  ``omega[nu]`` holds the nonzeros
    omega^nu_{lam sig} as (lam, sig, value), in increasing (lam, sig);
    ``cow`` is the dense view cow[nu][lam][sig], built on first use for
    inspection (no check reads it).  The solvability and symmetry conditions
    are evaluated on first access and kept.  The fields are read-only: the
    three cached properties live in the instance dict, so this is a plain
    class, not a namedtuple.
    """

    def __init__(self, wn: ExactMatrix, wn_pinv: ExactMatrix, projector: ExactMatrix, sub: tuple,
                 omega: tuple, nonsingular: bool, idx: Tuple[int, ...]):
        self.__dict__.update(wn=wn, wn_pinv=wn_pinv, projector=projector, sub=sub, omega=omega,
                             nonsingular=nonsingular, idx=idx)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a CoextensionResult")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a CoextensionResult")

    @cached_property
    def cow(self) -> tuple:
        k = len(self.omega)
        dense = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
        for nu, plane in enumerate(self.omega):
            for lam, sig, x in plane:
                dense[nu][lam][sig] = x
        return tuple(tuple(tuple(row) for row in plane) for plane in dense)

    @cached_property
    def solvable_ok(self) -> bool:
        return all(noncommuting_pair((self.projector, m)) is None for m in self.sub)

    @cached_property
    def coext_ok(self) -> bool:
        return _coextension_symmetric(self.omega)


def _solvable_start(t: ExtensionTensor) -> Optional[int]:
    """The first solvable slot under the contract of synthesis, else None: 0 when every slice
    is nilpotent, 1 when W^(0) = I and every other slice is, all of them lower-triangular."""
    if t.is_solvable():
        return 0
    if t.is_lower_triangular() and t.slice_is_identity(0) and not any(
            any(t.slice_diagonal(nu)) for nu in range(1, t.n)):
        return 1
    return None


_NOT_NORMALIZED = "synthesis needs a normalized single block: nilpotent slices, or W^(0) = I and the others nilpotent"


def is_normalized(t: ExtensionTensor) -> bool:
    """Whether synthesis takes ``t`` as it is (see :func:`_solvable_start`)."""
    return _solvable_start(t) is not None


def build_coextension(t: ExtensionTensor) -> CoextensionResult:
    """Wn, its exact pseudoinverse, the projector, and the dual tensor omega.

    Expects a normalized tensor (see :func:`_solvable_start`).  Failure of the solvability or
    symmetry condition is recorded in the flags, not raised.  A semidirect tensor with no
    solvable slot (the bare base bracket) has no coextension.
    """
    s = _solvable_start(t)
    if s is None:
        raise CasimirError(_NOT_NORMALIZED)
    if s == t.n:
        raise CasimirError("coextension needs at least one solvable slot")
    return _coextension(t, range(s, t.n))


def _coextension(t: ExtensionTensor, idx: Sequence[int]) -> CoextensionResult:
    """The coextension of the slots idx, Wn being the slice of idx[-1].

    omega^nu_{lam sig} = sum_rho (Wn^+_{sig rho} W_lam^{rho nu} + Wn^+_{lam rho} W_sig^{rho nu})
                         - sum_{rho kap mu} Wn^+_{lam rho} Wn^+_{sig kap} Wn_{rho mu} W_mu^{kap nu}
    is evaluated in the factorized form B_lam[sig, nu] + B_sig[lam, nu]
    - sum_mu A[lam, mu] B_mu[sig, nu], with A = Wn^+ Wn and B_mu = Wn^+ W_(mu),
    in O(k^4) rather than O(k^6).  Wn and the W_(mu) are read off the stored
    rows (mu, rho), rho in the slots, and each (lam, sig) combines the stored
    rows of the B_mu, so only nonzeros are touched.  Wn is nonsingular
    exactly when the row reduction that gives Wn^+ finds full rank; then the
    projector Wn Wn^+ is the identity, A = Wn^-1 Wn = I, the first and last
    terms cancel, and omega^nu_{lam sig} = B_sig[lam, nu] is read off the B
    rows with no product A and no sum over mu.
    """
    idx = tuple(idx)
    k = len(idx) - 1
    slots = idx[:k]
    local = {slot: i for i, slot in enumerate(slots)}

    def block(lam: int) -> ExactMatrix:  # W_(lam) on the slots, in local indices
        rows = t.nz[lam]
        return ExactMatrix._of(k, k, [{local[nu]: x for nu, x in rows[mu].items() if nu in local} for mu in slots])
    wn = block(idx[-1])
    wn_pinv, rank = _pseudoinverse_rank(wn)
    sub = tuple(map(block, slots))
    nonsingular = rank == k
    projector = ExactMatrix.identity(k) if nonsingular else wn @ wn_pinv
    b = [(wn_pinv @ m).nz for m in sub]
    omega: List[List[Tuple[int, int, GaussianRational]]] = [[] for _ in range(k)]
    if nonsingular:
        for lam in range(k):
            for sig in range(k):
                for nu, x in b[sig][lam].items():
                    omega[nu].append((lam, sig, x))
    else:
        a = wn_pinv @ wn
        for lam in range(k):
            a_row = a.nz[lam].items()
            for sig in range(k):
                acc = dict(b[lam][sig])
                for nu, x in b[sig][lam].items():
                    y = acc.get(nu)
                    acc[nu] = x if y is None else y + x
                for mu, c in a_row:
                    for nu, x in b[mu][sig].items():
                        y = acc.get(nu)
                        acc[nu] = -(c * x) if y is None else y - c * x
                for nu, x in acc.items():
                    if x:
                        omega[nu].append((lam, sig, x))
    return CoextensionResult(wn, wn_pinv, projector, sub, tuple(map(tuple, omega)), nonsingular, idx)


def _coextension_symmetric(omega) -> bool:
    """Whether T[tau, sig, lam, nu] = sum_mu omega^mu_{tau sig} omega^nu_{mu lam} is
    symmetric under sig <-> lam.

    T is summed from the nonzeros of omega alone: each omega^mu_{tau sig}
    meets the entries omega^nu_{mu lam} whose first lower index is mu.  A
    nonzero entry of T must then equal its mirror, which covers the entries
    whose mirror is nonzero as well.
    """
    by_first: Dict[int, List] = {}
    for nu, plane in enumerate(omega):
        for mu, lam, y in plane:
            by_first.setdefault(mu, []).append((lam, nu, y))
    products: Dict[Tuple[int, int, int, int], GaussianRational] = {}
    for mu, plane in enumerate(omega):
        rows = by_first.get(mu)
        if not rows:
            continue
        for tau, sig, x in plane:
            for lam, nu, y in rows:
                key = (tau, sig, lam, nu)
                z = products.get(key)
                products[key] = x * y if z is None else z + x * y
    return all(not x or products.get((tau, lam, sig, nu)) == x
               for (tau, sig, lam, nu), x in products.items())


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

Terms = Dict[Tuple[int, ...], GaussianRational]


def _exponent(n: int, *slots: int) -> Tuple[int, ...]:
    """The exponent tuple of the monomial prod xi_slot over ``slots``."""
    e = [0] * n
    for v in slots:
        e[v] += 1
    return tuple(e)


def _series_from_hessian_recursion(
    n: int, start: Terms, omega, local_vars: Sequence[int]
) -> List[Poly]:
    """Iterate g^(i)_,ts = omega^mu_ts g^(i-1)_,mu from the given start.

    Each g^(i) is homogeneous of degree d, so Euler's identity gives
    g^(i) = sum_{mu t s} omega^mu_ts xi_t xi_s g^(i-1)_,mu / (d (d-1)).  It is
    accumulated in one {exponent: coefficient} dict: every term of g^(i-1)
    that holds variable mu meets the nonzeros of omega^mu, with omega^mu_ts
    and omega^mu_st merged on their common monomial, and the sum is scaled
    once.  ``start`` is g^(0) in the same form, never empty; ``local_vars``
    maps omega's indices to storage variables.
    """
    planes = []
    for mu, plane in enumerate(omega):
        pairs: Terms = {}
        for tau, sig, c in plane:
            key = tuple(sorted((local_vars[tau], local_vars[sig])))
            y = pairs.get(key)
            pairs[key] = c if y is None else y + c
        pairs = {key: c for key, c in pairs.items() if c}
        if pairs:
            planes.append((local_vars[mu], tuple((vt, vs, c) for (vt, vs), c in pairs.items())))
    series = [start]
    for _ in range(4 * n + 4):
        prev = series[-1]
        acc: Terms = {}
        for e, c in prev.items():
            for v, pairs in planes:
                k = e[v]
                if not k:
                    continue
                base = list(e)
                base[v] -= 1
                ck = c * k
                for vt, vs, w in pairs:
                    base[vt] += 1
                    base[vs] += 1
                    key = tuple(base)
                    base[vt] -= 1
                    base[vs] -= 1
                    y = acc.get(key)
                    acc[key] = ck * w if y is None else y + ck * w
        degree = max(map(sum, prev)) + 1
        scale = ONE / gr(degree * (degree - 1))
        nxt = {e: scale * x for e, x in acc.items() if x}
        if not nxt:
            break
        series.append(nxt)
    else:
        raise CasimirError("coextension series failed to terminate")
    return [Poly._of(n, g) for g in series]


def _family_from_series(n: int, series: List[Poly], arg_index: int,
                        names: Iterator[str], semidirect: bool) -> CasimirFamily:
    u = tuple(ONE if m == arg_index else ZERO for m in range(n))
    func = FormalFunction(next(names), (u,))
    terms = [CasimirTerm(g, func, (i,)) for i, g in enumerate(series) if not g.is_zero()]
    return CasimirFamily(tuple(terms), n, semidirect)


def _function_names() -> Iterator[str]:
    """Function names in presentation order: f, g, h, k, p, ..., w, then f12, f13, ..."""
    yield from "fghkpqrstuvw"
    yield from (f"f{pos}" for pos in count(12))


def _support_components(t: ExtensionTensor, lo: int, hi: int) -> List[List[int]]:
    """Connected components of the slice-support hypergraph on [lo, hi)."""
    parent = {i: i for i in range(lo, hi)}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for lam, mu, nu, _ in t.nonzeros():
        if lo <= lam < hi and lo <= mu < hi and lo <= nu < hi:
            union(lam, mu)
            union(mu, nu)
    groups: Dict[int, List[int]] = {}
    for i in range(lo, hi):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _eigenvector_family(t: ExtensionTensor, s: int, names: Iterator[str]) -> CasimirFamily:
    """One multi-argument family over the common kernel of the slices W^(nu), nu >= s.

    By upper-index symmetry the stored row (lam, nu) is row lam of W^(nu), so
    the kernel is that of the stored rows (lam, nu), nu >= s.  Under the
    contract of :func:`_solvable_start` each of those slices is strictly
    lower-triangular, so e_(n-1) lies in the kernel and the family exists.
    """
    n = t.n
    kernel = null_space(ExactMatrix._of(n * (n - s), n, [plane[nu] for nu in range(s, n) for plane in t.nz]))
    args = tuple(map(kernel.row, range(kernel.rows)))
    func = FormalFunction(next(names), args)
    term = CasimirTerm(Poly.constant(n, 1), func, (0,) * len(args))
    return CasimirFamily((term,), n, bool(s))


def synthesize_casimirs(t: ExtensionTensor) -> List[CasimirFamily]:
    """All Casimir families of a normalized tensor, each checked once against the condition.

    In presentation order, each named from :func:`_function_names` as it is
    built: the extra semidirect family exactly when Wn is nonsingular, one
    family per projector-visible solvable direction (via the coextension
    recursion, run per support component so direct sums split), and one
    multi-argument family over the simultaneous eigenvectors.  The bare
    base bracket (no solvable slot) has only its eigenvector family f(xi0).
    """
    s = _solvable_start(t)
    if s is None:
        raise CasimirError(_NOT_NORMALIZED)
    whole = list(range(s, t.n))
    cos = [_coextension(t, comp) for comp in _support_components(t, s, t.n)
           if len(comp) > 1 or comp == whole]
    names = _function_names()
    families: List[CasimirFamily] = []
    # a slot outside the last slot's component leaves a zero row in Wn, so a
    # nonsingular Wn needs the whole solvable range to be one component
    if s and cos and cos[0].idx == tuple(whole) and cos[0].nonsingular:
        families.append(_semidirect_family(t, cos[0], names))
    for co in cos:
        families += _component_families(t, co, names, bool(s))
    families.append(_eigenvector_family(t, s, names))
    for fam in families:
        report = casimir_condition_check(t, fam)
        if not report:
            raise CasimirError(
                f"internal error: synthesized family fails the condition at {report.failure}"
            )
    return families


def _component_families(t: ExtensionTensor, co: CoextensionResult, names: Iterator[str],
                        semidirect: bool) -> List[CasimirFamily]:
    """Families of one support component, excluding its eigenvector family.

    One per projector row that no earlier row spans: the pivots of one row
    reduction over the projector's columns, or every row of the identity
    projector of a nonsingular Wn.
    """
    n = t.n
    idx = co.idx
    # the O(k^5) symmetry check is only needed when Wn is singular
    if not co.nonsingular and not (co.solvable_ok and co.coext_ok):
        raise SynthesisObstruction(
            "solvability/coextension condition fails on an indecomposable block"
        )
    families = []
    rows = range(co.wn.rows) if co.nonsingular else _rref_rows(co.projector.transpose().nz)[1]
    for nu in rows:
        g0 = {_exponent(n, idx[rho]): x for rho, x in co.projector.nz[nu].items()}
        series = _series_from_hessian_recursion(n, g0, co.omega, idx[:-1])
        families.append(_family_from_series(n, series, idx[-1], names, semidirect))
    return families


def _semidirect_family(t: ExtensionTensor, co: CoextensionResult, names: Iterator[str]) -> CasimirFamily:
    """The extra family in the semisimple direction (nonsingular Wn only)."""
    n = t.n
    local = co.idx[:-1]
    g1: Terms = {}
    for tau, row in enumerate(co.wn_pinv.nz):
        for sig, c in row.items():
            e = _exponent(n, local[tau], local[sig])
            y = g1.get(e)
            g1[e] = c * HALF if y is None else y + c * HALF
    g1 = {e: c for e, c in g1.items() if c}
    series = [Poly.variable(n, 0)]
    if g1:
        series += _series_from_hessian_recursion(n, g1, co.omega, local)
    return _family_from_series(n, series, t.n - 1, names, True)


# ---------------------------------------------------------------------------
# Leibniz closed form
# ---------------------------------------------------------------------------

def leibniz_casimirs_closed_form(order: int, nu: int, semidirect: bool = False) -> CasimirFamily:
    """The Leibniz Casimir of direction nu, as a terminating k-sum.

    Solvable labels run 1..order (nu = order is the bare arbitrary
    function); the semidirect variant accepts nu = 0..order and has the
    same coefficients as direction nu+1 of the solvable extension one order
    higher, with the labels shifted down to start at zero.
    """
    from itertools import combinations_with_replacement
    from math import factorial

    if semidirect:
        if nu < 0 or nu > order:
            raise CasimirError(f"nu must lie in 0..{order}")
        inner = leibniz_casimirs_closed_form(order + 1, nu + 1)
        return CasimirFamily(inner.terms, inner.n, True)
    if nu < 1 or nu > order:
        raise CasimirError(f"nu must lie in 1..{order}")
    n = order
    last = n - 1
    u = tuple(ONE if m == last else ZERO for m in range(n))
    func = FormalFunction("f", (u,))
    if nu == order:
        return CasimirFamily((CasimirTerm(Poly.constant(n, 1), func, (0,)),), n, False)
    terms = []
    pool = list(range(last))          # storage slots carrying labels 1..n-1
    for kk in range(1, n - nu + 1):
        # poly is never zero: kk labels from 1..n-1 reach every sum from kk to kk(n-1), and needed lies there
        needed = nu + (kk - 1) * n
        poly = Poly.zero(n)
        for combo in combinations_with_replacement(pool, kk):
            if sum(m + 1 for m in combo) != needed:
                continue
            exps = [0] * n
            for m in combo:
                exps[m] += 1
            denom = 1
            for e in exps:
                denom *= factorial(e)
            poly = poly + Poly.monomial(n, exps, gr(1) / gr(denom))
        terms.append(CasimirTerm(poly, func, (kk - 1,)))
    return CasimirFamily(tuple(terms), n, False)


# ---------------------------------------------------------------------------
# Quadratic Casimirs
# ---------------------------------------------------------------------------

def quadratic_casimir_basis(t: ExtensionTensor) -> List[ExactMatrix]:
    """Basis of symmetric Q with W_lam^{mu nu} Q_{mu sig} = W_sig^{mu nu} Q_{mu lam}.

    These are the constant-Hessian Casimirs 1/2 Q_{mu nu} xi^mu xi^nu, found
    by one sparse null-space computation over the upper-triangle coordinates
    of Q.  The equations are the checker's :func:`_condition_residuals` of
    the unit Hessian, whose cell (i, j) holds the unknown Q_ij with the
    coefficient ``ONE``; equal equations go to the elimination once.
    """
    n = t.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    residuals = _condition_residuals(t, {pair: {k: ONE} for k, pair in enumerate(pairs)})
    # the equations of different (nu, lam, sig) repeat; the elimination gets each distinct one once
    rows = {frozenset(eq.items()): eq for eq in residuals.values()}
    basis = []
    for v in null_space(ExactMatrix._of(len(rows), len(pairs), rows.values())).nz:
        # Q_ij = Q_ji is coordinate k of the kernel vector, for (i, j) = pairs[k]
        q: List[Dict[int, GaussianRational]] = [{} for _ in range(n)]
        for k, x in v.items():
            i, j = pairs[k]
            q[i][j] = q[j][i] = x
        basis.append(ExactMatrix._of(n, n, q))
    return basis


# ---------------------------------------------------------------------------
# Comparison and pretty printing
# ---------------------------------------------------------------------------

def _canonical_terms(fam: CasimirFamily):
    """Family contents with function labels stripped and args sorted: the terms' (args, deriv, poly)."""
    out = []
    for t in fam.terms:
        args = t.func.args
        order = sorted(range(len(args)), key=lambda a: tuple(x.sort_key() for x in args[a]))
        poly = tuple(sorted(t.poly.terms.items(), key=lambda kv: kv[0]))
        out.append((tuple(args[a] for a in order), tuple(t.deriv[a] for a in order), poly))
    return tuple(sorted(out, key=repr))


def family_sets_equal(xs: Sequence[CasimirFamily], ys: Sequence[CasimirFamily]) -> bool:
    """Multiset equality of families, label-insensitive."""
    return Counter(map(_canonical_terms, xs)) == Counter(map(_canonical_terms, ys))


def _var_names(fam: CasimirFamily) -> List[str]:
    if fam.semidirect:
        return [f"{GREEK_XI}{m}" for m in range(fam.n)]
    return [f"{GREEK_XI}{m + 1}" for m in range(fam.n)]


def format_family(fam: CasimirFamily) -> str:
    """Render in the table notation, e.g. "xi1 f(xi3) + 1/2 (xi2)^2 f'(xi3)"."""
    names = _var_names(fam)
    parts = []
    for term in fam.terms:
        body = term.poly.format(names)
        argtext = ", ".join(
            Poly(len(u), {tuple(int(k == m) for k in range(len(u))): c for m, c in enumerate(u)}).format(names)
            for u in term.func.args
        )
        total = sum(term.deriv)
        primes = "'" * total
        ftext = f"{term.func.label}{primes}({argtext})"
        if body == "1":
            parts.append(ftext)
        else:
            if len(term.poly.terms) > 1:
                body = f"({body})"
            parts.append(f"{body} {ftext}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:].lstrip()}" if p.startswith("-") else f" + {p}"
    return out


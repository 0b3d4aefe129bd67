"""Normal-form classification of extension tensors up to order four.

The pipeline follows the reduction that produces the catalog: triangularize
the commuting slice family, check the tensor is a single degenerate block,
split off the semisimple slot if the leading eigenvalue is nonzero (scaling
it to one and normalizing the first slice to the identity), then reduce the
solvable part stage by stage.  Stage m normalizes slice m given a leading
part already in normal form, by removing coboundaries, rescaling, reducing
terminal cocycles by congruence, and applying the fixed inter-case maps
(some complex).  Classification is one pass: every move is an explicit
invertible matrix, recorded as a witness step and applied once to the input
(lifted to diag(1, m) past the semisimple slot), so the running tensor is
the input moved by the chain; :class:`_Reduction` drops an identity move,
so no step of a chain is the identity.  The running tensor is compared
bit-exactly with the catalog normal form before classify returns the case
label and the witness chain.

Over Q(i) a few tensors outside the catalog orbits hit a genuine
obstruction: a rescaling would need a square root that Q(i) lacks (the
smallest example needs sqrt(2)).  Those raise :class:`ClassificationError`
rather than silently widening the coefficient field.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from .extension import (
    ExtensionTensor,
    TensorError,
    _empty,
    abelian,
    append_semisimple,
    strip_semisimple,
    validate,
)
from .linalg import (
    BasisChange,
    ExactMatrix,
    _kernel_flag,
    inverse,
    rank,
    rref,
)
from .scalars import GaussianRational, I, ONE, ZERO, gr, sqrt_gaussian
from .transform import apply, congruence_move, normalize_w0_to_identity

class ClassificationError(TensorError):
    pass


class OrderTooHigh(ClassificationError):
    """The catalog covers solvable orders 1..4 only."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"no catalog for solvable order {order} > 4" if order > 4
                         else f"solvable order must be 1..4, got {order}")


class NotSingleBlock(ClassificationError):
    """Input splits into blocks with distinct eigenvalues (the kernel flag stalls).

    Classification labels a single degenerate block; inputs with more than
    one block are out of scope and raise this error.
    """


# The records of this module are namedtuples: read-only fields and equality
# and hashing by value, for far less work per class at import than
# generating each method from source text.

class CaseLabel(namedtuple("CaseLabel", "order name semidirect", defaults=(False,))):
    __slots__ = ()

    def __str__(self):
        return self.name


class Catalog(namedtuple("Catalog", "order entries")):
    """The normal forms of one order: ``entries`` holds (CaseLabel, ExtensionTensor) pairs."""

    __slots__ = ()

    def lookup(self, name: str) -> ExtensionTensor:
        for label, t in self.entries:
            if label.name == name:
                return t
        raise KeyError(name)

    def __len__(self):
        return len(self.entries)


def _normal_form(n: int, slices: Dict[int, Dict[Tuple[int, int], int]]) -> ExtensionTensor:
    """A catalog entry from its nonzero lower-index entries {lam: {(mu, nu): value}}.

    The normal forms satisfy both bracket laws (the tests check each entry),
    so the tensor is built by the trusted constructor.
    """
    w = _empty(n)
    for lam, pairs in slices.items():
        for (mu, nu), v in pairs.items():
            w[lam][mu][nu] = w[lam][nu][mu] = gr(v)
    return ExtensionTensor._of(n, w)


_CATALOGS: Dict[int, Catalog] = {}


def catalog(order: int) -> Catalog:
    """The independent solvable normal forms at the given order (<= 4)."""
    if order < 1 or order > 4:
        raise OrderTooHigh(order)
    if order in _CATALOGS:
        return _CATALOGS[order]
    if order == 1:
        entries = [("n1-abelian", abelian(1))]
    elif order == 2:
        entries = [
            ("n2-case1", abelian(2)),
            ("n2-case2", _normal_form(2, {1: {(0, 0): 1}})),
        ]
    elif order == 3:
        entries = [
            ("n3-case1", abelian(3)),
            ("n3-case2", _normal_form(3, {2: {(0, 1): 1}})),
            ("n3-case3", _normal_form(3, {1: {(0, 0): 1}})),
            ("n3-case4", _normal_form(3, {1: {(0, 0): 1}, 2: {(0, 1): 1}})),
        ]
    else:
        entries = [
            ("n4-case1a", abelian(4)),
            ("n4-case1b", _normal_form(4, {3: {(0, 2): 1, (1, 1): 1}})),
            ("n4-case2", _normal_form(4, {2: {(0, 1): 1}})),
            ("n4-case3a", _normal_form(4, {1: {(0, 0): 1}})),
            ("n4-case3b", _normal_form(4, {1: {(0, 0): 1}, 3: {(2, 2): 1}})),
            ("n4-case3c", _normal_form(4, {1: {(0, 0): 1}, 3: {(0, 2): 1}})),
            ("n4-case3d", _normal_form(4, {1: {(0, 0): 1}, 3: {(0, 1): 1, (2, 2): 1}})),
            ("n4-case4a", _normal_form(4, {1: {(0, 0): 1}, 2: {(0, 1): 1}})),
            ("n4-case4b", _normal_form(4, {1: {(0, 0): 1}, 2: {(0, 1): 1}, 3: {(0, 2): 1, (1, 1): 1}})),
        ]
    cat = Catalog(order, tuple((CaseLabel(order, name), t) for name, t in entries))
    _CATALOGS[order] = cat
    return cat


# ---------------------------------------------------------------------------
# Classification pipeline
# ---------------------------------------------------------------------------

def classify(t: ExtensionTensor) -> Tuple[CaseLabel, List[BasisChange]]:
    """Reduce a valid tensor to its catalog normal form.

    Returns the case label and the witness chain.  Each step of the chain is
    applied once, to the input in its own coordinates, so the tensor the
    reduction ends on is the input moved by the chain; it must equal the
    normal form (for semidirect inputs, the normal form with the identity
    slice appended) bit-exactly, which is checked before returning.
    Triangularizing is one kernel flag, with no eigenvalue search; a stalled
    flag means more than one block and raises :class:`NotSingleBlock`.

    A tensor in hand is certified and is not checked again; a raw array goes
    through :func:`validate` first.
    """
    if not isinstance(t, ExtensionTensor):
        t = validate(t)
    r = _Reduction(t)
    if not t.is_lower_triangular():
        m = _kernel_flag(t.slices_upper(), t.n)
        if m is None:
            raise NotSingleBlock("tensor has more than one block: a slice has two eigenvalues")
        t = r.step(m)
        # each new slice is a combination of the M^-1 W^(nu) M
        if not t.is_lower_triangular():
            raise ClassificationError("internal error: triangularization postcondition failed")
    _require_single_block(t)
    # a single block has a nonzero trace only in slice 0, where it is n times the eigenvalue
    if t.semidirect:
        if t.n == 1:
            raise ClassificationError(
                "bare base bracket: the semisimple slot has no solvable part to classify"
            )
        moved, b = normalize_w0_to_identity(t)
        r.record(b, moved)
        t = r.split_semisimple()
    normal = _classify_solvable(t, r)
    label = CaseLabel(normal.n, _match_catalog(normal.nz, normal.n), r.split)
    expected = append_semisimple(normal) if r.split else normal
    if r.full.nz != expected.nz:
        raise ClassificationError("internal error: witness chain does not reproduce the normal form")
    return label, r.chain


class _Reduction:
    """The input in its own coordinates and the witness steps applied to it.

    A step is applied to ``full`` once, so ``full`` is the input moved by
    ``chain``; an identity move is neither recorded nor applied, and this is
    the one place that tests for it.  Past a split-off semisimple slot, a
    move m of the solvable part is recorded as diag(1, m).
    """

    def __init__(self, t: ExtensionTensor):
        self.full, self.chain, self.split = t, [], False

    def part(self) -> ExtensionTensor:
        """The tensor being reduced: ``full``, or its solvable part past a split."""
        return strip_semisimple(self.full) if self.split else self.full

    def record(self, b: BasisChange, moved: Optional[ExtensionTensor] = None) -> ExtensionTensor:
        """Apply a step of the full tensor; return the moved part.

        ``moved`` is ``full`` already moved by ``b``, when the caller has it.
        """
        if not b.m.is_identity():
            self.chain.append(b)
            self.full = apply(self.full, b) if moved is None else moved
        return self.part()

    def step(self, m: ExactMatrix) -> ExtensionTensor:
        if m.is_identity():
            return self.part()
        return self.record(BasisChange(_lift(m) if self.split else m))

    def split_semisimple(self) -> ExtensionTensor:
        """Lift the later moves past slot 0, where W^(0) = I by now; return the solvable part."""
        self.split = True
        return self.part()


def _require_single_block(t: ExtensionTensor) -> None:
    for nu in range(t.n):
        diag = t.slice_diagonal(nu)
        if any(d != diag[0] for d in diag):
            raise NotSingleBlock(
                "tensor has blocks with distinct eigenvalues; split it first"
            )
    for nu in range(1, t.n):
        if t.slice_diagonal(nu)[0]:
            raise NotSingleBlock("slice past the first has a nonzero eigenvalue")


def _match_catalog(nz: tuple, order: int) -> str:
    """The catalog entry of ``order`` whose stored rows are ``nz``."""
    for label, entry in catalog(order).entries:
        if entry.nz == nz:
            return label.name
    raise ClassificationError("internal error: reduced tensor is not a catalog entry")


def _lift(m: ExactMatrix) -> ExactMatrix:
    """diag(1, m): a move of the solvable part acting on the semidirect tensor."""
    n = m.rows + 1
    return ExactMatrix._of(n, n, [{0: ONE}] + [{j + 1: x for j, x in row.items()} for row in m.nz])


def _perm_columns(n: int, cols: Sequence[int]) -> ExactMatrix:
    """Matrix whose new basis vectors are the old ones listed in ``cols``."""
    return ExactMatrix._of(n, n, [[ONE if cols[j] == i else ZERO for j in range(n)] for i in range(n)])


def _classify_solvable(t: ExtensionTensor, r: _Reduction) -> ExtensionTensor:
    n = t.n
    if n > 4:
        raise OrderTooHigh(n)
    if not t.is_solvable():
        raise ClassificationError("internal error: expected a solvable tensor")
    if n < 4:
        for stage in range(2, n + 1):
            t = _stage(t, stage, r)
        return t
    t = _stage(t, 2, r)
    if not t.entry(1, 0, 0) and _tail_head_supported(t):
        # both trailing slices are cocycles on the abelian head: treat them
        # as a pencil of binary quadratic forms
        t, finished = _pencil_reduce(t, r)
        if finished:
            return t
    t = _stage(t, 3, r)
    return _stage(t, 4, r)


def _tail_head_supported(t: ExtensionTensor) -> bool:
    """Slices 2 and 3 touch only the head indices (0, 1): by symmetry, no stored row holds a column >= 2."""
    return all(nu < 2 for lam in (2, 3) for row in t.nz[lam] for nu in row)


def _product(t: ExtensionTensor, x: Sequence[GaussianRational], y: Sequence[GaussianRational]) -> List[GaussianRational]:
    """x * y = sum W_lam^{mu nu} x_mu y_nu over the nonzeros of W; shorter vectors fill the leading slots."""
    out = [ZERO] * t.n
    for lam, mu, nu, c in t.nonzeros():
        if mu < len(x) and nu < len(y):
            out[lam] = out[lam] + c * x[mu] * y[nu]
    return out


def _rank1_decompose(g: ExactMatrix) -> Tuple[GaussianRational, GaussianRational]:
    """w with g proportional to w w^T, for a rank-one symmetric 2x2 form."""
    if g[0, 0]:
        return g[0, 0], g[0, 1]
    if g[1, 1]:
        return g[0, 1], g[1, 1]
    raise ClassificationError("internal error: form is not rank one")


def _pencil_reduce(t: ExtensionTensor, r: _Reduction) -> Tuple[ExtensionTensor, bool]:
    """Normalize the head pencil (slice 2, slice 3) of an order-4 tensor.

    Proportional slices are merged into slice 2 and handed back to the
    stagewise path (finished=False).  A genuine two-dimensional pencil is
    resolved by its degenerate locus det(s A + t B): two rational root
    lines produce two inert squares (case 3b), a double root produces a
    square and a cross product (case 3c).  Irrational root lines mean the
    tensor is not in any catalog orbit over Q(i).
    """
    n = t.n
    a = t.slice_lower(2).submatrix(range(2), range(2))
    b = t.slice_lower(3).submatrix(range(2), range(2))
    if a.is_zero() and b.is_zero():
        return t, False
    if a.is_zero():
        t = r.step(_perm_columns(n, [0, 1, 3, 2]))
        a, b = b, a
    ratio = _proportional(b, a)
    if ratio is not None:
        return r.step(ExactMatrix.identity(n).with_entry(3, 2, ratio)), False
    det_a, det_b = _det2(a), _det2(b)
    mix = a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0] - gr(2) * a[0, 1] * b[0, 1]
    roots = _pencil_roots(det_a, det_b, mix)
    if roots is None:
        raise ClassificationError(
            "pencil discriminant is not a square in Q(i); tensor is outside the catalog orbits"
        )
    (s1, t1), (s2, t2), double = roots
    g1 = a.scale(s1) + b.scale(t1)
    if double:
        w1 = _rank1_decompose(g1)
        kern = (-w1[1], w1[0])
        y0 = (ONE, ZERO) if w1[0] else (ZERO, ONE)
        f2 = _product(t, y0, y0)
        f3 = _product(t, y0, kern)
        if all(not x for x in f3) or any(_product(t, kern, kern)):
            raise ClassificationError("internal error: double-root pencil structure")
        cols = [[*y0, ZERO, ZERO], f2, [*kern, ZERO, ZERO], f3]
    else:
        g2 = a.scale(s2) + b.scale(t2)
        # y0, y1 are the columns of [w1; w2]^-1, the rows of its transpose
        p = inverse(ExactMatrix._of(2, 2, [_rank1_decompose(g1), _rank1_decompose(g2)])).transpose()
        y0, y1 = p.row(0), p.row(1)
        f2 = _product(t, y0, y0)
        f4 = _product(t, y1, y1)
        if any(_product(t, y0, y1)):
            raise ClassificationError("internal error: distinct-root pencil structure")
        cols = [[*y0, ZERO, ZERO], f2, [*y1, ZERO, ZERO], f4]
    move = ExactMatrix._of(4, 4, [[cols[j][i] for j in range(4)] for i in range(4)])
    t = r.step(move)
    return t, True


def _proportional(b: ExactMatrix, a: ExactMatrix) -> Optional[GaussianRational]:
    """ratio with b == ratio * a, or None when independent (a nonzero)."""
    pivot = next(((i, j) for i in range(a.rows) for j in range(a.cols) if a[i, j]), None)
    if pivot is None:
        raise ValueError("a must be nonzero")
    ratio = b[pivot] / a[pivot]
    for i in range(a.rows):
        for j in range(a.cols):
            if b[i, j] != ratio * a[i, j]:
                return None
    return ratio


def _det2(m: ExactMatrix) -> GaussianRational:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _pencil_roots(det_a, det_b, mix):
    """Root lines of det_a s^2 + mix s t + det_b t^2, or None over Q(i)."""
    if det_a:
        disc = mix * mix - gr(4) * det_a * det_b
        sq = sqrt_gaussian(disc)
        if sq is None:
            return None
        two_a = gr(2) * det_a
        return (-mix + sq, two_a), (-mix - sq, two_a), sq.is_zero()
    if det_b:
        if not mix:
            return (ONE, ZERO), (ONE, ZERO), True
        return (ONE, ZERO), (-det_b, mix), False
    if not mix:
        raise ClassificationError("internal error: pencil determinant vanishes identically")
    return (ONE, ZERO), (ZERO, ONE), False


def _leading_case(t: ExtensionTensor, m: int) -> str:
    """Name of the (already normalized) leading m-window, m <= 3.

    The window of a lower-triangular solvable tensor is closed under the
    bracket, so matching its stored rows against the catalog suffices.  A
    row (lam, mu) with mu <= lam holds no index nu > lam (W_lam^{mu nu} =
    W_lam^{nu mu} sits in the empty row (lam, nu)), so the leading rows are
    the window's rows as they are.
    """
    return _match_catalog(tuple(plane[:m] for plane in t.nz[:m]), m)


def _stage(t: ExtensionTensor, m: int, r: _Reduction) -> ExtensionTensor:
    """Bring slice m-1 (storage) to normal form, leading window already done."""
    n = t.n
    s = m - 1  # storage index of the slice being normalized
    if m == 2:
        a = t.entry(1, 0, 0)
        if a:
            t = r.step(ExactMatrix.diagonal([ONE, a] + [ONE] * (n - 2)))
        return t
    if m == 3:
        leading = _leading_case(t, 2)
        if leading == "n2-case2":
            _expect_zero(t, (2, 1, 1))
            t = r.step(ExactMatrix.identity(n).with_entry(2, 1, t.entry(2, 0, 0)))
            b = t.entry(2, 0, 1)
            if b:
                t = r.step(ExactMatrix.diagonal([ONE, ONE, b] + [ONE] * (n - 3)))
            return t
        # abelian leading part: reduce the terminal cocycle on the 2x2 block
        pattern, t = _window_congruence(t, s, r)
        if pattern == (1, 0):
            t = r.step(_perm_columns(n, [0, 2, 1] + list(range(3, n))))
        elif pattern == (1, 1):
            t = r.step(_complex_pair_map(n, imaginary=True))
        elif pattern == (1, -1):
            t = r.step(_complex_pair_map(n, imaginary=False))
        return t
    if m == 4:
        leading = _leading_case(t, 3)
        if leading == "n3-case1":
            return _stage4_leading_abelian(t, r)
        if leading == "n3-case2":
            return _stage4_leading_case2(t)
        if leading == "n3-case3":
            return _stage4_leading_case3(t, r)
        return _stage4_leading_case4(t, r)
    raise OrderTooHigh(m)


def _expect_zero(t: ExtensionTensor, idx: Tuple[int, int, int]) -> None:
    if t.entry(*idx):
        raise ClassificationError(
            f"internal error: entry {idx} should vanish for a valid tensor"
        )


def _complex_pair_map(n: int, imaginary: bool) -> ExactMatrix:
    """Map sending the tail diag(1, +-1) on slots (0,1) to the antidiagonal.

    The congruence doubles the cocycle, so slot 2 carries the compensating
    factor 2 (the textbook map's 1/sqrt(2) on slots 0 and 1, moved onto slot
    2 so that every entry is in Q(i)).
    """
    second = [I, -I] if imaginary else [ONE, -ONE]
    rows = [[ONE, ONE] + [ZERO] * (n - 2), second + [ZERO] * (n - 2)]
    for i in range(2, n):
        rows.append([ZERO] * i + [gr(2) if i == 2 else ONE] + [ZERO] * (n - i - 1))
    return ExactMatrix._of(n, n, rows)


def _window_congruence(t: ExtensionTensor, s: int, r: _Reduction) -> Tuple[tuple, ExtensionTensor]:
    """Congruence-diagonalize the s x s block of slice ``s`` in place.

    Returns the sign pattern (+1/-1/0 per slot, +1s first) and the reduced
    tensor; the scale factor sits at slot ``s`` of the move.
    """
    move = congruence_move(t, s)
    if move is None:
        raise ClassificationError(
            "tail cannot be scaled to {0,+1,-1} entries over Q(i)"
        )
    m, signs = move
    return tuple(signs), r.step(m)


def _stage4_leading_abelian(t: ExtensionTensor, r: _Reduction) -> ExtensionTensor:
    n = t.n
    pattern, t = _window_congruence(t, 3, r)
    if pattern == (0, 0, 0):
        return t
    if pattern == (1, 1, 1):
        t = r.step(ExactMatrix.diagonal([ONE, ONE, I, ONE]))
        pattern = (1, 1, -1)
    if pattern == (1, 1, -1):
        # congruence with m^T diag(1,1,-1) m = the (0,2)+(1,1) normal tail
        half = gr(1) / gr(2)
        return r.step(ExactMatrix._of(4, 4, [
            [ONE, ZERO, half, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ONE, ZERO, -half, ZERO],
            [ZERO, ZERO, ZERO, ONE],
        ]))
    if pattern in ((1, 1, 0), (1, -1, 0)):
        t = r.step(_perm_columns(n, [0, 1, 3, 2]))
        return r.step(_complex_pair_map(n, imaginary=(pattern == (1, 1, 0))))
    if pattern == (1, 0, 0):
        return r.step(_perm_columns(n, [0, 3, 2, 1]))
    raise ClassificationError(f"internal error: unexpected tail pattern {pattern}")


def _stage4_leading_case2(t: ExtensionTensor) -> ExtensionTensor:
    """Slice 3 over an n3-case2 window vanishes by now: nothing to reduce.

    The window comes only from stage 3's (1, +-1) congruence pattern, which
    fixes slot 2 up to scale, so W_1^{00} = 0 and slice 3 touches only
    slots 0 and 1 (the (3, 2, .) entries vanish for a valid tensor).  The
    head pencil reduction has then either finished the tensor or cleared
    slice 3 with its proportional shear.
    """
    for idx in ((3, 0, 0), (3, 0, 1), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 2, 2)):
        _expect_zero(t, idx)
    return t


def _stage4_leading_case3(t: ExtensionTensor, r: _Reduction) -> ExtensionTensor:
    n = t.n
    for idx in ((3, 1, 1), (3, 2, 1)):
        _expect_zero(t, idx)
    t = r.step(ExactMatrix.identity(n).with_entry(3, 1, t.entry(3, 0, 0)))
    a = t.entry(3, 0, 1)
    b = t.entry(3, 0, 2)
    d = t.entry(3, 2, 2)
    if a:
        if b:
            t = r.step(ExactMatrix.identity(n).with_entry(1, 2, -b / a))
            d = t.entry(3, 2, 2)
        if d:
            return r.step(ExactMatrix.diagonal([a * d, a * a * d * d, a * a * d, a ** 4 * d ** 3]))
        t = r.step(ExactMatrix.diagonal([ONE, ONE, ONE, a]))
        return r.step(_perm_columns(n, [0, 1, 3, 2]))
    if b:
        if d:
            # joins case 3b: x1 = -d u0 + b u2 and x3 = u2 have inert squares
            return r.step(ExactMatrix._of(4, 4, [
                [-d, ZERO, ZERO, ZERO],
                [ZERO, d * d, ZERO, ZERO],
                [b, ZERO, ONE, ZERO],
                [ZERO, -d * b * b, ZERO, d],
            ]))
        return r.step(ExactMatrix.diagonal([ONE, ONE, ONE, b]))
    if d:
        return r.step(ExactMatrix.diagonal([ONE, ONE, ONE, d]))
    return t


def _stage4_leading_case4(t: ExtensionTensor, r: _Reduction) -> ExtensionTensor:
    n = t.n
    for idx in ((3, 2, 2), (3, 2, 1)):
        _expect_zero(t, idx)
    if t.entry(3, 1, 1) != t.entry(3, 0, 2):
        raise ClassificationError("internal error: commutation constraint violated")
    p, q = t.entry(3, 0, 0), t.entry(3, 0, 1)
    t = r.step(ExactMatrix.identity(n).with_entry(3, 1, p).with_entry(3, 2, q))
    z = t.entry(3, 1, 1)
    if z:
        t = r.step(ExactMatrix.diagonal([ONE, ONE, ONE, z]))
    return t


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

class Equivalent(namedtuple("Equivalent", "witness")):
    __slots__ = ()
    kind = "equivalent"


class Distinct(namedtuple("Distinct", "reason")):
    __slots__ = ()
    kind = "distinct"


class Unknown(namedtuple("Unknown", "reason")):
    __slots__ = ()
    kind = "unknown"


def fingerprint(t: ExtensionTensor) -> dict:
    """Basis-dependent invariants of a *normal form* used to explain verdicts."""
    n = t.n
    ranks = [rank(t.slice_lower(lam)) for lam in range(n)]
    tail = t.slice_lower(n - 1).submatrix(range(n - 1), range(n - 1))
    return {
        "slice_ranks": ranks,
        "derived_dims": derived_series_dims(t),
        "tail_nullity": (n - 1) - rank(tail),
    }


def derived_series_dims(t: ExtensionTensor) -> List[int]:
    """Dimensions of span{x * y : x, y in D_k}, a basis-free invariant."""
    n = t.n
    span = [ExactMatrix.identity(n).row(i) for i in range(n)]
    dims: List[int] = []
    while True:
        # D_{k+1} is spanned by the nonzero rows of the RREF of all products of D_k's basis
        reduced, pivots = rref(ExactMatrix._of(len(span) ** 2, n, [_product(t, x, y) for x in span for y in span]))
        dims.append(len(pivots))
        if not pivots or (len(dims) >= 2 and dims[-1] == dims[-2]):
            break
        span = [reduced.row(i) for i in range(len(pivots))]
    return dims


def equivalence_check(a: ExtensionTensor, b: ExtensionTensor):
    """Decide whether two tensors are related by a basis change.

    Returns Equivalent(witness) when both classify to the same label (the
    witness maps a onto b), Distinct(reason) when they land on different
    normal forms, and Unknown when classification fails for either input.
    """
    if a.n != b.n:
        return Distinct(f"orders differ: {a.n} vs {b.n}")
    if a.nz == b.nz:
        return Equivalent(())
    try:
        la, ca = classify(a)
        lb, cb = classify(b)
    except ClassificationError as err:
        return Unknown(str(err))
    if la == lb:
        witness = tuple(ca) + tuple(x.inverse() for x in reversed(cb))
        return Equivalent(witness)
    fa = fingerprint(catalog_entry(la))
    fb = fingerprint(catalog_entry(lb))
    for key in ("slice_ranks", "derived_dims", "tail_nullity"):
        if fa[key] != fb[key]:
            return Distinct(f"{key} differs: {fa[key]} vs {fb[key]}")
    return Distinct(f"normal forms differ: {la.name} vs {lb.name}")


def catalog_entry(label: CaseLabel) -> ExtensionTensor:
    entry = catalog(label.order).lookup(label.name)
    return append_semisimple(entry) if label.semidirect else entry

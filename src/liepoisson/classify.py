"""Normal-form classification of extension tensors up to order four.

The pipeline follows the reduction that produces the catalog.  The paper's
semisimple slot, whose slice is the identity, is the unit of the product
e_mu e_nu = sum_lam W_lam^{mu nu} e_lam, so a semidirect input is first
moved by its unit split and the slot is stripped.  Every tensor, stripped or
not, is then triangularized by the kernel flag, checked to be solvable (one
block) and reduced stage by stage.  Stage m normalizes slice m given a
leading part already in normal form, by removing coboundaries, rescaling,
reducing terminal cocycles by congruence, and applying the fixed inter-case
maps (some complex).  Classification is one pass: every move is an explicit
invertible matrix, recorded as a witness step and applied once to the input
(lifted to diag(1, m) past the semisimple slot), so the running tensor is
the input moved by the chain.  Each tail decision is one step: over an
abelian window the congruence and the fixed map its sign pattern calls for
are multiplied before they are applied.  :class:`_Reduction` drops a move
that is the identity or leaves the tensor's stored rows as they were, so
every step of a chain changes the tensor and a normal form classifies with
an empty chain.  The running tensor is compared bit-exactly with the
catalog normal form before classify returns the case label and the witness
chain.

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
    """Input splits into blocks with distinct eigenvalues (no unit split, or the kernel flag stalls).

    Classification labels a single degenerate block; inputs with more than
    one block are out of scope and raise this error.
    """


_DISTINCT_BLOCKS = "tensor has more than one block, with distinct eigenvalues; split it first"


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
    A semidirect input is split at its unit first, so the kernel flag sees
    only traceless tensors and searches no eigenvalue; no unit split, a
    stalled flag or an unsolvable result raises :class:`NotSingleBlock`.

    A tensor in hand is certified and is not checked again; a raw array goes
    through :func:`validate` first.
    """
    if not isinstance(t, ExtensionTensor):
        t = validate(t)
    r = _Reduction(t)
    if t.semidirect:
        if t.n == 1:
            raise ClassificationError(
                "bare base bracket: the semisimple slot has no solvable part to classify"
            )
        t = r.split_semisimple(normalize_w0_to_identity(t))
    if not t.is_lower_triangular():
        m = _kernel_flag(t.slices_upper(), t.n)
        if m is None:
            raise NotSingleBlock("tensor has more than one block: a slice has two eigenvalues")
        t = r.step(m)
        # each new slice is a combination of the M^-1 W^(nu) M
        if not t.is_lower_triangular():
            raise ClassificationError("internal error: triangularization postcondition failed")
    if not t.is_solvable():
        raise NotSingleBlock(_DISTINCT_BLOCKS)
    normal = _classify_solvable(t, r)
    label = CaseLabel(normal.n, _match_catalog(normal.nz, normal.n), r.split)
    expected = append_semisimple(normal) if r.split else normal
    if r.full.nz != expected.nz:
        raise ClassificationError("internal error: witness chain does not reproduce the normal form")
    return label, r.chain


class _Reduction:
    """The input in its own coordinates and the witness steps applied to it.

    Every move of the reduction, the unit split included, enters
    through :meth:`step`, which applies it to ``full`` once, so ``full`` is
    the input moved by ``chain``.  This is the one place that tests for a
    move that changes nothing: an identity move builds no
    :class:`BasisChange` and is neither recorded nor applied, and a move
    whose result has the stored rows of the tensor it moved, such as the
    automorphism [[0, 2, 0], [2, 0, 0], [0, 0, 4]] of n3-case2, is applied
    once and not recorded.  :meth:`split_semisimple` steps the
    unit split and checks that it leaves one block; past the split-off
    semisimple slot, a move m of the solvable part is recorded as diag(1, m).
    """

    def __init__(self, t: ExtensionTensor):
        self.full, self.chain, self.split = t, [], False

    def part(self) -> ExtensionTensor:
        """The tensor being reduced: ``full``, or its solvable part past a split."""
        return strip_semisimple(self.full) if self.split else self.full

    def step(self, m: ExactMatrix) -> ExtensionTensor:
        """Apply the move m of the part, and record it if it changed the tensor; return the part."""
        if not m.is_identity():
            b = BasisChange(_lift(m) if self.split else m)
            moved = apply(self.full, b)
            if moved.nz != self.full.nz:
                self.chain.append(b)
                self.full = moved
        return self.part()

    def split_semisimple(self, m: Optional[ExactMatrix]) -> ExtensionTensor:
        """Step the unit split m, lift later moves past slot 0 and return the solvable part.

        Unless m exists, W^(0) = I after it and the rows (0, mu >= 1) are empty
        (the traceless kernel is an ideal), the tensor is more than one block.
        """
        if m is not None:
            self.step(m)
        if m is None or not self.full.slice_is_identity(0) or any(self.full.nz[0][1:]):
            raise NotSingleBlock(_DISTINCT_BLOCKS)
        self.split = True
        return self.part()


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
    return ExactMatrix._of(n, n, [{cols.index(i): ONE} for i in range(n)])


def _classify_solvable(t: ExtensionTensor, r: _Reduction) -> ExtensionTensor:
    n = t.n
    if n > 4:
        raise OrderTooHigh(n)
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


def _product(t: ExtensionTensor, x: Dict[int, GaussianRational], y: Dict[int, GaussianRational]) -> Dict[int, GaussianRational]:
    """x * y = sum W_lam^{mu nu} x_mu y_nu over the nonzeros of W, x and y, all stored rows {index: value}."""
    out: Dict[int, GaussianRational] = {}
    for lam, mu, nu, c in t.nonzeros():
        if mu in x and nu in y:
            out[lam] = out.get(lam, ZERO) + c * x[mu] * y[nu]
    return {lam: z for lam, z in out.items() if z}


def _rank1_decompose(g: ExactMatrix) -> Dict[int, GaussianRational]:
    """w with g proportional to w w^T, for a rank-one symmetric 2x2 form: a row of g with its
    diagonal entry, (g00, g01) or (g10, g11) = (g01, g11), as it is stored."""
    for i, row in enumerate(g.nz):
        if i in row:
            return row
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
        kern = {1 - j: -x if j else x for j, x in w1.items()}  # (-w1[1], w1[0])
        y0 = {0: ONE} if 0 in w1 else {1: ONE}
        f2 = _product(t, y0, y0)
        f3 = _product(t, y0, kern)
        if not f3 or _product(t, kern, kern):
            raise ClassificationError("internal error: double-root pencil structure")
        cols = [y0, f2, kern, f3]
    else:
        g2 = a.scale(s2) + b.scale(t2)
        # y0, y1 are the columns of [w1; w2]^-1, the rows of its transpose
        y0, y1 = inverse(ExactMatrix._of(2, 2, [_rank1_decompose(g1), _rank1_decompose(g2)])).transpose().nz
        f2 = _product(t, y0, y0)
        f4 = _product(t, y1, y1)
        if _product(t, y0, y1):
            raise ClassificationError("internal error: distinct-root pencil structure")
        cols = [y0, f2, y1, f4]
    # the move's columns are cols, the rows of its transpose
    return r.step(ExactMatrix._of(4, 4, cols).transpose()), True


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
        return _tail_move(t, s, r)
    if m == 4:
        leading = _leading_case(t, 3)
        if leading == "n3-case1":
            return _tail_move(t, s, r)
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
    unit = I if imaginary else ONE
    return ExactMatrix._of(n, n, [{0: ONE, 1: ONE}, {0: unit, 1: -unit}, {2: gr(2)},
                                  *({i: ONE} for i in range(3, n))])


# The fixed map that follows the congruence of an abelian window's tail, by its sign pattern
# (slots 0-1 at stage 3, 0-2 at stage 4); an all-zero tail needs none.  h^T diag(1, 1, -1) h is
# the (0,2)+(1,1) normal tail for the h of (1, 1, -1), and diag(1, 1, i) turns a third +1 into -1.
_HALF = ONE / gr(2)
_TAIL_MAPS = {
    (1, 0): lambda n: _perm_columns(n, [0, 2, 1, *range(3, n)]),
    (1, 1): lambda n: _complex_pair_map(n, imaginary=True),
    (1, -1): lambda n: _complex_pair_map(n, imaginary=False),
    (1, 1, -1): lambda n: ExactMatrix._of(4, 4, [{0: ONE, 2: _HALF}, {1: ONE}, {0: ONE, 2: -_HALF}, {3: ONE}]),
    (1, 1, 1): lambda n: ExactMatrix.diagonal([ONE, ONE, I, ONE]) @ _TAIL_MAPS[1, 1, -1](n),
    (1, 1, 0): lambda n: _perm_columns(n, [0, 1, 3, 2]) @ _complex_pair_map(n, imaginary=True),
    (1, -1, 0): lambda n: _perm_columns(n, [0, 1, 3, 2]) @ _complex_pair_map(n, imaginary=False),
    (1, 0, 0): lambda n: _perm_columns(n, [0, 3, 2, 1]),
}


def _tail_move(t: ExtensionTensor, s: int, r: _Reduction) -> ExtensionTensor:
    """Reduce slice ``s`` over an abelian window in one step: :func:`congruence_move`'s matrix
    times the fixed map of ``_TAIL_MAPS`` that its sign pattern (+1s first) calls for."""
    move = congruence_move(t, s)
    if move is None:
        raise ClassificationError("tail cannot be scaled to {0,+1,-1} entries over Q(i)")
    m, signs = move
    fixed = _TAIL_MAPS.get(tuple(signs))
    return r.step(m if fixed is None else m @ fixed(t.n))


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
        return r.step(ExactMatrix.diagonal([ONE, ONE, ONE, a]) @ _perm_columns(n, [0, 1, 3, 2]))
    if b:
        if d:
            # joins case 3b: x1 = -d u0 + b u2 and x3 = u2 have inert squares
            return r.step(ExactMatrix._of(4, 4, [{0: -d}, {1: d * d}, {0: b, 2: ONE}, {1: -d * b * b, 3: d}]))
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
    span = ExactMatrix.identity(n).nz
    dims: List[int] = []
    while True:
        # D_{k+1} is spanned by the nonzero rows of the RREF of all products of D_k's basis
        reduced, pivots = rref(ExactMatrix._of(len(span) ** 2, n, [_product(t, x, y) for x in span for y in span]))
        dims.append(len(pivots))
        if not pivots or (len(dims) >= 2 and dims[-1] == dims[-2]):
            break
        span = reduced.nz[:len(pivots)]
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

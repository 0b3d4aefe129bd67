"""Coordinate changes on extension tensors.

A basis change M acts on all three indices of an extension tensor:

    Wbar_b^{a c} = (M^-1)_b^lam  W_lam^{mu nu}  M_mu^a  M_nu^c

:func:`apply` implements this transformation law as three fused mode
products over the stored entries (one per index, zero factors skipped, no
intermediate matrices).  It relies on the upper-index symmetry that every
:class:`ExtensionTensor` carries and that the law preserves: only the upper
triangles are computed, then mirrored.  Validity of the bracket is preserved
by construction, so the result is built by the trusted ``ExtensionTensor._of``;
``apply(check=True)``, the default, still checks both laws on it.  On top of
it sit three normalizations:

* :func:`normalize_w0_to_identity` drives the first slice matrix to the
  identity by a scalar rescale followed by unit-lower-triangular moves that
  clear the entries W_lam^{00} one row at a time; the Jacobi identity then
  forces the whole slice to be the identity.
* :func:`remove_coboundary` subtracts a 2-coboundary from the trailing
  slices of a solvable tensor with an abelian tail, realized as the block
  matrix [[I, 0], [k, c I]] so validity is automatic.
* :func:`congruence_reduce_tail` diagonalizes a terminal cocycle by exact
  symmetric congruence and rescales its entries to {0, +1, -1}, ordered with
  the +1s first.

The classifier uses :func:`normalize_w0_to_identity` and
:func:`congruence_move` (the move behind :func:`congruence_reduce_tail`);
its coboundary moves are single-entry shears, shorter than going through
:func:`coboundary_change`.  :func:`remove_coboundary` and
:func:`congruence_reduce_tail` check their pre- and postconditions for
other callers, where the classifier relies on its final catalog replay.

Every normalization returns the witness :class:`BasisChange` so reductions
can be replayed and audited.
"""

from __future__ import annotations

from math import prod
from typing import List, Optional, Tuple

from .extension import ExtensionTensor, TensorError, _check_laws
from .linalg import BasisChange, ExactMatrix
from .scalars import (
    Fraction,
    GaussianRational,
    ONE,
    ZERO,
    gr,
    sqrt_fraction,
    sqrt_gaussian,
    square_free_part,
)

__all__ = [
    "BasisChange",
    "TransformError",
    "NotTriangular",
    "DegenerateEigenvalueMismatch",
    "ReductionObstruction",
    "apply",
    "normalize_w0_to_identity",
    "remove_coboundary",
    "coboundary_change",
    "congruence_reduce_tail",
    "congruence_move",
    "congruence_diagonalize",
]


class TransformError(TensorError):
    pass


class NotTriangular(TransformError):
    pass


class DegenerateEigenvalueMismatch(TransformError):
    pass


class ReductionObstruction(TransformError):
    """The tail cannot be scaled to {0, +1, -1} entries over Q(i)."""


def apply(t: ExtensionTensor, b: BasisChange, check: bool = True) -> ExtensionTensor:
    """Transform a tensor by a basis change (all three indices).

    The transformation law is evaluated as three mode products over the
    stored entries ``t.w`` and the entries of M and M^-1, each skipping zero
    factors and building no intermediate matrix:

        T1[b][mu][nu] = sum_lam (M^-1)[b][lam] W[lam][mu][nu]
        T2[b][a][nu]  = sum_mu  M[mu][a] T1[b][mu][nu]
        Wbar[b][a][g] = sum_nu  T2[b][a][nu] M[nu][g]

    Every extension tensor is symmetric in its upper indices and the law
    keeps it so, hence T1 and the result are computed for mu <= nu and
    a <= g only and mirrored.  ``check=False`` skips the check of both laws
    on the result for hot internal loops (the classifier's final bit-exact
    comparison against the catalog is the real gate there).
    """
    n = t.n
    if b.n != n:
        raise TransformError(f"basis change is {b.n}x{b.n} but tensor has {t.n} indices")
    m = b.matrix.entries
    m_inv = b.m_inv.entries
    span = range(n)
    # nonzero entries: columns and rows of M, upper triangle of each W_(lam)
    m_cols = [[(mu, m[mu * n + a]) for mu in span if m[mu * n + a]] for a in span]
    m_rows = [[(g, x) for g, x in enumerate(m[nu * n:nu * n + n]) if x] for nu in span]
    upper = [
        [((mu, nu), x) for mu, row in enumerate(plane) for nu, x in enumerate(row[mu:], mu) if x]
        for plane in t.w
    ]
    # T1, T2 and each output row are dicts of the entries a product touched;
    # only those are tested for zero, so exact cancellations are dropped
    w = []
    for beta in span:
        t1 = {}
        for lam, c in enumerate(m_inv[beta * n:beta * n + n]):
            if c:
                for key, x in upper[lam]:
                    y = t1.get(key)
                    t1[key] = c * x if y is None else y + c * x
        t1_rows = [[] for _ in span]
        for (mu, nu), x in t1.items():
            if x:
                t1_rows[mu].append((nu, x))
                if nu != mu:
                    t1_rows[nu].append((mu, x))
        plane = [[ZERO] * n for _ in span]
        for a in span:
            t2 = {}
            for mu, c in m_cols[a]:
                for nu, x in t1_rows[mu]:
                    y = t2.get(nu)
                    t2[nu] = c * x if y is None else y + c * x
            row = {}
            for nu, x in t2.items():
                if x:
                    for g, c in m_rows[nu]:
                        if g >= a:
                            y = row.get(g)
                            row[g] = x * c if y is None else y + x * c
            for g, y in row.items():
                if y:
                    plane[a][g] = plane[g][a] = y
        w.append(tuple(tuple(r) for r in plane))
    w = tuple(w)
    if check:
        _check_laws(w)
    return ExtensionTensor._of(n, t.semidirect, w)


def apply_chain(t: ExtensionTensor, chain: List[BasisChange], check: bool = True) -> ExtensionTensor:
    """Replay a witness chain in application order."""
    for b in chain:
        t = apply(t, b, check=check)
    return t


# ---------------------------------------------------------------------------
# W^(0) -> identity  (semidirect normalization)
# ---------------------------------------------------------------------------

def normalize_w0_to_identity(t: ExtensionTensor) -> Tuple[ExtensionTensor, BasisChange]:
    """Make the first slice matrix exactly the identity.

    Requires a lower-triangular tensor whose first slice has a single
    nonzero eigenvalue (read off the diagonal).  The eigenvalue is scaled to
    one, then unit-lower-triangular moves clear W_lam^{00} for lam > 0 in
    increasing order; the induction from the Jacobi identity then gives
    W^(0) = I exactly, which is asserted.
    """
    n = t.n
    if not t.is_lower_triangular():
        raise NotTriangular("tensor slices are not lower-triangular")
    diag = t.slice_diagonal(0)
    if any(d != diag[0] for d in diag):
        raise DegenerateEigenvalueMismatch("first slice eigenvalues are not all equal")
    ev = diag[0]
    if not ev:
        raise DegenerateEigenvalueMismatch("first slice eigenvalue vanishes")
    # the witness is the product of the moves, inverted once; the moves are
    # invertible changes of a certified tensor, applied unchecked
    total = ExactMatrix.identity(n)
    if not ev.is_one():
        total = ExactMatrix.identity(n).scale(ONE / ev)
        t = apply(t, BasisChange(total), check=False)
    for lam in range(1, n):
        a = t.entry(lam, 0, 0)
        if a:
            m = ExactMatrix.identity(n).with_entry(lam, 0, -a)
            t = apply(t, BasisChange(m), check=False)
            total = total @ m
    if not t.slice_is_identity(0):
        raise TransformError("internal error: W^(0) normalization did not reach the identity")
    return ExtensionTensor._of(n, True, t.w), BasisChange(total)


# ---------------------------------------------------------------------------
# Coboundary removal
# ---------------------------------------------------------------------------

def coboundary_change(n: int, k: ExactMatrix, scale=ONE) -> BasisChange:
    """The block matrix [[I, 0], [k, c I]] as a BasisChange.

    ``k`` has one row per tail slot and one column per head slot, so the
    split point is recovered from its shape.
    """
    head = k.cols
    tail = k.rows
    if head + tail != n:
        raise TransformError(f"coefficient matrix {tail}x{head} does not split {n} indices")
    scale = scale if isinstance(scale, GaussianRational) else gr(scale)
    rows = []
    for i in range(head):
        rows.append([ONE if j == i else ZERO for j in range(n)])
    for i in range(tail):
        row = [k[i, j] for j in range(head)]
        row += [scale if j == i else ZERO for j in range(tail)]
        rows.append(row)
    return BasisChange(ExactMatrix.from_rows(rows))


def remove_coboundary(t: ExtensionTensor, k: ExactMatrix, scale=ONE) -> ExtensionTensor:
    """Subtract the 2-coboundary generated by ``k`` from the trailing slices.

    Precondition: ``t`` is lower-triangular solvable and the slots past the
    split point form an abelian tail (the lower-right block of every
    trailing slice vanishes).  Head slices are unchanged; trailing slices
    lose the coboundary and pick up the optional factor 1/c.
    """
    head = k.cols
    if not t.is_solvable():
        raise TransformError("coboundary removal needs a solvable lower-triangular tensor")
    for lam in range(t.n):
        for mu in range(head, t.n):
            for nu in range(head, t.n):
                if t.entry(lam, mu, nu):
                    raise TransformError(
                        f"tail is not abelian: W[{lam}][{mu}][{nu}] != 0"
                    )
    out = apply(t, coboundary_change(t.n, k, scale))
    for lam in range(head):
        if out.slice_lower(lam) != t.slice_lower(lam):
            raise TransformError("internal error: coboundary removal changed a head slice")
    return out


# ---------------------------------------------------------------------------
# Congruence reduction of a terminal cocycle
# ---------------------------------------------------------------------------

def congruence_diagonalize(w: ExactMatrix) -> Tuple[ExactMatrix, List[GaussianRational]]:
    """Invertible C with C^T w C diagonal, by symmetric Gaussian elimination.

    When no diagonal pivot is available a hyperbolic pair is folded onto the
    diagonal first (column i += column j doubles the off-diagonal entry into
    position (i, i)).  Ties are broken by the smallest pivot index.
    """
    if not w.is_symmetric():
        raise TransformError("congruence reduction needs a symmetric matrix")
    k = w.rows
    a = [[w[i, j] for j in range(k)] for i in range(k)]
    c = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]

    def col_op(i, j, f):
        # column_i += f * column_j, congruently (rows too), tracked in c
        for r in range(k):
            c[r][i] = c[r][i] + f * c[r][j]
        for r in range(k):
            a[r][i] = a[r][i] + f * a[r][j]
        for r in range(k):
            a[i][r] = a[i][r] + f * a[j][r]

    def swap(i, j):
        for r in range(k):
            c[r][i], c[r][j] = c[r][j], c[r][i]
        for r in range(k):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for p in range(k):
        if not a[p][p]:
            pivot = next((i for i in range(p, k) if a[i][i]), None)
            if pivot is not None:
                if pivot != p:
                    swap(p, pivot)
            else:
                pair = next(
                    ((i, j) for i in range(p, k) for j in range(i + 1, k) if a[i][j]),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                col_op(i, j, ONE)
                if i != p:
                    swap(p, i)
        if not a[p][p]:
            continue
        for i in range(p + 1, k):
            if a[i][p]:
                col_op(i, p, -a[i][p] / a[p][p])
    cm = ExactMatrix.from_rows(c)
    diag = [a[i][i] for i in range(k)]
    return cm, diag


def _normalize_diagonal(diag: List[GaussianRational]) -> Optional[Tuple[List[GaussianRational], List[int], GaussianRational]]:
    """Column scalings and sign pattern turning diag into {0, +1, -1} / c.

    Returns (scalings t_i, signs, c) with t_i^2 * d_i / c = signs_i, or None
    when no admissible global factor exists over Q(i).  Real diagonals use
    real scalings so the classical signature survives; the overall sign of c
    is chosen to put at least as many +1s as -1s.
    """
    nonzero = [(i, d) for i, d in enumerate(diag) if d]
    if not nonzero:
        return [ONE] * len(diag), [0] * len(diag), ONE
    all_real = all(d.is_real() for _, d in nonzero)
    if all_real:
        for _, cand in nonzero:
            for c in (cand, -cand):
                if c.re < 0:
                    continue
                ok = True
                ts: List[GaussianRational] = [ONE] * len(diag)
                signs = [0] * len(diag)
                for i, d in nonzero:
                    ratio = abs(c.re) / abs(d.re)
                    root = sqrt_fraction(ratio)
                    if root is None:
                        ok = False
                        break
                    ts[i] = gr(root)
                    signs[i] = 1 if (d.re > 0) == (c.re > 0) else -1
                if ok:
                    pos = sum(1 for s in signs if s == 1)
                    neg = sum(1 for s in signs if s == -1)
                    if neg > pos:
                        c, signs = -c, [-s for s in signs]
                    return ts, signs, c
    for _, c in nonzero:
        ok = True
        ts = [ONE] * len(diag)
        signs = [0] * len(diag)
        for i, d in nonzero:
            root = sqrt_gaussian(c / d)
            if root is None:
                ok = False
                break
            ts[i] = root
            signs[i] = 1
        if ok:
            return ts, signs, c
    return None


def _conic_point(a: GaussianRational, b: GaussianRational, v: GaussianRational):
    """A point (x, y), x != 0, on a x^2 + b y^2 = v over Q(i).

    Real hyperbolic pairs and same-class pairs have direct constructions (a
    sum of two squares represents everything in Q(i)); anything else goes
    through the Lagrange descent in :mod:`liepoisson.conics`.  Returns None
    when the conic has no rational point.
    """
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
        x = (z + ONE) / gr(2)
        if not x:
            return gr(0, 1), ZERO
        y = (z - ONE) / gr(0, 2)
        return x, y / s
    from .conics import represent_binary

    pt = represent_binary(a, b, v)
    if pt is None or not pt[0]:
        return None
    return pt


def congruence_normalize(block: ExactMatrix):
    """Congruence C with C^T block C = c * diag(signs), entries in {0,+1,-1}.

    Diagonalizes by symmetric elimination, then repairs square-class
    mismatches among the diagonal entries: the congruence move on a zero-
    coupled pair (d_i, d_j) -> (v, x^2 d_i d_j / v), with (x, y) a rational
    point on d_i x^2 + d_j y^2 = v, walks every entry into one class tau
    whenever the discriminant class permits it.  Finally the columns are
    rescaled and ordered with the +1s first.  Returns (C, signs, c), or
    None when the tail is not reachable over Q(i).
    """
    cm, diag = congruence_diagonalize(block)
    k = block.rows
    cols = [list(cm.col(j)) for j in range(k)]
    for i in range(k):
        if diag[i]:
            rep, s = square_free_part(diag[i])
            if not s.is_one():
                inv = ONE / s
                cols[i] = [x * inv for x in cols[i]]
                diag[i] = rep

    def pair_op(i, j, x, y, v):
        # f_i = x c_i + y c_j ; f_j = c_j - (y d_j / v) f_i
        ci, cj = cols[i], cols[j]
        f = [x * p + y * q for p, q in zip(ci, cj)]
        coef = y * diag[j] / v
        g = [wq - coef * fp for wq, fp in zip(cj, f)]
        cols[i], cols[j] = f, g
        dj = x * x * diag[i] * diag[j] / v
        diag[i], diag[j] = v, dj

    def snapshot():
        return [list(c) for c in cols], list(diag)

    def restore(state):
        saved_cols, saved_diag = state
        for idx in range(k):
            cols[idx] = list(saved_cols[idx])
            diag[idx] = saved_diag[idx]

    if _normalize_diagonal(diag) is None and not _repair_classes(
        diag, pair_op, snapshot, restore
    ):
        return None
    norm = _normalize_diagonal(diag)
    if norm is None:
        return None
    ts, signs, c = norm
    scaled = [[cols[j][r] * ts[j] for j in range(k)] for r in range(k)]
    order = (
        [i for i, s in enumerate(signs) if s == 1]
        + [i for i, s in enumerate(signs) if s == -1]
        + [i for i, s in enumerate(signs) if s == 0]
    )
    final = ExactMatrix.from_rows(
        [[scaled[r][order[j]] for j in range(k)] for r in range(k)]
    )
    ordered_signs = sorted(signs, key=lambda s: (s != 1, s != -1))
    return final, ordered_signs, c


def _repair_classes(diag, pair_op, snapshot, restore) -> bool:
    """Unify the square classes of the nonzero diagonal entries.

    Same-class pairs are moved together into the target class by the
    constructive conic point (their ratio is a square, so the conic is a
    sum of two squares, which is universal over Q(i)).  Leftover singletons
    from odd groups are merged chainwise with a grid search.
    """
    nonzero = [i for i, d in enumerate(diag) if d]
    if len(nonzero) < 2:
        return False
    disc = prod((diag[i] for i in nonzero), start=ONE)
    disc_rep, _ = square_free_part(disc)
    if len(nonzero) % 2:
        taus = [disc_rep]
    else:
        if sqrt_gaussian(disc) is None:
            return False
        taus = []
        for i in nonzero:
            rep, _ = square_free_part(diag[i])
            for u in (rep, -rep):
                if u.re > 0 or (u.re == 0 and u.im > 0):
                    rep = u
            if not any(sqrt_gaussian(rep / t) is not None for t in taus):
                taus.append(rep)
    for tau in taus:
        state = snapshot()
        if _execute_repair(diag, pair_op, nonzero, tau):
            return True
        restore(state)
    return False


def _execute_repair(diag, pair_op, nonzero, tau) -> bool:
    def is_tau(d):
        return sqrt_gaussian(d / tau) is not None or sqrt_gaussian(-d / tau) is not None

    for _ in range(2 * len(nonzero) + 2):
        wrong = [i for i in nonzero if not is_tau(diag[i])]
        if not wrong:
            return True
        # same-class pair: constructive
        done = False
        for a_pos in range(len(wrong)):
            for b_pos in range(a_pos + 1, len(wrong)):
                i, j = wrong[a_pos], wrong[b_pos]
                ratio_sq = sqrt_gaussian(diag[j] / diag[i]) is not None or \
                    sqrt_gaussian(-diag[j] / diag[i]) is not None
                if not ratio_sq:
                    continue
                for v in (tau, -tau):
                    pt = _conic_point(diag[i], diag[j], v)
                    if pt is not None and pt[0]:
                        pair_op(i, j, pt[0], pt[1], v)
                        done = True
                        break
                if done:
                    break
            if done:
                break
        if done:
            continue
        # merge two distinct wrong classes; the partner lands in tau
        if len(wrong) >= 2:
            i, j = wrong[0], wrong[1]
            target, _ = square_free_part(diag[i] * diag[j] * tau)
            moved = False
            for v in (target, -target):
                pt = _conic_point(diag[i], diag[j], v)
                if pt is not None and pt[0]:
                    pair_op(i, j, pt[0], pt[1], v)
                    moved = True
                    break
            if moved:
                continue
        return False
    return False


def congruence_move(t: ExtensionTensor, s: int) -> Optional[Tuple[ExactMatrix, List[int]]]:
    """Move diag(C, c, 1, ...) reducing the leading s x s block of slice ``s``.

    C, c and the returned signs come from :func:`congruence_normalize`;
    returns None when the block is not reachable over Q(i).
    """
    n = t.n
    block = t.slice_lower(s).submatrix(range(s), range(s))
    norm = congruence_normalize(block)
    if norm is None:
        return None
    blk, signs, c = norm
    rows = []
    for i in range(n):
        if i < s:
            rows.append(list(blk.row(i)) + [ZERO] * (n - s))
        else:
            rows.append([ZERO] * i + [c if i == s else ONE] + [ZERO] * (n - i - 1))
    return ExactMatrix.from_rows(rows), signs


def congruence_reduce_tail(t: ExtensionTensor) -> Tuple[ExtensionTensor, BasisChange]:
    """Diagonalize the last slice of a terminal-cocycle tensor.

    Precondition: all slices vanish except the last, which is symmetric with
    a zero final row and column.  The result has last slice diag with
    entries in {0, +1, -1}, +1s first, then -1s, then 0s; the free factor c
    lands on the last slot of the returned witness.
    """
    n = t.n
    last = n - 1
    if t.semidirect:
        raise TransformError("congruence reduction applies to solvable tensors")
    for lam in range(last):
        if not t.slice_lower(lam).is_zero():
            raise TransformError("all slices before the last must vanish")
    wmat = t.slice_lower(last)
    if any(wmat[last, j] or wmat[j, last] for j in range(n)):
        raise TransformError("last slice must have zero final row and column")
    move = congruence_move(t, last)
    if move is None:
        raise ReductionObstruction(
            "tail diagonal cannot be scaled to {0,+1,-1} over Q(i)"
        )
    cmat, signs = move
    witness = BasisChange(cmat)
    out = apply(t, witness)
    pos = sum(1 for s in signs if s == 1)
    neg = sum(1 for s in signs if s == -1)
    want = ExactMatrix.diagonal([ONE] * pos + [-ONE] * neg + [ZERO] * (n - pos - neg))
    if out.slice_lower(last) != want:
        raise TransformError("internal error: congruence reduction postcondition failed")
    return out, witness

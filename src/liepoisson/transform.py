"""Coordinate changes on extension tensors.

A basis change M acts on all three indices of an extension tensor:

    Wbar_b^{a c} = (M^-1)_b^lam  W_lam^{mu nu}  M_mu^a  M_nu^c

:func:`apply` implements this transformation law over the tensor's stored
sparse rows and writes the output rows directly; it never reads the dense
view ``ExtensionTensor.w``.  Most witness steps are of two kinds, which it
applies in closed form without M^-1 (see :class:`BasisChange`): a diagonal
M scales each stored entry, and a unit shear I + c E_ij adds multiples of
one slice, row and column to another.  Every other M goes through three
fused mode products (one per index, zero factors skipped, no intermediate
matrices).  All paths rely on the upper-index symmetry that every
:class:`ExtensionTensor` carries and that the law preserves: only the
upper triangles are computed, then mirrored.
Validity of the bracket is preserved by construction, so the result is
built by the trusted ``ExtensionTensor._of`` and is not checked again.  No
flag is passed along: the slice traces move by M^T, so the result is
semidirect exactly when the input is, as read off its entries.  On top of
it sit two normalizations, each of which returns the matrix of its move
and leaves applying it to the caller:

* :func:`normalize_w0_to_identity` drives the first slice matrix to the
  identity by the unit split M = [u | basis of ker phi]: u is the unit of
  the product the tensor defines, a finite Neumann sum, and phi(x) = tr L_x
  is the row of slice traces, whose kernel needs no row reduction.  It
  takes a tensor in any basis, and returns None when it has no single block.
* :func:`congruence_move` diagonalizes the leading block of a slice by exact
  symmetric congruence and rescales its entries to {0, +1, -1}, ordered with
  the +1s first.  Entries in different square classes are first moved into
  one class by pair moves whose conic points come from
  :func:`liepoisson.conics.represent_binary`, imported by the first such
  repair, so a classify that needs none never loads the conic solver;
  since -1 = i^2 is a square over Q(i), d and -d are in the same class.

The classifier uses both.  Its coboundary moves are single-entry shears,
except stage 4 case 4's I + p E_31 + q E_32, a general step when p and q
are both nonzero.  A congruence move and the fixed map that its sign
pattern calls for are multiplied into one move.  The classifier records
each move as one :class:`BasisChange` witness step and moves the tensor by
:func:`apply`, so reductions can be replayed and audited.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .extension import ExtensionTensor, TensorError
from .linalg import BasisChange, ExactMatrix
from .scalars import GaussianRational, ONE, ZERO, gr, sqrt_gaussian, square_class_of_product, square_part

__all__ = [
    "BasisChange",
    "TransformError",
    "apply",
    "normalize_w0_to_identity",
    "congruence_move",
    "congruence_diagonalize",
]


class TransformError(TensorError):
    pass


def apply(t: ExtensionTensor, b: BasisChange) -> ExtensionTensor:
    """Transform a tensor by a basis change (all three indices).

    Two kinds of step, read off M once by :class:`BasisChange`, have closed
    forms that touch only the stored entries and never build M^-1:

    * diagonal, M = diag(d): Wbar_b^{ag} = W_b^{ag} d_a d_g / d_b
      (:func:`_apply_diagonal`);
    * unit shear, M = I + c E_ij: slice i -= c slice j, then row and column
      j += c (row and column i) in each plane, plus c^2 X_ii on (j, j)
      (:func:`_apply_shear`).

    Any other M is evaluated as three mode products over the stored rows
    of the tensor and the stored nonzero rows of M and M^-1, each skipping
    zero factors and building no intermediate matrix:

        T1[b][mu][nu] = sum_lam (M^-1)[b][lam] W[lam][mu][nu]
        T2[b][a][nu]  = sum_mu  M[mu][a] T1[b][mu][nu]
        Wbar[b][a][g] = sum_nu  T2[b][a][nu] M[nu][g]

    Every extension tensor is symmetric in its upper indices and the law
    keeps it so, hence T1 and the result are computed for mu <= nu and
    a <= g only and mirrored: each nonzero output entry is written into
    both of its output rows.  On every path exact cancellations are
    dropped.  An invertible change of a certified tensor satisfies both
    laws, so the result is not checked again.
    """
    n = t.n
    if b.n != n:
        raise TransformError(f"basis change is {b.n}x{b.n} but tensor has {t.n} indices")
    if b.kind == "diagonal":
        return _apply_diagonal(t, b.m.nz)
    if b.kind == "shear":
        return _apply_shear(t, b.m.nz)
    m_rows = b.m.nz
    m_inv = b.m_inv.nz
    span = range(n)
    # nonzero entries of the upper triangle of each W_(lam)
    upper = [
        [((mu, nu), x) for mu, row in enumerate(plane) if row for nu, x in row.items() if nu >= mu]
        for plane in t.nz
    ]
    # T1, T2 and each output row are dicts of the entries a product touched;
    # only those are tested for zero, so exact cancellations are dropped
    out = []
    for beta in span:
        t1 = {}
        for lam, c in m_inv[beta].items():
            for key, x in upper[lam]:
                y = t1.get(key)
                t1[key] = c * x if y is None else y + c * x
        # T2 row a gathers M[mu][a] T1[mu][nu] from row mu of M, for both mirrored T1 entries
        t2 = {}
        for (mu, nu), x in t1.items():
            if x:
                for p, q in ((mu, nu), (nu, mu)) if nu != mu else ((mu, nu),):
                    for a, c in m_rows[p].items():
                        r = t2.get(a)
                        if r is None:
                            t2[a] = {q: c * x}
                        else:
                            y = r.get(q)
                            r[q] = c * x if y is None else y + c * x
        plane = [{} for _ in span]
        for a, r in t2.items():
            row = {}
            for nu, x in r.items():
                if x:
                    for g, c in m_rows[nu].items():
                        if g >= a:
                            y = row.get(g)
                            row[g] = x * c if y is None else y + x * c
            for g, y in row.items():
                if y:
                    plane[a][g] = plane[g][a] = y
        out.append(plane)
    return ExtensionTensor._of(n, out)


def _apply_diagonal(t: ExtensionTensor, m_rows: tuple) -> ExtensionTensor:
    """M = diag(d): Wbar_b^{ag} = W_b^{ag} d_a d_g (1/d_b), over the stored upper triangle, mirrored.

    A factor of one is skipped, and 1/d is formed only where d is not one.
    No product of nonzeros is zero, so the pattern is the input's.
    """
    scale = [None if (x := row[a]).is_one() else x for a, row in enumerate(m_rows)]
    inv = [None if x is None else ONE / x for x in scale]
    out = []
    for beta, plane in enumerate(t.nz):
        f = inv[beta]
        rows = [{} for _ in plane]
        for a, row in enumerate(plane):
            da = scale[a]
            for g, x in row.items():
                if g >= a:
                    if da is not None:
                        x = x * da
                    if scale[g] is not None:
                        x = x * scale[g]
                    if f is not None:
                        x = x * f
                    rows[a][g] = rows[g][a] = x
        out.append(rows)
    return ExtensionTensor._of(t.n, out)


def _apply_shear(t: ExtensionTensor, m_rows: tuple) -> ExtensionTensor:
    """M = I + c E_ij, read off the one row of ``m_rows`` with two entries.

    Row i of M^-1 is e_i - c e_j, so slice i -= c slice j (upper triangle,
    mirrored).  Then M^T X M adds c (row i) to row j and c (column i) to
    column j of every plane X, and c^2 X_ii to (j, j); a plane whose row i
    is empty is kept as it is.  Entries that cancel are dropped.  Rows that
    change are copies: the input's rows are never written.
    """
    i = next(k for k, row in enumerate(m_rows) if len(row) == 2)
    j, c = next((k, x) for k, x in m_rows[i].items() if k != i)
    planes = list(t.nz)
    if any(planes[j]):
        nc = -c
        plane = [dict(row) for row in planes[i]]
        for a, row in enumerate(planes[j]):
            for g, x in row.items():
                if g >= a:
                    y = plane[a].get(g)
                    z = nc * x if y is None else y + nc * x
                    if z:
                        plane[a][g] = plane[g][a] = z
                    else:
                        del plane[a][g]
                        plane[g].pop(a, None)
        planes[i] = plane
    for lam, plane in enumerate(planes):
        if not plane[i]:
            continue
        add = {g: c * x for g, x in plane[i].items()}
        y = add.get(j)
        if y is not None:
            add[j] = y + y  # c X_ij + c X_ji
        if i in add:
            y, z = c * add[i], add.get(j)  # c^2 X_ii
            add[j] = y if z is None else z + y
        plane = list(plane)
        rj = plane[j] = dict(plane[j])
        for g, y in add.items():
            z = rj.get(g)
            z = y if z is None else z + y
            rg = rj if g == j else dict(plane[g])
            plane[g] = rg
            if z:
                rj[g] = rg[j] = z
            else:
                rj.pop(g, None)
                rg.pop(j, None)
        planes[lam] = plane
    return ExtensionTensor._of(t.n, planes)


def apply_chain(t: ExtensionTensor, chain: List[BasisChange]) -> ExtensionTensor:
    """Replay a witness chain in application order."""
    for b in chain:
        t = apply(t, b)
    return t


# ---------------------------------------------------------------------------
# W^(0) -> identity: the unit split of a semidirect tensor
# ---------------------------------------------------------------------------

def normalize_w0_to_identity(t: ExtensionTensor) -> Optional[ExactMatrix]:
    """The unit split M = [u | basis of ker phi], which makes W^(0) the identity, or None.

    u is the unit of the product e_mu e_nu = sum_lam W_lam^{mu nu} e_lam and
    phi(x) = tr L_x the row of slice traces; the tensor may be in any basis.
    With p the first index where phi_p != 0 and e = phi_p / n, a single block
    has W^(p) = e (I + N), N nilpotent, so u = (1/e) sum_k (-N)^k e_p is a
    finite sum; the other columns e_f - (phi_f / phi_p) e_p, f != p, span
    ker phi without a row reduction.  None means phi = 0, a sum that has not
    ended after n terms, or phi(u) = 0 (M singular): no single block.  The
    caller checks that the moved tensor is one.
    """
    n = t.n
    phi = t.slice_traces()
    p = next((nu for nu, x in enumerate(phi) if x), None)
    if p is None:
        return None
    c = gr(n) / phi[p]
    u: Dict[int, GaussianRational] = {}
    term = {p: c}
    for _ in range(n + 1):
        if not term:
            break
        for mu, x in term.items():
            u[mu] = u.get(mu, ZERO) + x
        # -N term = term - c W^(p) term, and row lam of W^(p) is the stored row (lam, p)
        wp = [sum((x * term[mu] for mu, x in plane[p].items() if mu in term), ZERO) for plane in t.nz]
        term = {lam: z for lam, y in enumerate(wp) if (z := term.get(lam, ZERO) - c * y)}
    else:
        return None
    if not sum((phi[mu] * x for mu, x in u.items()), ZERO):
        return None
    rows = [{0: x} if (x := u.get(mu)) else {} for mu in range(n)]
    for j, f in enumerate((f for f in range(n) if f != p), 1):
        rows[f][j] = ONE
        if phi[f]:
            rows[p][j] = -phi[f] / phi[p]
    return ExactMatrix._of(n, n, rows)


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
    a = [list(w.row(i)) for i in range(k)]
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
                swap(p, i)
        for i in range(p + 1, k):
            if a[i][p]:
                col_op(i, p, -a[i][p] / a[p][p])
    cm = ExactMatrix._of(k, k, [{j: x for j, x in enumerate(row) if x} for row in c])
    diag = [a[i][i] for i in range(k)]
    return cm, diag


def _normalize_diagonal(diag: List[GaussianRational]) -> Optional[Tuple[List[GaussianRational], List[int], GaussianRational]]:
    """Column scalings and sign pattern turning diag into {0, +1, -1} / c.

    Returns (scalings t_i, signs, c) with t_i^2 * d_i / c = signs_i, or None
    when no admissible global factor exists over Q(i).  The first nonzero
    entry serves as c: an admissible c puts every entry in its square
    class, and square classes partition the entries, so when the first
    entry fails every other entry fails too.  Real diagonals use c > 0 and
    real scalings so the classical signature survives, and the overall
    sign of c is chosen to put at least as many +1s as -1s; other
    diagonals scale every entry to +1.  A real diagonal has a real
    solution whenever it has a complex one.
    """
    nonzero = [(i, d) for i, d in enumerate(diag) if d]
    if not nonzero:
        return [ONE] * len(diag), [0] * len(diag), ONE
    real = all(d.is_real() for _, d in nonzero)
    c = nonzero[0][1]
    if real and c._a < 0:
        c = -c
    ts: List[GaussianRational] = [ONE] * len(diag)
    signs = [0] * len(diag)
    for i, d in nonzero:
        signs[i] = -1 if real and d._a < 0 else 1
        root = sqrt_gaussian(c / d if signs[i] == 1 else -c / d)
        if root is None:
            return None
        ts[i] = root
    if signs.count(-1) > signs.count(1):
        c, signs = -c, [-s for s in signs]
    return ts, signs, c


def congruence_normalize(block: ExactMatrix):
    """Congruence C with C^T block C = c * diag(signs), entries in {0,+1,-1}.

    Diagonalizes by symmetric elimination and divides each diagonal entry
    by the squares that :func:`square_part` finds below 2^16, then repairs
    square-class mismatches among the entries, comparing entries by the
    square roots of their ratios and taking the class of a product from its
    factors (:func:`_repair_classes`):
    the congruence move on a zero-coupled pair (d_i, d_j) -> (v, x^2 d_i d_j / v),
    with (x, y) a rational point on d_i x^2 + d_j y^2 = v, walks every entry
    into one class tau whenever the discriminant class permits it.  Finally
    the columns are rescaled and ordered with the +1s first.  Returns
    (C, signs, c), or None when the tail is not reachable over Q(i).
    """
    cm, diag = congruence_diagonalize(block)
    k = block.rows
    cols = [list(cm.col(j)) for j in range(k)]
    for i in range(k):
        if diag[i]:
            rep, s = square_part(diag[i])
            if not s.is_one():
                inv = ONE / s
                cols[i] = [x * inv for x in cols[i]]
                diag[i] = rep
    norm = _normalize_diagonal(diag)
    if norm is None:
        repaired = _repair_classes(cols, diag)
        if repaired is None:
            return None
        # every nonzero entry is in one class now, so the first one serves as c
        cols, diag = repaired
        norm = _normalize_diagonal(diag)
    ts, signs, c = norm
    order = sorted(range(k), key=lambda j: (signs[j] != 1, signs[j] != -1))
    final = ExactMatrix._of(k, k, [{pos: cols[j][r] * ts[j] for pos, j in enumerate(order) if cols[j][r]}
                                   for r in range(k)])
    return final, [signs[j] for j in order], c


def _pair_move(cols, diag, i, j, values) -> bool:
    """Move entry i into the first class v of ``values`` whose conic has a point.

    With (x, y), x != 0, on d_i x^2 + d_j y^2 = v, the columns become
    f_i = x c_i + y c_j and f_j = c_j - (y d_j / v) f_i, and the entries
    (v, x^2 d_i d_j / v).  Columns are replaced, never changed in place, so
    a shallow copy of ``cols`` is a snapshot.  Returns False, changing
    nothing, when no v has such a point.
    """
    from .conics import represent_binary  # the conic solver loads with the first repair

    for v in values:
        pt = represent_binary(diag[i], diag[j], v)
        if pt is not None and pt[0]:
            x, y = pt
            f = [x * p + y * q for p, q in zip(cols[i], cols[j])]
            coef = y * diag[j] / v
            cols[i], cols[j] = f, [q - coef * p for q, p in zip(cols[j], f)]
            diag[i], diag[j] = v, x * x * diag[i] * diag[j] / v
            return True
    return False


def _repair_classes(cols, diag):
    """Unify the square classes of the nonzero diagonal entries.

    Each candidate class tau is tried on copies of ``cols`` and ``diag``;
    returns the repaired pair, or None when no candidate succeeds.  Same-
    class pairs are moved together into the target class (their ratio is a
    square, so the conic is a sum of two squares, which is universal over
    Q(i)).  Leftover singletons from odd groups are merged pairwise.

    The discriminant's class, and a merge's target class, are those of a
    product, taken by :func:`square_class_of_product` from the entries, so
    a large prime that two entries share, as in (-1, p i, p i), is never
    factored.  An even count of entries needs a square discriminant, whose
    class is +-1; its candidates are then the first entry of each class,
    compared by :func:`sqrt_gaussian` of their ratio, so no entry is
    factored.
    """
    nonzero = [i for i, d in enumerate(diag) if d]
    disc_rep = square_class_of_product(diag[i] for i in nonzero)
    if len(nonzero) % 2:
        taus = [disc_rep]
    else:
        if disc_rep not in (ONE, -ONE):
            return None
        taus = []
        for i in nonzero:
            if not any(sqrt_gaussian(diag[i] / t) is not None for t in taus):
                taus.append(diag[i])
    for tau in taus:
        trial_cols, trial_diag = list(cols), list(diag)
        if _execute_repair(trial_cols, trial_diag, nonzero, tau):
            return trial_cols, trial_diag
    return None


def _execute_repair(cols, diag, nonzero, tau) -> bool:
    # over Q(i) -d is a square exactly when d is (-1 = i^2), so one test decides a class.
    # Each pass that does not return moves at least one wrong entry into tau (a same-class
    # pair moves both, a merge moves its partner), so the loop ends.
    while True:
        wrong = [i for i in nonzero if sqrt_gaussian(diag[i] / tau) is None]
        if not wrong:
            return True
        # a same-class pair: its ratio is a square, so its conic is isotropic
        same = (
            (i, j)
            for pos, i in enumerate(wrong)
            for j in wrong[pos + 1:]
            if sqrt_gaussian(diag[j] / diag[i]) is not None
        )
        if any(_pair_move(cols, diag, i, j, (tau, -tau)) for i, j in same):
            continue
        # merge two distinct wrong classes; the partner lands in tau
        if len(wrong) >= 2:
            i, j = wrong[0], wrong[1]
            target = square_class_of_product((diag[i], diag[j], tau))
            if _pair_move(cols, diag, i, j, (target, -target)):
                continue
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
    return ExactMatrix._of(n, n, [*blk.nz, {s: c}, *({i: ONE} for i in range(s + 1, n))]), signs

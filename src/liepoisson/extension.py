"""Extension tensors: the 3-tensor defining a Lie bracket on n-tuples.

A bracket on n-tuples of a base Lie algebra is fixed by constants W with one
lower and two upper indices: [alpha, beta]_lam = W_lam^{mu nu} [alpha_mu,
beta_nu].  It is a Lie bracket exactly when

* W is symmetric in its upper indices, and
* the slice matrices W^(nu), defined by [W^(nu)]_lam^mu = W_lam^{mu nu},
  pairwise commute.

A tensor is certified once, at a public door, and trusted from then on.  The
doors are the constructor ``ExtensionTensor(n, w)``,
:func:`validate` on a raw array, :meth:`ExtensionTensor.from_json` and
:func:`from_lower_slices`: each freezes the entries to Q(i) scalars, rejects
anything but an n-cube with n >= 1, and checks both laws.  Tensors built
where the laws hold by construction go through the trusted
``ExtensionTensor._of``, which takes stored rows and checks nothing: the
named constructors below (Leibniz extensions, compressible reduced MHD,
abelian and pure-semidirect tensors), direct sums of certified operands,
:func:`append_semisimple` (the one writer of W^(0) = I, which every
semidirect constructor but the one-field ``pure_semidirect(0)`` calls) and
:func:`strip_semisimple`, the classifier's catalog, and ``transform.apply``
and ``transform.normalize_w0_to_identity`` on a certified tensor.
:func:`validate` returns a tensor in hand as it is.

A tensor is stored as sparse rows, the way :class:`linalg.ExactMatrix`
stores a matrix: ``nz[lam][mu]`` is one ``{nu: value}`` dict of the nonzero
entries of row (lam, mu), kept as given.  Both entries of each symmetric
pair (mu, nu) and (nu, mu) are stored, so every row is complete on its own.
The dense cube ``w`` is a read-only view, built on each read; the slices,
predicates, equality and ``transform.apply`` read the rows.  Row lam of a
tensor is row for row the symmetric matrix W_(lam), which
:meth:`ExtensionTensor.slice_lower` hands over with no copy.

Index convention: storage is always 0-based.  A semidirect tensor in normal
form uses slot 0 as the semisimple direction (printed labels 0..n); a
solvable tensor's storage slots 0..n-1 carry printed labels 1..n.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import ExactMatrix, noncommuting_pair
from .scalars import GaussianRational, ONE, ZERO, as_scalar


class TensorError(Exception):
    pass


class SymmetryViolation(TensorError):
    """Upper-index symmetry W_lam^{mu nu} = W_lam^{nu mu} fails."""

    def __init__(self, lam: int, mu: int, nu: int):
        self.indices = (lam, mu, nu)
        super().__init__(f"upper-index symmetry fails at (lambda={lam}, mu={mu}, nu={nu})")


class CommutationViolation(TensorError):
    """Slice matrices W^(nu) and W^(sigma) do not commute."""

    def __init__(self, nu: int, sigma: int):
        self.pair = (nu, sigma)
        super().__init__(f"slice matrices {nu} and {sigma} do not commute")


class ZeroParameter(TensorError):
    pass


class NotSolvable(TensorError):
    pass


class ExtensionTensor:
    """A certified extension 3-tensor W_lam^{mu nu}, stored as sparse rows.

    ``n`` counts the fields (the common size of all three indices, including
    the semisimple slot of a semidirect tensor).  ``nz[lam][mu]`` is
    the row (lam, mu) as a ``{nu: value}`` dict of its nonzero entries; no
    zero is ever stored, and the dicts are never changed once a tensor holds
    them.  ``w`` (the n x n x n nested tuples of scalars, built on each
    read) and ``entry`` are read-only dense views.

    The constructor is a door: it coerces ``w`` (an n x n x n array of
    scalars, ints, fractions or scalar strings), raises :class:`TensorError`
    unless it is a cube of order n >= 1, and raises
    :class:`SymmetryViolation` or :class:`CommutationViolation` at the first
    offending indices.  The trusted ``ExtensionTensor._of`` takes rows in
    stored form, checks nothing and is used only where both laws hold by
    construction, so a tensor in hand always satisfies them.
    """

    __slots__ = ("n", "nz", "_semidirect", "_nonzeros")

    def __init__(self, n: int, w: Sequence[Sequence[Sequence]]):
        nz = _freeze(w)
        if len(nz) != n:
            raise TensorError(f"declared order {n} does not match array size {len(nz)}")
        if n < 1:
            raise TensorError("a tensor needs at least one field")
        _check_laws(nz)
        _init(self, n, nz)

    @staticmethod
    def _of(n: int, rows: Sequence[Sequence[Dict[int, GaussianRational]]]) -> "ExtensionTensor":
        """Trusted constructor: n planes of n rows obeying both laws, each row a ``{nu: value}``
        dict of scalars holding no zero, which the tensor keeps as it is."""
        return _init(object.__new__(ExtensionTensor), n, tuple(map(tuple, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionTensor is immutable")

    # -- views -----------------------------------------------------------------

    @property
    def semidirect(self) -> bool:
        """Whether a slice W^(nu) has a nonzero trace sum_lam W_lam^{lam nu}: basis-free, since the traces
        move by M^T, and on a single block a nonzero eigenvalue, the paper's semisimple slot."""
        if self._semidirect is None:
            traces = [ZERO] * self.n
            for lam, plane in enumerate(self.nz):
                for nu, x in plane[lam].items():
                    traces[nu] += x
            object.__setattr__(self, "_semidirect", any(traces))
        return self._semidirect

    @property
    def w(self) -> Tuple:
        """The dense cube: w[lam][mu][nu] as nested tuples of scalars, built on each read."""
        span = range(self.n)
        return tuple(tuple(tuple(map(row.get, span, repeat(ZERO, self.n))) for row in plane) for plane in self.nz)

    def entry(self, lam: int, mu: int, nu: int) -> GaussianRational:
        return self.nz[lam][mu].get(nu, ZERO)

    def nonzeros(self) -> Tuple[Tuple[int, int, int, GaussianRational], ...]:
        """The nonzero entries as (lam, mu, nu, w) in storage order, gathered once per tensor."""
        if self._nonzeros is None:
            object.__setattr__(self, "_nonzeros", tuple(
                (lam, mu, nu, row[nu]) for lam, plane in enumerate(self.nz)
                for mu, row in enumerate(plane) for nu in sorted(row)))
        return self._nonzeros

    def slice_upper(self, nu: int) -> ExactMatrix:
        """W^(nu): rows lambda, columns mu."""
        return ExactMatrix._of(self.n, self.n, [
            {mu: row[nu] for mu, row in enumerate(plane) if nu in row} for plane in self.nz])

    def slice_lower(self, lam: int) -> ExactMatrix:
        """W_(lam): the symmetric matrix of entries with lower index lam, sharing the stored rows."""
        return ExactMatrix._of(self.n, self.n, self.nz[lam])

    def slices_upper(self) -> List[ExactMatrix]:
        return [self.slice_upper(nu) for nu in range(self.n)]

    # The predicates below read the stored rows: entry (lam, mu) of W^(nu)
    # is nz[lam][mu][nu], so every slice vanishes above its diagonal exactly
    # when the rows nz[lam][mu] with mu > lam are empty.

    def slice_diagonal(self, nu: int) -> List[GaussianRational]:
        """The diagonal of W^(nu)."""
        return [plane[lam].get(nu, ZERO) for lam, plane in enumerate(self.nz)]

    def slice_is_identity(self, nu: int) -> bool:
        """Whether W^(nu) is the identity matrix."""
        return all(
            row.get(nu, ZERO) == ONE if lam == mu else nu not in row
            for lam, plane in enumerate(self.nz) for mu, row in enumerate(plane)
        )

    def is_lower_triangular(self) -> bool:
        return not any(any(plane[lam + 1:]) for lam, plane in enumerate(self.nz))

    def is_solvable(self) -> bool:
        """All slice matrices triangular with zero diagonal (hence nilpotent)."""
        return not any(any(plane[lam:]) for lam, plane in enumerate(self.nz))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtensionTensor):
            return NotImplemented
        return self.n == other.n and self.nz == other.nz

    def __hash__(self):
        return hash((self.n, self.nonzeros()))

    def __repr__(self):
        flag = "semidirect" if self.semidirect else "solvable-form"
        return f"ExtensionTensor(n={self.n}, {flag})"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "semidirect": self.semidirect,
            "w": [[[str(x) for x in row] for row in plane] for plane in self.w],
        }

    @staticmethod
    def from_json(doc: dict) -> "ExtensionTensor":
        """The tensor of a document: ``n`` a JSON integer, ``w`` the cube, ``semidirect`` (optional)
        a JSON boolean that :func:`validate` checks against the entries.  A wrong type raises TypeError."""
        n, semidirect = doc["n"], doc.get("semidirect")
        if type(n) is not int:  # a JSON true would pass isinstance(n, int)
            raise TypeError(f"declared order must be an integer, not {n!r}")
        if "semidirect" in doc and type(semidirect) is not bool:
            raise TypeError(f"semidirect must be true or false, not {semidirect!r}")
        t = validate(doc["w"], semidirect=semidirect)
        if t.n != n:
            raise TensorError(f"declared order {n} does not match array size {t.n}")
        return t


def _init(t: ExtensionTensor, n: int, nz: Tuple) -> ExtensionTensor:
    """Fill the slots of ``t`` with rows already in stored form."""
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "nz", nz)
    object.__setattr__(t, "_semidirect", None)
    object.__setattr__(t, "_nonzeros", None)
    return t


def _freeze(w_raw: Sequence[Sequence[Sequence]]) -> Tuple:
    """The stored rows of a raw cube, its entries coerced to Q(i) scalars."""
    n = len(w_raw)
    out = []
    for lam in range(n):
        if len(w_raw[lam]) != n:
            raise TensorError("tensor array is not cubic")
        plane = []
        for mu in range(n):
            if len(w_raw[lam][mu]) != n:
                raise TensorError("tensor array is not cubic")
            plane.append({nu: x for nu, x in enumerate(map(as_scalar, w_raw[lam][mu])) if x})
        out.append(tuple(plane))
    return tuple(out)


def _check_laws(nz: Tuple) -> None:
    """Raise at the first violation of either bracket law on stored rows.

    Upper-index symmetry is checked entry by entry, then pairwise commutation
    of the slice matrices by :func:`linalg.noncommuting_pair`: once symmetry
    holds, row lam of W^(nu) is the stored row ``nz[lam][nu]``.  Together the
    two laws are necessary and sufficient for the Jacobi identity of the
    induced bracket.
    """
    n = len(nz)
    for lam, plane in enumerate(nz):
        for mu, row in enumerate(plane):
            for nu in range(mu + 1, n):
                if row.get(nu) != plane[nu].get(mu):
                    raise SymmetryViolation(lam, mu, nu)
    pair = noncommuting_pair([ExactMatrix._of(n, n, [plane[nu] for plane in nz]) for nu in range(n)])
    if pair:
        raise CommutationViolation(*pair)


def validate(w_raw, semidirect: Optional[bool] = None) -> ExtensionTensor:
    """Certify a raw cubic array as an extension tensor.

    A raw array goes through the constructor, which raises
    :class:`SymmetryViolation` or :class:`CommutationViolation` with the
    offending indices (the first pair nu < sigma in lexicographic order); a
    tensor in hand is certified and returned as it is.  A ``semidirect`` other
    than None must equal :attr:`ExtensionTensor.semidirect`, or ValueError.
    """
    t = w_raw if isinstance(w_raw, ExtensionTensor) else ExtensionTensor(len(w_raw), w_raw)
    if semidirect is not None and bool(semidirect) != t.semidirect:
        raise ValueError("declared not semidirect, but a slice has a nonzero trace" if t.semidirect
                         else "declared semidirect, but every slice has zero trace")
    return t


def _empty(n: int) -> List[List[Dict[int, GaussianRational]]]:
    """n planes of n empty rows, for the trusted constructors to fill."""
    return [[{} for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def abelian(order: int) -> ExtensionTensor:
    """The zero bracket on ``order`` fields."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return ExtensionTensor._of(order, _empty(order))


def leibniz(order: int, semidirect: bool = False) -> ExtensionTensor:
    """The Leibniz extension, the maximal extension at each order.

    Solvable form: W_lam^{mu nu} = delta(lam = mu + nu) in 1-based printed
    labels, making W^(nu) the nu-th power of a single lower Jordan block.
    The semidirect form is :func:`append_semisimple` of the solvable one: the
    same delta pattern on 0-based labels.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    w = _empty(order)
    for mu in range(order):
        for nu in range(order - mu - 1):  # solvable storage slots are labels minus one
            w[mu + nu + 1][mu][nu] = ONE
    t = ExtensionTensor._of(order, w)
    return append_semisimple(t) if semidirect else t


def pure_semidirect(order: int) -> ExtensionTensor:
    """Semidirect extension of an abelian solvable part (order >= 0).

    ``pure_semidirect(0)`` is the bare base bracket (a single field), and
    every other order is :func:`append_semisimple` of ``abelian(order)``;
    ``pure_semidirect(1)`` is the low-beta reduced MHD tensor.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0:
        return ExtensionTensor._of(1, [[{0: ONE}]])
    return append_semisimple(abelian(order))


def crmhd(beta) -> ExtensionTensor:
    """The four-field compressible reduced MHD tensor.

    The field order is (vorticity, parallel velocity, pressure, magnetic
    flux) at storage indices (0, 1, 2, 3); ``beta`` is the compressibility
    parameter and must be real and nonzero.  The tensor is
    :func:`append_semisimple` of the three-field solvable part
    W_2^{10} = W_2^{01} = -beta in its storage slots.
    """
    beta = as_scalar(beta)
    if beta.is_zero():
        raise ZeroParameter("beta must be nonzero")
    if not beta.is_real():
        raise ZeroParameter("beta must be real")
    w = _empty(3)
    w[2][1][0] = w[2][0][1] = -beta
    return append_semisimple(ExtensionTensor._of(3, w))


def low_beta_rmhd() -> ExtensionTensor:
    """The two-field low-beta reduced MHD tensor (pure semidirect, order 1)."""
    return pure_semidirect(1)


def direct_sum(a: ExtensionTensor, b: ExtensionTensor) -> ExtensionTensor:
    """Cube-diagonal placement of two extension tensors.

    The summands are independent blocks, so a sum is semidirect exactly when
    an operand is.  Each slice of the sum is block-diagonal with blocks that
    are slices of a certified operand, or zero, so both laws hold by
    construction.
    """
    pad = [{} for _ in range(b.n)]
    shifted = [[{a.n + nu: x for nu, x in row.items()} for row in plane] for plane in b.nz]
    w = [list(plane) + pad for plane in a.nz] + [[{} for _ in range(a.n)] + plane for plane in shifted]
    return ExtensionTensor._of(a.n + b.n, w)


def append_semisimple(a: ExtensionTensor) -> ExtensionTensor:
    """Append the identity slice to a solvable extension.

    The solvable matrices are embedded at indices 1..n padded by a zero row
    and column, slot 0 gets W^(0) = I, and the upper-index symmetry fills in
    the first column of each solvable slice.  For a certified input both laws
    hold by construction: slice nu >= 1 is [[0, 0], [e_nu, S^(nu)]] in block
    form, so in a product of two of them the trailing blocks S^(nu) S^(sigma)
    commute because the input's slices do, and the first columns
    S^(nu) e_sigma and S^(sigma) e_nu are equal by upper-index symmetry.
    """
    if not a.is_solvable():
        raise NotSolvable("input has a slice with a nonzero eigenvalue")
    n = a.n + 1
    w = _empty(n)
    for lam in range(n):
        w[lam][lam][0] = ONE
        w[lam][0][lam] = ONE
    for lam, mu, nu, x in a.nonzeros():
        w[lam + 1][mu + 1][nu + 1] = x
    return ExtensionTensor._of(n, w)


def strip_semisimple(a: ExtensionTensor) -> ExtensionTensor:
    """The solvable part of a semidirect tensor (drop slot 0).

    Slot 0 must be decoupled: W_0^{mu nu} = 0 for mu, nu >= 1, as for every
    lower-triangular tensor, for instance after
    ``transform.normalize_w0_to_identity``.  Then row 0 of each slice W^(nu)
    with nu >= 1 vanishes, so the trailing block of W^(nu) W^(sigma) is
    S^(nu) S^(sigma) and the dropped slices commute because the full ones
    do: the result is trusted.  A coupled slot 0 raises :class:`TensorError`,
    since the part left after dropping it depends on the basis.
    """
    if not a.semidirect:
        raise TensorError("tensor has no semisimple slot")
    if a.n == 1:
        raise TensorError("tensor has no solvable part: the semisimple slot is its only field")
    if any(nu for row in a.nz[0][1:] for nu in row):
        raise TensorError("slot 0 is coupled; normalize W^(0) first")
    return ExtensionTensor._of(a.n - 1, [
        [{nu - 1: x for nu, x in row.items() if nu} for row in plane[1:]] for plane in a.nz[1:]])


def from_lower_slices(slices: Sequence[Optional[ExactMatrix]], n: int) -> ExtensionTensor:
    """Build a tensor from its symmetric lower-index matrices W_(lam).

    ``slices[lam]`` may be None for a zero slice.  The tensor is built by
    the checking constructor ``ExtensionTensor(n, w)``, so both laws are
    checked.
    """
    w = []
    for lam in range(n):
        s = slices[lam]
        if s is not None and (s.rows != n or s.cols != n):
            raise ValueError("slice size mismatch")
        w.append([[ZERO] * n] * n if s is None else s.to_rows())
    return ExtensionTensor(n, w)

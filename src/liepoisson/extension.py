"""Extension tensors: the 3-tensor defining a Lie bracket on n-tuples.

A bracket on n-tuples of a base Lie algebra is fixed by constants W with one
lower and two upper indices: [alpha, beta]_lam = W_lam^{mu nu} [alpha_mu,
beta_nu].  It is a Lie bracket exactly when

* W is symmetric in its upper indices, and
* the slice matrices W^(nu), defined by [W^(nu)]_lam^mu = W_lam^{mu nu},
  pairwise commute.

A tensor is certified once, at a public door, and trusted from then on.  The
doors are the constructor ``ExtensionTensor(n, semidirect, w)``,
:func:`validate` on a raw array, :meth:`ExtensionTensor.from_json` and
:func:`from_lower_slices`: each freezes the entries to Q(i) scalars, rejects
anything but an n-cube with n >= 1, and checks both laws.  Tensors built
where the laws hold by construction go through the trusted
``ExtensionTensor._of``, which checks nothing: the named constructors below
(Leibniz extensions, compressible reduced MHD, abelian and pure-semidirect
tensors), direct sums and appending a semisimple part to certified operands,
stripping that part when slot 0 is decoupled, the classifier's catalog, and
``transform.apply`` and ``transform.normalize_w0_to_identity`` on a
certified tensor.  :func:`validate` returns a tensor in hand as it is.

Index convention: storage is always 0-based.  A tensor with the semidirect
flag set uses slot 0 as the semisimple direction (printed labels 0..n); a
solvable tensor's storage slots 0..n-1 carry printed labels 1..n.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
    """A certified extension 3-tensor W_lam^{mu nu}.

    ``n`` counts the fields (the common size of all three indices, including
    the semisimple slot when the semidirect flag is set).  The constructor is
    a door: it coerces ``w`` (an n x n x n array of scalars, ints, fractions
    or scalar strings), raises :class:`TensorError` unless it is a cube of
    order n >= 1, and raises :class:`SymmetryViolation` or
    :class:`CommutationViolation` at the first offending indices.  The
    trusted ``ExtensionTensor._of`` checks nothing and is used only where
    both laws hold by construction, so a tensor in hand always satisfies
    them.
    """

    __slots__ = ("n", "semidirect", "w", "_nonzeros")

    def __init__(self, n: int, semidirect: bool, w: Sequence[Sequence[Sequence]]):
        w = _freeze(w)
        if len(w) != n:
            raise TensorError(f"declared order {n} does not match array size {len(w)}")
        if n < 1:
            raise TensorError("a tensor needs at least one field")
        _check_laws(w)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "semidirect", bool(semidirect))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_nonzeros", None)

    @staticmethod
    def _of(n: int, semidirect: bool, w: Tuple) -> "ExtensionTensor":
        """Trusted constructor: ``w`` is a tuple n-cube of scalars obeying both laws."""
        t = object.__new__(ExtensionTensor)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "semidirect", semidirect)
        object.__setattr__(t, "w", w)
        object.__setattr__(t, "_nonzeros", None)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionTensor is immutable")

    # -- views -----------------------------------------------------------------

    def entry(self, lam: int, mu: int, nu: int) -> GaussianRational:
        return self.w[lam][mu][nu]

    def nonzeros(self) -> Tuple[Tuple[int, int, int, GaussianRational], ...]:
        """The nonzero entries as (lam, mu, nu, w) in storage order, scanned once per tensor."""
        if self._nonzeros is None:
            object.__setattr__(self, "_nonzeros", tuple(
                (lam, mu, nu, w) for lam, plane in enumerate(self.w)
                for mu, row in enumerate(plane) for nu, w in enumerate(row) if w))
        return self._nonzeros

    def slice_upper(self, nu: int) -> ExactMatrix:
        """W^(nu): rows lambda, columns mu."""
        return ExactMatrix._of(self.n, self.n, [row[nu] for plane in self.w for row in plane])

    def slice_lower(self, lam: int) -> ExactMatrix:
        """W_(lam): the symmetric matrix of entries with lower index lam."""
        return ExactMatrix._of(self.n, self.n, [x for row in self.w[lam] for x in row])

    def slices_upper(self) -> List[ExactMatrix]:
        return [self.slice_upper(nu) for nu in range(self.n)]

    # The predicates below read the stored entries: entry (lam, mu) of W^(nu)
    # is w[lam][mu][nu], so every slice vanishes above its diagonal exactly
    # when the rows w[lam][mu] with mu > lam are zero.

    def slice_diagonal(self, nu: int) -> List[GaussianRational]:
        """The diagonal of W^(nu)."""
        return [self.w[lam][lam][nu] for lam in range(self.n)]

    def slice_is_identity(self, nu: int) -> bool:
        """Whether W^(nu) is the identity matrix."""
        return all(
            plane[mu][nu] == (ONE if lam == mu else ZERO)
            for lam, plane in enumerate(self.w) for mu in range(self.n)
        )

    def is_lower_triangular(self) -> bool:
        return not any(any(row) for lam, plane in enumerate(self.w) for row in plane[lam + 1:])

    def is_solvable(self) -> bool:
        """All slice matrices triangular with zero diagonal (hence nilpotent)."""
        return not any(any(row) for lam, plane in enumerate(self.w) for row in plane[lam:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtensionTensor):
            return NotImplemented
        return self.n == other.n and self.semidirect == other.semidirect and self.w == other.w

    def __hash__(self):
        return hash((self.n, self.semidirect, self.w))

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
        t = validate(doc["w"], semidirect=bool(doc.get("semidirect", False)))
        if t.n != int(doc["n"]):
            raise TensorError(f"declared order {doc['n']} does not match array size {t.n}")
        return t


def _freeze(w_raw: Sequence[Sequence[Sequence]]) -> Tuple:
    n = len(w_raw)
    out = []
    for lam in range(n):
        if len(w_raw[lam]) != n:
            raise TensorError("tensor array is not cubic")
        plane = []
        for mu in range(n):
            if len(w_raw[lam][mu]) != n:
                raise TensorError("tensor array is not cubic")
            plane.append(tuple(as_scalar(x) for x in w_raw[lam][mu]))
        out.append(tuple(plane))
    return tuple(out)


def _check_laws(w: Tuple) -> None:
    """Raise at the first violation of either bracket law on a frozen cube.

    Upper-index symmetry is checked entry by entry, then pairwise commutation
    of the slice matrices by :func:`linalg.noncommuting_pair` on the stored
    rows: once symmetry holds, row lam of W^(nu) is the stored row
    ``w[lam][nu]``.  Together the two laws are necessary and sufficient for
    the Jacobi identity of the induced bracket.
    """
    n = len(w)
    for lam in range(n):
        for mu in range(n):
            for nu in range(mu + 1, n):
                if w[lam][mu][nu] != w[lam][nu][mu]:
                    raise SymmetryViolation(lam, mu, nu)
    pair = noncommuting_pair([[[(k, x) for k, x in enumerate(w[lam][nu]) if x] for lam in range(n)] for nu in range(n)])
    if pair:
        raise CommutationViolation(*pair)


def validate(w_raw, semidirect: Optional[bool] = None) -> ExtensionTensor:
    """Certify a raw cubic array as an extension tensor.

    A raw array goes through the constructor, which raises
    :class:`SymmetryViolation` or :class:`CommutationViolation` with the
    offending indices (the first pair nu < sigma in lexicographic order).  A
    tensor in hand is already certified and is returned as it is, or as a
    copy with the flag changed when ``semidirect`` differs from its own.
    ``semidirect`` defaults to the flag of a tensor passed in, and to False
    (solvable form) for a raw array.
    """
    if isinstance(w_raw, ExtensionTensor):
        if semidirect is None or bool(semidirect) == w_raw.semidirect:
            return w_raw
        return ExtensionTensor._of(w_raw.n, bool(semidirect), w_raw.w)
    return ExtensionTensor(len(w_raw), bool(semidirect), w_raw)


def _empty(n: int) -> List[List[List[GaussianRational]]]:
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def _cube(w: List[List[List[GaussianRational]]]) -> Tuple:
    """Nested lists of scalars as the nested tuples a tensor stores."""
    return tuple(tuple(tuple(row) for row in plane) for plane in w)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def abelian(order: int) -> ExtensionTensor:
    """The zero bracket on ``order`` fields."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return ExtensionTensor._of(order, False, _cube(_empty(order)))


def leibniz(order: int, semidirect: bool = False) -> ExtensionTensor:
    """The Leibniz extension, the maximal extension at each order.

    Solvable form: W_lam^{mu nu} = delta(lam = mu + nu) in 1-based printed
    labels, making W^(nu) the nu-th power of a single lower Jordan block.
    The semidirect form appends the identity slice in slot 0, which is the
    same delta pattern on 0-based labels.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    n = order + 1 if semidirect else order
    shift = 0 if semidirect else 1  # solvable storage slots are labels minus one
    w = _empty(n)
    for mu in range(n):
        for nu in range(n - mu - shift):
            w[mu + nu + shift][mu][nu] = ONE
    return ExtensionTensor._of(n, bool(semidirect), _cube(w))


def pure_semidirect(order: int) -> ExtensionTensor:
    """Semidirect extension of an abelian solvable part (order >= 0).

    ``pure_semidirect(0)`` is the bare base bracket (a single field);
    ``pure_semidirect(1)`` is the low-beta reduced MHD tensor.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = order + 1
    w = _empty(n)
    for lam in range(n):
        w[lam][lam][0] = ONE
        w[lam][0][lam] = ONE
    w[0][0][0] = ONE
    return ExtensionTensor._of(n, True, _cube(w))


def crmhd(beta) -> ExtensionTensor:
    """The four-field compressible reduced MHD tensor.

    The field order is (vorticity, parallel velocity, pressure, magnetic
    flux) at storage indices (0, 1, 2, 3); ``beta`` is the compressibility
    parameter and must be real and nonzero.
    """
    beta = as_scalar(beta)
    if beta.is_zero():
        raise ZeroParameter("beta must be nonzero")
    if not beta.is_real():
        raise ZeroParameter("beta must be real")
    w = _empty(4)
    for lam in range(4):
        w[lam][lam][0] = ONE
        w[lam][0][lam] = ONE
    w[3][2][1] = -beta
    w[3][1][2] = -beta
    return ExtensionTensor._of(4, True, _cube(w))


def low_beta_rmhd() -> ExtensionTensor:
    """The two-field low-beta reduced MHD tensor (pure semidirect, order 1)."""
    return pure_semidirect(1)


def direct_sum(a: ExtensionTensor, b: ExtensionTensor) -> ExtensionTensor:
    """Cube-diagonal placement of two extension tensors.

    The summands are treated as independent blocks, so the result is stored
    without a semidirect flag even if an operand carries one (its identity
    slice is no longer global).  Each slice of the sum is block-diagonal with
    blocks that are slices of a certified operand, or zero, so both laws
    hold by construction.
    """
    n = a.n + b.n
    w = _empty(n)
    for lam in range(a.n):
        for mu in range(a.n):
            for nu in range(a.n):
                w[lam][mu][nu] = a.w[lam][mu][nu]
    for lam in range(b.n):
        for mu in range(b.n):
            for nu in range(b.n):
                w[a.n + lam][a.n + mu][a.n + nu] = b.w[lam][mu][nu]
    return ExtensionTensor._of(n, False, _cube(w))


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
    for lam in range(a.n):
        for mu in range(a.n):
            for nu in range(a.n):
                w[lam + 1][mu + 1][nu + 1] = a.w[lam][mu][nu]
    return ExtensionTensor._of(n, True, _cube(w))


def strip_semisimple(a: ExtensionTensor) -> ExtensionTensor:
    """The solvable part of a semidirect tensor (drop slot 0).

    When slot 0 is decoupled, W_0^{mu nu} = 0 for mu, nu >= 1 (as for every
    lower-triangular tensor, for instance after
    ``transform.normalize_w0_to_identity``), row 0 of each slice W^(nu) with
    nu >= 1 vanishes, so the trailing block of W^(nu) W^(sigma) is
    S^(nu) S^(sigma) and the dropped slices commute because the full ones
    do: the result is trusted.  Otherwise it goes through the checking
    constructor.
    """
    if not a.semidirect:
        raise TensorError("tensor has no semisimple slot")
    if a.n == 1:
        raise TensorError("tensor has no solvable part: the semisimple slot is its only field")
    w = tuple(tuple(row[1:] for row in plane[1:]) for plane in a.w[1:])
    if any(any(row[1:]) for row in a.w[0][1:]):
        return ExtensionTensor(a.n - 1, False, w)
    return ExtensionTensor._of(a.n - 1, False, w)


def from_lower_slices(slices: Sequence[Optional[ExactMatrix]], n: int,
                      semidirect: bool = False) -> ExtensionTensor:
    """Build a tensor from its symmetric lower-index matrices W_(lam).

    ``slices[lam]`` may be None for a zero slice.  Mostly used to state
    catalog normal forms compactly.
    """
    w = _empty(n)
    for lam in range(n):
        s = slices[lam]
        if s is None:
            continue
        if s.rows != n or s.cols != n:
            raise ValueError("slice size mismatch")
        for mu in range(n):
            for nu in range(n):
                w[lam][mu][nu] = s[mu, nu]
    return ExtensionTensor(n, bool(semidirect), w)

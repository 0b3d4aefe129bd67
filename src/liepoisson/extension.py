"""Extension tensors: the 3-tensor defining a Lie bracket on n-tuples.

A bracket on n-tuples of a base Lie algebra is fixed by constants W with one
lower and two upper indices: [alpha, beta]_lam = W_lam^{mu nu} [alpha_mu,
beta_nu].  It is a Lie bracket exactly when

* W is symmetric in its upper indices, and
* the slice matrices W^(nu), defined by [W^(nu)]_lam^mu = W_lam^{mu nu},
  pairwise commute.

:func:`validate` certifies both laws.  Constructors are provided for the
brackets used throughout: Leibniz extensions (solvable and semidirect),
compressible reduced MHD, abelian and pure-semidirect tensors, direct sums,
and appending a semisimple part to a solvable extension.

Index convention: storage is always 0-based.  A tensor with the semidirect
flag set uses slot 0 as the semisimple direction (printed labels 0..n); a
solvable tensor's storage slots 0..n-1 carry printed labels 1..n.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .linalg import ExactMatrix
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
    the semisimple slot when the semidirect flag is set).  Instances are
    produced by :func:`validate` or by the constructors below, so a tensor in
    hand always satisfies both bracket laws.
    """

    __slots__ = ("n", "semidirect", "w")

    def __init__(self, n: int, semidirect: bool, w: Tuple[Tuple[Tuple[GaussianRational, ...], ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "semidirect", bool(semidirect))
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionTensor is immutable")

    # -- index bookkeeping ---------------------------------------------------

    @property
    def solvable_order(self) -> int:
        """Order of the solvable part (n minus the semisimple slot)."""
        return self.n - 1 if self.semidirect else self.n

    def display_label(self, storage_index: int) -> int:
        """Printed label of a storage index (0-based semidirect, else 1-based)."""
        return storage_index if self.semidirect else storage_index + 1

    # -- views -----------------------------------------------------------------

    def entry(self, lam: int, mu: int, nu: int) -> GaussianRational:
        return self.w[lam][mu][nu]

    def slice_upper(self, nu: int) -> ExactMatrix:
        """W^(nu): rows lambda, columns mu."""
        return ExactMatrix.from_rows(
            [[self.w[lam][mu][nu] for mu in range(self.n)] for lam in range(self.n)]
        )

    def slice_lower(self, lam: int) -> ExactMatrix:
        """W_(lam): the symmetric matrix of entries with lower index lam."""
        return ExactMatrix.from_rows([list(row) for row in self.w[lam]])

    def slices_upper(self) -> List[ExactMatrix]:
        return [self.slice_upper(nu) for nu in range(self.n)]

    def is_lower_triangular(self) -> bool:
        return all(self.slice_upper(nu).is_lower_triangular() for nu in range(self.n))

    def is_solvable(self) -> bool:
        """All slice matrices triangular with zero diagonal (hence nilpotent)."""
        for nu in range(self.n):
            s = self.slice_upper(nu)
            if not s.is_lower_triangular() or any(s.diagonal_values()):
                return False
        return True

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
        w = doc["w"]
        t = validate(w, semidirect=bool(doc.get("semidirect", False)))
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


def validate(w_raw, semidirect: bool = False) -> ExtensionTensor:
    """Certify a raw cubic array as an extension tensor.

    Checks upper-index symmetry entry by entry, then pairwise commutation of
    the slice matrices; together these are necessary and sufficient for the
    Jacobi identity of the induced bracket.  Raises
    :class:`SymmetryViolation` or :class:`CommutationViolation` with the
    offending indices (the first pair nu < sigma in lexicographic order).

    Commutation is checked entry by entry on the stored rows, skipping zero
    factors.  Once symmetry holds, row lam of W^(nu) is the stored row
    ``w[lam][nu]``, so for each pair and each lam the row vector

        sum_k w[lam][nu][k] w[k][sigma][.] - w[lam][sigma][k] w[k][nu][.]

    must vanish.
    """
    if isinstance(w_raw, ExtensionTensor):
        w = w_raw.w
        n = w_raw.n
    else:
        w = _freeze(w_raw)
        n = len(w)
    for lam in range(n):
        for mu in range(n):
            for nu in range(mu + 1, n):
                if w[lam][mu][nu] != w[lam][nu][mu]:
                    raise SymmetryViolation(lam, mu, nu)
    # the nonzero entries of each stored row w[lam][mu], with their positions
    rows = [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in w]
    for nu in range(n):
        for sigma in range(nu + 1, n):
            for lam in range(n):
                acc = [ZERO] * n
                for k, x in rows[lam][nu]:
                    for mu, y in rows[k][sigma]:
                        acc[mu] = acc[mu] + x * y
                for k, x in rows[lam][sigma]:
                    for mu, y in rows[k][nu]:
                        acc[mu] = acc[mu] - x * y
                if any(acc):
                    raise CommutationViolation(nu, sigma)
    return ExtensionTensor(n, semidirect, w)


def _empty(n: int) -> List[List[List[GaussianRational]]]:
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def abelian(order: int) -> ExtensionTensor:
    """The zero bracket on ``order`` fields."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return ExtensionTensor(order, False, _freeze(_empty(order)))


def leibniz(order: int, semidirect: bool = False) -> ExtensionTensor:
    """The Leibniz extension, the maximal extension at each order.

    Solvable form: W_lam^{mu nu} = delta(lam = mu + nu) in 1-based printed
    labels, making W^(nu) the nu-th power of a single lower Jordan block.
    The semidirect form appends the identity slice in slot 0, which is the
    same delta pattern on 0-based labels.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if semidirect:
        n = order + 1
        w = _empty(n)
        for lam in range(n):
            for mu in range(n):
                for nu in range(n):
                    if lam == mu + nu:
                        w[lam][mu][nu] = ONE
        return ExtensionTensor(n, True, _freeze(w))
    n = order
    w = _empty(n)
    for lam in range(n):
        for mu in range(n):
            for nu in range(n):
                if (lam + 1) == (mu + 1) + (nu + 1):
                    w[lam][mu][nu] = ONE
    return ExtensionTensor(n, False, _freeze(w))


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
    return ExtensionTensor(n, True, _freeze(w))


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
    return ExtensionTensor(4, True, _freeze(w))


def low_beta_rmhd() -> ExtensionTensor:
    """The two-field low-beta reduced MHD tensor (pure semidirect, order 1)."""
    return pure_semidirect(1)


def direct_sum(a: ExtensionTensor, b: ExtensionTensor) -> ExtensionTensor:
    """Cube-diagonal placement of two extension tensors.

    The summands are treated as independent blocks, so the result is stored
    without a semidirect flag even if an operand carries one (its identity
    slice is no longer global).
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
    return validate(w, semidirect=False)


def append_semisimple(a: ExtensionTensor) -> ExtensionTensor:
    """Append the identity slice to a solvable extension.

    The solvable matrices are embedded at indices 1..n padded by a zero row
    and column, slot 0 gets W^(0) = I, and the upper-index symmetry fills in
    the first column of each solvable slice.
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
    return validate(w, semidirect=True)


def strip_semisimple(a: ExtensionTensor) -> ExtensionTensor:
    """The solvable part of a semidirect tensor (drop slot 0)."""
    if not a.semidirect:
        raise TensorError("tensor has no semisimple slot")
    n = a.n - 1
    w = [[[a.w[lam + 1][mu + 1][nu + 1] for nu in range(n)] for mu in range(n)] for lam in range(n)]
    return validate(w, semidirect=False)


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
    return validate(w, semidirect=semidirect)

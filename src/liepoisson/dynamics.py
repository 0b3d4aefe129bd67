"""Finite-dimensional Lie-Poisson dynamics on tuples of so(3)* momenta.

The realization puts one three-vector l^mu on each extension index; with a
quadratic Hamiltonian H = 1/2 sum l^mu . A_{mu nu} l^nu the equations of
motion are

    dl^a/dt = sum_{lam, nu} W_lam^{a nu} (dH/dl^nu) x l^lam,

the sign fixed so that a single field with diagonal inertia reproduces
Euler's rigid-body equations dl1/dt = (1/I2 - 1/I3) l2 l3 (and cyclic).

Every symmetric matrix Q from the quadratic Casimir solver lifts to a
conserved monitor C_Q = 1/2 sum Q_{mu nu} <l^mu, l^nu>: its time derivative
contracts the symmetric Q-Hessian against the bracket antisymmetry and
vanishes identically, which the tests check to round-off.  Trajectories are
integrated with classical fixed-step RK4, so conservation shows up as
drift at the integrator's order, not exactness.

With x = l.reshape(3n) the right-hand side is one quadratic form in x:
the bracket is linear in l and so is dH/dl.  :func:`_eom_operator` writes
it once per run as a matrix R of shape (9n^2, 3n), built from the T
nonzero entries of W and the matrix A of H, which :func:`simulate` builds
once.  x stays flat for the whole run, and every evaluation is two
``ndarray.dot`` calls (``np.dot``'s floats without its dispatch) into
buffers allocated once per run: R x into a (9n^2,) buffer, then its
(3n, 3n) view times x.  An RK4 step fills its four stages in place and
allocates two arrays, the weighted sum of the stages and the new state.
After the loop one product reads H = 1/2 x^T A x at every sample, and
one more every C_Q: the stacked Q against the Gram matrices l l^T of the
samples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import ExtensionTensor


class DynamicsError(Exception):
    pass


class NonFinite(DynamicsError):
    """The trajectory left the representable floating-point range."""


def _floats(values, refusal: str) -> np.ndarray:
    """``values`` as a float array; DynamicsError(refusal) when it has ragged rows or an entry that is not a number."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DynamicsError(refusal) from None


class FieldState:
    """An n-tuple of so(3)* momenta and the current time."""

    __slots__ = ("tuples", "time")

    def __init__(self, tuples: Sequence[Sequence[float]], time: float = 0.0):
        refusal = "state must be a list of 3-vectors"
        arr = _floats(tuples, refusal)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DynamicsError(refusal)
        self.tuples = arr       # shape (n, 3)
        self.time = time

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[float]], time: float = 0.0) -> "FieldState":
        return FieldState(vectors, time)


class HamiltonianSpec:
    """Quadratic form with one 3x3 block per index pair, exactly symmetric: A[mu,nu] = A[nu,mu]^T."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        refusal = "blocks must have shape (n, n, 3, 3)"
        b = _floats(blocks, refusal)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2:] != (3, 3):
            raise DynamicsError(refusal)
        if not np.isfinite(b).all():
            raise DynamicsError("the Hamiltonian blocks have a non-finite entry")
        # exactly: the RHS takes A x as dH/dl, the gradient of 1/2 x^T A x only for a symmetric A
        if not np.array_equal(b, np.swapaxes(np.swapaxes(b, 0, 1), 2, 3)):
            raise DynamicsError("blocks must satisfy A[mu,nu] = A[nu,mu]^T exactly")
        self.blocks = b         # shape (n, n, 3, 3)

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @staticmethod
    def rigid_body(inertia: Sequence[float]) -> "HamiltonianSpec":
        """H = 1/2 sum_i l_i^2 / I_i for the three finite nonzero moments of inertia I_i."""
        refusal = f"inertia must be three finite nonzero numbers, not {inertia!r}"
        moments = _floats(inertia, refusal)
        if moments.shape != (3,) or not np.isfinite(moments).all() or not moments.all():
            raise DynamicsError(refusal)
        # float division: a reciprocal past the float range is inf, which the constructor refuses, with no warning
        block = np.diag([1.0 / x for x in moments.tolist()])
        return HamiltonianSpec(block.reshape(1, 1, 3, 3))

    @staticmethod
    def isotropic(n: int) -> "HamiltonianSpec":
        """H = 1/2 sum |l^mu|^2."""
        blocks = np.zeros((n, n, 3, 3))
        for mu in range(n):
            blocks[mu, mu] = np.eye(3)
        return HamiltonianSpec(blocks)

    def matrix(self) -> np.ndarray:
        """The (3n, 3n) matrix A with H = 1/2 x^T A x at x = l.reshape(3n)."""
        m = 3 * self.n
        return self.blocks.transpose(0, 2, 1, 3).reshape(m, m)


# _EPS[i, j, k], the Levi-Civita symbol: (g x s)_i = sum_jk _EPS[i, j, k] g_j s_k
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def _eom_operator(t: ExtensionTensor, hm: np.ndarray) -> np.ndarray:
    """The equations of motion as one quadratic operator R of shape (9n^2, 3n).

    With x = l.reshape(3n) and A = ``hm``, dx/dt = R.dot(x).reshape(3n, 3n).dot(x), where

        R[(a, i), (lam, k), (m, p)] = sum_{nu, j} W_lam^{a nu} eps_ijk A[nu, m]_{jp}

    is the cross product (dH/dl^nu) x l^lam with dH/dl^nu = sum_m A[nu, m] l^m
    folded in.  The sum over (nu, j) before the fold, B, is written from the
    T nonzero entries by one indexed assignment, and R = B @ A is one matrix
    product.  R and B each hold 27 n^3 floats whatever T (216 n^3 bytes,
    0.9 MB at n = 16), B only while R is built.  Building costs O(T) Python
    steps and 27 n^4 flops; one evaluation costs 27 n^3 + 9 n^2.
    """
    n = t.n
    nonzeros = t.nonzeros()
    if any(not w.is_real() for *_, w in nonzeros):
        raise DynamicsError("dynamics needs a real tensor")
    lam, a, nu = (np.array([e[k] for e in nonzeros], dtype=np.intp) for k in range(3))
    try:
        w = np.array([float(e[3]) for e in nonzeros])
    except OverflowError:
        raise DynamicsError("a tensor entry is outside the float range") from None
    b = np.zeros((n, 3, n, 3, n, 3))  # [a, i, lam, k, nu, j]
    b[a, :, lam, :, nu, :] = w[:, None, None, None] * _EPS.transpose(0, 2, 1)
    return b.reshape(9 * n * n, 3 * n) @ hm


def _evaluate(r: np.ndarray, x: np.ndarray, flat: np.ndarray, square: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dx/dt at the flat state x = l.reshape(3n), written into and returned as ``out``.

    R x goes into ``flat``, shape (9n^2,), and ``square``, its (3n, 3n) view,
    times x into ``out``: two ``ndarray.dot`` calls (``np.dot``'s floats
    without its dispatch) and no allocation.  ``out`` must not be x.
    """
    r.dot(x, out=flat)
    return square.dot(x, out=out)


def eom_rhs(t: ExtensionTensor, h: HamiltonianSpec, s: FieldState) -> np.ndarray:
    """Right-hand side dl^a/dt = sum W_lam^{a nu} (dH/dl^nu) x l^lam."""
    if h.n != t.n or s.tuples.shape[0] != t.n:
        raise DynamicsError(
            f"dimension mismatch: tensor {t.n}, Hamiltonian {h.n}, state {s.tuples.shape[0]}"
        )
    x = s.tuples.reshape(-1)
    flat = np.empty(x.size * x.size)
    rhs = _evaluate(_eom_operator(t, h.matrix()), x, flat, flat.reshape(x.size, x.size), np.empty(x.size))
    return rhs.reshape(s.tuples.shape)


def exact_monitors(t: ExtensionTensor) -> List[Tuple[str, np.ndarray]]:
    """Monitors from the quadratic Casimir basis, as real float matrices.

    Complex basis elements (possible over Q(i)) are split into their real
    and imaginary symmetric parts, each monitored separately.
    """
    from .casimir import quadratic_casimir_basis

    basis = quadratic_casimir_basis(t)
    parts = np.zeros((len(basis), 2, t.n, t.n))  # the real and the imaginary part of each Q
    try:
        for q, (re, im) in zip(basis, parts):
            for i, row in enumerate(q.nz):
                for j, x in row.items():
                    # x = (a + b i)/d: each part is one correctly rounded int division
                    re[i, j], im[i, j] = x._a / x._d, x._b / x._d
    except OverflowError:
        raise DynamicsError("a quadratic Casimir coefficient is outside the float range") from None
    kept = parts.any(axis=(2, 3)).tolist()
    return [(f"Q{k}{tag}", parts[k, p]) for k, row in enumerate(kept) for p, tag in ((0, ""), (1, "_im")) if row[p]]


class TrajectoryRecord:
    __slots__ = ("times", "states", "monitors", "drifts")

    def __init__(self, times: np.ndarray, states: np.ndarray, monitors: Dict[str, np.ndarray],
                 drifts: Dict[str, float]):
        self.times = times
        self.states = states            # shape (samples, n, 3)
        self.monitors = monitors        # per-monitor sampled values
        self.drifts = drifts            # relative drift over the run

    def to_csv(self, path: str) -> None:
        names = sorted(self.monitors)
        n = self.states.shape[1]
        header = ["time"]
        for mu in range(n):
            header += [f"l{mu}_{ax}" for ax in "xyz"]
        header += names
        rows = []
        for k, tval in enumerate(self.times):
            row = [f"{tval:.12g}"]
            row += [f"{x:.17g}" for x in self.states[k].reshape(-1)]
            row += [f"{self.monitors[name][k]:.17g}" for name in names]
            rows.append(",".join(row))
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write("\n".join(rows) + "\n")


DRIFT_FLOOR = 1e-300
# A drift is relative to |C(0)|, but to no less than this share of the
# monitor's magnitude at the initial state (see simulate): a monitor that
# starts at zero then reports its change against its own scale.
DRIFT_SCALE_FLOOR = 1e-3


def _monitor_values(a: np.ndarray, qs: np.ndarray, xs: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Row 0: 1/2 x^T A x at each row x of ``xs``; row 1 + j: 1/2 sum Q_mn <l^m, l^n>
    for Q = qs[j] (flattened), read off the Gram matrix l l^T of the matching sample of ``ls``."""
    gram = np.matmul(ls, ls.transpose(0, 2, 1)).reshape(len(ls), -1)
    return 0.5 * np.concatenate(((np.dot(xs, a) * xs).sum(axis=1)[None], np.dot(qs, gram.T)))


def simulate(
    t: ExtensionTensor,
    h: HamiltonianSpec,
    s0: FieldState,
    dt: float,
    steps: int,
    monitors: Optional[Sequence[Tuple[str, np.ndarray]]] = None,
    sample_every: int = 1,
) -> TrajectoryRecord:
    """Fixed-step RK4 integration with energy and Casimir drift monitoring.

    The drift of each monitor is |C(T) - C(0)| / max(|C(0)|, f M, 1e-300),
    with f = DRIFT_SCALE_FLOOR and M the monitor at the initial state with
    every term in absolute value (1/2 sum |Q_mn| |l^m| |l^n|, or 1/2 |x|^T |A|
    |x| for H), a bound no cancellation lowers: a monitor that starts at zero
    is measured on its own scale.  "H", the Hamiltonian, is always monitored.

    Each step evaluates the four stages into the rows of one (4, 3n) array
    (a stage input x + c k is formed in one buffer, the same floats as
    ``x + c * k``), then takes x + w . ks with w = dt (1/6, 1/3, 1/3, 1/6):
    one product for the weighted sum.
    """
    if not 0 < dt < math.inf:
        raise DynamicsError(f"dt must be a positive finite step, got {dt}")
    if steps < 0:
        raise DynamicsError(f"steps must be at least 0, got {steps}")
    if sample_every < 1:
        raise DynamicsError(f"sample_every must be at least 1, got {sample_every}")
    n = t.n
    if h.n != n or s0.tuples.shape[0] != n:
        raise DynamicsError("dimension mismatch between tensor, Hamiltonian, and state")
    x = s0.tuples.reshape(-1)
    if not np.isfinite(x).all():
        raise DynamicsError("the initial state has a non-finite entry")
    names, qs = ["H"], []
    for name, q in monitors or ():
        if name in names:
            raise DynamicsError(f"two monitors are named {name!r} (H is the Hamiltonian)")
        q = np.asarray(q, dtype=float)
        if q.shape != (n, n):
            raise DynamicsError(f"monitor {name} has shape {q.shape}, not ({n}, {n})")
        names.append(name)
        qs.append(q.reshape(-1))
    qs = np.array(qs).reshape(len(qs), n * n)
    a = h.matrix()
    half = 0.5 * dt
    # dt/6, dt/3, dt/3, dt/6: doubling dt/6 is exact
    weights = dt / 6.0 * np.array([1.0, 2.0, 2.0, 1.0])
    m = x.size
    flat, y, ks = np.empty(m * m), np.empty(m), np.empty((4, m))
    square = flat.reshape(m, m)
    k1, k2, k3, k4 = ks
    # an overflow in the operator or in a step ends as a non-finite state,
    # which the loop raises as NonFinite: numpy's own warnings would only
    # repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        r = _eom_operator(t, a)
        norms = np.linalg.norm(x.reshape(n, 3), axis=1)
        floors = np.maximum(DRIFT_SCALE_FLOOR * _monitor_values(
            np.abs(a), np.abs(qs), np.abs(x)[None], norms.reshape(1, n, 1))[:, 0], DRIFT_FLOOR)
        times, samples = [s0.time], [x]
        # x is rebound at every step, never written, so a sample needs no copy
        for k in range(steps):
            _evaluate(r, x, flat, square, k1)
            _evaluate(r, np.add(x, np.multiply(k1, half, out=y), out=y), flat, square, k2)
            _evaluate(r, np.add(x, np.multiply(k2, half, out=y), out=y), flat, square, k3)
            _evaluate(r, np.add(x, np.multiply(k3, dt, out=y), out=y), flat, square, k4)
            x = x + weights.dot(ks)
            # x.x overflows before any entry does, so only then are the entries read
            if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
                raise NonFinite(f"state became non-finite at step {k + 1}")
            if (k + 1) % sample_every == 0 or k + 1 == steps:
                times.append(s0.time + (k + 1) * dt)
                samples.append(x)
        xs = np.array(samples)
        values = _monitor_values(a, qs, xs, xs.reshape(-1, n, 3))
        drifts = np.abs(values[:, -1] - values[:, 0]) / np.maximum(np.abs(values[:, 0]), floors)
    return TrajectoryRecord(np.array(times), xs.reshape(-1, n, 3), dict(zip(names, values)),
                            dict(zip(names, drifts.tolist())))


def analytic_conservation_residual(
    t: ExtensionTensor, h: HamiltonianSpec, q: np.ndarray, state: np.ndarray
) -> float:
    """|<grad C_Q, dl/dt>| / scale at one state; zero up to round-off.

    This is the statement that transfers exactly from the symmetry
    condition in the constant-Hessian case: the cross product kills the
    symmetric contraction.
    """
    rhs = eom_rhs(t, h, FieldState(state))
    grad = np.einsum("mn,ni->mi", np.asarray(q, dtype=float), state)
    raw = float(np.einsum("mi,mi->", grad, rhs))
    scale = max(float(np.linalg.norm(grad) * np.linalg.norm(rhs)), 1e-30)
    return abs(raw) / scale


def heavy_top_tensor() -> ExtensionTensor:
    """The two-field semidirect tensor of the heavy-top analog."""
    from .extension import leibniz

    return leibniz(1, semidirect=True)


def rigid_body_tensor() -> ExtensionTensor:
    """The bare base bracket: one field, identity slice."""
    from .extension import pure_semidirect

    return pure_semidirect(0)

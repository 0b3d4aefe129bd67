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
nonzero entries of W and the blocks of H, and every evaluation is then
``(R @ x).reshape(3n, 3n) @ x``, with no Python loop and no per-entry work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .extension import ExtensionTensor


class DynamicsError(Exception):
    pass


class NonFinite(DynamicsError):
    """The trajectory left the representable floating-point range."""


@dataclass
class FieldState:
    """An n-tuple of so(3)* momenta and the current time."""

    tuples: np.ndarray      # shape (n, 3)
    time: float = 0.0

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[float]], time: float = 0.0) -> "FieldState":
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DynamicsError("state must be a list of 3-vectors")
        return FieldState(arr, time)


@dataclass
class HamiltonianSpec:
    """Quadratic form with one 3x3 block per index pair, symmetric overall."""

    blocks: np.ndarray      # shape (n, n, 3, 3)

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2:] != (3, 3):
            raise DynamicsError("blocks must have shape (n, n, 3, 3)")
        if not np.allclose(b, np.swapaxes(np.swapaxes(b, 0, 1), 2, 3)):
            raise DynamicsError("blocks must satisfy A[mu,nu] = A[nu,mu]^T")
        self.blocks = b

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @staticmethod
    def rigid_body(inertia: Sequence[float]) -> "HamiltonianSpec":
        i1, i2, i3 = inertia
        block = np.diag([1.0 / i1, 1.0 / i2, 1.0 / i3])
        return HamiltonianSpec(block.reshape(1, 1, 3, 3))

    @staticmethod
    def isotropic(n: int) -> "HamiltonianSpec":
        """H = 1/2 sum |l^mu|^2."""
        blocks = np.zeros((n, n, 3, 3))
        for mu in range(n):
            blocks[mu, mu] = np.eye(3)
        return HamiltonianSpec(blocks)

    def gradient(self, state: np.ndarray) -> np.ndarray:
        return np.einsum("mnij,nj->mi", self.blocks, state)

    def value(self, state: np.ndarray) -> float:
        return 0.5 * float(np.einsum("mi,mnij,nj->", state, self.blocks, state))


# _EPS[i, j, k], the Levi-Civita symbol: (g x s)_i = sum_jk _EPS[i, j, k] g_j s_k
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def _eom_operator(t: ExtensionTensor, h: HamiltonianSpec) -> np.ndarray:
    """The equations of motion as one quadratic operator R of shape (9n^2, 3n).

    With x = l.reshape(3n), dl/dt = (R @ x).reshape(3n, 3n) @ x, where

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
    return b.reshape(9 * n * n, 3 * n) @ h.blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def _evaluate(r: np.ndarray, state: np.ndarray) -> np.ndarray:
    """dl/dt at ``state`` (shape (n, 3)) from the operator of :func:`_eom_operator`."""
    x = state.reshape(-1)
    return ((r @ x).reshape(x.size, x.size) @ x).reshape(state.shape)


def eom_rhs(t: ExtensionTensor, h: HamiltonianSpec, s: FieldState) -> np.ndarray:
    """Right-hand side dl^a/dt = sum W_lam^{a nu} (dH/dl^nu) x l^lam."""
    if h.n != t.n or s.tuples.shape[0] != t.n:
        raise DynamicsError(
            f"dimension mismatch: tensor {t.n}, Hamiltonian {h.n}, state {s.tuples.shape[0]}"
        )
    return _evaluate(_eom_operator(t, h), s.tuples)


def monitor_gradient(q: np.ndarray, state: np.ndarray) -> np.ndarray:
    return np.einsum("mn,ni->mi", np.asarray(q, dtype=float), state)


def exact_monitors(t: ExtensionTensor) -> List[Tuple[str, np.ndarray]]:
    """Monitors from the quadratic Casimir basis, as real float matrices.

    Complex basis elements (possible over Q(i)) are split into their real
    and imaginary symmetric parts, each monitored separately.
    """
    from .casimir import quadratic_casimir_basis

    out = []
    for k, q in enumerate(quadratic_casimir_basis(t)):
        z = np.zeros((t.n, t.n), dtype=complex)
        for i, row in enumerate(q.nz):
            for j, x in row.items():
                try:
                    z[i, j] = complex(x)
                except OverflowError:
                    raise DynamicsError("a quadratic Casimir coefficient is outside the float range") from None
        re, im = z.real.copy(), z.imag.copy()
        if np.any(re):
            out.append((f"Q{k}", re))
        if np.any(im):
            out.append((f"Q{k}_im", im))
    return out


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    states: np.ndarray                  # shape (samples, n, 3)
    monitors: Dict[str, np.ndarray]     # per-monitor sampled values
    drifts: Dict[str, float]            # relative drift over the run

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
# monitor's magnitude at the initial state (see _magnitudes): a monitor that
# starts at zero then reports its change against its own scale.
DRIFT_SCALE_FLOOR = 1e-3


def _magnitudes(h: HamiltonianSpec, mons, state: np.ndarray) -> Dict[str, float]:
    """Each monitor's value at ``state`` with every term taken in absolute value.

    That is 1/2 sum |Q_mn| |l^m| |l^n| for a Casimir monitor and 1/2 sum |A| |l| |l|,
    entry by entry, for the Hamiltonian: a bound on |C| that no cancellation lowers.
    """
    norms = np.linalg.norm(state, axis=1)
    absolute = np.abs(state)
    return {name: 0.5 * float(np.einsum("mi,mnij,nj->", absolute, np.abs(h.blocks), absolute)) if q is None
            else 0.5 * float(norms @ np.abs(q) @ norms) for name, q in mons}


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
    with M its magnitude at the initial state (:func:`_magnitudes`) and
    f = DRIFT_SCALE_FLOOR, so a monitor that starts at zero is measured on
    its own scale; above that floor the drift is |C(T) - C(0)| / |C(0)|.  The
    Hamiltonian itself is always monitored under the name "H".
    """
    if not 0 < dt < math.inf:
        raise DynamicsError(f"dt must be a positive finite step, got {dt}")
    if steps < 0:
        raise DynamicsError(f"steps must be at least 0, got {steps}")
    if sample_every < 1:
        raise DynamicsError(f"sample_every must be at least 1, got {sample_every}")
    if h.n != t.n or s0.tuples.shape[0] != t.n:
        raise DynamicsError("dimension mismatch between tensor, Hamiltonian, and state")
    mons = [("H", None)] + list(monitors or [])
    values: Dict[str, List[float]] = {name: [] for name, _ in mons}

    def record(state):
        for name, q in mons:
            if q is None:
                values[name].append(h.value(state))
            else:
                values[name].append(0.5 * float(np.einsum("mn,mi,ni->", q, state, state)))

    # an overflow in the operator or in a step ends as a non-finite state,
    # which the loop raises as NonFinite: numpy's own warnings would only
    # repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        r = _eom_operator(t, h)
        state = s0.tuples.astype(float).copy()
        floors = {name: max(DRIFT_SCALE_FLOOR * m, DRIFT_FLOOR) for name, m in _magnitudes(h, mons, state).items()}
        times = [s0.time]
        samples = [state.copy()]
        record(state)
        for k in range(steps):
            k1 = _evaluate(r, state)
            k2 = _evaluate(r, state + 0.5 * dt * k1)
            k3 = _evaluate(r, state + 0.5 * dt * k2)
            k4 = _evaluate(r, state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(state).all():
                raise NonFinite(f"state became non-finite at step {k + 1}")
            if (k + 1) % sample_every == 0 or k + 1 == steps:
                times.append(s0.time + (k + 1) * dt)
                samples.append(state.copy())
                record(state)
    drifts = {}
    for name in values:
        series = values[name]
        scale = max(abs(series[0]), floors[name])
        drifts[name] = abs(series[-1] - series[0]) / scale
    return TrajectoryRecord(
        np.array(times),
        np.array(samples),
        {name: np.array(vals) for name, vals in values.items()},
        drifts,
    )


def analytic_conservation_residual(
    t: ExtensionTensor, h: HamiltonianSpec, q: np.ndarray, state: np.ndarray
) -> float:
    """|<grad C_Q, dl/dt>| / scale at one state; zero up to round-off.

    This is the statement that transfers exactly from the symmetry
    condition in the constant-Hessian case: the cross product kills the
    symmetric contraction.
    """
    rhs = eom_rhs(t, h, FieldState(state))
    grad = monitor_gradient(q, state)
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

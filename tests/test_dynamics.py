import random
from fractions import Fraction

import numpy as np
import pytest

from liepoisson import dynamics
from liepoisson.dynamics import (
    DynamicsError,
    FieldState,
    HamiltonianSpec,
    NonFinite,
    analytic_conservation_residual,
    eom_rhs,
    exact_monitors,
    heavy_top_tensor,
    rigid_body_tensor,
    simulate,
)
from liepoisson.extension import ExtensionTensor, abelian, crmhd, direct_sum, leibniz
from liepoisson.scalars import I, ZERO, gr


def test_rigid_body_rhs_matches_euler():
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    s = FieldState.from_vectors([[0.0, 1.0, 1.0]])
    rhs = eom_rhs(t, h, s)
    # dl1 = (1/I2 - 1/I3) l2 l3 = 1/6, and cyclic
    assert rhs[0, 0] == pytest.approx(1.0 / 2 - 1.0 / 3)
    assert rhs[0, 1] == pytest.approx((1.0 / 3 - 1.0) * 1.0 * 0.0)
    assert rhs[0, 2] == pytest.approx((1.0 - 1.0 / 2) * 0.0 * 1.0)


def test_rigid_body_equilibrium_on_principal_axis():
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    rhs = eom_rhs(t, h, FieldState.from_vectors([[1.0, 0.0, 0.0]]))
    assert np.allclose(rhs, 0.0)


def test_abelian_tensor_is_static():
    t = abelian(3)
    h = HamiltonianSpec.isotropic(3)
    rng = np.random.default_rng(3)
    s = FieldState(rng.normal(size=(3, 3)))
    assert np.allclose(eom_rhs(t, h, s), 0.0)


def loop_rhs(t, h, state):
    """The per-triple np.cross loop the RHS used before the gather form: the reference."""
    grad = h.gradient(state)
    out = np.zeros_like(state)
    for lam in range(t.n):
        for a in range(t.n):
            for nu in range(t.n):
                w = t.entry(lam, a, nu)
                if w:
                    out[a] += float(w.re) * np.cross(grad[nu], state[lam])
    return out


def random_real_tensor(rng, n):
    """Real entries with unsymmetric slices; the RHS needs no bracket law.

    Such a tensor is not a valid bracket, so the checking constructor would
    reject it; the trusted one builds it for the RHS oracle only.
    """
    w = tuple(tuple(tuple(gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) if rng.random() < 0.4 else ZERO
                          for _ in range(n)) for _ in range(n)) for _ in range(n))
    return ExtensionTensor._of(n, False, w)


def random_hamiltonian(rng, n):
    """Anisotropic blocks with A[mu, nu] = A[nu, mu]^T, coupling every pair of fields."""
    m = rng.normal(size=(3 * n, 3 * n))
    return HamiltonianSpec((m + m.T).reshape(n, 3, n, 3).transpose(0, 2, 1, 3))


def test_rhs_matches_loop_oracle():
    prng = random.Random(17)
    tensors = [rigid_body_tensor(), heavy_top_tensor(), crmhd(Fraction(5, 2)), crmhd(Fraction(1, 3))]
    tensors += [leibniz(k) for k in range(1, 9)] + [direct_sum(leibniz(8), leibniz(8))]
    tensors += [random_real_tensor(prng, n) for n in range(1, 17)]
    rng = np.random.default_rng(17)
    for t in tensors:
        for _ in range(3):
            h = random_hamiltonian(rng, t.n)
            state = rng.normal(size=(t.n, 3))
            got = eom_rhs(t, h, FieldState(state))
            want = loop_rhs(t, h, state)
            assert got.shape == (t.n, 3)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def loop_rk4(t, h, state, dt, steps):
    """Classical RK4 driven by the loop oracle, in the same arithmetic order as simulate."""
    for _ in range(steps):
        k1 = loop_rhs(t, h, state)
        k2 = loop_rhs(t, h, state + 0.5 * dt * k1)
        k3 = loop_rhs(t, h, state + 0.5 * dt * k2)
        k4 = loop_rhs(t, h, state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def test_simulate_matches_loop_rk4():
    rng = np.random.default_rng(29)
    tensors = [rigid_body_tensor(), heavy_top_tensor(), crmhd(Fraction(5, 2)), leibniz(8),
               direct_sum(leibniz(8), leibniz(8))]
    for t in tensors:
        # coupled blocks scaled so that 20 steps of 0.005 stay far from blow-up
        h = HamiltonianSpec(random_hamiltonian(rng, t.n).blocks / (3 * t.n))
        state = rng.normal(size=(t.n, 3)) / np.sqrt(3 * t.n)
        record = simulate(t, h, FieldState(state), dt=0.005, steps=20, sample_every=5)
        want = state
        for k in range(1, 5):
            want = loop_rk4(t, h, want, 0.005, 5)
            got = record.states[k]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_simulate_builds_the_operator_once(monkeypatch):
    calls = []
    build = dynamics._eom_operator
    monkeypatch.setattr(dynamics, "_eom_operator", lambda t, h: calls.append(t) or build(t, h))
    t = heavy_top_tensor()
    simulate(t, HamiltonianSpec.isotropic(2), FieldState(np.ones((2, 3))), dt=0.01, steps=10)
    assert len(calls) == 1


def test_rhs_rejects_complex_tensor():
    w = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    w[1][0][0] = I
    t = ExtensionTensor(2, False, tuple(tuple(tuple(row) for row in plane) for plane in w))
    with pytest.raises(DynamicsError):
        eom_rhs(t, HamiltonianSpec.isotropic(2), FieldState(np.ones((2, 3))))


def test_rhs_of_zero_tensor_is_zero():
    rng = np.random.default_rng(4)
    for t in (abelian(1), abelian(3), leibniz(1)):
        n = t.n
        rhs = eom_rhs(t, random_hamiltonian(rng, n), FieldState(rng.normal(size=(n, 3))))
        assert rhs.shape == (n, 3) and rhs.dtype == np.float64
        assert np.array_equal(rhs, np.zeros((n, 3)))


def test_dimension_mismatch():
    with pytest.raises(DynamicsError):
        eom_rhs(rigid_body_tensor(), HamiltonianSpec.isotropic(2),
                FieldState.from_vectors([[1, 0, 0], [0, 1, 0]]))


def test_analytic_conservation_random_states():
    cases = [
        (rigid_body_tensor(), HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])),
        (heavy_top_tensor(), HamiltonianSpec.isotropic(2)),
        (crmhd(1), HamiltonianSpec.isotropic(4)),
    ]
    rng = np.random.default_rng(12)
    for t, h in cases:
        monitors = exact_monitors(t)
        assert monitors
        for _ in range(100):
            state = rng.normal(size=(t.n, 3))
            for _, q in monitors:
                assert analytic_conservation_residual(t, h, q, state) <= 1e-12


def test_energy_conservation_analytic():
    t = heavy_top_tensor()
    h = HamiltonianSpec.isotropic(2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = rng.normal(size=(2, 3))
        rhs = eom_rhs(t, h, FieldState(state))
        grad = h.gradient(state)
        raw = abs(float(np.einsum("mi,mi->", grad, rhs)))
        scale = max(np.linalg.norm(grad) * np.linalg.norm(rhs), 1e-30)
        assert raw / scale <= 1e-12


def test_heavy_top_monitors_span():
    # basis of quadratic Casimirs: <l0, l1> and |l1|^2
    mons = exact_monitors(heavy_top_tensor())
    assert len(mons) == 2
    stacked = np.array([q.reshape(-1) for _, q in mons])
    for target in (np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 1]])):
        sol, res, rank_, _ = np.linalg.lstsq(stacked.T, target.reshape(-1), rcond=None)
        assert np.allclose(stacked.T @ sol, target.reshape(-1))


def test_simulate_rigid_body_short():
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    s0 = FieldState.from_vectors([[1.0, 1.0, 1.0]])
    record = simulate(t, h, s0, dt=1e-3, steps=2000, monitors=exact_monitors(t), sample_every=100)
    assert record.drifts["H"] < 1e-10
    for name, drift in record.drifts.items():
        assert drift < 1e-10, name


def test_simulate_heavy_top_drifts():
    t = heavy_top_tensor()
    h = HamiltonianSpec.isotropic(2)
    s0 = FieldState.from_vectors([[0.3, -0.2, 0.9], [0.5, 0.1, -0.4]])
    record = simulate(t, h, s0, dt=1e-3, steps=2000, monitors=exact_monitors(t), sample_every=100)
    for name, drift in record.drifts.items():
        assert drift < 1e-9, (name, drift)


def test_rk4_convergence_order():
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    s0 = FieldState.from_vectors([[1.0, 1.0, 1.0]])
    mons = exact_monitors(t)
    coarse = simulate(t, h, s0, dt=0.04, steps=250, monitors=mons)
    fine = simulate(t, h, s0, dt=0.02, steps=500, monitors=mons)
    for name in coarse.drifts:
        ratio = coarse.drifts[name] / max(fine.drifts[name], 1e-300)
        assert 8 <= ratio <= 32, (name, ratio)


def test_nonfinite_detection():
    # unstable blow-up: negative-definite coupling on a semidirect pair
    t = heavy_top_tensor()
    blocks = np.zeros((2, 2, 3, 3))
    blocks[0, 0] = np.eye(3) * 1e8
    blocks[1, 1] = -np.eye(3) * 1e8
    h = HamiltonianSpec(blocks)
    s0 = FieldState.from_vectors([[1e150, 0, 0], [0, 1e150, 0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            simulate(t, h, s0, dt=1e3, steps=50)


def test_csv_output(tmp_path):
    t = rigid_body_tensor()
    h = HamiltonianSpec.rigid_body([1.0, 2.0, 3.0])
    s0 = FieldState.from_vectors([[1.0, 0.5, 0.25]])
    record = simulate(t, h, s0, dt=0.01, steps=10, monitors=exact_monitors(t))
    out = tmp_path / "traj.csv"
    record.to_csv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("time,l0_x,l0_y,l0_z")
    assert len(lines) == 12  # header + initial sample + 10 steps


def test_complex_quadratic_split_real_imag():
    # over Q(i) a complex Q splits into two real symmetric monitors
    t = crmhd(1)
    mons = exact_monitors(t)
    for _, q in mons:
        assert np.allclose(q, q.T)

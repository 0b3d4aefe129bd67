import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import stored_rows
from liepoisson import dynamics
from liepoisson.classify import catalog
from liepoisson.cli import EXIT_DIMENSION, main
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


def gradient(h, state):
    """dH/dl^mu = sum_nu A[mu, nu] l^nu, per field: shape (n, 3)."""
    return np.einsum("mnij,nj->mi", h.blocks, state)


def loop_rhs(t, h, state):
    """The per-triple np.cross loop the RHS used before the gather form: the reference."""
    grad = gradient(h, state)
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
    return ExtensionTensor._of(n, stored_rows(w))


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
    t = ExtensionTensor(2, tuple(tuple(tuple(row) for row in plane) for plane in w))
    with pytest.raises(DynamicsError):
        eom_rhs(t, HamiltonianSpec.isotropic(2), FieldState(np.ones((2, 3))))


def test_rhs_of_zero_tensor_is_zero():
    rng = np.random.default_rng(4)
    for t in (abelian(1), abelian(3), leibniz(1)):
        n = t.n
        rhs = eom_rhs(t, random_hamiltonian(rng, n), FieldState(rng.normal(size=(n, 3))))
        assert rhs.shape == (n, 3) and rhs.dtype == np.float64
        assert np.array_equal(rhs, np.zeros((n, 3)))


@pytest.mark.parametrize("tuples", [np.ones((2, 2)), np.ones((2, 3, 1)), np.ones(6), np.ones((3, 2)), 1.0,
                                    [[1, 0, 0], [0, 1]], [["a", "b", "c"]] * 2, {}])
@pytest.mark.parametrize("through", ["simulate", "eom_rhs"])
def test_a_state_that_is_not_a_list_of_3_vectors_is_refused(tuples, through):
    # checked where the state is built: a (2, 2) state reached numpy's reshape,
    # a (2, 3, 1) one ran as if it were (2, 3), and ragged rows raised numpy's ValueError
    t, h = heavy_top_tensor(), HamiltonianSpec.isotropic(2)
    run = {"simulate": lambda s: simulate(t, h, s, 0.01, 3).states[-1], "eom_rhs": lambda s: eom_rhs(t, h, s)}[through]
    for build in (FieldState, FieldState.from_vectors):
        with pytest.raises(DynamicsError, match="state must be a list of 3-vectors"):
            run(build(tuples))
    s = FieldState([[1, 0, 0], [0, 1, 0]], time=2)
    assert s.tuples.dtype == np.float64 and s.tuples.shape == (2, 3)
    assert run(s).shape == (2, 3)


def test_dimension_mismatch():
    with pytest.raises(DynamicsError):
        eom_rhs(rigid_body_tensor(), HamiltonianSpec.isotropic(2),
                FieldState.from_vectors([[1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("bad", [
    {"sample_every": 0}, {"sample_every": -3}, {"steps": -1},
    {"dt": 0.0}, {"dt": -0.01}, {"dt": math.nan}, {"dt": math.inf},
])
def test_simulate_rejects_bad_run_parameters(bad):
    args = {"dt": 0.01, "steps": 4, "sample_every": 1, **bad}
    with pytest.raises(DynamicsError):
        simulate(heavy_top_tensor(), HamiltonianSpec.isotropic(2), FieldState(np.ones((2, 3))), **args)


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
        grad = gradient(h, state)
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


def test_monitor_that_starts_at_zero_drifts_on_its_own_scale():
    # Q1 and Q2 of CRMHD are exactly 0 on this state; over a floor of 1e-300
    # their round-off change read as drifts of about 1e290
    t = crmhd(Fraction(5, 2))
    s0 = FieldState.from_vectors([[1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
    mons = exact_monitors(t)
    record = simulate(t, HamiltonianSpec.isotropic(4), s0, dt=0.01, steps=5, monitors=mons)
    starts = {name: series[0] for name, series in record.monitors.items()}
    assert [name for name, c in starts.items() if c == 0] == ["Q1", "Q2"]
    for name, drift in record.drifts.items():
        assert drift < 1e-6, (name, drift)
        series = record.monitors[name]
        if starts[name]:
            # above the floor the drift is the plain relative change, bit for bit
            assert drift == abs(series[-1] - series[0]) / abs(series[0]), name


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


def test_values_outside_the_float_range_are_dynamics_errors():
    from liepoisson.extension import validate

    huge = validate([[[0, 0], [0, 0]], [[10**400, 0], [0, 0]]])
    with pytest.raises(DynamicsError, match="tensor entry is outside the float range"):
        simulate(huge, HamiltonianSpec.isotropic(2), FieldState.from_vectors([[1.0, 0, 0]] * 2), 0.01, 3)
    with pytest.raises(DynamicsError, match="Casimir coefficient is outside the float range"):
        exact_monitors(crmhd(10**400))


def test_an_overflowing_trajectory_stops_at_the_same_step_without_warnings():
    t = leibniz(2)
    state = FieldState.from_vectors([[1e200] * 3] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="at step 1$"):
            simulate(t, HamiltonianSpec.isotropic(2), state, 1.0, 50)


def reference_evaluate(r, state):
    """dl/dt at an (n, 3) state from the operator R, by two matrix products."""
    x = state.reshape(-1)
    return ((r @ x).reshape(x.size, x.size) @ x).reshape(state.shape)


def reference_simulate(t, h, s0, dt, steps, monitors=(), sample_every=1):
    """The RK4 loop on (n, 3) states with one einsum per monitor and sample: the reference."""
    from liepoisson.dynamics import DRIFT_FLOOR, DRIFT_SCALE_FLOOR, _eom_operator

    def magnitudes(state):
        norms = np.linalg.norm(state, axis=1)
        absolute = np.abs(state)
        return {name: 0.5 * float(np.einsum("mi,mnij,nj->", absolute, np.abs(h.blocks), absolute)) if q is None
                else 0.5 * float(norms @ np.abs(q) @ norms) for name, q in mons}

    mons = [("H", None)] + list(monitors)
    values = {name: [] for name, _ in mons}

    def record(state):
        for name, q in mons:
            if q is None:
                values[name].append(0.5 * float(np.einsum("mi,mnij,nj->", state, h.blocks, state)))
            else:
                values[name].append(0.5 * float(np.einsum("mn,mi,ni->", q, state, state)))

    with np.errstate(over="ignore", invalid="ignore"):
        r = _eom_operator(t, h.matrix())
        state = s0.tuples.astype(float).copy()
        mags = magnitudes(state)
        floors = {name: max(DRIFT_SCALE_FLOOR * m, DRIFT_FLOOR) for name, m in mags.items()}
        times = [s0.time]
        samples = [state.copy()]
        record(state)
        for k in range(steps):
            k1 = reference_evaluate(r, state)
            k2 = reference_evaluate(r, state + 0.5 * dt * k1)
            k3 = reference_evaluate(r, state + 0.5 * dt * k2)
            k4 = reference_evaluate(r, state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(state).all():
                raise NonFinite(f"state became non-finite at step {k + 1}")
            if (k + 1) % sample_every == 0 or k + 1 == steps:
                times.append(s0.time + (k + 1) * dt)
                samples.append(state.copy())
                record(state)
    drifts = {name: abs(series[-1] - series[0]) / max(abs(series[0]), floors[name])
              for name, series in values.items()}
    return np.array(times), np.array(samples), values, drifts, mags


SO3_TENSORS = [rigid_body_tensor(), heavy_top_tensor(), crmhd(Fraction(5, 2)), leibniz(8),
               direct_sum(leibniz(8), leibniz(8))]


@pytest.mark.parametrize("sample_every", [1, 5])
def test_simulate_matches_the_reference_loop(sample_every):
    rng = np.random.default_rng(31 + sample_every)
    for t in SO3_TENSORS:
        mons = exact_monitors(t)
        for _ in range(3):
            h = HamiltonianSpec(random_hamiltonian(rng, t.n).blocks / (3 * t.n))
            s0 = FieldState(rng.normal(size=(t.n, 3)) / np.sqrt(3 * t.n), time=rng.uniform(-1, 1))
            record = simulate(t, h, s0, 0.01, 23, mons, sample_every)
            times, states, values, drifts, mags = reference_simulate(t, h, s0, 0.01, 23, mons, sample_every)
            assert record.states.shape == states.shape == (len(times), t.n, 3)
            assert np.all(np.abs(record.times - times) <= 1e-14 * np.abs(times))
            assert np.all(np.abs(record.states - states) <= 1e-14 * np.abs(states).max())
            assert list(record.monitors) == list(values) == ["H"] + [name for name, _ in mons]
            for name, series in values.items():
                assert np.all(np.abs(record.monitors[name] - series) <= 1e-14 * mags[name]), name
                # two values within 1e-14 M, over a scale of at least 1e-3 M
                assert abs(record.drifts[name] - drifts[name]) <= 2e-11, name


# real tensors of every kind simulate meets (the catalog, Leibniz, CRMHD and
# direct sums), each with its exact monitors
PROPERTY_TENSORS = [t for order in (2, 3, 4) for _, t in catalog(order).entries]
PROPERTY_TENSORS += [leibniz(k) for k in range(1, 9)] + [crmhd(Fraction(5, 2)), crmhd(Fraction(1, 3))]
PROPERTY_TENSORS += [direct_sum(leibniz(2), crmhd(Fraction(1, 3))), direct_sum(leibniz(8), leibniz(8)),
                     direct_sum(catalog(3).entries[-1][1], leibniz(3))]
PROPERTY_CASES = [(t, exact_monitors(t)) for t in PROPERTY_TENSORS]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=st.sampled_from(PROPERTY_CASES), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 30),
       sample_every=st.integers(1, 7), dt=st.sampled_from([0.001, 0.005, 0.01]))
def test_simulate_agrees_with_the_reference_loop_on_drawn_runs(case, seed, steps, sample_every, dt):
    from liepoisson.dynamics import _eom_operator

    t, mons = case
    rng = np.random.default_rng(seed)
    h = HamiltonianSpec(random_hamiltonian(rng, t.n).blocks / (3 * t.n))
    s0 = FieldState(rng.normal(size=(t.n, 3)) / np.sqrt(3 * t.n), time=rng.uniform(-1, 1))
    before = s0.tuples.copy()
    assert np.array_equal(eom_rhs(t, h, s0), reference_evaluate(_eom_operator(t, h.matrix()), s0.tuples))
    record = simulate(t, h, s0, dt, steps, mons, sample_every)
    times, states, values, drifts, mags = reference_simulate(t, h, s0, dt, steps, mons, sample_every)
    # the caller's state is never written, and no sample stands in for another
    assert np.array_equal(s0.tuples, before)
    assert not np.shares_memory(record.states, s0.tuples)
    assert record.states.shape == states.shape == (len(times), t.n, 3)
    assert np.all(np.abs(record.times - times) <= 1e-14 * np.abs(times))
    assert np.all(np.abs(record.states - states) <= 1e-14 * np.abs(states).max())
    assert list(record.monitors) == list(values)
    for name, series in values.items():
        assert np.all(np.abs(record.monitors[name] - series) <= 1e-14 * mags[name]), name
        assert abs(record.drifts[name] - drifts[name]) <= 2e-11, name


def test_simulate_stops_where_the_reference_loop_stops():
    blocks = np.zeros((2, 2, 3, 3))
    blocks[0, 0], blocks[1, 1] = np.eye(3) * 1e8, -np.eye(3) * 1e8
    cases = [
        (heavy_top_tensor(), HamiltonianSpec(blocks), [[1e150, 0, 0], [0, 1e150, 0]], 1e3),
        (leibniz(2), HamiltonianSpec.isotropic(2), [[1e200] * 3] * 2, 1.0),
        (rigid_body_tensor(), HamiltonianSpec.rigid_body([1.0, 2.0, 3.0]), [[1e100, 2e100, 3e100]], 1e52),
        (crmhd(Fraction(5, 2)), HamiltonianSpec.isotropic(4), [[3e60, 1e60, -2e60]] * 4, 1e90),
    ]
    for t, h, state, dt in cases:
        s0 = FieldState.from_vectors(state)
        with pytest.raises(NonFinite) as got:
            simulate(t, h, s0, dt, 50)
        with pytest.raises(NonFinite) as want:
            reference_simulate(t, h, s0, dt, 50)
        assert str(got.value) == str(want.value)
    # |x|^2 overflows while every entry stays finite: neither loop stops, nor warns
    t, h, s0 = abelian(2), HamiltonianSpec.isotropic(2), FieldState.from_vectors([[1e200, 0, 0], [0, -1e200, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = simulate(t, h, s0, 1.0, 5)
    assert np.array_equal(record.states, reference_simulate(t, h, s0, 1.0, 5)[1])


def test_non_finite_inputs_and_misshapen_monitors_are_named():
    t, h = heavy_top_tensor(), HamiltonianSpec.isotropic(2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DynamicsError, match="initial state has a non-finite entry"):
            simulate(t, h, FieldState.from_vectors([[bad, 1, 0], [0, 1, 0]]), 0.01, 3)
        blocks = HamiltonianSpec.isotropic(2).blocks
        blocks[1, 1, 2, 2] = bad
        with pytest.raises(DynamicsError, match="Hamiltonian blocks have a non-finite entry"):
            HamiltonianSpec(blocks)
    # ragged rows raised numpy's ValueError and a dict a TypeError, as FieldState's did
    for blocks in ([[1, 2], [3]], {}, np.ones((2, 2, 3))):
        with pytest.raises(DynamicsError, match=r"blocks must have shape \(n, n, 3, 3\)"):
            HamiltonianSpec(blocks)
    # a zero moment raised ZeroDivisionError, two moments ValueError and a string TypeError
    for inertia in ((0, 1, 2), (1, 2), ("a", 1, 2), (1, 2, 3, 4), (math.nan, 1, 2), (1, math.inf, 2), [[1, 2, 3]]):
        with pytest.raises(DynamicsError, match="inertia must be three finite nonzero numbers"):
            HamiltonianSpec.rigid_body(inertia)
    # a moment whose reciprocal leaves the float range is refused as a non-finite block, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DynamicsError, match="Hamiltonian blocks have a non-finite entry"):
            HamiltonianSpec.rigid_body((1e-320, 1, 2))
    s0 = FieldState(np.ones((2, 3)))
    with pytest.raises(DynamicsError, match=r"monitor Q has shape \(3, 3\), not \(2, 2\)"):
        simulate(t, h, s0, 0.01, 3, monitors=[("Q", np.eye(3))])
    with pytest.raises(DynamicsError, match=r"monitor P has shape \(4,\), not \(2, 2\)"):
        simulate(t, h, s0, 0.01, 3, monitors=[("Q", np.eye(2)), ("P", np.ones(4))])


def test_hamiltonian_blocks_must_be_exactly_symmetric(tmp_path, capsys):
    # A x is the gradient of 1/2 x^T A x only for a symmetric A: an asymmetry of
    # 1e-5 on the heavy top drifts H by about 1e-6 over 10^4 steps, not 1e-15
    blocks = HamiltonianSpec.isotropic(2).blocks
    blocks[0, 0, 0, 1], blocks[0, 0, 1, 0] = 1.0, 1.00001
    with pytest.raises(DynamicsError, match="exactly"):
        HamiltonianSpec(blocks)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"blocks": blocks.tolist()}))
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps(heavy_top_tensor().to_json()))
    assert main(["simulate", str(doc), "--hamiltonian", str(path), "--steps", "3"]) == EXIT_DIMENSION
    assert "exactly" in capsys.readouterr().out
    blocks[0, 0, 1, 0] = 1.0
    assert np.array_equal(HamiltonianSpec(blocks).blocks, blocks)


def test_a_monitor_may_not_take_a_name_already_monitored():
    # the records are keyed by name: a monitor named H would replace the Hamiltonian
    t, h = heavy_top_tensor(), HamiltonianSpec.isotropic(2)
    s0 = FieldState.from_vectors([[0.3, -0.2, 0.9], [0.5, 0.1, -0.4]])
    q = 3 * np.eye(2)
    for monitors in ([("H", q)], [("Q", q), ("Q", 2 * q)]):
        with pytest.raises(DynamicsError, match="two monitors are named"):
            simulate(t, h, s0, 0.01, 3, monitors=monitors)
    record = simulate(t, h, s0, 0.01, 3, monitors=[("Q", q), ("P", 2 * q)])
    assert sorted(record.monitors) == ["H", "P", "Q"]

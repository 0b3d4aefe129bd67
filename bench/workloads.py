"""Seeded inputs and output oracles for the four benchmark workloads.

Each ``build_<workload>(seed)`` returns one *round*: a list of finished
:class:`Item` objects whose inputs are already ``ExtensionTensor`` values
(plus float states for ``simulate``).  The timed pass only calls
``item.call()`` and ``item.check(output)``; everything here runs before
timing starts.

The oracles do not come from the code under test: classify results are
compared with the catalog entry the input was generated from, synthesized
Casimir families with the literal fixtures of ``liepoisson.tables`` or the
Leibniz closed form, and trajectories with a stated drift bound.  The moved
tensors are built by :func:`transform_tensor`, a direct contraction written
here, so a fault in ``transform.apply`` shows up as a replay mismatch
instead of being baked into the inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import thread_time
from typing import Callable, List, Optional, Sequence

import numpy as np

from liepoisson import casimir, dynamics
from liepoisson.casimir import (
    CasimirFamily,
    CasimirTerm,
    FormalFunction,
    family_sets_equal,
    leibniz_casimirs_closed_form,
)
from liepoisson.classify import catalog
from liepoisson.dynamics import FieldState, HamiltonianSpec, heavy_top_tensor, rigid_body_tensor
from liepoisson.extension import append_semisimple, crmhd, direct_sum, leibniz, validate
from liepoisson.polynomials import Poly
from liepoisson.scalars import I, ONE, ZERO, gr
from liepoisson.tables import crmhd_families, semidirect_extra_table, solvable_table
from liepoisson.transform import apply_chain


# The calls under test go through their modules (``casimir.synthesize_casimirs``,
# not a name bound here), so the tracer's wrappers see them.  The package
# rebinds the name ``classify`` to the function, hence the explicit lookup.
classify_module = importlib.import_module("liepoisson.classify")

# Per-item time limits of the exact workloads, in reference units (see
# harness; one unit is 1.3-2 ms on a 2-vCPU Xeon).  Classify items that do
# not hit the trial-division hang mostly cost under 350 units, but a dense
# order-5 semidirect item now and then costs 900 (about a second), so
# CLASSIFY_LIMIT leaves twice that; the slowest synthesis (Leibniz of
# order 8) costs under a tenth of CASIMIR_LIMIT.
CLASSIFY_LIMIT = 2000
CASIMIR_LIMIT = 25000

# RK4 settings of the simulate workload and the bound every monitored
# relative drift must stay under.
DT = 0.005
STEPS = 20
DRIFT_BOUND = 1e-5


@dataclass
class Item:
    """One unit of work: a finished input, the call on it and its oracle."""

    name: str
    tensor: object                             # the ExtensionTensor the call works on
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when verified, else why not
    extra: str = ""                            # canonical text of any further input
    tags: dict = field(default_factory=dict)


def digest(items: Sequence[Item]) -> str:
    """SHA-256 over the canonical inputs of a round, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.name.encode())
        h.update(b"\0")
        h.update(tensor_text(item.tensor).encode())
        h.update(item.extra.encode())
        h.update(b"\n")
    return h.hexdigest()


def tensor_text(t) -> str:
    return json.dumps(t.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Exact helpers, independent of liepoisson.transform / liepoisson.linalg
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for r in range(k):
                if a[i][r] and b[r][j]:
                    acc = acc + a[i][r] * b[r][j]
            row.append(acc)
        out.append(row)
    return out


def mat_inverse(m):
    """Gauss-Jordan inverse of a square matrix of Gaussian rationals."""
    n = len(m)
    aug = [list(m[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def transform_tensor(t, m):
    """The tensor in the new basis given by the columns of ``m``.

    W'_b^{a g} = sum minv[b][lam] W_lam^{mu nu} m[mu][a] m[nu][g], the law
    ``transform.apply`` implements, contracted here entry by entry.
    """
    n = t.n
    minv = mat_inverse(m)
    w = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for lam in range(n):
        for mu in range(n):
            for nu in range(n):
                v = t.w[lam][mu][nu]
                if not v:
                    continue
                for b in range(n):
                    if not minv[b][lam]:
                        continue
                    vb = minv[b][lam] * v
                    for a in range(n):
                        if not m[mu][a]:
                            continue
                        vba = vb * m[mu][a]
                        for g in range(n):
                            if m[nu][g]:
                                w[b][a][g] = w[b][a][g] + vba * m[nu][g]
    return validate(w, semidirect=t.semidirect)


def is_probable_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo_bits: int, hi_bits: int) -> int:
    bits = rng.randint(lo_bits, hi_bits)
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(p):
            return p


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among Gaussian rationals."""
    out = 0
    for z in values:
        for q in (z.re, z.im):
            out = max(out, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return out


def tensor_entries(t):
    return [x for plane in t.w for row in plane for x in row]


# ---------------------------------------------------------------------------
# Classify workloads
# ---------------------------------------------------------------------------

def _classify_item(name: str, moved, label, expected) -> Item:
    def call():
        return classify_module.classify(moved)

    def check(out):
        got, chain = out
        if (got.name, got.order, got.semidirect) != (label.name, label.order, expected.semidirect):
            return f"wrong label {got.name}{' (semidirect)' if got.semidirect else ''}"
        if apply_chain(moved, chain).w != expected.w:
            return "replay mismatch"
        return None

    return Item(name, moved, call, check, tags={"kind": "classify"})


def criterion2_matrix(rng: random.Random, n: int):
    """Unit-lower-triangular shear with small entries times a permissible rescaling."""
    lower = [
        [gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) if j < i else (ONE if i == j else ZERO)
         for j in range(n)]
        for i in range(n)
    ]
    scales = []
    for _ in range(n):
        v = gr(Fraction(rng.choice([1, 2, 3, 5, -1, -2, -3]), rng.choice([1, 2, 3])))
        if rng.random() < 0.25:
            v = v * I
        scales.append(v)
    diag = [[scales[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return mat_mul(lower, diag)


def dense_integer_matrix(rng: random.Random, n: int):
    """A dense invertible integer matrix with small entries.

    A product of 3n random elementary column operations (unimodular) times
    a diagonal of small nonzero integers.
    """
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            m[r][j] += c * m[r][i]
    d = [rng.choice((1, 1, 2, -1, 3)) for _ in range(n)]
    return [[gr(m[i][j] * d[j]) for j in range(n)] for i in range(n)]


def _height_scalar(rng: random.Random, lo_bits: int, hi_bits: int):
    """+-p or +-i*p, or its inverse, for a random prime p of the given height."""
    v = gr(random_prime(rng, lo_bits, hi_bits)) * rng.choice((ONE, -ONE, I, -I))
    return ONE / v if rng.random() < 0.5 else v


def rescaling(rng: random.Random, n: int, pos: int, lo_bits: int, hi_bits: int):
    small = [gr(rng.choice((1, 2, 3, -1, -2))) * (I if rng.random() < 0.25 else ONE) for _ in range(n)]
    small[pos] = _height_scalar(rng, lo_bits, hi_bits)
    return [[small[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def _entries(orders=(2, 3, 4)):
    return [(label, entry) for order in orders for label, entry in catalog(order).entries]


def build_classify_orbits(seed: int) -> List[Item]:
    """The criterion-2 distribution: moved copies of every order 2-4 entry.

    Eighteen copies per entry of order 2 or 3 and 27 per entry of order 4,
    so the median item falls inside the bulk of the order-4 costs rather
    than in the gap between them and the cheap low-order entries, and
    enough of them lie near it that the median moves little from seed to
    seed.
    """
    rng = random.Random(f"classify-orbits:{seed}")
    items = []
    for label, entry in _entries():
        for k in range(27 if entry.n == 4 else 18):
            moved = transform_tensor(entry, criterion2_matrix(rng, entry.n))
            items.append(_classify_item(f"{label.name}/orbit{k}", moved, label, entry))
    return items


# Coefficient heights of the classify-generic rescalings, in bits.  The band
# between 17 and 59 bits is left out on purpose: there the trial-division
# cost of scalars._squarefree_int lands near any fixed time limit, so whether
# an item overruns would depend on the machine.  Below 17 bits every item
# finishes in milliseconds; above 2^60 an item that reaches the trial
# division needs more than 2^30 steps, so it overruns on any machine and the
# failure count repeats exactly.
HEIGHT_BANDS = {"few": (2, 8), "small": (9, 16), "large": (61, 62)}


def build_classify_generic(seed: int) -> List[Item]:
    """Dense GL_n(Z) conjugations, semidirect forms and spread coefficient heights.

    Per order 2-4 catalog entry: two dense integer conjugations, the
    semidirect form (order up to 5) under dense conjugations (five for
    order-4 entries, two for the others), rescalings by four few-bit and
    three 9-16-bit primes at random slots, and a rescaling by a prime above
    2^60 at slot 0 (a fixed slot, so the set of entries whose reduction
    reaches the trial division is the same for every seed).  The 45 order-5
    semidirect items, whose costs spread over a factor of three, are the
    tail the 90th percentile is read from, and the 63 rescalings of order-4
    entries the bulk the median falls in; with fewer of either, which
    seeded matrices land next to a percentile moves it by a tenth or more
    from seed to seed.
    """
    rng = random.Random(f"classify-generic:{seed}")
    items = []
    for label, entry in _entries():
        n = entry.n
        for k in range(2):
            moved = transform_tensor(entry, dense_integer_matrix(rng, n))
            items.append(_classify_item(f"{label.name}/dense{k}", moved, label, entry))
        sd = append_semisimple(entry)
        for k in range(5 if n == 4 else 2):
            moved = transform_tensor(sd, dense_integer_matrix(rng, n + 1))
            items.append(_classify_item(f"{label.name}/semidirect-dense{k}", moved, label, sd))
        for k, band in enumerate(("few",) * 4 + ("small",) * 3 + ("large",)):
            pos = 0 if band == "large" else rng.randrange(n)
            lo, hi = HEIGHT_BANDS[band]
            moved = transform_tensor(entry, rescaling(rng, n, pos, lo, hi))
            items.append(_classify_item(f"{label.name}/height-{band}{k}", moved, label, entry))
    return items


def witness_max_bits(chain) -> int:
    return max((max(max_bits(b.m.entries), max_bits([b.scale])) for b in chain), default=0)


# ---------------------------------------------------------------------------
# Casimir synthesis
# ---------------------------------------------------------------------------

def shift_family(fam: CasimirFamily) -> CasimirFamily:
    """A solvable fixture family on the semidirect tensor (slots shift up by one).

    Written here rather than taken from the CLI, so that the oracle does not
    come from the code under test.
    """
    n = fam.n + 1
    terms = []
    for term in fam.terms:
        poly = Poly(n, {(0,) + e: c for e, c in term.poly.terms.items()})
        func = None
        if term.func is not None:
            func = FormalFunction(term.func.label, tuple((ZERO,) + u for u in term.func.args))
        terms.append(CasimirTerm(poly, func, term.deriv))
    return CasimirFamily(tuple(terms), n, True)


def _casimir_item(name: str, t, expected: List[CasimirFamily]) -> Item:
    def call():
        return casimir.synthesize_casimirs(t)

    def check(out):
        return None if family_sets_equal(out, expected) else "family mismatch"

    return Item(name, t, call, check, tags={"kind": "casimir"})


def random_beta(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12))


def build_casimir_synth(seed: int) -> List[Item]:
    """Every catalog entry with and without the semisimple slot, CRMHD at 104
    seeded rational betas, and the Leibniz extensions of orders 2-8 in
    solvable form and 2-7 in semidirect form (up to eight fields each; the
    semidirect order 8 alone would double the round's time).

    The many cheap CRMHD items put the median inside their cluster and the
    90th percentile inside the cluster of order-4 catalog items (25-35 ms on
    a 2-core Xeon), not in a gap between clusters.
    """
    rng = random.Random(f"casimir-synth:{seed}")
    fixtures = solvable_table()
    extras = semidirect_extra_table()
    items = []
    for label, entry in _entries((1, 2, 3, 4)):
        items.append(_casimir_item(f"{label.name}", entry, fixtures[label.name]))
        expected = [shift_family(f) for f in fixtures[label.name]]
        if label.name in extras:
            expected.insert(0, extras[label.name])
        items.append(_casimir_item(f"{label.name}/semidirect", append_semisimple(entry), expected))
    for k in range(104):
        beta = random_beta(rng)
        items.append(_casimir_item(f"crmhd{k}/{beta}", crmhd(beta), crmhd_families(beta)))
    for order in range(2, 9):
        closed = [leibniz_casimirs_closed_form(order, nu) for nu in range(1, order + 1)]
        items.append(_casimir_item(f"leibniz{order}", leibniz(order), closed))
    for order in range(2, 8):
        closed = [leibniz_casimirs_closed_form(order, nu, semidirect=True) for nu in range(order + 1)]
        items.append(_casimir_item(f"leibniz{order}/semidirect", leibniz(order, semidirect=True), closed))
    # interleave the expensive Leibniz items with the cheap ones so a round
    # has no long stretch of either
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Simulate
# ---------------------------------------------------------------------------

# (name, items per round) of the simulate tensors.  The weights keep the
# n = 16 item (whose exact Casimir basis alone takes over a second) to one
# in a hundred, and put the median in the middle of the heavy-top items and
# the 90th percentile in the middle of the leibniz(8) items, away from the
# gaps between sizes.
SIMULATE_MIX = (("rigid-body", 28), ("heavy-top", 30), ("crmhd", 22), ("leibniz8", 19), ("leibniz8+leibniz8", 1))


def _simulate_tensor(name: str, beta):
    if name == "rigid-body":
        return rigid_body_tensor()
    if name == "heavy-top":
        return heavy_top_tensor()
    if name == "crmhd":
        return crmhd(beta)
    if name == "leibniz8":
        return leibniz(8)
    return direct_sum(leibniz(8), leibniz(8))


def _well_posed_state(rng: np.random.Generator, monitors, n: int) -> np.ndarray:
    """A random state of norm sqrt(n) on which no monitored quadratic
    invariant is near zero.

    A relative drift is only meaningful away from zero, so states where some
    |C_Q| is under 5% of |Q| |l|^2 / 2 are redrawn.
    """
    while True:
        state = rng.normal(size=(n, 3))
        state *= np.sqrt(n / np.sum(state * state))
        norm2 = float(n)
        if all(abs(0.5 * float(np.einsum("mn,mi,ni->", q, state, state)))
               >= 0.05 * 0.5 * float(np.abs(q).max()) * norm2 for _, q in monitors):
            return state


def _simulate_item(name: str, t, h: HamiltonianSpec, s0: FieldState) -> Item:
    def call():
        monitors = dynamics.exact_monitors(t)
        start = thread_time()
        record = dynamics.simulate(t, h, s0, dt=DT, steps=STEPS, monitors=monitors, sample_every=STEPS)
        return monitors, record, thread_time() - start

    def check(out):
        monitors, record, _ = out
        if not monitors:
            return "no quadratic Casimir monitors"
        worst = max(record.drifts, key=record.drifts.get)
        if record.drifts[worst] > DRIFT_BOUND:
            return f"drift {record.drifts[worst]:.3g} of {worst} above {DRIFT_BOUND:g}"
        return None

    extra = h.blocks.tobytes().hex() + s0.tuples.tobytes().hex()
    return Item(name, t, call, check, extra, {"kind": "simulate", "h": h, "s0": s0})


def build_simulate(seed: int) -> List[Item]:
    """Seeded states and anisotropic Hamiltonians on the five so(3)* tensors."""
    prng = random.Random(f"simulate:{seed}")
    rng = np.random.default_rng(prng.getrandbits(64))
    beta = random_beta(prng)
    items = []
    for name, count in SIMULATE_MIX:
        t = _simulate_tensor(name, beta)
        monitors = dynamics.exact_monitors(t)
        for k in range(count):
            blocks = np.zeros((t.n, t.n, 3, 3))
            for mu in range(t.n):
                blocks[mu, mu] = np.diag(rng.uniform(0.5, 2.0, size=3))
            h = HamiltonianSpec(blocks)
            s0 = FieldState(_well_posed_state(rng, monitors, t.n))
            items.append(_simulate_item(f"{name}/{k}", t, h, s0))
    prng.shuffle(items)
    return items


BUILDERS = {
    "classify-orbits": build_classify_orbits,
    "classify-generic": build_classify_generic,
    "casimir-synth": build_casimir_synth,
    "simulate": build_simulate,
}

LIMITS = {
    "classify-orbits": CLASSIFY_LIMIT,
    "classify-generic": CLASSIFY_LIMIT,
    "casimir-synth": CASIMIR_LIMIT,
    "simulate": None,
}

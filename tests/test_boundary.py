"""Boundary lifts: trace matching, limit amplitudes, field evaluation.

Traces are (u, w, d_y b) complex arrays; a lift is an ExpModes set whose
coefficients are a (U, W, B), and since U = 1 its cu are the amplitudes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavecrit.boundary import (
    ExpModes,
    IllConditionedLiftError,
    RegimeError,
    YLattice,
    _distinct,
    _equilibrated_solve,
    evaluate_modes,
    lift_critical,
    lift_noncritical,
    lift_nonoscillating,
    limit_amplitudes_DY,
    mode_profiles,
)
from wavecrit.characteristic import (
    CRITICAL_REGIMES,
    ModalMatrixSpec,
    Regime,
    build_matrix,
    eigenvector,
    roots_for,
)
from wavecrit.params import PhysParams, critical_carrier

GAMMA = 0.7
CARRIER = critical_carrier(GAMMA, 0.25)


def spec_at(eps, omega=None, k=None):
    p = PhysParams(gamma=GAMMA, eps=eps)
    return ModalMatrixSpec(
        nu=p.nu,
        kappa=p.kappa,
        omega=CARRIER.omega0 if omega is None else omega,
        k=CARRIER.k0 if k is None else k,
        gamma=GAMMA,
    )


def regime_spec(regime, eps=0.2):
    sg = math.sin(GAMMA)
    nu13 = eps**2
    return {
        Regime.NON_CRITICAL: spec_at(eps, omega=2 * CARRIER.omega0, k=2 * CARRIER.k0),
        Regime.CRITICAL_SMALL_DIFF: spec_at(eps, omega=math.sqrt(sg**2 + 8 * nu13)),
        Regime.CRITICAL_DY: spec_at(eps, omega=math.sqrt(sg**2 + nu13)),
        Regime.CRITICAL_LARGE_DIFF: spec_at(eps),
        Regime.NON_OSCILLATING: spec_at(eps, omega=0.5 * nu13, k=0.5 * nu13),
    }[regime]


def random_traces(rng, n):
    z = rng.normal(size=(n, 6))
    return list(z[:, 0::2] + 1j * z[:, 1::2])


def col(tr):
    """One node's (u, w, d_y b) as the (3, 1) array a lift takes."""
    return np.asarray(tr, dtype=complex)[:, None]


def wall_values(lift):
    """(u, w, d_y b) at the wall produced by the lift's modes."""
    return np.sum(lift.traces(), axis=1)


class TestTraceMatching:
    @pytest.mark.parametrize(
        "regime",
        [
            Regime.CRITICAL_SMALL_DIFF,
            Regime.CRITICAL_DY,
            Regime.CRITICAL_LARGE_DIFF,
        ],
    )
    def test_critical_lift_100_random_triples(self, regime):
        spec = regime_spec(regime)
        rng = np.random.default_rng(11)
        for tr in random_traces(rng, 100):
            lift = lift_critical(spec, tr[:, None])
            err = np.abs(wall_values(lift) - tr).max()
            assert err <= 1e-9 * max(np.abs(tr).max(), 1e-300)

    def test_noncritical_split_100_random_triples(self):
        spec = regime_spec(Regime.NON_CRITICAL)
        rs = roots_for(spec)
        rng = np.random.default_rng(12)
        for tr in random_traces(rng, 100):
            rw, bl = lift_noncritical(spec, tr[:, None])
            total = wall_values(rw) + wall_values(bl)
            err = np.abs(total - tr).max()
            assert err <= 1e-9 * np.abs(tr).max()
        assert rw.mu.tolist() == rs.by_label(2).tolist()
        assert bl.mu.tolist() == [rs.by_label(3)[0], rs.by_label(5)[0]]

    def test_nonoscillating_100_random_triples(self):
        spec = regime_spec(Regime.NON_OSCILLATING)
        rng = np.random.default_rng(13)
        for tr in random_traces(rng, 100):
            lift, leftover = lift_nonoscillating(spec, tr[:, None])
            got = wall_values(lift)
            scale = np.abs(tr).max()
            assert abs(got[0] - tr[0]) <= 1e-9 * scale
            assert abs(got[2] - tr[2]) <= 1e-9 * scale
            # leftover is exactly the unmatched part of the w-trace
            assert abs(got[1] - tr[1] - leftover[0]) <= 1e-12 * scale

    def test_zero_traces_give_zero_lift(self):
        spec = regime_spec(Regime.CRITICAL_DY)
        lift = lift_critical(spec, np.zeros((3, 1)))
        assert lift.cu.tolist() == [0.0, 0.0, 0.0]

    def test_w_only_trace_in_degenerate_regime(self):
        # (0, w, 0): nothing to lift, the whole w-trace is left over
        spec = regime_spec(Regime.NON_OSCILLATING)
        lift, leftover = lift_nonoscillating(spec, col([0.0, 2.0 - 1j, 0.0]))
        assert np.abs(lift.cu).max() <= 1e-12
        assert leftover[0] == pytest.approx(-(2.0 - 1j))

    @pytest.mark.parametrize("regime", CRITICAL_REGIMES)
    def test_noncritical_lift_takes_critical_nodes(self, regime):
        """The second-harmonic lift takes a near-critical node, as W1's
        double-lobe nodes are at small gamma: its modes are lift_critical's,
        bit for bit, with the label-2 mode split off as the reflected wave."""
        spec = regime_spec(regime)
        rng = np.random.default_rng(14)
        tr = random_traces(rng, 1)[0][:, None]
        whole = lift_critical(spec, tr)
        rw, bl = lift_noncritical(spec, tr)
        assert rw.mu.tolist() == roots_for(spec).by_label(2).tolist()
        for f in ("l", "alpha", "mu", "cu", "cw", "cb"):
            assert getattr(rw, f).tolist() == getattr(whole, f)[:1].tolist()
            assert getattr(bl, f).tolist() == getattr(whole, f)[1:].tolist()

    def test_regime_preconditions(self):
        tr = col([1.0, 0.0, 0.0])
        with pytest.raises(RegimeError):
            lift_noncritical(regime_spec(Regime.NON_OSCILLATING), tr)
        with pytest.raises(RegimeError):
            lift_nonoscillating(regime_spec(Regime.CRITICAL_DY), tr)
        with pytest.raises(RegimeError):
            lift_critical(regime_spec(Regime.NON_CRITICAL), tr)

    def test_stray_nodes_counted_and_named(self):
        """A batch with nodes outside the lift's regime: each lift's one
        regime check counts them and names the first by (l, alpha)."""
        for lift, allowed, stray in ((lift_critical, Regime.CRITICAL_DY, Regime.NON_CRITICAL),
                                     (lift_noncritical, Regime.NON_CRITICAL,
                                      Regime.NON_OSCILLATING),
                                     (lift_nonoscillating, Regime.NON_OSCILLATING,
                                      Regime.CRITICAL_DY)):
            ok, bad = regime_spec(allowed), regime_spec(stray)
            spec = ModalMatrixSpec(ok.nu, ok.kappa, np.array([ok.omega, bad.omega, bad.omega]),
                                   np.array([ok.k, bad.k, bad.k]), GAMMA)
            name = (rf"^{lift.__name__} needs regime .*: 2 node\(s\) are not; the first, "
                    rf"\(l={bad.k:.4g}, alpha={bad.omega:.4g}\), classified {stray.value}$")
            with pytest.raises(RegimeError, match=name):
                lift(spec, np.zeros((3, 3), complex))


@settings(max_examples=40, deadline=None)
@given(
    c=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    i=st.integers(min_value=0, max_value=2),
)
@example(c=5e-324 + 0j, i=0)  # subnormal trace: 1e-10 x its size underflows
@example(c=1e300 + 0j, i=2)
def test_lift_is_linear(c, i):
    spec = spec_at(0.2)
    tr = np.eye(3)[:, [i]]
    a1 = lift_critical(spec, tr).cu
    a2 = lift_critical(spec, c * tr).cu
    assert np.abs(a2 - c * a1).max() <= 1e-12 * max(np.abs(a1).max() * abs(c), 1e-30)


def test_superposition_of_random_pairs():
    spec = spec_at(0.2)
    rng = np.random.default_rng(21)
    for t1, t2 in zip(random_traces(rng, 20), random_traces(rng, 20)):
        a1 = lift_critical(spec, t1[:, None]).cu
        a2 = lift_critical(spec, t2[:, None]).cu
        a12 = lift_critical(spec, (t1 + t2)[:, None]).cu
        assert np.abs(a12 - a1 - a2).max() <= 1e-12 * np.abs(a12).max()


class TestDYAmplitudes:
    def test_amplitude_growth_slopes(self):
        """|a2|, |a3| ~ eps^-2 and |a5| ~ eps^-1 for O(1) traces."""
        tr = col([1.0, 0.5 + 0.2j, -0.3j])
        eps_list = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
        mags = []
        for eps in eps_list:
            spec = spec_at(eps)
            mags.append(np.abs(lift_critical(spec, tr).cu))
        mags = np.array(mags)
        loge = np.log(eps_list)
        for j, target in enumerate((-2.0, -2.0, -1.0)):
            slope = np.polyfit(loge, np.log(mags[:, j]), 1)[0]
            assert abs(slope - target) <= 0.2, (j, slope)

    def test_limit_system_structure(self):
        A2, A3, A5 = limit_amplitudes_DY(GAMMA, CARRIER.k0, 1.0 + 0.5j)
        assert abs(A2 + A3) <= 1e-12 * abs(A2)
        assert abs(A5) > 0.0

    def test_limit_system_homogeneous(self):
        assert limit_amplitudes_DY(GAMMA, CARRIER.k0, 0.0) == (0.0, 0.0, 0.0)

    def test_rescaled_amplitudes_converge_to_limits(self):
        """eps^2 a_2 -> A2bar etc., with an O(eps) rate."""
        tr = col([0.0, 1.0, 0.0])
        A2, A3, A5 = limit_amplitudes_DY(GAMMA, CARRIER.k0, 1.0)
        errs = []
        eps_list = [0.2, 0.1, 0.05]
        for eps in eps_list:
            spec = spec_at(eps)
            a2, a3, a5 = lift_critical(spec, tr).cu
            errs.append(
                max(
                    abs(eps**2 * a2 - A2),
                    abs(eps**2 * a3 - A3),
                    abs(eps * a5 - A5),
                )
            )
        rate = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert rate >= 0.7, (errs, rate)


class TestEvaluate:
    """evaluate_modes on a lift: the real field f + conj(f) = 2 Re f."""

    def test_wall_value_equals_mode_sum(self):
        spec = spec_at(0.2)
        tr = np.array([1.0, 0.5j, -0.2])
        lift = lift_critical(spec, tr[:, None])
        # x = 0 reads 2 Re(trace), a quarter wavelength reads -2 Im(trace)
        x = np.array([0.0, 0.5 * math.pi / spec.k])
        u, w, b = evaluate_modes(lift, 0.0, x, np.array([0.0]))
        want = 2.0 * np.array([tr.real, -tr.imag])
        assert u[0] == pytest.approx(want[:, 0], abs=1e-10)
        assert w[0] == pytest.approx(want[:, 1], abs=1e-10)

    def test_decay_away_from_wall(self):
        spec = spec_at(0.2)
        lift = lift_critical(spec, col([1.0, 0.5j, -0.2]))
        x = np.linspace(0.0, 2.0 * math.pi / spec.k, 16, endpoint=False)
        u, w, b = evaluate_modes(lift, 0.3, x, np.array([0.0, 2.0, 50.0]))
        peak = np.abs(u).max(axis=1)
        assert peak[1] < peak[0]
        assert peak[2] < 1e-8 * peak[0]

    def test_underflow_guard_gives_exact_zero(self):
        spec = spec_at(0.2)
        lift = lift_critical(spec, col([1.0, 0.0, 0.0]))
        u, w, b = evaluate_modes(lift, 0.0, np.array([0.0]), np.array([1e9]))
        assert u[0, 0] == 0.0 and w[0, 0] == 0.0 and b[0, 0] == 0.0

    def test_modes_satisfy_modal_system(self):
        """Each mode's (U, W, B) = (cu, cw, cb)/cu is the null vector at its mu."""
        for regime in (Regime.CRITICAL_DY, Regime.NON_CRITICAL):
            spec = regime_spec(regime)
            tr = col([1.0, 0.5, 0.2j])
            if regime is Regime.NON_CRITICAL:
                modes = ExpModes.concat(lift_noncritical(spec, tr))
            else:
                modes = lift_critical(spec, tr)
            assert len(modes) == 3
            assert (modes.l == spec.k).all() and (modes.alpha == spec.omega).all()
            for n in range(len(modes)):
                vec = eigenvector(spec, modes.mu[[n]])
                assert modes.cw[n] / modes.cu[n] == pytest.approx(vec.W[0], rel=1e-12)
                assert modes.cb[n] / modes.cu[n] == pytest.approx(vec.B[0], rel=1e-12)
                A = build_matrix(spec, modes.mu[n])
                v = np.array([vec.U[0], vec.W[0], vec.B[0], vec.P[0]])
                assert np.abs(A @ v).max() <= 1e-8 * np.abs(A).max() * np.abs(v).max()

    def test_field_solves_pde_finite_differences(self):
        """FD insertion of the evaluated field into the buoyancy equation.

        The buoyancy row  d_t b + u sin g + w cos g - kappa (d_xx+d_yy) b = 0
        involves no pressure, so it can be checked directly on the field.
        """
        spec = spec_at(0.35)
        lift = lift_critical(spec, col([1.0, 0.3, 0.1]))
        sg, cg = math.sin(GAMMA), math.cos(GAMMA)
        t0, x0, y0 = 0.2, 0.5, 0.05
        ht, hx = 1e-5, 1e-5
        hy = 3e-5  # balances lambda^6 h^4 truncation vs roundoff/h^2

        def at(t, x, y):
            return [c[0, 0] for c in evaluate_modes(lift, t, np.array([x]), np.array([y]))]

        u0, w0, b0 = at(t0, x0, y0)
        bt = (at(t0 + ht, x0, y0)[2] - at(t0 - ht, x0, y0)[2]) / (2 * ht)
        bxx = (at(t0, x0 + hx, y0)[2] - 2 * b0 + at(t0, x0 - hx, y0)[2]) / hx**2

        def b_at(y):
            return at(t0, x0, y)[2]

        # 4th-order central stencil: the layer rate lambda ~ eps^-3 makes the
        # 2nd-order formula lose too many digits at any workable step
        byy = (
            -b_at(y0 + 2 * hy)
            + 16 * b_at(y0 + hy)
            - 30 * b0
            + 16 * b_at(y0 - hy)
            - b_at(y0 - 2 * hy)
        ) / (12 * hy**2)
        resid = bt + u0 * sg + w0 * cg - spec.kappa * (bxx + byy)
        scale = max(abs(bt), abs(u0 * sg), abs(spec.kappa * byy))
        assert abs(resid) <= 1e-6 * scale


def test_mode_subsets():
    """Indexing a lift gives mode sets: labels 2, 3 by slice, label 5 by index."""
    spec = spec_at(0.2)
    rs = roots_for(spec)
    lift = lift_critical(spec, col([1.0, 0.5j, -0.2]))
    head, last = lift[:2], lift[2]
    assert len(head) == 2 and len(last) == 1
    assert head.mu.tolist() == [rs.by_label(2)[0], rs.by_label(3)[0]]
    assert last.mu.tolist() == rs.by_label(5).tolist() and last.cb.tolist() == [lift.cb[2]]
    joined = ExpModes.concat([head, last])
    for f in ("l", "alpha", "mu", "cu", "cw", "cb"):
        assert (getattr(joined, f) == getattr(lift, f)).all(), f
    # a lift is born of no pair: its parents default to (mu, 0) rows
    assert joined.parents.tolist() == [[mu, 0.0] for mu in lift.mu.tolist()]


def test_stacked_views_share_one_read_only_store():
    """stacked concatenates once: each part's rows are a view of the store,
    equal to the part, and no array of the store or a view can be written."""
    parts = [_pair_set([[1 + 2j, 3 - 1j], [0.5j, 2.0]]), ExpModes.empty(),
             _pair_set([[2.0, 1j]], coef=4.0)]
    store, views = ExpModes.stacked(parts)
    assert len(store) == 3 and [len(v) for v in views] == [2, 0, 1]
    for part, view in zip(parts, views):
        for f in ExpModes._FIELDS:
            assert np.array_equal(getattr(view, f), getattr(part, f)), f
            assert not getattr(view, f).flags.writeable, f
            assert not getattr(store, f).flags.writeable, f
        if len(view):
            assert np.shares_memory(view.cu, store.cu) and np.shares_memory(view.l, store.l)
    with pytest.raises(ValueError):
        views[0].cu[0] = 0.0
    # the parts themselves stay writable: the store is a copy of them
    parts[0].cu[0] = 0.0
    assert store.cu[0] == 1.0


def _pair_set(parents, coef=1.0):
    """One pair mode per row of parents, at l = 1, alpha = 0."""
    parents = np.array(parents, dtype=complex)
    n = len(parents)
    c = np.full(n, coef, dtype=complex)
    return ExpModes(np.ones(n), np.zeros(n), parents.sum(axis=1), c, 2 * c, 3 * c,
                    parents=parents)


def test_parents_follow_the_modes():
    """Indexing, concat, scaled and conj carry the parent rates."""
    m = _pair_set([[1 + 2j, 3 - 1j], [0.5j, 2.0]])
    assert m[1].parents.shape == (1, 2)
    assert m[1].parents.tolist() == [[0.5j, 2.0]]
    assert m[[1, 0]].parents.tolist() == m.parents[::-1].tolist()
    assert (m.scaled(2.0).parents == m.parents).all()
    assert (m.d_dy().parents == m.parents).all()
    assert (m.conj().parents == m.parents.conj()).all()
    joined = ExpModes.concat([m, m[0]])
    assert joined.parents.shape == (3, 2) and (joined.parents[2] == m.parents[0]).all()


class TestPairColumns:
    """mode_profiles builds a pair mode's y-column from its two parents;
    tests/test_corrector.py compares it with the direct path on W1."""

    def test_parent_below_guard_gives_exact_zero(self):
        """A parent factor below e^-700 zeroes the column exactly."""
        m = _pair_set([[750.0, 1.0 + 1j]])
        _, P = mode_profiles(m, 0.0, np.array([0.0, 0.5, 1.0]))
        assert P[:, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert (P[:, 0, 2] == 0.0).all()

    def test_two_parents_near_underflow_agree_with_direct_zero(self):
        """Each factor is e^-400 and representable, their product is not; the
        sum's exponent -800 is below the guard, so the direct column is 0."""
        m = _pair_set([[400.0 + 3j, 400.0 - 1j]], coef=1e6)
        y = np.array([0.0, 1.0])
        _, got = mode_profiles(m, 0.0, y)
        _, want = mode_profiles(ExpModes(m.l, m.alpha, m.mu, m.cu, m.cw, m.cb), 0.0, y)
        assert (want[:, 0, 1] == 0.0).all()
        assert np.abs(got[:, 0, 1]).max() <= 1e-300


@pytest.mark.parametrize("seed", range(4))
def test_distinct_is_unique(seed):
    """_distinct gives np.unique's values and inverse map on rates with
    repeats, shared real or imaginary parts and zero parts of either sign
    (equal as values, whichever sign each keeps)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base[1] = base[0].real + 1j * base[2].imag  # shares a part with two others
    zeros = [0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
             1.5, complex(1.5, -0.0), complex(0.0, 2.0), complex(-0.0, 2.0)]
    z = np.concatenate([base, rng.choice(base, 20), zeros, [base[3].real]])
    z = z[rng.permutation(len(z))]
    got, inv = _distinct(z)
    want, want_inv = np.unique(z, return_inverse=True)
    assert np.array_equal(got, want) and np.array_equal(inv, want_inv)
    assert np.array_equal(got[inv], z)
    empty = _distinct(np.zeros(0, complex))
    assert empty[0].shape == empty[1].shape == (0,)


class TestYLattice:
    """mode_profiles on a YLattice against the same y as points."""

    @pytest.mark.parametrize("stops", [(0.7, 3.0), (3.0, 3.0)])
    def test_points_are_the_merged_grids(self, stops):
        """Equal stops merge to one grid, with one grid's offsets."""
        lattice = YLattice(stops, 300)
        y = np.unique(np.concatenate([np.linspace(0.0, s, 300) for s in stops]))
        assert lattice.y.tobytes() == y.tobytes()
        assert len(lattice.offsets) == len(set(stops)) * (lattice.q + lattice.m)

    def test_profiles_match_the_points(self):
        """Pair and non-pair modes in shared groups, with a further set."""
        rng = np.random.default_rng(3)
        pairs = _pair_set(rng.uniform(0.5, 4.0, (6, 2)) + 1j * rng.normal(size=(6, 2)))
        own = ExpModes(np.ones(4), np.zeros(4), rng.uniform(0.5, 8.0, 4) + 2j,
                       *rng.normal(size=(3, 4)) + 0j)
        m = ExpModes.concat([pairs, own])
        m.l[::2] = 2.0
        lattice = YLattice((0.7, 3.0), 300)
        _, got = mode_profiles(m, 0.4, lattice, [m.d_dy()])
        _, want = mode_profiles(m, 0.4, lattice.y, [m.d_dy()])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_mode_passing_the_guard_keeps_its_zeros(self):
        """Reaching y = 2, exponents of rate 500 and of a parent at 450 pass
        -700.  On the points such modes are exact zeros beyond y = 1.4 and
        1.56.  On the lattice a column there is a product of factors that
        may each stay above the guard, so it reads at most e^-700 (about
        1e-304) of its coefficient, as a pair column on the points does
        (TestPairColumns); everywhere it agrees with the points, also next
        to a mode that does not pass the guard."""
        lattice = YLattice((0.5, 2.0), 300)
        own = ExpModes(np.ones(1), np.zeros(1), np.array([500.0 + 2j]),
                       *np.ones((3, 1), dtype=complex))
        pair = _pair_set([[450.0, 1.0 + 1j]])
        for m, rate in ((own, 500.0), (pair, 450.0)):
            _, got = mode_profiles(m, 0.0, lattice)
            _, want = mode_profiles(m, 0.0, lattice.y)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            beyond = lattice.y > 700.0 / rate
            assert beyond.any() and (want[:, 0, beyond] == 0.0).all()
            assert np.abs(got[:, 0, beyond]).max() <= 1e-300
            assert (got[:, 0, ~beyond] != 0.0).any()
        m = ExpModes.concat([own, pair, _pair_set([[1.0, 2.0 - 1j]])])
        _, got = mode_profiles(m, 0.0, lattice)
        _, want = mode_profiles(m, 0.0, lattice.y)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_traces_must_be_a_triple():
    spec = spec_at(0.2)
    with pytest.raises(ValueError):
        lift_critical(spec, [1.0, 0.0])


def test_ill_conditioned_batch_names_the_node():
    """The stacked lift solve refuses a batch with one singular system in
    the middle and names that node by its (l, alpha)."""
    good = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    mat = np.stack([good, np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex), good])
    rhs = np.ones((3, 2), dtype=complex)
    l, alpha = np.array([0.1, 0.2, 0.3]), np.array([1.1, 1.2, 1.3])
    _equilibrated_solve(mat[[0, 2]], rhs[[0, 2]], l[[0, 2]], alpha[[0, 2]])
    with pytest.raises(IllConditionedLiftError, match=r"at \(l=0\.2, alpha=1\.2\)"):
        _equilibrated_solve(mat, rhs, l, alpha)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("regime, lift", [
    (Regime.CRITICAL_DY, lift_critical),
    (Regime.NON_CRITICAL, lift_noncritical),
    (Regime.NON_OSCILLATING, lift_nonoscillating),
])
def test_non_finite_trace_is_named(bad, regime, lift):
    """A NaN or inf u-trace fails the residual check of every lift, which
    names the node by its (l, alpha); the node next to it lifts as before."""
    one = regime_spec(regime)
    spec = ModalMatrixSpec(one.nu, one.kappa, np.full(2, one.omega), np.full(2, one.k),
                           one.gamma)
    traces = np.array([[1.0, 0.3, -0.5j], [bad, 0.3, -0.5j]]).T
    lift(spec, traces[:, [0, 0]])
    name = rf"at \(l={one.k:.6g}, alpha={one.omega:.6g}\)"
    with pytest.raises(IllConditionedLiftError, match=rf"lift residual nan {name}"):
        lift(spec, traces)


def test_batch_lift_equals_one_node_lifts():
    """A batch lift gives each node the modes of its one-node lift, in node
    order; a zero trace in the middle gives zero amplitudes."""
    sg = math.sin(GAMMA)
    omega = np.array([CARRIER.omega0, math.sqrt(sg**2 + 0.04), CARRIER.omega0 * 1.01])
    k = np.array([CARRIER.k0, 0.3, CARRIER.k0 * 0.99])
    p = PhysParams(gamma=GAMMA, eps=0.2)
    spec = ModalMatrixSpec(p.nu, p.kappa, omega, k, GAMMA)
    traces = np.array([[1.0, 0.0, 0.3j], [0.5j, 0.0, -1.0], [-0.2, 0.0, 2.0]])
    batch = lift_critical(spec, traces)
    assert (batch.cu[3:6] == 0).all()
    for i in range(3):
        one = ModalMatrixSpec(p.nu, p.kappa, omega[i], k[i], GAMMA)
        want = lift_critical(one, traces[:, [i]])
        got = batch[3 * i:3 * i + 3]
        assert got.l.tolist() == want.l.tolist() and got.alpha.tolist() == want.alpha.tolist()
        assert np.abs(got.mu - want.mu).max() <= 1e-14 * np.abs(want.mu).max()
        if i != 1:
            assert np.abs(got.cu - want.cu).max() <= 1e-12 * np.abs(want.cu).max()

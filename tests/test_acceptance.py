"""End-to-end acceptance gate: one test (and one printed verdict) per claim.

Each test prints a single "[criterion NN] PASS/FAIL" line (visible with
``pytest -s`` or in the captured output of a failure) and then asserts.
Budget-heavy runs (8, 9) reuse one shared simulation per criterion.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from wavecrit import corrector as C
from wavecrit.boundary import (
    ExpModes,
    lift_critical,
    lift_noncritical,
    lift_nonoscillating,
    limit_amplitudes_DY,
)
from wavecrit.characteristic import (
    ModalMatrixSpec,
    Regime,
    _node_name,
    _polished_roots,
    char_poly,
    roots_for,
)
from wavecrit.dns import (
    SimConfig,
    Solver,
    box_matched_eps,
    compare_stability,
    energy_budget,
    init_from_Wapp,
    wapp_evaluator,
)
from wavecrit.packets import (
    Envelope,
    Family,
    QuadratureSpec,
    assemble_W0,
    component_anisotropy,
    default_grid,
    packet_norms,
)
from wavecrit.params import PhysParams, critical_carrier

pytestmark = pytest.mark.filterwarnings(
    "ignore:packet reaches the domain top")

GAMMA = 0.7
EPS_SWEEP = (0.4, 0.3, 0.2, 0.15, 0.1)
# eps = 0.4 is pre-asymptotic for the quadratic corrector families
CORR_SWEEP = (0.3, 0.2, 0.15, 0.1)


def _verdict(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {name}")
    assert not failures, f"criterion {num}: {failures}"


def _slope(eps_list, values):
    return float(np.polyfit(np.log(eps_list), np.log(values), 1)[0])


def make_w0(eps, gamma=GAMMA, nodes=9, delta=0.0, k0=1.0):
    p = PhysParams(gamma=gamma, eps=eps, delta=delta)
    env = Envelope(carrier=critical_carrier(gamma, k0), eps=eps)
    return assemble_W0(p, env, QuadratureSpec(nodes)), p


# ---------------------------------------------------------------------------
# 1 -- root algebra
# ---------------------------------------------------------------------------


def test_criterion_01_root_algebra():
    """200 random draws: Vieta identities, insertion residual, 3 decaying."""
    rng = np.random.default_rng(2024)
    failures = []
    t0 = time.time()
    sg = math.sin(GAMMA)
    for n in range(200):
        eps = rng.uniform(0.05, 0.5)
        nu13 = eps**2
        kind = rng.integers(0, 4)
        omega, k = {
            0: (sg, 1.0),                                # exactly critical
            1: (math.sqrt(sg**2 + nu13), 1.0),           # distinguished
            2: (2 * sg, 2.0),                            # non-critical
            3: (0.5 * nu13, 0.5 * nu13),                 # non-oscillating
        }[int(kind)]
        spec = ModalMatrixSpec(nu=eps**6, kappa=eps**6, omega=omega,
                               k=k * rng.uniform(0.5, 1.5), gamma=GAMMA)
        c = char_poly(spec)
        r = _polished_roots(c, _node_name(spec))[0]
        c = c[0]
        scale = np.abs(r).max()
        e2 = sum(r[i] * r[j] for i in range(6) for j in range(i + 1, 6))
        if abs(r.sum()) > 1e-8 * 6 * scale:
            failures.append(f"draw {n}: Vieta sum")
        if abs(e2 - c[4] / c[6]) > 1e-8 * max(abs(c[4] / c[6]), scale**2):
            failures.append(f"draw {n}: Vieta e2")
        prod = np.prod(r)
        if abs(prod - c[0] / c[6]) > 1e-8 * max(abs(c[0] / c[6]), 1.0):
            failures.append(f"draw {n}: Vieta product")
        for root in r:
            if abs(polyval(root, c)) > 1e-10 * max(abs(ci) for ci in c) * max(
                    1.0, abs(root)) ** 6:
                failures.append(f"draw {n}: insertion residual")
        if (r.real > 0).sum() != 3:
            failures.append(f"draw {n}: {(r.real > 0).sum()} decaying roots")
    if time.time() - t0 > 10.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 10s")
    _verdict(1, "root algebra (Vieta, insertion, 3 decaying)", failures)


# ---------------------------------------------------------------------------
# 2 -- regime scalings
# ---------------------------------------------------------------------------


def test_criterion_02_regime_scalings():
    failures = []
    t0 = time.time()
    sg = math.sin(GAMMA)
    mags = {2: [], 3: [], 5: []}
    for eps in EPS_SWEEP:
        p = PhysParams(gamma=GAMMA, eps=eps)
        spec = ModalMatrixSpec(p.nu, p.kappa, math.sqrt(sg**2 + eps**2),
                               1.0, GAMMA)
        rs = roots_for(spec)
        if rs.regimes[0] is not Regime.CRITICAL_DY:
            failures.append(f"eps={eps}: regime {rs.regimes[0]}")
            continue
        for lab in mags:
            mags[lab].append(abs(rs.by_label(lab)[0]))
    for lab, target in ((2, -2.0), (3, -2.0), (5, -3.0)):
        slope = _slope(EPS_SWEEP, mags[lab])
        if abs(slope - target) > 0.15:
            failures.append(f"|lambda_{lab}| slope {slope:.3f} vs {target}")
    # non-oscillating: Re(lambda_2) ~ |k|^3
    eps = 0.2
    ks = np.array([0.2, 0.35, 0.5, 0.8, 1.2]) * eps**2
    re2 = []
    for k in ks:
        p = PhysParams(gamma=GAMMA, eps=eps)
        spec = ModalMatrixSpec(p.nu, p.kappa, 0.3 * eps**2, float(k), GAMMA)
        rs = roots_for(spec)
        if rs.regimes[0] is not Regime.NON_OSCILLATING:
            failures.append(f"k={k}: regime {rs.regimes[0]}")
            continue
        re2.append(rs.by_label(2)[0].real)
    slope = float(np.polyfit(np.log(ks), np.log(re2), 1)[0])
    if abs(slope - 3.0) > 0.2:
        failures.append(f"non-oscillating Re(lambda_2) slope {slope:.3f}")
    if time.time() - t0 > 10.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 10s")
    _verdict(2, "regime scalings (DY -2/-2/-3; non-oscillating cubic)",
             failures)


# ---------------------------------------------------------------------------
# 3 -- boundary lifting round trip
# ---------------------------------------------------------------------------


def test_criterion_03_boundary_lifting():
    failures = []
    t0 = time.time()
    rng = np.random.default_rng(99)
    car = critical_carrier(GAMMA, 1.0)
    eps = 0.2
    p = PhysParams(gamma=GAMMA, eps=eps)
    sg = math.sin(GAMMA)
    specs = {
        Regime.CRITICAL_DY: ModalMatrixSpec(
            p.nu, p.kappa, math.sqrt(sg**2 + eps**2), car.k0, GAMMA),
        Regime.NON_CRITICAL: ModalMatrixSpec(
            p.nu, p.kappa, 2 * car.omega0, 2 * car.k0, GAMMA),
        Regime.NON_OSCILLATING: ModalMatrixSpec(
            p.nu, p.kappa, 0.5 * eps**2, 0.5 * eps**2, GAMMA),
    }
    for regime, spec in specs.items():
        rs = roots_for(spec)
        worst = 0.0
        # the non-oscillating lift leaves the w-trace over by design
        matched = [0, 2] if regime is Regime.NON_OSCILLATING else [0, 1, 2]
        for n in range(100):
            z = rng.normal(size=6)
            tr = z[0::2] + 1j * z[1::2]
            if regime is Regime.NON_CRITICAL:
                lift = ExpModes.concat(lift_noncritical(spec, rs, tr[:, None]))
            elif regime is Regime.NON_OSCILLATING:
                lift, _leftover = lift_nonoscillating(spec, rs, tr[:, None])
            else:
                lift = lift_critical(spec, rs, tr[:, None])
            got = np.sum(lift.traces(), axis=1)[matched]
            want = tr[matched]
            worst = max(worst,
                        float(np.abs(got - want).max() / np.abs(want).max()))
        if worst > 1e-9:
            failures.append(f"{regime.name}: worst trace error {worst:.2e}")
    if time.time() - t0 > 10.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 10s")
    _verdict(3, "boundary lifting round trip (100 triples x 3 regimes)",
             failures)


# ---------------------------------------------------------------------------
# 4 -- linear packet sizes
# ---------------------------------------------------------------------------


def test_criterion_04_packet_sizes():
    failures = []
    t0 = time.time()
    rows = {fam: ([], []) for fam in
            (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3)}
    an2, an3 = [], []
    for eps in EPS_SWEEP:
        asm, _ = make_w0(eps)
        for fam, (l2s, linfs) in rows.items():
            l2, linf = packet_norms(asm.bundle(fam), default_grid(asm, fam))
            l2s.append(math.hypot(*l2))
            linfs.append(max(linf))
        an2.append(component_anisotropy(asm, Family.BLEPS2))
        an3.append(component_anisotropy(asm, Family.BLEPS3))
    targets = {Family.INCIDENT: (0.0, 2.0), Family.BLEPS2: (0.0, 0.0),
               Family.BLEPS3: (1.5, 1.0)}
    for fam, (l2s, linfs) in rows.items():
        for series, target, norm in ((l2s, targets[fam][0], "L2"),
                                     (linfs, targets[fam][1], "Linf")):
            slope = _slope(EPS_SWEEP, series)
            if abs(slope - target) > 0.3:
                failures.append(f"{fam.name} {norm} slope {slope:.3f} "
                                f"vs {target}")
    for series, target, name in ((an2, 2.0, "BLeps2"), (an3, 3.0, "BLeps3")):
        slope = _slope(EPS_SWEEP, series)
        if abs(slope - target) > 0.3:
            failures.append(f"anisotropy {name} slope {slope:.3f} vs {target}")
    if time.time() - t0 > 300.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 5min")
    _verdict(4, "linear packet size table and anisotropy slopes", failures)


# ---------------------------------------------------------------------------
# 5 -- corrector sizes
# ---------------------------------------------------------------------------


def test_criterion_05_corrector_sizes():
    failures = []
    t0 = time.time()
    sizes = {f: ([], []) for f in (C.W1_BLEPS2, C.W1_BLEPS3, C.W1_II,
                                   C.W1_MF)}
    casms = {}
    for eps in CORR_SWEEP:
        asm, p = make_w0(eps, nodes=5, delta=eps**3)
        row = C.rowwise_family_sizes(asm, p)
        casms[eps] = C.assemble_W1(asm, p)
        for fam, (l2s, linfs) in sizes.items():
            l2s.append(row[fam][0])
            linfs.append(row[fam][1])
    # with delta = eps^3: BLeps2 ~ delta -> 3, BLeps3 L2 ~ delta eps^0.5
    # -> 3.5, II Linf ~ delta eps^2 -> 5
    for fam, idx, target in ((C.W1_BLEPS2, 0, 3.0), (C.W1_BLEPS2, 1, 3.0),
                             (C.W1_BLEPS3, 0, 3.5), (C.W1_II, 1, 5.0)):
        slope = _slope(CORR_SWEEP, sizes[fam][idx])
        if abs(slope - target) > 0.4:
            failures.append(f"{fam}[{idx}] slope {slope:.3f} vs {target}")
    # the mean flow obeys its delta eps^2 bound without attaining it (the
    # construction cancels a further eps); check the bound, report the slope
    mf_slope = _slope(CORR_SWEEP, sizes[C.W1_MF][0])
    ratios = [l2 / (eps**3 * eps**2)
              for eps, l2 in zip(CORR_SWEEP, sizes[C.W1_MF][0])]
    if mf_slope < 5.0 - 0.4:
        failures.append(f"mean flow L2 slope {mf_slope:.3f} above bound")
    if any(b > a * 1.05 for a, b in zip(ratios, ratios[1:])):
        failures.append(f"mean flow / (delta eps^2) ratio grows: {ratios}")
    print(f"\n  mean flow L2 stays under its delta eps^2 bound "
          f"(ratio {ratios[0]:.1f} -> {ratios[-1]:.1f} along the sweep; "
          f"measured slope {mf_slope:.2f})")
    # combined wall trace
    for eps in CORR_SWEEP:
        resid = C.wall_trace_check(casms[eps])
        if resid > 1e-9:
            failures.append(f"eps={eps}: wall trace {resid:.2e}")
    # temporal DFT of the second harmonic peaks at 2 omega0 (+/- eps^2)
    eps = 0.1
    omega0 = math.sin(GAMMA)
    modes = casms[eps].families[C.W1_II]
    x1, y1 = np.array([1.234]), np.array([0.3])
    T_win, nt = 1000.0, 4096
    ts = np.linspace(0.0, T_win, nt, endpoint=False)
    sig = np.array([C.evaluate_modes(modes, t, x1, y1)[0][0, 0] for t in ts])
    spec = np.abs(np.fft.rfft(sig.real))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(nt, d=T_win / nt)
    peak = freqs[int(np.argmax(spec))]
    if abs(peak - 2.0 * omega0) > eps**2:
        failures.append(f"DFT peak {peak:.4f} vs 2*omega0 "
                        f"{2 * omega0:.4f} +/- {eps**2}")
    if time.time() - t0 > 1200.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 20min")
    _verdict(5, "corrector family sizes, wall trace, second-harmonic DFT",
             failures)


# ---------------------------------------------------------------------------
# 6 -- second-harmonic branch
# ---------------------------------------------------------------------------


def test_criterion_06_second_harmonic_branch():
    failures = []
    t0 = time.time()
    eps = 0.1
    # propagating: 4 sin^2(gamma) < 1
    gamma = 0.45
    car = critical_carrier(gamma, 1.0)
    p = PhysParams(gamma=gamma, eps=eps)
    spec = ModalMatrixSpec(p.nu, p.kappa, 2 * car.omega0, 2 * car.k0, gamma)
    lam2 = roots_for(spec).by_label(2)[0]
    if abs(lam2.real) > 1e-3:
        failures.append(f"propagating Re(Lambda_2)={lam2.real:.2e}")
    if C.second_harmonic_rate(gamma, car.k0).real != 0.0:
        failures.append("closed form not purely imaginary")
    # evanescent: 4 sin^2(gamma) > 1
    gamma = GAMMA
    car = critical_carrier(gamma, 1.0)
    p = PhysParams(gamma=gamma, eps=eps)
    spec = ModalMatrixSpec(p.nu, p.kappa, 2 * car.omega0, 2 * car.k0, gamma)
    lam2 = roots_for(spec).by_label(2)[0]
    if lam2.real < 0.3:
        failures.append(f"evanescent Re(Lambda_2)={lam2.real:.2e} not "
                        "bounded away from 0")
    if C.second_harmonic_rate(gamma, car.k0).real < 0.3:
        failures.append("closed form not evanescent")
    if time.time() - t0 > 1.0:
        failures.append(f"runtime {time.time() - t0:.2f}s > 1s")
    _verdict(6, "second-harmonic propagating/evanescent branch", failures)


# ---------------------------------------------------------------------------
# 7 -- residual accounting
# ---------------------------------------------------------------------------


def test_criterion_07_residual_accounting():
    failures = []
    t0 = time.time()
    totals = []
    for eps in CORR_SWEEP:
        asm, p = make_w0(eps, nodes=5, delta=eps**3)
        casm = C.assemble_W1(asm, p)
        totals.append(C.residual_Rapp(casm)["total"])
    # delta = eps^3: delta eps^2 + delta^2 + eps^6 is dominated by eps^5
    slope = _slope(CORR_SWEEP, totals)
    if abs(slope - 5.0) > 0.4:
        failures.append(f"total residual slope {slope:.3f} vs 5.0")
    # delta = 0: only the eps^6 diffusion of the incident packet survives
    asm, p = make_w0(0.2, nodes=5, delta=0.0)
    report = C.residual_Rapp(C.assemble_W1(asm, p))
    other = report["total"] - report["eps6_diffusion_inc"]
    if abs(other) > 1e-9 * report["total"]:
        failures.append(f"delta=0 residual has non-diffusive part {other:.2e}")
    if time.time() - t0 > 1200.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 20min")
    _verdict(7, "residual size (slope 5 at delta=eps^3; eps^6 at delta=0)",
             failures)


# ---------------------------------------------------------------------------
# 8 / 9 -- DNS energy inequality and stability estimate
# ---------------------------------------------------------------------------


EPS_DNS = box_matched_eps(0.2, 1.0, 9)  # exactly 0.2: the lattice matches


def _dns_setup(delta, nx, ny, dt, dy0):
    asm, p = make_w0(EPS_DNS, delta=delta)
    w1 = C.assemble_W1(asm, p) if delta else None
    cfg = SimConfig(params=p, Lx=asm.x_period, Ly=300.0, nx=nx, ny=ny,
                    dt=dt, T=1.0, dy0=dy0, dy_max=1.0)
    sol = Solver(cfg)
    st = init_from_Wapp(asm, w1, cfg, sol)
    return asm, w1, sol, st


def test_criterion_08_energy_inequality():
    failures = []
    t0 = time.time()
    defects = {}
    for dt in (0.01, 0.005):
        _, _, sol, st = _dns_setup(EPS_DNS**3, 256, 384, dt, dy0=1e-3)
        traj = sol.run(st, int(round(1.0 / dt)))
        bud = energy_budget(traj)
        defects[dt] = np.abs(bud["defect"]).max() / traj.energy[0]
        if bud["max_step_increase"] > 1e-6:
            failures.append(f"dt={dt}: energy increased by "
                            f"{bud['max_step_increase']:.2e}")
    print(f"\n  budget defect per unit time: dt=0.01 -> {defects[0.01]:.2e},"
          f" dt=0.005 -> {defects[0.005]:.2e}")
    if defects[0.01] > 1e-5:
        failures.append(f"defect {defects[0.01]:.2e} > 1e-5 relative")
    if defects[0.01] / defects[0.005] < 2.5:
        failures.append(f"defect ratio {defects[0.01] / defects[0.005]:.2f} "
                        "under dt halving (expect ~4)")
    if time.time() - t0 > 600.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 10min")
    _verdict(8, "discrete energy inequality (defect <= 1e-5/unit, ~4x "
                "under dt halving)", failures)


def test_criterion_09_stability_estimate():
    """Twin runs at eps = 0.2, T = 1: delta = 0 floor, delta = eps^3 net.

    nx = 512 resolves the corrector's second harmonic (l ~ 2 k0); the
    delta = 0 control doubles as the discretization floor, and its own
    drift must stay within the eps^6-diffusion envelope.

    The Gronwall envelope is checked with its computed constant: Duhamel
    gives ||W - W_app||(t) <= ||R_app|| t exp((delta/eps^2 + 1) t), and
    C_R = ||R_app|| / (||W0|| delta eps^2) is taken from the residual
    module for the same assembly -- not fitted to the run.  The effective
    constant net / (delta eps^2 t) is printed alongside; it is O(10) for
    this packet, so the unit-constant form of the envelope does not hold
    and the assertion is against the residual-derived bound.  Structural
    sanity: the net departure must grow close to linearly in t (Duhamel
    regime; delta/eps^2 = 0.2 keeps the exponential factor mild).
    """
    failures = []
    t0 = time.time()
    reports = {}
    c_resid = None
    for delta in (0.0, EPS_DNS**3):
        asm, w1, sol, st = _dns_setup(delta, 512, 768, 0.01, dy0=5e-4)
        if delta != 0.0:
            l2, _ = packet_norms(asm.bundle(Family.SUM),
                                 default_grid(asm, Family.BLEPS2))
            norm0 = math.hypot(*l2)
            c_resid = (C.residual_Rapp(w1)["total"]
                       / (norm0 * delta * EPS_DNS**2))
        traj = sol.run(st, 100, save_every=20)
        ev = wapp_evaluator(asm, w1)
        reports[delta] = compare_stability(traj, ev, sol)
    rep0 = reports[0.0]
    rep1 = reports[EPS_DNS**3]
    # delta = 0 control: growth only through eps^6 diffusion of the packet
    growth = rep0["diff_L2"] - rep0["diff_L2"][0]
    if np.any(growth > 5.0 * EPS_DNS**6 * np.maximum(rep0["t"], 1e-9)):
        failures.append(
            f"delta=0 drift {growth.max():.2e} above C eps^6 t")
    # delta = eps^3: net departure under the residual-derived envelope
    net = np.maximum(rep1["diff_L2"] - rep0["diff_L2"], 0.0)
    tt = rep1["t"]
    envelope = c_resid * rep1["bound_thm"] * tt
    if np.any(net > envelope + 1e-12):
        worst = int(np.argmax(net - envelope))
        failures.append(
            f"net {net[worst]:.3e} > envelope {envelope[worst]:.3e}"
            f" at t={tt[worst]:.2f}")
    # Duhamel regime: close-to-linear growth of the net departure in t
    pos = (tt > 0.0) & (net > 0.0)
    if pos.sum() >= 3:
        slope = np.polyfit(np.log(tt[pos]), np.log(net[pos]), 1)[0]
        if not 0.7 <= slope <= 1.6:
            failures.append(f"net-vs-t growth exponent {slope:.2f}")
    else:
        failures.append("net departure not resolved above the floor")
    eff = net[-1] / (EPS_DNS**3 * EPS_DNS**2 * tt[-1])
    print(f"\n  floor(T)={rep0['diff_L2'][-1]:.3e}  net(T)={net[-1]:.3e}"
          f"  envelope(T)={envelope[-1]:.3e}  C_resid={c_resid:.1f}"
          f"  effective C={eff:.1f}")
    if time.time() - t0 > 1800.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 30min")
    _verdict(9, "stability estimate under the Gronwall envelope", failures)


# ---------------------------------------------------------------------------
# 10 -- oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_10_oracle_equivalences():
    failures = []
    t0 = time.time()
    # (a) quadratic form vs hand-expanded convective factor
    P = 2.0 * math.pi
    x = np.linspace(0.0, P, 48, endpoint=False)
    y = np.linspace(0.0, 3.0, 1200)
    k1, k2 = 2.0, 3.0
    lam1, lam2 = 0.9 + 0.4j, 1.3 - 0.2j
    v1 = (0.7 + 0.1j, -0.2 + 0.3j, 0.5 + 0j)
    v2 = (0.4 + 0j, 0.6 - 0.5j, -0.3 + 0.2j)
    m1 = np.exp(np.subtract.outer(-lam1 * y, -1j * k1 * x))
    m2 = np.exp(np.subtract.outer(-lam2 * y, -1j * k2 * x))
    got = C.quadratic_Q(tuple(c * m1 for c in v1),
                        tuple(c * m2 for c in v2), x, y)
    cc = 1j * k2 * v1[0] - lam2 * v1[1]
    m12 = np.exp(np.subtract.outer(-(lam1 + lam2) * y, -1j * (k1 + k2) * x))
    for g, c in zip(got, v2):
        want = cc * c * m12
        if np.abs(g[2:-2] - want[2:-2]).max() > 1e-8 * np.abs(want).max():
            failures.append("quadratic form vs hand expansion")
            break
    # (b) interior solves re-inserted into their reduced equations
    asm, p = make_w0(0.2, nodes=5, delta=0.2**3)
    sg = math.sin(GAMMA)
    for it in C.INTERACTIONS:
        for pairs in C.enumerate_pairs(asm, it).values():
            src = pairs.scaled(-p.delta)
            scale = max(np.abs(src.cu).max(), np.abs(src.cb).max(), 1e-300)
            if it.name.startswith("a"):
                modes = C.solve_interior_a(src, p)
                ru = -1j * src.alpha * modes.cu - sg * modes.cb - src.cu
                rb = -1j * src.alpha * modes.cb + sg * modes.cu - src.cb
            elif it.name.startswith("b"):
                modes = C.solve_interior_b(src, p)
                mbar2 = (src.mu * p.eps**3) ** 2
                ru = ((-1j * src.alpha - p.nu0 * mbar2) * modes.cu
                      - sg * modes.cb - src.cu)
                rb = (sg * modes.cu
                      + (-1j * src.alpha - p.kappa0 * mbar2) * modes.cb
                      - src.cb)
            else:
                continue
            resid = max(np.abs(ru).max(), np.abs(rb).max()) / scale
            if resid > 1e-8:
                failures.append(f"{it.name}: insertion residual {resid:.2e}")
    # (c) limiting DY amplitudes: A2bar + A3bar = 0 and eps-convergence
    car = critical_carrier(GAMMA, 0.25)
    frak_w = 1.0 + 0.5j
    A2, A3, A5 = limit_amplitudes_DY(GAMMA, car.k0, frak_w)
    if abs(A2 + A3) > 1e-12 * abs(A2):
        failures.append(f"A2bar + A3bar = {abs(A2 + A3):.2e}")
    if limit_amplitudes_DY(GAMMA, car.k0, 0.0) != (0.0, 0.0, 0.0):
        failures.append("homogeneous limit amplitudes not zero")
    errs = []
    for eps in (0.1, 0.05):
        pp = PhysParams(gamma=GAMMA, eps=eps)
        spec = ModalMatrixSpec(pp.nu, pp.kappa, car.omega0, car.k0, GAMMA)
        rs = roots_for(spec)
        # U = 1, so the cu are the amplitudes (a2, a3, a5)
        a2, a3, a5 = lift_critical(spec, rs, [[0.0], [frak_w], [0.0]]).cu
        errs.append(max(abs(eps**2 * a2 - A2), abs(eps**2 * a3 - A3),
                        abs(eps * a5 - A5)))
    if not errs[1] < errs[0]:
        failures.append("rescaled amplitudes do not converge to the limits")
    if time.time() - t0 > 10.0:
        failures.append(f"runtime {time.time() - t0:.1f}s > 10s")
    _verdict(10, "oracle equivalences (quadratic form, interior solves, "
                 "limit amplitudes)", failures)

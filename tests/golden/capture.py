"""Capture the golden reference values that tests/test_golden.py compares with.

The files next to this script were written once and are not to be
regenerated: they pin the numbers a refactor must reproduce.  fields.npz
and scalars.json come from the code before the mode-set refactor,
rowwise.json (the row-by-row corrector sizes of the `corrector` experiment)
from the code before the W1 lifts were merged per (l, alpha) node, and
dns.npz (a 20-step nonlinear DNS trajectory) from the dense-operator
solver, before its y-operators were made banded, and lift.npz (the wall
lifts of the `lift` experiment's traces) from the code before the lifts
returned mode sets.  To inspect what they hold, run

    PYTHONPATH=src python tests/golden/capture.py <output-dir>

Reference case: gamma = 0.7, eps = 0.2, delta = eps^3, 5 nodes per lobe.
DNS case: tests/test_dns.py's 192 x 256 grid (box-matched eps near 0.3,
9 nodes per lobe, Ly = 60, dt = 0.01) with delta = eps^3, so advection runs.
Lift case: the first LIFT_SAMPLES seed-0 traces of the `lift` experiment in
each of its three regimes (cli._lift_spec at gamma = 0.7, eps = 0.2, k0 = 1).
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from wavecrit import cli, dns
from wavecrit import corrector as C
from wavecrit.boundary import (
    ExpModes,
    evaluate_modes,
    lift_critical,
    lift_noncritical,
    lift_nonoscillating,
)
from wavecrit.characteristic import Regime
from wavecrit.packets import (
    Envelope,
    Family,
    QuadratureSpec,
    assemble_W0,
    default_grid,
    packet_norms,
)
from wavecrit.params import PhysParams, critical_carrier

GAMMA = 0.7
EPS = 0.2
NODES = 5
T_FIELD = 0.3
W0_FAMILIES = (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3, Family.SUM)


def reference_case():
    p = PhysParams(gamma=GAMMA, eps=EPS, delta=EPS**3)
    env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=EPS)
    w0 = assemble_W0(p, env, QuadratureSpec(NODES))
    return w0, C.assemble_W1(w0)


def field_grid(x_period):
    """24 wall-clustered y rows (down to the eps^3 layer) by 32 x columns."""
    x = np.linspace(0.0, x_period, 32, endpoint=False)
    y = 0.5 * np.linspace(0.0, 1.0, 24) ** 2
    return x, y


def capture(w0, casm):
    """(arrays, scalars) of the reference case."""
    x, y = field_grid(w0.x_period)
    arrays = {"x": x, "y": y}
    bundle = w0.bundle(Family.SUM)
    for modes, tag in ((bundle, "W0"), (bundle.d_dx(), "W0_dx"), (bundle.d_dy(), "W0_dy")):
        for name, comp in zip("uwb", evaluate_modes(modes, T_FIELD, x, y)):
            arrays[f"{tag}_{name}"] = np.asarray(comp).real
    for name, comp in zip("uwb", C.evaluate_W1(casm, T_FIELD, x, y)):
        arrays[f"W1_{name}"] = np.asarray(comp).real

    sizes = {f: packet_norms(w0.bundle(f), default_grid(w0, f)) for f in W0_FAMILIES}
    scalars = {
        "W1_norms": {f: list(casm.norms(f)) for f in C.W1_FAMILIES},
        "residual_Rapp": {k: float(v) for k, v in C.residual_Rapp(casm).items()},
        "packet_norms": {
            f.name: [math.hypot(*l2), max(linf)] for f, (l2, linf) in sizes.items()
        },
    }
    return arrays, scalars


def capture_rowwise(w0):
    """Row-by-row (L2, Linf) sizes of the W1 families (`corrector` experiment)."""
    return {f: list(v) for f, v in C.rowwise_family_sizes(w0).items()}


DNS_STEPS = 20
#: the stored fields keep every DNS_STRIDE-th row and column of the final state
DNS_STRIDE = 4


def dns_case():
    """(solver, initial state) of the golden DNS trajectory."""
    eps = dns.box_matched_eps(0.3, 1.0, 9)
    p = PhysParams(gamma=GAMMA, eps=eps, delta=eps**3)
    env = Envelope(carrier=critical_carrier(GAMMA, 1.0), eps=eps)
    w0 = assemble_W0(p, env, QuadratureSpec(9))
    cfg = dns.SimConfig(params=p, Lx=w0.x_period, Ly=60.0, nx=192, ny=256,
                        dt=0.01, T=DNS_STEPS * 0.01, dy0=1e-3, dy_max=0.6)
    solver = dns.Solver(cfg)
    with warnings.catch_warnings():
        # Ly = 60 truncates the packet tail on purpose (as in test_dns.py)
        warnings.simplefilter("ignore")
        state = dns.init_from_Wapp(w0, None, cfg, solver)
    return solver, state


def capture_dns(solver, state):
    """Energy, dissipation and projection-loss series plus the strided final fields."""
    traj = solver.run(state, DNS_STEPS)
    out = {"energy": traj.energy, "dissipation": traj.dissipation,
           "proj_loss": traj.proj_loss}
    s = slice(None, None, DNS_STRIDE)
    for name in "uwbp":
        out[name] = getattr(traj.final, name)[s, s]
    return out


LIFT_SAMPLES = 10
LIFT_REGIMES = (Regime.CRITICAL_DY, Regime.NON_CRITICAL, Regime.NON_OSCILLATING)


def lift_cases():
    """(regime, spec, traces) per regime, drawn as the `lift` experiment
    draws them at seed 0 with LIFT_SAMPLES samples."""
    p = PhysParams(gamma=GAMMA, eps=EPS)
    rng = np.random.default_rng(0)
    for regime in LIFT_REGIMES:
        spec = cli._lift_spec(p, 1.0, regime)
        z = [rng.normal(size=6) for _ in range(LIFT_SAMPLES)]
        yield regime, spec, [r[0::2] + 1j * r[1::2] for r in z]


def capture_lift():
    """Per regime and lift: the rates mu, the coefficients (cu, cw, cb) =
    a (U, W, B) of its modes in label order, and the non-oscillating leftover."""
    out = {}
    for regime, spec, traces in lift_cases():
        lifts, leftovers = [], []
        for tr in traces:
            if regime is Regime.NON_CRITICAL:
                lifts.append(ExpModes.concat(lift_noncritical(spec, tr[:, None])))
            elif regime is Regime.NON_OSCILLATING:
                lift, left = lift_nonoscillating(spec, tr[:, None])
                lifts.append(lift)
                leftovers.append(left[0])
            else:
                lifts.append(lift_critical(spec, tr[:, None]))
        for name in ("mu", "cu", "cw", "cb"):  # (sample, mode) arrays
            out[f"{regime.name}_{name}"] = np.array([getattr(m, name) for m in lifts])
        if leftovers:
            out[f"{regime.name}_leftover"] = np.array(leftovers, dtype=complex)
    return out


def main(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    case = reference_case()
    arrays, scalars = capture(*case)
    np.savez(outdir / "fields.npz", **arrays)
    (outdir / "scalars.json").write_text(json.dumps(scalars, indent=1) + "\n")
    (outdir / "rowwise.json").write_text(
        json.dumps(capture_rowwise(case[0]), indent=1) + "\n")
    np.savez(outdir / "dns.npz", **capture_dns(*dns_case()))
    np.savez(outdir / "lift.npz", **capture_lift())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent)

"""Experiment harness: JSON configs, parameter sweeps, CSV/manifest outputs.

Each experiment writes, under ``output_dir``:

* one or more CSV files (UTF-8, header row) with the measured quantities,
* for sweeps, a ``slopes.csv`` with ordinary least-squares log-log fits,
* a ``manifest.json`` recording the full config, its SHA-256 hash and the
  package/library versions, so artifacts are traceable and reruns with the
  same config + seed are bit-identical.

Field dumps (the ``dns`` experiment) are raw float64 little-endian arrays
with a JSON sidecar describing shape, components and grid.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import (
    IllConditionedLiftError,
    RegimeError,
    lift_critical,
    lift_noncritical,
    lift_nonoscillating,
)
from .characteristic import (
    ClassificationError,
    ModalMatrixSpec,
    Regime,
    RootSolveError,
    SingularEigenvectorError,
    roots_for,
)
from .corrector import (
    CorrectorError,
    assemble_W1,
    residual_Rapp,
    rowwise_family_sizes,
)
from .dns import (
    DnsError,
    SimConfig,
    Solver,
    box_matched_eps,
    compare_stability,
    energy_budget,
    init_from_Wapp,
    stability_twin,
)
from .packets import (
    Envelope,
    Family,
    PacketAssembly,
    QuadratureSpec,
    assemble_W0,
    default_grid,
    packet_norms,
)
from .params import PhysParams, critical_carrier


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class FitError(ValueError):
    """Slope fit is impossible on the given series."""


#: the package's typed failures, which main reports as an error line
TYPED_ERRORS = (ConfigError, FitError, RootSolveError, ClassificationError,
                SingularEigenvectorError, IllConditionedLiftError, RegimeError,
                CorrectorError, DnsError)

#: SimConfig's fields but params and Lx (the packet's period), plus
#: save_every, each with its type
_DNS_OPTIONS = ({f.name: f.type for f in dataclasses.fields(SimConfig)
                 if f.name not in ("params", "Lx")} | {"save_every": int})
#: experiment -> the keys of `options` it reads (every other key is refused)
#: and their types
OPTION_KEYS = {"lift": {"samples": int}, "dns": _DNS_OPTIONS, "stability": _DNS_OPTIONS}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    params: PhysParams
    experiment: str
    sweep: list[tuple[float, float]] = field(default_factory=list)
    seed: int = 0
    output_dir: Path = Path("out")
    k0: float = 1.0
    nodes_per_lobe: int = 9
    #: per-experiment knobs (dns grid sizes etc.), the keys in OPTION_KEYS
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(_RUNNERS)}"
            )
        for name, kind in (("seed", int), ("k0", float), ("nodes_per_lobe", int)):
            setattr(self, name, _option(name, kind, getattr(self, name)))
        if not (math.isfinite(self.k0) and self.k0 != 0.0):
            raise ConfigError(f"k0 must be finite and nonzero, got {self.k0!r}")
        if self.experiment != "roots":
            # every other experiment builds the carrier, so its rule on k0 holds
            try:
                critical_carrier(self.params.gamma, self.k0)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.nodes_per_lobe < 4:
            raise ConfigError(
                f"nodes_per_lobe must be >= 4, got {self.nodes_per_lobe}"
            )
        known = OPTION_KEYS.get(self.experiment, {})
        unknown = sorted(set(self.options) - set(known))
        if unknown:
            raise ConfigError(
                f"{self.experiment} does not read option(s) {', '.join(unknown)}; "
                f"it reads {', '.join(sorted(known)) or 'none'}"
            )
        self.options = {k: _option(f"option {k}", known[k], v) for k, v in self.options.items()}
        for name, low in (("samples", 1), ("save_every", 0)):
            if self.options.get(name, low) < low:
                raise ConfigError(f"{name} must be >= {low}, got {self.options[name]!r}")
        self.output_dir = _option("output_dir", Path, self.output_dir)
        if not (isinstance(self.sweep, (list, tuple)) and all(
                isinstance(pt, (list, tuple)) and len(pt) == 2 for pt in self.sweep)):
            raise ConfigError(f"sweep must be a list of [eps, delta] pairs, got {self.sweep!r}")
        self.sweep = [tuple(_option(f"sweep[{i}] {name}", float, v)
                            for name, v in zip(("eps", "delta"), pt))
                      for i, pt in enumerate(self.sweep)]
        eps_seq = [e for e, _ in self.sweep]
        if any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
            raise ConfigError("sweep eps values must be strictly decreasing")
        if self.experiment == "stability":
            e, d = self.params.eps, self.params.delta
            if d > e * e:
                raise ConfigError(
                    f"stability requires delta <= eps^2, got "
                    f"delta={d:g} at eps={e:g}"
                )
        if self.experiment in ("dns", "stability"):
            if self.sweep:
                raise ConfigError(
                    f"{self.experiment} runs the single (eps, delta) of params "
                    "and does not read sweep; give eps and delta instead"
                )
            _check_whole_steps(self.options)
            # W0 is periodic in the DNS box (Lx = x_period) only on the lattice
            eps = self.params.eps
            matched = box_matched_eps(eps, self.k0, self.nodes_per_lobe)
            if abs(eps - matched) > 1e-12 * matched:
                raise ConfigError(
                    f"{self.experiment} needs a box-matched eps (W0 has a seam "
                    f"in the periodic box otherwise): got {eps!r}, the nearest "
                    f"matched value is {matched!r}"
                )

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["params"] = dataclasses.asdict(self.params)
        out["output_dir"] = str(self.output_dir)
        return out


def _option(name: str, kind: type, value):
    """value, named name, as a kind (int, float or Path); a string, a bool or,
    for an int, a value with a fractional part is refused as a number, and
    anything but a string or path as a Path."""
    if kind is Path:
        if not isinstance(value, (str, os.PathLike)):
            raise ConfigError(f"{name} must be a path, got {value!r}")
        return Path(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or kind is int and not float(value).is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}"
                          f", got {value!r}")
    return kind(value)


def _check_whole_steps(options: dict) -> None:
    """ConfigError unless the DNS end time T is a whole number of steps dt
    (to 1e-9 relative), given or SimConfig's default: the march runs
    round(T / dt) steps and would end elsewhere.  A dt <= 0 or a negative or
    non-finite T is left to SimConfig, which refuses it."""
    default = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    T, dt = (options.get(name, default[name]) for name in ("T", "dt"))
    if not (dt > 0.0 and 0.0 <= T < math.inf):
        return
    steps = T / dt
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ConfigError(f"T={T!r} is not a whole number of steps dt={dt!r}: "
                          f"T/dt = {steps!r}")


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """JSON config file merged with command-line overrides; a ConfigError
    names an unreadable or malformed file, or a field of the wrong type."""
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON in UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} holds a {type(raw).__name__}, not an object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("params", "options"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{key} must be an object, got {raw[key]!r}")
    pdict = dict(raw.pop("params", {}))
    for f in dataclasses.fields(PhysParams):
        if f.name in raw:
            pdict[f.name] = raw.pop(f.name)
    pdict = {name: _option(name, float, v) for name, v in pdict.items()}
    if "gamma" not in pdict:
        raise ConfigError("gamma is required (config file or --gamma)")
    try:
        return ExperimentConfig(params=PhysParams(**pdict), **raw)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError too
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# slope fitting and output plumbing
# ---------------------------------------------------------------------------


def fit_slopes(eps: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """OLS slope +/- stderr of log(values) against log(eps).

    Raises FitError for fewer than 3 points or non-positive values.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(eps) < 3:
        raise FitError(f"need >= 3 points for a slope fit, got {len(eps)}")
    if np.any(values <= 0.0) or np.any(eps <= 0.0):
        raise FitError("non-positive values cannot be fit on a log scale")
    x = np.log(eps)
    y = np.log(values)
    n = len(x)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    stderr = math.sqrt(float(np.sum(resid**2)) / max(n - 2, 1) / sxx)
    return slope, stderr


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write (UTF-8, header row, repr-precision floats)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in row]
            )
    os.replace(tmp, path)


def _dump_field(path: Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """float64 little-endian concatenated dump plus JSON sidecar."""
    order = sorted(arrays)
    tmp = path.with_suffix(".bin.tmp")
    with open(tmp, "wb") as fh:
        for name in order:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    os.replace(tmp, path.with_suffix(".bin"))
    sidecar = dict(meta)
    sidecar["dtype"] = "<f8"
    sidecar["components"] = [
        {"name": n, "shape": list(arrays[n].shape)} for n in order
    ]
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
    os.replace(tmp, path.with_suffix(".json"))


def _manifest(config: ExperimentConfig, artifacts: list[str]) -> dict:
    blob = json.dumps(config.as_dict(), sort_keys=True).encode()
    return {
        "config": config.as_dict(),
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "versions": {
            "wavecrit": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "artifacts": sorted(artifacts),
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _sweep_points(config: ExperimentConfig) -> list[tuple[float, float]]:
    if config.sweep:
        return config.sweep
    return [(config.params.eps, config.params.delta)]


def _params_at(config: ExperimentConfig, eps: float, delta: float) -> PhysParams:
    return dataclasses.replace(config.params, eps=eps, delta=delta)


def _assembly_at(config: ExperimentConfig, params: PhysParams) -> PacketAssembly:
    car = critical_carrier(params.gamma, config.k0)
    env = Envelope(carrier=car, eps=params.eps)
    return assemble_W0(params, env, QuadratureSpec(config.nodes_per_lobe))


def _run_roots(config: ExperimentConfig) -> list[str]:
    eps = [e for e, _ in _sweep_points(config)]
    ps = [_params_at(config, e, 0.0) for e in eps]
    gamma = config.params.gamma
    # one node per eps
    spec = ModalMatrixSpec(nu=np.array([p.nu for p in ps]),
                           kappa=np.array([p.kappa for p in ps]),
                           omega=math.sin(gamma), k=config.k0, gamma=gamma)
    rs = roots_for(spec)
    rows = []
    for e, roots, labels, regime in zip(eps, rs.roots, rs.labels.tolist(), rs.regimes):
        for i, lam in enumerate(roots):
            rows.append([
                e, i, labels[i], float(lam.real), float(lam.imag),
                int(lam.real > 0), regime.name,
            ])
    _write_csv(
        config.output_dir / "roots.csv",
        ["eps", "index", "label", "re_lambda", "im_lambda", "pos_real",
         "regime"],
        rows,
    )
    return ["roots.csv"]


def _lift_spec(params: PhysParams, k0: float, regime: Regime) -> ModalMatrixSpec:
    car = critical_carrier(params.gamma, k0)
    sg = math.sin(params.gamma)
    omega, k = car.omega0, car.k0
    if regime is Regime.NON_CRITICAL:
        omega, k = 2.0 * car.omega0, 2.0 * car.k0
    elif regime is Regime.NON_OSCILLATING:
        omega = k = 0.5 * params.eps**2
    elif regime is Regime.CRITICAL_DY:
        omega = math.sqrt(sg**2 + params.eps**2)
    return ModalMatrixSpec(nu=params.nu, kappa=params.kappa, omega=omega,
                           k=k, gamma=params.gamma)


def _run_lift(config: ExperimentConfig) -> list[str]:
    rng = np.random.default_rng(config.seed)
    p = config.params
    rows = []
    n = config.options.get("samples", 100)
    for target in (Regime.CRITICAL_DY, Regime.NON_CRITICAL,
                   Regime.NON_OSCILLATING):
        one = _lift_spec(p, config.k0, target)
        # every sample is a copy of the one node, so of its regime
        regime = roots_for(one).regimes[0]
        spec = dataclasses.replace(one, omega=np.full(n, one.omega), k=np.full(n, one.k))
        z = rng.normal(size=(n, 6))
        tr = (z[:, 0::2] + 1j * z[:, 1::2]).T
        if regime is Regime.NON_CRITICAL:
            lifts = lift_noncritical(spec, tr)  # reflected modes, then the layers
        elif regime is Regime.NON_OSCILLATING:
            lifts = lift_nonoscillating(spec, tr)[:1]
        else:
            lifts = (lift_critical(spec, tr),)
        # wall values (3, n, modes per sample), each sample's modes in label order
        vals = np.concatenate([np.stack(m.traces()).reshape(3, n, -1) for m in lifts], axis=2)
        # the non-oscillating lift leaves the w-trace over by design
        matched = [0, 2] if regime is Regime.NON_OSCILLATING else [0, 1, 2]
        got, want = vals.sum(axis=2)[matched], tr[matched]
        err = np.abs(got - want).max(axis=0) / np.maximum(np.abs(want).max(axis=0), 1e-300)
        rows += [[regime.name, i, e] for i, e in enumerate(err.tolist())]
    _write_csv(config.output_dir / "lift.csv",
               ["regime", "sample", "rel_error"], rows)
    return ["lift.csv"]


def _run_packet_norms(config: ExperimentConfig) -> list[str]:
    rows = []
    for eps, delta in _sweep_points(config):
        p = _params_at(config, eps, delta)
        asm = _assembly_at(config, p)
        l2s = {}
        for fam in (Family.INCIDENT, Family.BLEPS2, Family.BLEPS3):
            l2s[fam], linf = packet_norms(asm.bundle(fam), default_grid(asm, fam))
            rows.append([eps, fam.name, math.hypot(*l2s[fam]), max(linf)])
        # the layers' anisotropy ||w|| / ||u||, O(eps^2) and O(eps^3)
        for fam in (Family.BLEPS2, Family.BLEPS3):
            nu, nw, _ = l2s[fam]
            rows.append([eps, f"ANISO_{fam.name}", nw / nu, float("nan")])
    _write_csv(config.output_dir / "packet_norms.csv",
               ["eps", "family", "l2", "linf"], rows)
    arts = ["packet_norms.csv"]
    arts += _emit_slopes(config, rows, value_cols=(2, 3),
                         names=("l2", "linf"))
    return arts


def _run_corrector(config: ExperimentConfig) -> list[str]:
    rows = []
    for eps, delta in _sweep_points(config):
        p = _params_at(config, eps, delta)
        asm = _assembly_at(config, p)
        for fam, (l2, linf) in rowwise_family_sizes(asm).items():
            rows.append([eps, fam, l2, linf])
    _write_csv(config.output_dir / "corrector_sizes.csv",
               ["eps", "family", "l2", "linf"], rows)
    arts = ["corrector_sizes.csv"]
    arts += _emit_slopes(config, rows, value_cols=(2, 3),
                         names=("l2", "linf"))
    return arts


def _run_residual(config: ExperimentConfig) -> list[str]:
    rows = []
    for eps, delta in _sweep_points(config):
        p = _params_at(config, eps, delta)
        asm = _assembly_at(config, p)
        casm = assemble_W1(asm)
        report = residual_Rapp(casm)
        for term in sorted(report):
            rows.append([eps, delta, term, float(report[term])])
    _write_csv(config.output_dir / "residual.csv",
               ["eps", "delta", "term", "l2"], rows)
    totals = [[eps, term, l2] for eps, _, term, l2 in rows if term == "total"]
    return ["residual.csv"] + _emit_slopes(config, totals, value_cols=(2,),
                                           names=("l2",))


def _emit_slopes(config: ExperimentConfig, rows, value_cols, names) -> list[str]:
    """Log-log fits per family over the sweep; skipped for single points."""
    eps_vals = sorted({r[0] for r in rows}, reverse=True)
    if len(eps_vals) < 3:
        return []
    out = []
    fams = sorted({r[1] for r in rows})
    for fam in fams:
        sub = [r for r in rows if r[1] == fam]
        for col, name in zip(value_cols, names):
            vals = np.array([r[col] for r in sub], dtype=float)
            if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
                continue
            slope, err = fit_slopes(np.array([r[0] for r in sub]), vals)
            out.append([fam, name, slope, err])
    _write_csv(config.output_dir / "slopes.csv",
               ["family", "norm", "slope", "stderr"], out)
    return ["slopes.csv"]


def _dns_config(config: ExperimentConfig, params: PhysParams,
                x_period: float) -> SimConfig:
    """SimConfig's defaults overridden by the given options."""
    given = {f.name: config.options[f.name]
             for f in dataclasses.fields(SimConfig) if f.name in config.options}
    return SimConfig(params=params, Lx=x_period, **given)


def _dns_run(config: ExperimentConfig, params: PhysParams, asm: PacketAssembly):
    """What a DNS run at params from W_app(0) needs: its solver, W1 (built
    if and only if delta != 0; asm is W0, which does not depend on delta),
    its step count and save_every."""
    w1 = assemble_W1(asm) if params.delta else None
    sim = _dns_config(config, params, asm.x_period)
    n_steps = int(round(sim.T / sim.dt))
    save_every = config.options.get("save_every", max(n_steps // 10, 1))
    return Solver(sim), w1, n_steps, save_every


def _dns_series(config: ExperimentConfig, params: PhysParams, asm: PacketAssembly):
    """Run the DNS (_dns_run) and compare it with W_app: the solver, the
    trajectory and compare_stability's report."""
    solver, w1, n_steps, save_every = _dns_run(config, params, asm)
    state = init_from_Wapp(asm, w1, solver.config, solver)
    traj, report = compare_stability(solver, state, n_steps, save_every, asm, w1)
    return solver, traj, report


def _run_dns(config: ExperimentConfig) -> list[str]:
    params = config.params
    solver, traj, report = _dns_series(config, params, _assembly_at(config, params))
    budget = energy_budget(traj)
    # per-save-time series in the documented column layout
    idx = np.searchsorted(traj.times, report["t"])
    rows = [
        [float(report["t"][i]),
         float(traj.energy[idx[i]]),
         float(traj.dissipation[idx[i]]),
         float(report["diff_L2"][i]),
         float(report["bound_thm"][i])]
        for i in range(len(report["t"]))
    ]
    _write_csv(config.output_dir / "dns_series.csv",
               ["t", "energy", "dissipation", "diff_L2", "bound_thm"], rows)
    _write_csv(config.output_dir / "dns_budget.csv",
               ["t", "energy", "defect"],
               [[float(t), float(e), float(d)] for t, e, d in
                zip(traj.times, traj.energy, budget["defect"])])
    g = solver.grid
    final = traj.final
    _dump_field(
        config.output_dir / "dns_final",
        {"u": final.u, "w": final.w, "b": final.b, "p": final.p},
        {"t": final.t, "x0": 0.0, "Lx": g.Lx, "nx": g.nx,
         "y": list(map(float, g.y))},
    )
    return ["dns_series.csv", "dns_budget.csv", "dns_final.bin",
            "dns_final.json"]


def _run_stability(config: ExperimentConfig) -> list[str]:
    params = config.params
    asm = _assembly_at(config, params)  # one W0 for both runs
    # the run and its delta = 0 twin march in lockstep on one solver; the
    # twin's departure is the measured error floor
    solver, w1, n_steps, save_every = _dns_run(config, params, asm)
    rep = stability_twin(solver, n_steps, save_every, asm, w1)
    net = np.maximum(rep["diff_L2"] - rep["floor"], 0.0)
    rows = [
        [float(rep["t"][i]), float(rep["diff_L2"][i]),
         float(rep["floor"][i]), float(net[i]),
         float(rep["bound_thm"][i]), int(net[i] <= rep["bound_thm"][i]),
         float(rep["twin_resid"][i])]
        for i in range(len(rep["t"]))
    ]
    _write_csv(config.output_dir / "stability.csv",
               ["t", "diff_L2", "floor", "net", "bound_thm", "within_thm",
                "twin_resid"], rows)
    return ["stability.csv"]


_RUNNERS = {
    "roots": _run_roots,
    "lift": _run_lift,
    "packet-norms": _run_packet_norms,
    "corrector": _run_corrector,
    "residual": _run_residual,
    "dns": _run_dns,
    "stability": _run_stability,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one experiment; returns the manifest (also written to disk)."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    artifacts = _RUNNERS[config.experiment](config)
    manifest = _manifest(config, artifacts)
    tmp = config.output_dir / "manifest.json.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    os.replace(tmp, config.output_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavecrit",
        description="Near-critical internal-wave reflection experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--output-dir", dest="output_dir", default=None)
    args = parser.parse_args(argv)
    overrides = {
        "experiment": args.experiment,
        "eps": args.eps,
        "delta": args.delta,
        "gamma": args.gamma,
        "seed": args.seed,
        "output_dir": args.output_dir,
    }
    try:
        config = load_config(args.config, overrides)
        run_experiment(config)
    except TYPED_ERRORS as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

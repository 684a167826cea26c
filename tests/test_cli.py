"""Experiment harness: configs, slope fits, CSV/manifest determinism."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from wavecrit import boundary, cli, corrector, dns, packets
from wavecrit.cli import (
    _DNS_OPTIONS,
    _RUNNERS,
    ConfigError,
    ExperimentConfig,
    FitError,
    _assembly_at,
    _dns_config,
    _dns_run,
    _dump_field,
    fit_slopes,
    load_config,
    main,
    run_experiment,
)
from wavecrit.corrector import CorrectorAssembly, assemble_W1
from wavecrit.dns import (
    SimConfig,
    Solver,
    WappNodes,
    box_matched_eps,
    compare_stability,
    init_from_Wapp,
)
from wavecrit.packets import Family
from wavecrit.params import PhysParams

pytestmark = pytest.mark.filterwarnings(
    "ignore:packet reaches the domain top")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFitSlopes:
    def test_exact_power_law(self):
        eps = np.array([0.4, 0.3, 0.2, 0.1])
        for p in (2.0, 1.5, -3.0):
            slope, err = fit_slopes(eps, 7.0 * eps**p)
            assert slope == pytest.approx(p, abs=1e-12)
            assert err <= 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(3)
        eps = np.geomspace(0.4, 0.05, 12)
        vals = 2.0 * eps**1.5 * np.exp(rng.normal(scale=0.02, size=12))
        slope, err = fit_slopes(eps, vals)
        assert err > 0
        assert abs(slope - 1.5) <= 3.0 * err

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_slopes(np.array([0.4, 0.2]), np.array([1.0, 2.0]))

    def test_non_positive_values(self):
        with pytest.raises(FitError):
            fit_slopes(np.array([0.4, 0.2, 0.1]), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(FitError):
            fit_slopes(np.array([0.4, 0.2, 0.1]), np.array([1.0, -1.0, 2.0]))


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(params=PhysParams(gamma=0.7), experiment="nope")

    def test_negative_k0_is_kept(self):
        """roots builds no carrier: only a k0 that is not finite, or is 0, is
        refused there, and a negative k0 is kept."""
        assert ExperimentConfig(params=PhysParams(gamma=0.7), experiment="roots",
                                k0=-1.0).k0 == -1.0
        with pytest.raises(ConfigError, match="^k0 must be finite and nonzero, got nan$"):
            ExperimentConfig(params=PhysParams(gamma=0.7), experiment="roots", k0=math.nan)

    def test_experiments_are_the_runner_table(self, capsys):
        """The runner table is the one list: configs accept its names, and
        main offers them in its order."""
        p = PhysParams(gamma=0.7, eps=box_matched_eps(0.2, 1.0, 9))
        for name in _RUNNERS:
            assert ExperimentConfig(params=p, experiment=name).experiment == name
        with pytest.raises(ConfigError, match="choose one of " + ", ".join(_RUNNERS)):
            ExperimentConfig(params=p, experiment="nope")
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{" + ",".join(_RUNNERS) + "}" in capsys.readouterr().out

    def test_dns_options_are_simconfig_fields(self):
        """SimConfig owns the DNS options, their types and their defaults;
        the options are cast to their fields' types."""
        settable = {f.name: f.type for f in dataclasses.fields(SimConfig)
                    if f.init and f.name not in ("params", "Lx")}
        assert _DNS_OPTIONS == settable | {"save_every": int}
        assert sorted(_DNS_OPTIONS) == ["Ly", "T", "dt", "dy0", "dy_max", "nx", "ny",
                                        "save_every"]
        p = PhysParams(gamma=0.7, eps=0.2)
        sim = _dns_config(ExperimentConfig(params=p, experiment="dns",
                                           options={"nx": 128.0, "T": 2}), p, 100.0)
        assert (sim.nx, sim.T) == (128, 2.0)
        assert (type(sim.nx), type(sim.T)) == (int, float)

    def test_sweep_must_decrease(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(params=PhysParams(gamma=0.7), experiment="roots",
                             sweep=[(0.2, 0.0), (0.3, 0.0)])

    def test_stability_delta_cap(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                params=PhysParams(gamma=0.7, eps=0.2, delta=0.1),
                experiment="stability")

    def test_gamma_required(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "roots"}))
        with pytest.raises(ConfigError, match="gamma"):
            load_config(str(cfg), {})

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.3,
                                   "experiment": "roots"}))
        out = load_config(str(cfg), {"eps": 0.25, "delta": 0.01})
        assert out.params.eps == 0.25
        assert out.params.delta == 0.01
        assert out.params.gamma == 0.7

    @pytest.mark.parametrize("flag", [["--gamma", "2.0"],
                                      ["--gamma", "0.7", "--eps", "1.5"]])
    def test_main_rejects_bad_params(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["roots", *flag, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_nodes_per_lobe_minimum(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "experiment": "residual",
                                   "nodes_per_lobe": 3}))
        with pytest.raises(ConfigError, match="nodes_per_lobe"):
            load_config(str(cfg), {})

    @pytest.mark.parametrize("experiment,options,bad", [
        ("dns", {"Nx": 64}, "Nx"), ("stability", {"Lx": 5.0}, "Lx"),
        ("residual", {"nx": 64}, "nx"), ("lift", {"samples": 4, "Ly": 60.0}, "Ly")])
    def test_unread_options_refused(self, experiment, options, bad):
        with pytest.raises(ConfigError, match=bad):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                             experiment=experiment, options=options)

    @pytest.mark.parametrize("experiment", ["dns", "stability"])
    def test_unmatched_eps_refused(self, experiment):
        """W0 is periodic in the DNS box only at a box-matched eps."""
        matched = box_matched_eps(0.3, 1.0, 9)
        with pytest.raises(ConfigError, match=f"matched value is {matched!r}"):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.3),
                             experiment=experiment)

    @pytest.mark.parametrize("experiment", ["dns", "stability"])
    def test_sweep_refused(self, experiment):
        """The DNS experiments run one point; a sweep is refused, not dropped."""
        with pytest.raises(ConfigError, match=f"{experiment} .*sweep"):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                             experiment=experiment,
                             sweep=[(0.3, 0.0), (0.25, 0.0)])

    def test_default_dns_grid_builds(self):
        """A dns config without options gets SimConfig's defaults, whose
        grid reaches Ly."""
        p = PhysParams(gamma=0.7, eps=0.2)
        sim = _dns_config(ExperimentConfig(params=p, experiment="dns"), p, 100.0)
        assert (sim.Ly, sim.ny, sim.dy_max) == (300.0, 384, 1.0)
        assert sim == SimConfig(params=p, Lx=100.0)

    def test_negative_save_every_refused(self):
        with pytest.raises(ConfigError, match="save_every must be >= 0, got -2"):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                             experiment="dns", options={"save_every": -2})

    @pytest.mark.parametrize("experiment,name,value", [
        ("dns", "nx", "abc"), ("dns", "nx", 128.5), ("dns", "nx", True),
        ("dns", "dt", "0.01"), ("stability", "save_every", "x"),
        ("stability", "save_every", 2.7), ("lift", "samples", "x")])
    def test_option_of_wrong_type_refused(self, experiment, name, value):
        """Each option is typed once: a string, a bool or a fractional
        value for an int option is refused at load, naming the option."""
        with pytest.raises(ConfigError, match=rf"option {name} must be .*, got {value!r}"):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                             experiment=experiment, options={name: value})

    def test_main_reports_non_numeric_option(self, tmp_path, capsys):
        """A non-numeric grid size ends in an error line naming it, not a
        ValueError traceback after the W0 assembly."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2, "nodes_per_lobe": 5,
                                   "options": {"nx": "abc"}}))
        with pytest.raises(SystemExit) as exc:
            main(["dns", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: option nx must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("experiment,text,named", [
        ("lift", None, "missing.json"),
        ("lift", '{"gamma": 0.7,', "c.json"),
        ("lift", '[{"gamma": 0.7}]', "c.json"),
        ("lift", '{"gamma": 0.7, "params": 5}', "params"),
        ("lift", '{"gamma": 0.7, "options": [1]}', "options"),
        ("lift", '{"gamma": 0.7, "seed": "x"}', "seed"),
        ("lift", '{"gamma": 0.7, "seed": 1.5}', "seed"),
        ("packet-norms", '{"gamma": 0.7, "nodes_per_lobe": 9.5}', "nodes_per_lobe"),
        ("packet-norms", '{"gamma": 0.7, "nodes_per_lobe": "9"}', "nodes_per_lobe"),
        ("lift", '{"gamma": 0.7, "k0": "1"}', "k0"),
        ("packet-norms", '{"gamma": 0.7, "k0": "1"}', "k0"),
        ("lift", '{"gamma": "0.7"}', "gamma"),
        ("lift", '{"gamma": 0.7, "params": {"eps": "0.2"}}', "eps"),
        ("roots", '{"gamma": 0.7, "k0": NaN}', "k0"),
        ("roots", '{"gamma": 0.7, "k0": Infinity}', "k0"),
        ("roots", '{"gamma": 0.7, "k0": -Infinity}', "k0"),
        ("roots", '{"gamma": 0.7, "k0": 0}', "k0"),
        # every experiment but roots builds the carrier, whose rule is k0 > 0
        *[(e, '{"gamma": 0.7, "k0": -1.0, "sweep": [[0.3, 0.0]]}', "k0")
          for e in _RUNNERS if e != "roots"]],
        ids=["missing-file", "invalid-json", "top-level-list", "params-not-object",
             "options-not-object", "seed-string", "seed-fraction", "nodes-fraction",
             "nodes-string", "k0-string-lift", "k0-string-norms", "gamma-string",
             "eps-string", "k0-nan", "k0-inf", "k0-minus-inf", "k0-zero",
             *[f"k0-negative-{e}" for e in _RUNNERS if e != "roots"]])
    def test_main_reports_malformed_config(self, tmp_path, capsys, experiment, text, named):
        """A config that cannot be read, is not a JSON object, or gives a
        value of the wrong type or out of range ends in one error line
        naming the file or the field, with exit code 2, not a traceback."""
        cfg = tmp_path / "c.json"
        if text is not None:
            cfg.write_text(text)
        path = cfg if text is not None else tmp_path / named
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    @pytest.mark.parametrize("raw,message", [
        ({"sweep": [["0.2", "0.008"]]}, "sweep[0] eps must be a number, got '0.2'"),
        ({"sweep": [[0.2]]}, "sweep must be a list of [eps, delta] pairs, got [[0.2]]"),
        ({"sweep": 5}, "sweep must be a list of [eps, delta] pairs, got 5"),
        ({"output_dir": 5}, "output_dir must be a path, got 5")],
        ids=["sweep-strings", "sweep-single", "sweep-number", "output-dir-number"])
    def test_main_names_malformed_sweep_or_output_dir(self, tmp_path, monkeypatch,
                                                      capsys, raw, message):
        """sweep entries and output_dir are typed by the rule of every other
        field: a wrong value ends in one error line naming the field, with
        exit code 2, and never runs."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, **raw}))
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_main_reports_zero_dt(self, tmp_path, capsys):
        """dt = 0 ends in an error line, not a ZeroDivisionError."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2, "nodes_per_lobe": 5,
                                   "options": {"dt": 0}}))
        with pytest.raises(SystemExit) as exc:
            main(["dns", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: dt must be > 0, got 0.0\n"

    def test_main_reports_end_time_between_steps(self, tmp_path, capsys):
        """T = 0.05 at dt = 0.02 is 2.5 steps: an error line naming T, dt and
        T/dt, not a march that silently ends at t = 0.04."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2, "nodes_per_lobe": 5,
                                   "options": {"T": 0.05, "dt": 0.02}}))
        with pytest.raises(SystemExit) as exc:
            main(["dns", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: T=0.05 is not a whole number of steps dt=0.02: T/dt = 2.5\n")

    @pytest.mark.parametrize("T,dt", [(0.3, 0.1), (0.4, 0.01), (0.0, 0.01)])
    def test_end_time_a_rounding_away_from_whole_steps_accepted(self, T, dt):
        """0.3/0.1 is 2.9999999999999996 in floating point: within 1e-9 of
        3 steps, so accepted, as is stability-twin's 0.4/0.01."""
        cfg = ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2), nodes_per_lobe=5,
                               experiment="stability", options={"T": T, "dt": dt})
        assert (cfg.options["T"], cfg.options["dt"]) == (T, dt)

    def test_main_reports_aliased_packet(self, tmp_path, capsys):
        """At eps = 0.2 and 5 nodes/lobe, W0 reaches rfft column 51, above
        the Nyquist column of nx = 64: an error line, not aliased fields."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2, "nodes_per_lobe": 5,
                                   "options": DNS_OPTIONS}))
        with pytest.raises(SystemExit) as exc:
            main(["dns", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: W0 wavenumber") and "column 51" in err, err

    def test_main_reports_unbuildable_grid(self, tmp_path, capsys):
        """A DnsError from the grid ends in an error line, not a traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2,
                                   "nodes_per_lobe": 4,
                                   "options": {"dy_max": 0.5}}))
        with pytest.raises(SystemExit) as exc:
            main(["dns", "--config", str(cfg), "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach Ly=300"), err


@pytest.fixture(scope="module")
def roots_outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("roots")
    cfg = ExperimentConfig(params=PhysParams(gamma=0.45, eps=0.2),
                           experiment="roots", output_dir=out)
    run_experiment(cfg)
    return out


class TestRootsExperiment:
    def test_six_rows_three_growing(self, roots_outdir):
        outdir = roots_outdir
        header, rows = read_csv(outdir / "roots.csv")
        assert header[0] == "eps"
        assert len(rows) == 6
        grown = sum(int(r[header.index("pos_real")]) for r in rows)
        assert grown == 3

    def test_manifest(self, roots_outdir):
        outdir = roots_outdir
        man = json.loads((outdir / "manifest.json").read_text())
        assert len(man["config_sha256"]) == 64
        assert "numpy" in man["versions"]
        assert "roots.csv" in man["artifacts"]

    def test_sweep_rows_are_the_single_point_rows(self, tmp_path):
        """A 3-point sweep writes exactly the rows of the three single-point
        runs, in sweep order."""
        sweep = [(0.3, 0.0), (0.2, 0.0), (0.15, 0.0)]
        run_experiment(ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.3),
                                        experiment="roots", sweep=sweep,
                                        output_dir=tmp_path / "sweep"))
        header, rows = read_csv(tmp_path / "sweep" / "roots.csv")
        want = []
        for eps, _ in sweep:
            out = tmp_path / str(eps)
            run_experiment(ExperimentConfig(params=PhysParams(gamma=0.7, eps=eps),
                                            experiment="roots", output_dir=out))
            want += read_csv(out / "roots.csv")[1]
        assert len(rows) == 18 and rows == want


class TestLiftExperiment:
    def test_samples_close_round_trip(self, tmp_path):
        cfg = ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                               experiment="lift", output_dir=tmp_path,
                               seed=5, options={"samples": 4})
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "lift.csv")
        assert len(rows) == 12  # 4 samples x 3 regimes
        assert max(float(r[2]) for r in rows) <= 1e-9

    def test_no_samples_refused(self, tmp_path):
        """samples = 0 is refused at load, before anything runs."""
        with pytest.raises(ConfigError, match="samples must be >= 1, got 0"):
            ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                             experiment="lift", output_dir=tmp_path,
                             options={"samples": 0})

    def test_seed_changes_draws_not_quality(self, tmp_path):
        errs = {}
        for seed in (1, 2):
            out = tmp_path / str(seed)
            cfg = ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                                   experiment="lift", output_dir=out,
                                   seed=seed, options={"samples": 2})
            run_experiment(cfg)
            _, rows = read_csv(out / "lift.csv")
            errs[seed] = [r[2] for r in rows]
        assert errs[1] != errs[2]


class TestSweepAndSlopes:
    def test_packet_norms_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            params=PhysParams(gamma=0.7, eps=0.3),
            experiment="packet-norms",
            sweep=[(0.3, 0.0), (0.2, 0.0), (0.15, 0.0)],
            output_dir=tmp_path, nodes_per_lobe=5)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "slopes.csv")
        got = {(r[0], r[1]): float(r[2]) for r in rows}
        # boundary-layer eps^3 family: L2 ~ eps^1.5, Linf ~ eps^1
        assert got[("BLEPS3", "l2")] == pytest.approx(1.5, abs=0.2)
        assert got[("BLEPS3", "linf")] == pytest.approx(1.0, abs=0.2)

    def test_single_point_no_fit(self, tmp_path):
        cfg = ExperimentConfig(params=PhysParams(gamma=0.7, eps=0.2),
                               experiment="packet-norms",
                               output_dir=tmp_path, nodes_per_lobe=5)
        run_experiment(cfg)
        assert (tmp_path / "packet_norms.csv").exists()
        assert not (tmp_path / "slopes.csv").exists()
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert "slopes.csv" not in man["artifacts"]


#: a small DNS box for the `dns` and `stability` experiments
DNS_EPS = box_matched_eps(0.3, 1.0, 9)
DNS_OPTIONS = {"Ly": 60.0, "nx": 64, "ny": 192, "dt": 0.02, "T": 0.04,
               "dy0": 1e-3, "dy_max": 0.6, "save_every": 1}

RERUN_CONFIGS = {
    "roots": dict(params=PhysParams(gamma=0.45, eps=0.2)),
    "lift": dict(params=PhysParams(gamma=0.7, eps=0.2), options={"samples": 4}),
    "packet-norms": dict(params=PhysParams(gamma=0.7, eps=0.2), nodes_per_lobe=5),
    "residual": dict(params=PhysParams(gamma=0.7, eps=0.2, delta=0.2**3),
                     nodes_per_lobe=5),
    "corrector": dict(params=PhysParams(gamma=0.7, eps=0.2, delta=0.2**3),
                      nodes_per_lobe=5),
    "dns": dict(params=PhysParams(gamma=0.7, eps=DNS_EPS, delta=DNS_EPS**3),
                nodes_per_lobe=5, options=DNS_OPTIONS),
    "stability": dict(params=PhysParams(gamma=0.7, eps=DNS_EPS,
                                        delta=DNS_EPS**3),
                      nodes_per_lobe=5, options=DNS_OPTIONS),
}


@pytest.mark.parametrize("experiment", list(RERUN_CONFIGS))
def test_rerun_bit_identical(experiment, tmp_path):
    """Two runs of one config write byte-identical artefacts."""
    artifacts = []
    for run in ("first", "second"):
        out = tmp_path / run
        run_experiment(ExperimentConfig(experiment=experiment, output_dir=out,
                                        **RERUN_CONFIGS[experiment]))
        man = json.loads((out / "manifest.json").read_text())
        artifacts.append({a: (out / a).read_bytes() for a in man["artifacts"]})
    assert artifacts[0] and artifacts[0] == artifacts[1]


def _dns_march(cfg, params, asm):
    """The `dns` experiment's march at params from W0 = asm (_dns_run and
    compare_stability): the trajectory and the report."""
    solver, w1, n_steps, save_every = _dns_run(cfg, params, asm)
    return compare_stability(solver, n_steps, save_every, asm, w1)


def _node_builds(experiment, tmp_path, monkeypatch):
    """Run `experiment` on the small box at delta = eps^3 and count its
    node builds: the modes of each node_profiles call (dns's and
    corrector's binding), CorrectorAssembly.node_table calls, and
    mode_profiles calls (every binding) once W1 is built (cli._dns_run);
    with the sizes of W0's and W1's modal families."""
    cfg = ExperimentConfig(experiment=experiment, output_dir=tmp_path,
                           **RERUN_CONFIGS[experiment])
    asm = _assembly_at(cfg, cfg.params)
    sizes = len(asm.bundle(Family.SUM)), len(assemble_W1(asm).modal())
    built = {"nodes": [], "W1": 0, "mode_profiles": 0}
    node_profiles, node_table = dns.node_profiles, CorrectorAssembly.node_table

    def counted_nodes(modes, y):
        built["nodes"].append(len(modes))
        return node_profiles(modes, y)

    def counted_w1(*args):
        built["W1"] += 1
        return node_table(*args)

    def refused(*args):
        built["mode_profiles"] += 1

    def dns_run(*args):
        out = _dns_run(*args)
        for module in (boundary, corrector, packets):
            monkeypatch.setattr(module, "mode_profiles", refused)
        return out

    monkeypatch.setattr(dns, "node_profiles", counted_nodes)
    monkeypatch.setattr(corrector, "node_profiles", counted_nodes)
    monkeypatch.setattr(CorrectorAssembly, "node_table", counted_w1)
    monkeypatch.setattr(cli, "_dns_run", dns_run)
    run_experiment(cfg)
    return built, sizes


def test_dns_builds_wapp_node_tables_once(tmp_path, monkeypatch):
    """The delta != 0 `dns` experiment on the small box builds each of
    W_app's node tables once, for its initial state and every save: W0's
    and W1's modal families by one node_profiles call each (dns's and
    corrector's binding), and W1's table, W1_MF's shapes joined in, by one
    CorrectorAssembly.node_table call; no save calls mode_profiles."""
    built, (n0, n1) = _node_builds("dns", tmp_path, monkeypatch)
    assert built == {"nodes": [n0, n1], "W1": 1, "mode_profiles": 0}


def test_stability_builds_wapp_node_tables_once_per_run(tmp_path, monkeypatch):
    """The delta != 0 `stability` experiment on the small box builds each
    run's node tables once: W0's for the delta = 0 twin first, then W0's
    and W1's modal families for the run, one node_profiles call each, and
    W1's table by one CorrectorAssembly.node_table call; no save calls
    mode_profiles."""
    built, (n0, n1) = _node_builds("stability", tmp_path, monkeypatch)
    assert built == {"nodes": [n0, n0, n1], "W1": 1, "mode_profiles": 0}


def _twin_residual(cfg, asm):
    """||W_delta - W_0 - W1|| / ||W_app(0)|| at the save times of cfg's
    delta != 0 run and its delta = 0 twin, each marched by its own Solver
    (Solver.run) and kept widened, with W1(t) as W_app(t) less W0(t), each
    placed on every rfft column from its own WappNodes (WappNodes.place)."""
    w1 = assemble_W1(asm)
    runs = []
    for delta, w in ((cfg.params.delta, w1), (0.0, None)):
        sim = _dns_config(cfg, dataclasses.replace(cfg.params, delta=delta), asm.x_period)
        sol, saved = Solver(sim), []
        sol.run(init_from_Wapp(asm, w, sim, sol), round(sim.T / sim.dt),
                cfg.options["save_every"], on_save=lambda s: saved.append(s.widen()))
        runs.append((sol, saved))
    (sol, saved), (_, saved0) = runs
    nodes, nodes0 = WappNodes(asm, w1, sol.grid), WappNodes(asm, None, sol.grid)
    every = np.arange(sol.grid.nx // 2 + 1)
    norm0 = math.sqrt(sol.norm2(*nodes.place(0.0, every)))
    out = []
    for s, s0 in zip(saved, saved0):
        W1 = nodes.place(s.t, every) - nodes0.place(s.t, every)
        resid = [f - f0 - f1 for f, f0, f1 in zip((s.uh, s.wh, s.bh), (s0.uh, s0.wh, s0.bh), W1)]
        out.append(math.sqrt(sol.norm2(*resid)) / norm0)
    return out


def test_stability_subtracts_its_delta_zero_twin(tmp_path):
    """The lockstep's stability.csv against the two runs made one after the
    other: diff_L2 and floor are the delta != 0 and the delta = 0 run's
    diff_L2 (_dns_march) bit for bit, net is max(diff_L2 - floor, 0),
    within_thm is net <= bound_thm, and twin_resid is the runs'
    ||W_delta - W_0 - W1|| / ||W_app(0)|| to 1e-14.  On this box net is
    about 0.019 on every row, above bound_thm, so the unclamped branch and a
    within_thm of 0 are both exercised."""
    cfg = ExperimentConfig(experiment="stability", output_dir=tmp_path,
                           **RERUN_CONFIGS["stability"])
    run_experiment(cfg)
    header, rows = read_csv(tmp_path / "stability.csv")
    assert header == ["t", "diff_L2", "floor", "net", "bound_thm", "within_thm",
                      "twin_resid"]
    assert len(rows) == 3
    asm = _assembly_at(cfg, cfg.params)
    diff = _dns_march(cfg, cfg.params, asm)[1]["diff_L2"]
    floor = _dns_march(cfg, dataclasses.replace(cfg.params, delta=0.0), asm)[1]["diff_L2"]
    for row, d, f0, r in zip(rows, diff, floor, _twin_residual(cfg, asm), strict=True):
        _, diff_i, floor_i, net, bound_thm, within, resid = row
        assert float(diff_i) == d and float(floor_i) == f0
        assert float(net) == max(d - f0, 0.0)
        assert int(within) == int(float(net) <= float(bound_thm))
        assert abs(float(resid) - r) <= 1e-14 * r


def test_stability_at_delta_zero_is_its_own_twin(tmp_path):
    """At delta = 0 the stability experiment builds no W1, and its run is its
    twin: floor is diff_L2 bit for bit, both the delta = 0 `dns` march's
    diff_L2 (_dns_march), net is 0 and twin_resid is exactly 0.0 at every
    save."""
    params = dataclasses.replace(RERUN_CONFIGS["stability"]["params"], delta=0.0)
    cfg = ExperimentConfig(experiment="stability", output_dir=tmp_path,
                           **{**RERUN_CONFIGS["stability"], "params": params})
    run_experiment(cfg)
    rows = read_csv(tmp_path / "stability.csv")[1]
    assert len(rows) == 3
    asm = _assembly_at(cfg, params)
    assert _dns_run(cfg, params, asm)[1] is None
    diff = _dns_march(cfg, params, asm)[1]["diff_L2"]
    for row, d in zip(rows, diff, strict=True):
        _, diff_i, floor_i, net, _, _, resid = map(float, row)
        assert diff_i == floor_i == d
        assert net == 0.0 and resid == 0.0


def test_stability_floor_is_the_delta_zero_dns_run(tmp_path):
    """At delta = eps^3 the twin is the delta = 0 run: stability.csv's t and
    floor columns are, as written, the t and diff_L2 columns of the
    dns_series.csv of `dns` at delta = 0 on the same box."""
    stability = ExperimentConfig(experiment="stability", output_dir=tmp_path / "stability",
                                 **RERUN_CONFIGS["stability"])
    params = dataclasses.replace(stability.params, delta=0.0)
    linear = ExperimentConfig(experiment="dns", output_dir=tmp_path / "dns",
                              **{**RERUN_CONFIGS["stability"], "params": params})
    run_experiment(stability)
    run_experiment(linear)

    def columns(path, *names):
        header, rows = read_csv(path)
        return [[row[header.index(n)] for n in names] for row in rows]

    floor = columns(tmp_path / "stability" / "stability.csv", "t", "floor")
    assert len(floor) == 3
    assert floor == columns(tmp_path / "dns" / "dns_series.csv", "t", "diff_L2")


def test_delta_zero_twin_on_its_columns_is_the_full_width_run():
    """Solver.twin steps the delta = 0 twin's state, on the columns W0
    reaches, over the delta != 0 solver's y-operators and factorizations,
    and keeps its column views apart: at every step the state is a
    full-width delta = 0 run (its own Solver, every column) to 1e-12 of
    that run's norm."""
    cfg = ExperimentConfig(experiment="stability", **RERUN_CONFIGS["stability"])
    asm = _assembly_at(cfg, cfg.params)
    solver = Solver(_dns_config(cfg, cfg.params, asm.x_period))
    twin = solver.twin()
    assert twin.config == dataclasses.replace(
        solver.config, params=dataclasses.replace(cfg.params, delta=0.0))
    assert twin._diff is solver._diff and twin._proj_unit is solver._proj_unit
    full = Solver(twin.config)
    narrow = init_from_Wapp(asm, None, twin.config, twin)
    wide = init_from_Wapp(asm, None, full.config, full).widen()
    assert len(narrow.cols) == 3
    for _ in range(10):
        got = narrow.widen()
        diff = [a - b for a, b in zip((got.uh, got.wh, got.bh), (wide.uh, wide.wh, wide.bh))]
        assert got.t == wide.t
        assert full.norm2(*diff) <= 1e-24 * full.norm2(wide.uh, wide.wh, wide.bh)
        narrow, wide = twin.step(narrow)[0], full.step(wide)[0]
    assert list(solver._views.values()) == [solver]


#: the linear `dns` run whose artefacts TestDnsArtifacts reads
DNS_RUN = dict(params=PhysParams(gamma=0.7, eps=DNS_EPS), experiment="dns",
               nodes_per_lobe=5, options=DNS_OPTIONS)


@pytest.fixture(scope="module")
def dns_outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dns")
    run_experiment(ExperimentConfig(output_dir=out, **DNS_RUN))
    return out


class TestDnsArtifacts:
    def test_series_columns(self, dns_outdir):
        outdir = dns_outdir
        header, rows = read_csv(outdir / "dns_series.csv")
        assert header == ["t", "energy", "dissipation", "diff_L2", "bound_thm"]
        assert len(rows) == 3
        assert float(rows[0][0]) == 0.0

    def test_field_dump_round_trip(self, dns_outdir):
        """Each component, read through the sidecar, is bit for bit the
        final state of the same march."""
        outdir = dns_outdir
        side = json.loads((outdir / "dns_final.json").read_text())
        assert side["dtype"] == "<f8"
        comps = [(c["name"], c["shape"]) for c in side["components"]]
        assert sorted(name for name, _ in comps) == ["b", "p", "u", "w"]
        raw = np.fromfile(outdir / "dns_final.bin", dtype="<f8")
        assert raw.size == sum(math.prod(s) for _, s in comps)
        assert len(side["y"]) == comps[0][1][0]
        cfg = ExperimentConfig(output_dir=outdir, **DNS_RUN)
        final = _dns_march(cfg, cfg.params, _assembly_at(cfg, cfg.params))[0].final
        assert side["t"] == final.t
        start = 0
        for name, shape in comps:
            got = raw[start:start + math.prod(shape)].reshape(shape)
            start += got.size
            assert np.array_equal(got, getattr(final, name)), name

    def test_failed_sidecar_write_leaves_no_sidecar(self, tmp_path, monkeypatch):
        """The sidecar is written to a temporary file and moved into place,
        as every artefact is: a write that fails leaves no torn .json."""
        def fail(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr(json, "dump", fail)
        with pytest.raises(OSError, match="no space left"):
            _dump_field(tmp_path / "f", {"u": np.zeros((2, 3))}, {})
        assert (tmp_path / "f.bin").exists() and not (tmp_path / "f.json").exists()


class TestCommandLine:
    def test_main_roots(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.45, "eps": 0.2}))
        rc = main(["roots", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "roots.csv")
        assert len(rows) == 6

    def test_main_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gamma": 0.7, "eps": 0.2, "delta": 0.1}))
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_main_refuses_non_finite_delta(self, tmp_path, capsys, value):
        """--delta nan or inf ends in one error line naming delta, with exit
        code 2, before any manifest is written (NaN in manifest.json is not
        JSON, and a NaN delta ends in a lift error that names a node)."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["packet-norms", "--gamma", "0.7", "--delta", value, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: delta must be finite and >= 0, got {value}\n"
        assert not (out / "manifest.json").exists()

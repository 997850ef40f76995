import contextlib
import hashlib
import io
import math
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cityroad import cli, csvout, kernels
from cityroad.asymptotic import compute_c_star_inf
from cityroad.cli import ConfigError, main, parse_config
from cityroad.csvout import fmt
from cityroad.dispersion import compute_c_star
from cityroad.front_speed import NoCrossingError
from cityroad.lattice_sim import BlowUpError
from cityroad.model import Parameters


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_gives_standard_defaults(self):
        cfg = parse_config(None)
        p = cfg.parameters
        assert (p.alpha, p.beta, p.d, p.fprime0) == (1.0, 1.0, 1.0, 1.0)
        assert cfg.simulation.m == 32
        assert cfg.simulation.dt == 1e-3
        assert cfg.threshold == 0.5

    def test_file_and_overrides(self, tmp_path):
        path = write(tmp_path, "parameters.alpha = 2.0\nsimulation.T = 5\n# comment\n")
        cfg = parse_config(path, ["parameters.beta=0.5"])
        assert cfg.parameters.alpha == 2.0
        assert cfg.parameters.beta == 0.5
        assert cfg.simulation.T == 5.0

    def test_negative_alpha_rejected(self, tmp_path):
        path = write(tmp_path, "parameters.alpha = -1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path, "parameters.gamma = 1\n")
        with pytest.raises(ConfigError, match="parameters.gamma"):
            parse_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "parameters.alpha = 1\nnot a config line\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_sweep_plan(self, tmp_path):
        path = write(tmp_path, "sweep.parameter = d\nsweep.values = 1, 10, 100\n")
        cfg = parse_config(path)
        assert cfg.raw["sweep.parameter"] == "d"
        assert cfg.raw["sweep.values"] == [1.0, 10.0, 100.0]

    def test_bad_value_type(self, tmp_path):
        path = write(tmp_path, "simulation.T = soon\n")
        with pytest.raises(ConfigError, match="simulation.T"):
            parse_config(path)


def outdir_arg(path):
    return ["--set", f"output.dir={path}"]


def run_cli(args, tmp_path, timeout=None):
    """Run ``python -m cityroad.cli`` in ``tmp_path`` with output in
    ``tmp_path / "out"``; callers need ``package_on_pythonpath``."""
    if args[0] != "verify":
        args = [*args, *outdir_arg(tmp_path / "out")]
    return subprocess.run(
        [sys.executable, "-m", "cityroad.cli", *args],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=timeout,
    )


def assert_one_line_error(proc, fragment):
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert fragment in lines[0]


@pytest.mark.usefixtures("package_on_pythonpath")
class TestCommands:
    def test_speed_writes_scan_and_summary(self, tmp_path):
        proc = run_cli(["speed"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        line = proc.stdout.splitlines()[0]
        assert line.startswith("lambda0=")
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["c_star"]) < float(fields["c_star_inf"])  # d=1 below the limit
        scan = (tmp_path / "out" / "dispersion_scan.csv").read_text().splitlines()
        assert scan[0] == "lambda,delta,y,mu,c"
        assert len(scan) == 2001

    @pytest.mark.parametrize("rates,field,value", [
        # mu* = 1.7e-15: 49 halvings from mu = 1 bracket the limit tangency;
        # the 60-digit minimum is 7.0710678118654755e-16
        ({"fprime0": "1e-30"}, "c_star_inf", "7.0710678118654743e-16"),
        # lambda* within 6e-9 lambda0 of the threshold; the 80-digit minimum agrees
        ({"alpha": "950273520.1262786", "beta": "7819.045135814194",
          "d": "1.4413836100614537e-09", "fprime0": "191330277.32112813"},
         "c_star", "0.52514789310121357"),
        # k s underflowed in dV/dx at d = 1e300; c* meets c*_inf = 0.75679734081915294
        ({"d": "1e300"}, "c_star", "0.75679734081915284"),
        ({"d": "1e305"}, "c_star", "0.75679734081915295"),
    ])
    def test_speed_at_extreme_rates(self, rates, field, value, tmp_path, capsys):
        sets = [arg for k, v in rates.items() for arg in ("--set", f"parameters.{k}={v}")]
        assert main(["speed", *sets, *outdir_arg(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert dict(kv.split("=") for kv in line.split())[field] == value

    @pytest.mark.parametrize("rate,fragment", [
        # subnormal rates: speed did not return within 10 s, nor c*_inf at 1e-320
        ("fprime0=1e-310", "fprime0 = 1e-310 is below the smallest normal float"),
        ("alpha=1e-310", "alpha = 1e-310 is below the smallest normal float"),
        ("fprime0=1e-320", "fprime0 = 1e-320 is below the smallest normal float"),
        # alpha^2 in Delta, (2 alpha - 2 beta + f'(0))^2 in DeltaInf overflow:
        # an OverflowError traceback, exit 1
        ("alpha=1e155", "Delta overflows at lambda = 1.000e+00"),
        ("alpha=1e200", "Delta overflows at lambda = 1.000e+00"),
        ("alpha=1e300", "Delta overflows at lambda = 1.000e+00"),
        ("beta=1e300", "DeltaInf overflows at mu = 1.000e+00"),
        ("d=1.7e308", "Delta overflows at lambda = 1.000e+00"),
    ])
    def test_speed_rejects_inadmissible_rates_by_name(self, rate, fragment, tmp_path):
        proc = run_cli(["speed", "--set", f"parameters.{rate}"], tmp_path, timeout=10)
        assert proc.returncode == 2
        assert_one_line_error(proc, fragment)

    @pytest.mark.parametrize("command", ["speed", "asymptotic"])
    @pytest.mark.parametrize("rate", ["1e-200", "1e-300"])
    def test_underflowing_delta_rejected_by_name(self, command, rate, tmp_path, capsys):
        # every rate at 1e-200: each term of Delta underflows to 0 near lambda0,
        # a ZeroDivisionError traceback before
        sets = [arg for k in ("alpha", "beta", "d", "fprime0")
                for arg in ("--set", f"parameters.{k}={rate}")]
        assert main([command, *sets, *outdir_arg(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Delta underflows at lambda = ") and err.count("\n") == 1

    def test_simulate_emits_trajectory(self, tmp_path):
        proc = run_cli(
            ["simulate", "--set", "simulation.T=4", "--set", "simulation.dt=0.002",
             "--set", "simulation.m=8", "--set", "simulation.c_upper=1.0",
             "--set", "initial.kind=sine_bump", "--set", "measurement.window=0.1,1.0"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out"
        rho_lines = (out / "trajectory_rho.csv").read_text().splitlines()
        assert rho_lines[0] == "time,j,rho"
        edge_lines = (out / "trajectory_edge.csv").read_text().splitlines()
        assert edge_lines[0] == "time,j,x,v"
        mass_lines = (out / "mass.csv").read_text().splitlines()
        assert mass_lines[0] == "time,mass"
        assert "measured_speed=" in proc.stdout

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--set", "simulation.T=2", "--set", "simulation.dt=0.002",
                "--set", "simulation.m=8", "--set", "simulation.c_upper=1.0",
                "--set", "initial.kind=sine_bump", "--set", "measurement.window=0.1,1.0"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "out" / "trajectory_rho.csv").read_bytes()
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        second = (tmp_path / "out" / "trajectory_rho.csv").read_bytes()
        assert first == second

    def test_asymptotic_command(self, tmp_path):
        proc = run_cli(
            ["asymptotic", "--set", "simulation.T=30", "--set", "simulation.dt=0.01",
             "--set", "simulation.c_upper=1.2"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out"
        vp = (out / "asymptotic_vp.csv").read_text().splitlines()
        assert vp[0] == "time,j,V,P"
        assert (out / "asymptotic_mass.csv").exists()
        assert "c_star_inf=" in proc.stdout

    def test_asymptotic_large_d_table(self, tmp_path):
        proc = run_cli(
            ["asymptotic", "--set", "simulation.T=30", "--set", "simulation.dt=0.01",
             "--set", "simulation.c_upper=1.2", "--set", "largeD.eps_values=0.1,0.01",
             "--set", "largeD.T=2.5"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "out" / "large_d_errors.csv").read_text().splitlines()
        assert lines[0] == "epsilon,error"
        assert len(lines) == 3
        errs = [float(l.split(",")[1]) for l in lines[1:]]
        assert errs[0] > errs[1]

    def test_sweep_writes_table(self, tmp_path):
        proc = run_cli(
            ["sweep", "--set", "sweep.parameter=fprime0", "--set", "sweep.values=1.0,2.0",
             "--set", "simulation.T=30", "--set", "simulation.m=8",
             "--set", "simulation.dt=0.002"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,c_theory,c_measured,rel_error,status"
        assert len(lines) == 3
        rel = [float(l.split(",")[4]) for l in lines[1:]]
        assert max(rel) < 0.2  # coarse, short run
        assert [l.split(",")[5] for l in lines[1:]] == ["ok", "ok"]

    def test_sweep_keeps_every_row(self, tmp_path):
        # at f'(0) = 0.01 the block never forms a front by T = 10; the point
        # before it still gets its row, and the failure keeps its exit code
        args = ["sweep", "--set", "sweep.parameter=fprime0", "--set", "sweep.values=1,0.01",
                "--set", "simulation.T=10", "--set", "simulation.m=8",
                "--set", "simulation.dt=0.002"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 5, proc.stderr
        assert_one_line_error(proc, "no downward threshold crossing")
        rows = [l.split(",") for l in
                (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
        assert [(r[1], r[5]) for r in rows] == [("1", "ok"), ("0.01", "NoCrossingError")]
        assert float(rows[0][3]) > 0 and rows[1][3:5] == ["nan", "nan"]
        assert "fprime0=0.01 status=NoCrossingError" in proc.stdout.splitlines()

    def test_simulate_default_run_invades_center(self, tmp_path, capsys):
        # default config: left block, T=50; by then the front is well past the
        # central sites, so the final density there sits within 0.02 of 1
        assert main(["simulate", *outdir_arg(tmp_path / "out")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out" / "trajectory_rho.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        t_final = max(float(r[0]) for r in rows)
        central = [float(r[2]) for r in rows
                   if float(r[0]) == t_final and abs(int(r[1])) <= 17]
        assert central
        assert max(abs(v - 1.0) for v in central) <= 0.02

    def test_sweep_is_deterministic(self, tmp_path):
        # the points run in worker processes; two sweeps give the same bytes
        args = ["sweep", "--set", "sweep.parameter=alpha", "--set", "sweep.values=0.8,1.2",
                "--set", "simulation.T=20", "--set", "simulation.m=8",
                "--set", "simulation.dt=0.002"]
        tables = []
        for _ in range(2):
            proc = run_cli(args, tmp_path)
            assert proc.returncode == 0, proc.stderr
            tables.append((tmp_path / "out" / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_import_leaves_process_pool_unloaded(self):
        # only the sweep starts worker processes, so only it imports the pool
        code = "import sys, cityroad.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_config_error_exit_code(self, tmp_path):
        proc = run_cli(["simulate", "--set", "parameters.alpha=-2"], tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        # only c_upper = 0 means automatic; inf, nan and negative speeds are
        # rejected by name before anything runs
        for value in ("inf", "nan", "-1"):
            proc = run_cli(["simulate", "--set", f"simulation.c_upper={value}"], tmp_path)
            assert proc.returncode == 2, (value, proc.stderr)
            assert_one_line_error(proc, "c_upper_guess")

    def test_asymptotic_unmeasurable_front_reports_contamination(self, tmp_path):
        # a point mass below the threshold never forms a front, and the short
        # run's window is contaminated: the exit code 1 must be explained
        proc = run_cli(["asymptotic", "--set", "initial.kind=point_mass",
                        "--set", "initial.amplitude=0.2", "--set", "simulation.T=3"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "front not measurable" in proc.stdout
        assert "contaminated=true" in proc.stdout.splitlines()

    def test_limit_speed_solves_at_fprime0_2(self, tmp_path):
        # here a mu* placed only to about sqrt(eps), as a search on c_plus
        # alone places it, misses the 1e-8 tangency bound
        proc = run_cli(["speed", "--set", "parameters.fprime0=2"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "c_star_inf=" in proc.stdout

    def test_limit_speed_solves_at_fprime0_1e6(self, tmp_path):
        # Psi's terms are about 1e6 here, so its post-check bound scales with
        # them: an absolute 1e-10 sat at roundoff (|Psi| = 2.3e-10)
        proc = run_cli(["speed", "--set", "parameters.fprime0=1e6"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "c_star_inf=42524.43" in proc.stdout

    def test_limit_speed_below_limit_when_beta_dwarfs_alpha(self, tmp_path):
        # sqrt(DeltaInf) - (2 alpha + 2 beta - f'(0)) cancels here: formed as
        # that difference, the root read 0 and so did c_star_inf
        proc = run_cli(["speed", "--set", "parameters.alpha=0.1", "--set", "parameters.beta=1e5",
                        "--set", "parameters.fprime0=1e-5"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        fields = dict(kv.split("=") for kv in proc.stdout.splitlines()[0].split())
        assert 0.0 < float(fields["c_star"]) < float(fields["c_star_inf"])

    @pytest.mark.parametrize("rates", [
        # lambda0 = 5e-10: an absolute zoom stop left the scan's first point below it
        ["parameters.fprime0=1e-9"],
        # lambda0 = 2.2e-16, which an absolute zoom stop rounded to 0
        ["parameters.alpha=4.189132974784821e-06", "parameters.beta=197905.90603727652",
         "parameters.d=1297.5617943799105", "parameters.fprime0=1.0603549495470298e-05"],
    ])
    def test_speed_solves_at_tiny_threshold(self, rates, tmp_path, capsys):
        args = [a for rate in rates for a in ("--set", rate)]
        assert main(["speed", *args, *outdir_arg(tmp_path / "out")]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.splitlines()[0].split())
        assert 0.0 < float(fields["lambda0"]) < float(fields["lambda_star"])
        assert 0.0 < float(fields["c_star"]) < float(fields["c_star_inf"])

    def test_speed_at_fprime0_1e_12_finds_one_minimum(self, tmp_path, capsys):
        # y - 1 is about 1e-12 here: formed as a difference of O(1) terms its
        # noise made grid-local minima, and c* came out 6.9e-5 low
        assert main(["speed", "--set", "parameters.fprime0=1e-12",
                     *outdir_arg(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "grid-local minima" not in out
        fields = dict(kv.split("=") for kv in out.splitlines()[0].split())
        assert float(fields["c_star"]) == pytest.approx(5.773502691896e-07, rel=1e-12)

    def test_limit_speed_post_check_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        # a failed tangency post-check is reported as one line with exit 4
        def fail(p):
            raise RuntimeError("tangency residual |dPsi/dmu| = 1.000e-07 exceeds 1e-8")

        monkeypatch.setattr(cli, "compute_c_star_inf", fail)
        assert main(["asymptotic", "--set", "simulation.T=5", *outdir_arg(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err == "error: tangency residual |dPsi/dmu| = 1.000e-07 exceeds 1e-8\n"

    def test_sweep_point_without_crossing_is_one_line_error(self, tmp_path):
        proc = run_cli(["sweep", "--set", "sweep.parameter=fprime0",
                        "--set", "sweep.values=1,0.01", "--set", "simulation.T=3",
                        "--set", "initial.kind=point_mass",
                        "--set", "initial.amplitude=0.2"], tmp_path)
        assert proc.returncode == 5, proc.stderr
        assert_one_line_error(proc, "no downward threshold crossing")

    def test_verify_subset(self, tmp_path):
        proc = run_cli(["verify", "--only", "3,4"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = [l for l in proc.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 2
        assert all(l.startswith("PASS") for l in lines)

    @pytest.mark.parametrize("only", ["13", "0,99", ",", "", "1,x"])
    def test_verify_rejects_unknown_criteria(self, only, capsys):
        # a selection that runs nothing must not pass
        assert main(["verify", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: --only takes criterion numbers 1-12, got ")

    @staticmethod
    def forbid_solving(monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("solved before the config was rejected")

        for name in ("compute_c_star", "compute_c_star_inf", "simulate_asymptotic",
                     "large_d_convergence_experiment"):
            monkeypatch.setattr(cli, name, unexpected)

    def test_large_d_horizon_rejected_before_solving(self, tmp_path, monkeypatch, capsys):
        # errors are measured on [1, largeD.T]: a horizon <= 1 is a config
        # error, raised before the limit run solves or writes anything
        self.forbid_solving(monkeypatch)
        out = tmp_path / "out"
        for horizon in ("0.5", "1"):
            argv = ["asymptotic", "--set", "largeD.eps_values=0.1", "--set", f"largeD.T={horizon}",
                    "--set", "simulation.T=5", "--set", "simulation.dt=0.01", *outdir_arg(out)]
            assert main(argv) == 2
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err == "error: largeD.T must be > 1: errors are measured on [1, T]\n"
        assert not out.exists()
        # without eps values the horizon is unused and not checked
        assert parse_config(None, ["largeD.T=0.5"]).raw["largeD.T"] == 0.5

    def test_large_d_without_reaction_rejected_before_solving(self, tmp_path, monkeypatch,
                                                              capsys):
        # the convergence experiment needs c*_inf, which needs f'(0) > 0: the
        # pair is a config error before the limit run solves or writes anything
        self.forbid_solving(monkeypatch)
        out = tmp_path / "out"
        argv = ["asymptotic", "--set", "parameters.fprime0=0", "--set", "largeD.eps_values=0.1",
                "--set", "simulation.T=5", "--set", "simulation.dt=0.01", *outdir_arg(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == ("error: largeD.eps_values needs parameters.fprime0 > 0: "
                       "the convergence experiment's window is sized from c*_inf\n")
        assert not out.exists()
        # without eps values a reaction-free limit run is admitted
        assert parse_config(None, ["parameters.fprime0=0"]).parameters.fprime0 == 0.0

    def test_asymptotic_reaction_free_reports_contamination(self, tmp_path, capsys):
        code = main(["asymptotic", "--set", "parameters.fprime0=0",
                     "--set", "simulation.T=2", "--set", "simulation.dt=0.01",
                     *outdir_arg(tmp_path / "out")])
        flags = [l for l in capsys.readouterr().out.splitlines() if l.startswith("contaminated=")]
        assert flags == [f"contaminated={str(code == 1).lower()}"]

    def test_main_entry_in_process(self, tmp_path, capsys):
        code = main(["speed", *outdir_arg(tmp_path / "out2")])
        assert code == 0
        assert "c_star=" in capsys.readouterr().out

    def test_speed_scales_out_edge_length(self, tmp_path, capsys):
        # roads of length 2 at alpha = 2, d = 8 are the unit lattice at
        # alpha = 1, d = 2: both speeds are that model's, to the last digit
        assert main(["speed", "--set", "parameters.alpha=2", "--set", "parameters.d=8",
                     "--set", "parameters.ell=2", *outdir_arg(tmp_path / "out")]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split()
                      if "=" in kv)
        unit = Parameters(1.0, 1.0, 2.0)
        assert fields["c_star"] == fmt(compute_c_star(unit).c_star)
        assert fields["c_star_inf"] == fmt(compute_c_star_inf(unit).c_star_inf)

    @pytest.mark.parametrize("command", ["simulate", "asymptotic"])
    def test_window_too_large_is_one_line_error(self, command, tmp_path):
        # T = 1e12 asks for a 13 TiB vertex array, which is refused before any
        # of it is touched; the address-space cap keeps it that way on a host
        # that overcommits memory
        code = ("import resource, runpy; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32)); "
                "runpy.run_module('cityroad.cli', run_name='__main__')")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", code, command, "--set", "simulation.T=1e12",
             *outdir_arg(out)],
            capture_output=True, text=True, cwd=str(tmp_path),
        )
        assert proc.returncode == 2, proc.stderr
        assert_one_line_error(proc, "Unable to allocate")
        assert list(out.iterdir()) == []


class TestAutomaticStep:
    """``simulation.dt = 0``, the default, is automatic per command: the limit
    system's own step (``asymptotic.limit_dt``, never below 1e-3) for
    ``asymptotic`` unless a stride is set, 1e-3 for the lattice runs; an
    explicit step is used as given."""

    LIMIT = ["asymptotic", "--set", "simulation.T=10"]
    PINNED = ["--set", "simulation.dt=0.001"]

    @pytest.fixture(scope="class")
    def limit_runs(self, tmp_path_factory):
        """Output directories of the T = 10 limit run at the automatic step
        and at dt = 1e-3 (both exit 1: the short run's window is contaminated)."""
        outs = {}
        for name, extra in (("auto", []), ("pinned", self.PINNED)):
            outs[name] = tmp_path_factory.mktemp(name)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*self.LIMIT, *extra, *outdir_arg(outs[name])]) == 1
        return outs

    def test_limit_keeps_rows_and_times(self, limit_runs):
        # dt = 0.01 here: the values move by RK4's error (V, P 5.3e-9 and the
        # mass, a sum over the window, 2.3e-8), the rows and times not at all
        for name, keys, bound in (("asymptotic_vp.csv", 2, 1e-8),
                                  ("asymptotic_mass.csv", 1, 1e-7)):
            auto, pinned = (np.loadtxt(limit_runs[side] / name, delimiter=",", skiprows=1)
                            for side in ("auto", "pinned"))
            assert auto.shape == pinned.shape
            assert np.array_equal(auto[:, :keys], pinned[:, :keys])
            np.testing.assert_allclose(auto[:, keys:], pinned[:, keys:], rtol=0, atol=bound)

    def test_explicit_step_keeps_its_bytes(self, limit_runs):
        # the digests of the dt = 1e-3 run before the automatic step existed
        digests = {
            "asymptotic_vp.csv":
                "f8940c73cc8078bf32eb40a16392565ec89fe392ba78ee8d1ef4d60df71c3b98",
            "asymptotic_mass.csv":
                "80f2d9ca2571536a1e7c6c2360f50d4b6848304aaca774b48f02406feaaae0ba",
        }
        for name, digest in digests.items():
            data = (limit_runs["pinned"] / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("sets", [
        ["simulation.T=1", "simulation.stride=10"],  # a stride counts lattice steps
        ["simulation.T=1", "parameters.fprime0=50"],  # the limit rule would step finer
        ["simulation.T=0.15"],                        # here too: T / 200 < 1e-3
    ])
    def test_lattice_step_where_the_rule_does_not_apply(self, sets, tmp_path):
        args = ["asymptotic", *(arg for s in sets for arg in ("--set", s))]
        tables, codes = [], []
        for extra in ([], self.PINNED):
            out = tmp_path / str(len(tables))
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main([*args, *extra, *outdir_arg(out)]))
            tables.append([(out / name).read_bytes()
                           for name in ("asymptotic_vp.csv", "asymptotic_mass.csv")])
        assert codes[0] == codes[1] and tables[0] == tables[1]

    def test_rate_past_the_cap_refused(self, tmp_path, capsys):
        # the automatic step is never below 1e-3, so run_system refuses it
        argv = ["asymptotic", "--set", "parameters.fprime0=1e4"]
        assert main([*argv, *outdir_arg(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: dt=0.001 exceeds the stiffness cap 1e-05\n"

    def test_large_d_errors_stay_on_the_lattice_step(self, tmp_path, monkeypatch):
        steps, run = [], cli.large_d_convergence_experiment

        def spy(*args, **kwargs):
            steps.append(kwargs["dt"])
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "large_d_convergence_experiment", spy)
        argv = ["asymptotic", "--set", "simulation.T=2", "--set", "simulation.m=8",
                "--set", "largeD.eps_values=0.1", "--set", "largeD.T=2"]
        tables = []
        for extra in ([], self.PINNED):
            out = tmp_path / str(len(tables))
            main([*argv, *extra, *outdir_arg(out)])
            tables.append((out / "large_d_errors.csv").read_bytes())
        assert steps == [1e-3, 1e-3]
        assert tables[0] == tables[1]


class TestExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (ValueError("inadmissible"), 2),
        (BlowUpError("solution reached 1e9"), 3),
        (RuntimeError("edge bound violated at t=1"), 4),
        (RuntimeError("first line\nsecond line"), 4),
        (NoCrossingError("no downward threshold crossing"), 5),
    ])
    def test_error_classes_map_to_codes(self, exc, code, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "simulate", fail)
        assert main(["simulate", *outdir_arg(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err == "error: " + " ".join(str(exc).split()) + "\n"

    def test_sweep_point_out_of_memory_keeps_every_row(self, tmp_path, monkeypatch, capsys):
        # a window too large to allocate fails its own point only: every row
        # is written, and the failure keeps its exit code
        real = cli.simulate

        def simulate(data, cfg, p, *args, **kwargs):
            if p.fprime0 == 2.0:
                raise MemoryError("cannot allocate the window")
            return real(data, cfg, p, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate", simulate)
        out = tmp_path / "out"
        args = ["sweep", "--set", "sweep.parameter=fprime0", "--set", "sweep.values=1,2",
                "--set", "simulation.T=10", "--set", "simulation.m=8",
                "--set", "simulation.dt=0.002", *outdir_arg(out)]
        assert main(args) == 2
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(r[1], r[5]) for r in rows] == [("1", "ok"), ("2", "MemoryError")]
        stdout, err = capsys.readouterr()
        assert "fprime0=2 status=MemoryError" in stdout.splitlines()
        assert err == "error: cannot allocate the window\n"


    def test_sweep_worker_killed_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        # a worker process that dies (as when the OS kills it) breaks the
        # pool: one error line and exit 4, not a hang
        monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: os._exit(1))
        args = ["sweep", "--set", "sweep.parameter=fprime0", "--set", "sweep.values=1,2",
                *outdir_arg(tmp_path / "out")]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestWriter:
    """The CSV blocks print every float as format(x, '.17g') does."""

    VALUES = [-0.0, float("nan"), 1e-300, 0.1]

    def snapshot(self, **arrays):
        return SimpleNamespace(j_min=-1, j_max=2, time=0.25, **arrays)

    def check(self, block, snap, want_rows):
        want = "".join(",".join(row) + "\n" for row in want_rows)
        assert block(snap)(snap) == want

    def test_special_values(self):
        fmt = [format(x, ".17g") for x in self.VALUES]
        assert fmt[:2] == ["-0", "nan"]
        rho = np.array(self.VALUES)
        self.check(csvout.rho_block, self.snapshot(rho=rho),
                   [("0.25", str(j), f) for j, f in zip(range(-1, 3), fmt)])
        edges = np.array([self.VALUES[:3], self.VALUES[1:], self.VALUES[::-1][:3]])
        snap = self.snapshot(edges=edges, m=2)
        self.check(csvout.edge_block, snap,
                   [("0.25", str(j), xi, format(x, ".17g"))
                    for j, row in zip(range(-1, 2), edges.tolist())
                    for xi, x in zip(("0", "0.5", "1"), row)])
        V, P = np.array(self.VALUES[:3]), np.array(self.VALUES[::-1])
        self.check(csvout.asym_block, self.snapshot(edges=V[:, None], rho=P),
                   [("0.25", str(j), format(v, ".17g"), format(pj, ".17g"))
                    for j, v, pj in zip(range(-1, 3), [*V.tolist(), math.nan], P.tolist())])


SIMULATE = ["simulate", "--set", "simulation.T=2", "--set", "simulation.dt=0.002",
            "--set", "simulation.m=8", "--set", "simulation.c_upper=1.0",
            "--set", "initial.kind=sine_bump", "--set", "measurement.window=0.1,1.0"]
ASYMPTOTIC = ["asymptotic", "--set", "simulation.T=30", "--set", "simulation.dt=0.01",
              "--set", "simulation.c_upper=1.2"]


class TestTrajectoryWriter:
    """The trajectory CSVs come from a second process while the run steps,
    and appear only when the run and the writer both succeed."""

    FILES = {"simulate": ("trajectory_rho.csv", "trajectory_edge.csv"),
             "asymptotic": ("asymptotic_vp.csv",)}

    @pytest.mark.parametrize("argv", [SIMULATE, ASYMPTOTIC], ids=lambda a: a[0])
    def test_streamed_csvs_equal_in_process_formatting(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        name = "simulate_asymptotic" if argv[0] == "asymptotic" else "simulate"
        runs, run = [], getattr(cli, name)

        def spy(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "out"
        assert main([*argv, *outdir_arg(out)]) == 0, capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not list(out.glob("*.part"))
        (traj,) = runs
        headers = {"trajectory_rho.csv": ("time,j,rho", csvout.rho_block),
                   "trajectory_edge.csv": ("time,j,x,v", csvout.edge_block),
                   "asymptotic_vp.csv": ("time,j,V,P", csvout.asym_block)}
        for filename in self.FILES[argv[0]]:
            header, block = headers[filename]
            fmt = block(traj.snapshots[0])
            want = header + "\n" + "".join(fmt(s) for s in traj.snapshots)
            assert (out / filename).read_bytes() == want.encode()

    @pytest.mark.parametrize("argv,kernel", [(SIMULATE, "advance_lattice"),
                                             (ASYMPTOTIC, "advance_asym")],
                             ids=["simulate", "asymptotic"])
    @pytest.mark.parametrize("exc,code", [
        (BlowUpError("solution reached 1e9 by t=0.5"), 3),
        (RuntimeError("edge bound violated at t=0.5"), 4),
    ])
    def test_failed_run_leaves_no_trajectory(self, argv, kernel, exc, code, tmp_path,
                                             monkeypatch, capsys):
        # the run fails after some snapshots have gone to the writer
        calls, step = [], getattr(kernels, kernel)

        def failing(*args):
            calls.append(1)
            if len(calls) > 20:
                raise exc
            return step(*args)

        monkeypatch.setattr(kernels, kernel, failing)
        out = tmp_path / "out"
        assert main([*argv, *outdir_arg(out)]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert list(out.iterdir()) == []  # no trajectory CSV, no .part file
        assert multiprocessing.active_children() == []

    def test_writer_failure_is_one_error_line(self, tmp_path, capsys):
        # a directory in the way of one .part file stops the writer
        out = tmp_path / "out"
        (out / "trajectory_edge.csv.part").mkdir(parents=True)
        assert main([*SIMULATE, *outdir_arg(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: trajectory writer failed: IsADirectoryError: ")
        assert (out / "trajectory_edge.csv.part").is_dir()
        assert [p.name for p in out.iterdir()] == ["trajectory_edge.csv.part"]
        assert multiprocessing.active_children() == []


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["speed", "simulate", "asymptotic", "sweep"])
    def test_unusable_directory_fails_before_solving(self, command, tmp_path, monkeypatch,
                                                     capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("solved or stepped before the output directory was made")

        for name in ("compute_c_star", "compute_c_star_inf", "simulate",
                     "simulate_asymptotic"):
            monkeypatch.setattr(cli, name, unexpected)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [command, "--set", f"output.dir={blocker / 'sub'}", "--set", "simulation.T=1",
                "--set", "sweep.values=1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Not a directory" in err

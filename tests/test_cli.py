import os
import subprocess
import sys

import pytest

from cityroad import cli
from cityroad.cli import ConfigError, main, parse_config
from cityroad.front_speed import NoCrossingError
from cityroad.lattice_sim import BlowUpError


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


def run_cli(args, tmp_path, extra_env=None):
    """Run ``python -m cityroad.cli`` in ``tmp_path``; callers need ``package_on_pythonpath``."""
    env = dict(os.environ)
    env["CITYROAD_OUTDIR"] = str(tmp_path / "out")
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "cityroad.cli", *args],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    return proc


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
        assert lines[0] == "param,value,c_theory,c_measured,rel_error"
        assert len(lines) == 3
        rel = [float(l.split(",")[4]) for l in lines[1:]]
        assert max(rel) < 0.2  # coarse, short run

    def test_simulate_default_run_invades_center(self, tmp_path, monkeypatch, capsys):
        # default config: left block, T=50; by then the front is well past the
        # central sites, so the final density there sits within 0.02 of 1
        monkeypatch.setenv("CITYROAD_OUTDIR", str(tmp_path / "out"))
        assert main(["simulate"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out" / "trajectory_rho.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        t_final = max(float(r[0]) for r in rows)
        central = [float(r[2]) for r in rows
                   if float(r[0]) == t_final and abs(int(r[1])) <= 17]
        assert central
        assert max(abs(v - 1.0) for v in central) <= 0.02

    def test_sweep_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--set", "sweep.parameter=alpha", "--set", "sweep.values=0.8,1.2",
                "--set", "simulation.T=20", "--set", "simulation.m=8",
                "--set", "simulation.dt=0.002"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        serial = (tmp_path / "out" / "sweep.csv").read_bytes()
        proc = run_cli(args + ["--parallel"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        parallel = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert serial == parallel

    def test_config_error_exit_code(self, tmp_path):
        proc = run_cli(["simulate", "--set", "parameters.alpha=-2"], tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_limit_speed_post_check_is_one_line_error(self, tmp_path):
        # compute_c_star_inf misses its 1e-8 tangency bound at f'(0) = 2 (a
        # known solver fault); the CLI must report it, not crash.  The fault
        # does not depend on T, so the run is kept short.
        proc = run_cli(["asymptotic", "--set", "parameters.fprime0=2",
                        "--set", "simulation.T=5"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert_one_line_error(proc, "tangency residual")

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

    def test_main_entry_in_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CITYROAD_OUTDIR", str(tmp_path / "out2"))
        code = main(["speed"])
        assert code == 0
        assert "c_star=" in capsys.readouterr().out


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
        monkeypatch.setenv("CITYROAD_OUTDIR", str(tmp_path / "out"))
        assert main(["simulate"]) == code
        err = capsys.readouterr().err
        assert err == "error: " + " ".join(str(exc).split()) + "\n"

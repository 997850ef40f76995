import math
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cityroad import cli, csvout, kernels
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
        for extra in ([], ["--parallel"]):
            proc = run_cli(args + extra, tmp_path)
            assert proc.returncode == 5, proc.stderr
            assert_one_line_error(proc, "no downward threshold crossing")
            rows = [l.split(",") for l in
                    (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
            assert [(r[1], r[5]) for r in rows] == [("1", "ok"), ("0.01", "NoCrossingError")]
            assert float(rows[0][3]) > 0 and rows[1][3:5] == ["nan", "nan"]
            assert "fprime0=0.01 status=NoCrossingError" in proc.stdout.splitlines()

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

    def test_limit_speed_post_check_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        # a failed tangency post-check is reported as one line with exit 4
        def fail(p):
            raise RuntimeError("tangency residual |dPsi/dmu| = 1.000e-07 exceeds 1e-8")

        monkeypatch.setattr(cli, "compute_c_star_inf", fail)
        monkeypatch.setenv("CITYROAD_OUTDIR", str(tmp_path / "out"))
        assert main(["asymptotic", "--set", "simulation.T=5"]) == 4
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

    @pytest.mark.parametrize("only", ["13", "0,99", ","])
    def test_verify_rejects_unknown_criteria(self, only, capsys):
        # a selection that runs nothing must not pass
        assert main(["verify", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: --only takes criterion numbers 1-12, got ")

    def test_asymptotic_reaction_free_reports_contamination(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setenv("CITYROAD_OUTDIR", str(tmp_path / "out"))
        code = main(["asymptotic", "--set", "parameters.fprime0=0",
                     "--set", "simulation.T=2", "--set", "simulation.dt=0.01"])
        flags = [l for l in capsys.readouterr().out.splitlines() if l.startswith("contaminated=")]
        assert flags == [f"contaminated={str(code == 1).lower()}"]

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
        self.check(csvout.asym_block, self.snapshot(V=V, P=P),
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
        monkeypatch.setenv("CITYROAD_OUTDIR", str(out))
        assert main(argv) == 0, capsys.readouterr().err
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
        monkeypatch.setenv("CITYROAD_OUTDIR", str(out))
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert list(out.iterdir()) == []  # no trajectory CSV, no .part file
        assert multiprocessing.active_children() == []

    def test_writer_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a directory in the way of one .part file stops the writer
        out = tmp_path / "out"
        (out / "trajectory_edge.csv.part").mkdir(parents=True)
        monkeypatch.setenv("CITYROAD_OUTDIR", str(out))
        assert main(SIMULATE) == 2
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
        monkeypatch.delenv("CITYROAD_OUTDIR", raising=False)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [command, "--set", f"output.dir={blocker / 'sub'}", "--set", "simulation.T=1",
                "--set", "sweep.values=1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Not a directory" in err

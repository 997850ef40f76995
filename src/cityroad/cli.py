"""Command-line front end: config parsing and experiment orchestration.

Configuration is flat ``block.key = value`` text (diff-friendly, no schema
engine); every float in data files prints with 17 significant digits so
identical configs produce byte-identical CSVs.

Commands: speed, simulate, asymptotic, sweep, verify.  Exit codes: 0 success;
1 a run finished with a contaminated window, or a verify criterion failed;
2 configuration error, inadmissible parameters, a file that cannot be read
or written, or a window too large to allocate; 3 blow-up; 4 a solver
post-check or a-priori bound check failed; 5 no front to measure.

The trajectory CSVs of ``simulate`` and ``asymptotic`` are formatted and
written by a second process while the run steps (``csvout.TrajectoryWriter``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .asymptotic import (
    compute_c_star_inf,
    large_d_convergence_experiment,
    limit_dt,
    simulate_asymptotic,
)
from .csvout import (
    TrajectoryWriter,
    asym_block,
    edge_block,
    fmt,
    rho_block,
    row_lines,
    write_csv,
)
from .dispersion import compute_c_star
from .front_speed import NoCrossingError, estimate_speed
from .lattice_sim import (
    BlowUpError,
    InitialData,
    SimulationConfig,
    compatibility_residual,
    default_c_upper,
    simulate,
)
from .model import Parameters, logistic, rescale_to_unit_length

__all__ = ["ExperimentConfig", "parse_config", "main"]

# Error class -> exit code; the first match wins, so subclasses come first
# (BlowUpError and NoCrossingError are RuntimeErrors, ConfigError a ValueError).
_EXIT_CODES = (
    (ValueError, 2),
    (OSError, 2),
    (MemoryError, 2),
    (BlowUpError, 3),
    (NoCrossingError, 5),
    (RuntimeError, 4),
)


def _floats_list(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return [float(x) for x in parts]


# key -> (converter, default); the standard (1,1,1,1) defaults drive every
# command out of the box.
_SCHEMA = {
    "parameters.alpha": (float, 1.0),
    "parameters.beta": (float, 1.0),
    "parameters.d": (float, 1.0),
    "parameters.ell": (float, 1.0),
    "parameters.fprime0": (float, 1.0),
    "simulation.T": (float, 50.0),
    "simulation.dt": (float, 0.0),  # 0 = automatic, per command
    "simulation.m": (int, 32),
    "simulation.stride": (int, 0),
    "simulation.c_upper": (float, 0.0),  # 0 = automatic
    "initial.kind": (str, "left_block"),
    "initial.n": (int, 5),
    "initial.amplitude": (float, 1.0),
    "initial.j0": (int, 0),
    "sweep.parameter": (str, "alpha"),
    "sweep.values": (_floats_list, []),
    "measurement.threshold": (float, 0.5),
    "measurement.window": (_floats_list, [0.5, 1.0]),
    "largeD.eps_values": (_floats_list, []),
    "largeD.T": (float, 5.0),
    "output.dir": (str, "out"),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated experiment description assembled from config text plus
    --set overrides."""

    raw: dict = field(default_factory=dict)

    @property
    def parameters(self) -> Parameters:
        """The unit-length model: ``parameters.ell`` is scaled out here."""
        p = Parameters(
            alpha=self.raw["parameters.alpha"],
            beta=self.raw["parameters.beta"],
            d=self.raw["parameters.d"],
            nonlinearity=logistic(self.raw["parameters.fprime0"]),
        )
        return rescale_to_unit_length(p, self.raw["parameters.ell"])

    @property
    def simulation(self) -> SimulationConfig:
        c_up = self.raw["simulation.c_upper"]
        return SimulationConfig(
            T=self.raw["simulation.T"],
            dt=self.raw["simulation.dt"] or SimulationConfig.dt,  # 0: the lattice's step
            m=self.raw["simulation.m"],
            snapshot_stride=self.raw["simulation.stride"],
            c_upper_guess=None if c_up == 0 else c_up,
        )

    @property
    def initial_data(self) -> InitialData:
        kind = self.raw["initial.kind"]
        if kind == "left_block":
            return InitialData.left_block()
        if kind == "sine_bump":
            return InitialData.sine_bump(self.raw["initial.n"], self.raw["initial.amplitude"])
        if kind == "point_mass":
            return InitialData.point_mass(self.raw["initial.j0"], self.raw["initial.amplitude"])
        raise ConfigError(f"initial.kind must be left_block|sine_bump|point_mass, got {kind!r}")

    @property
    def threshold(self) -> float:
        return self.raw["measurement.threshold"]

    @property
    def window_fraction(self) -> tuple[float, float]:
        win = self.raw["measurement.window"]
        if len(win) != 2:
            raise ConfigError("measurement.window needs two comma-separated fractions")
        return (win[0], win[1])

    @property
    def outdir(self) -> Path:
        return Path(self.raw["output.dir"])

    def validate(self):
        _ = self.parameters
        _ = self.simulation
        _ = self.initial_data
        thr = self.threshold
        if not (0.0 < thr < 1.0):
            raise ConfigError("measurement.threshold must lie in (0, 1)")
        lo, hi = self.window_fraction
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError("measurement.window must satisfy 0 <= lo < hi <= 1")
        if self.raw["sweep.parameter"] not in ("alpha", "beta", "d", "fprime0"):
            raise ConfigError("sweep.parameter must be one of alpha|beta|d|fprime0")
        for eps in self.raw["largeD.eps_values"]:
            if eps <= 0:
                raise ConfigError("largeD.eps_values must be positive")
        if self.raw["largeD.eps_values"] and not self.raw["largeD.T"] > 1.0:
            raise ConfigError("largeD.T must be > 1: errors are measured on [1, T]")
        if self.raw["largeD.eps_values"] and not self.raw["parameters.fprime0"] > 0:
            raise ConfigError("largeD.eps_values needs parameters.fprime0 > 0: "
                              "the convergence experiment's window is sized from c*_inf")


def _apply_assignment(raw: dict, key: str, value: str, where: str):
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    conv, _ = _SCHEMA[key]
    try:
        raw[key] = conv(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value for {key!r}: {exc}") from exc


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse the flat key-value config file plus --set overrides.

    An empty or missing file yields all defaults.  Parse errors carry the line
    number; unknown keys and inadmissible values are rejected by name.
    """
    raw = {key: default for key, (_, default) in _SCHEMA.items()}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            _apply_assignment(raw, key.strip(), value.strip(), f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, value = item.partition("=")
        _apply_assignment(raw, key.strip(), value.strip(), f"--set {key.strip()}")
    cfg = ExperimentConfig(raw)
    try:
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _cmd_speed(cfg: ExperimentConfig) -> int:
    p = cfg.parameters
    res = compute_c_star(p)
    inf = compute_c_star_inf(p)
    scan = res.scan
    rows = zip(scan.lam, scan.delta, scan.y, scan.mu, scan.c)
    write_csv(cfg.outdir / "dispersion_scan.csv", ["lambda", "delta", "y", "mu", "c"],
              row_lines(rows))
    print(
        f"lambda0={fmt(res.lambda0)} lambda_star={fmt(res.lambda_star)} "
        f"mu_star={fmt(res.mu_star)} c_star={fmt(res.c_star)} "
        f"c_star_inf={fmt(inf.c_star_inf)}"
    )
    if len(res.local_minima) > 1:
        print(f"note: {len(res.local_minima)} grid-local minima found "
              "(uniqueness of the minimizer is conjectural)")
    print(f"wrote {cfg.outdir / 'dispersion_scan.csv'}")
    return 0


def _window_sized(cfg: ExperimentConfig, p: Parameters, c_star: float | None) -> SimulationConfig:
    """The run's controls, the automatic window sized from the c* already
    solved for this run instead of a second solve."""
    sim = cfg.simulation
    if sim.c_upper_guess is not None:
        return sim
    return replace(sim, c_upper_guess=default_c_upper(p, c_star))


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    p = cfg.parameters
    res = compute_c_star(p) if p.fprime0 > 0 else None
    sim = _window_sized(cfg, p, None if res is None else res.c_star)
    out = cfg.outdir
    files = [("trajectory_rho.csv", ["time", "j", "rho"], rho_block),
             ("trajectory_edge.csv", ["time", "j", "x", "v"], edge_block)]
    with TrajectoryWriter(out, files) as writer:
        traj = simulate(cfg.initial_data, sim, p, on_snapshot=writer.send)
    write_csv(out / "mass.csv", ["time", "mass"], row_lines(zip(traj.times, traj.mass)))
    if res is not None:
        try:
            trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
        except NoCrossingError as exc:
            print(f"front not measurable: {exc}")
        else:
            rel = abs(trace.fitted_speed - res.c_star) / res.c_star
            print(
                f"measured_speed={fmt(trace.fitted_speed)} c_star={fmt(res.c_star)} "
                f"rel_error={fmt(rel)} fit_residual={fmt(trace.fit_residual)}"
            )
    else:
        print(f"reaction-free run: relative_mass_drift={fmt(traj.mass_drift)}")
    print(f"compat_max_residual={fmt(compatibility_residual(traj.snapshots[0], p))} "
          f"contaminated={str(traj.contaminated).lower()}")
    print(f"wrote {out / 'trajectory_rho.csv'}, {out / 'trajectory_edge.csv'}, {out / 'mass.csv'}")
    return 1 if traj.contaminated else 0


def _cmd_asymptotic(cfg: ExperimentConfig) -> int:
    p = cfg.parameters
    sim = cfg.simulation  # dt 0 with a stride set: the lattice's step, which the stride counts
    if cfg.raw["simulation.dt"] == cfg.raw["simulation.stride"] == 0:
        sim = replace(sim, dt=limit_dt(sim.T, p))  # the limit system's own step
    out = cfg.outdir
    vp_file = [("asymptotic_vp.csv", ["time", "j", "V", "P"], asym_block)]
    with TrajectoryWriter(out, vp_file) as writer:
        traj = simulate_asymptotic(cfg.initial_data, sim, p,
                                   on_snapshot=writer.send)
    write_csv(out / "asymptotic_mass.csv", ["time", "mass"], row_lines(zip(traj.times, traj.mass)))
    flag = f"contaminated={str(traj.contaminated).lower()}"
    if p.fprime0 > 0:
        inf = compute_c_star_inf(p)
        try:
            trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
        except NoCrossingError as exc:
            print(f"front not measurable: {exc}")
            print(flag)
        else:
            rel = abs(trace.fitted_speed - inf.c_star_inf) / inf.c_star_inf
            print(
                f"measured_speed={fmt(trace.fitted_speed)} c_star_inf={fmt(inf.c_star_inf)} "
                f"rel_error={fmt(rel)} {flag}"
            )
    else:
        print(flag)
    files = [out / "asymptotic_vp.csv", out / "asymptotic_mass.csv"]
    eps_values = cfg.raw["largeD.eps_values"]
    if eps_values:
        rows = large_d_convergence_experiment(
            eps_values, cfg.initial_data, cfg.raw["largeD.T"], p,
            m=cfg.simulation.m, dt=cfg.simulation.dt,
        )
        write_csv(out / "large_d_errors.csv", ["epsilon", "error"], row_lines(rows))
        files.append(out / "large_d_errors.csv")
        for eps, err in rows:
            print(f"epsilon={fmt(eps)} error={fmt(err)}")
    print("wrote " + ", ".join(str(f) for f in files))
    return 1 if traj.contaminated else 0


def _sweep_point(args):
    """One sweep point: its row (param, value, c_theory, c_measured,
    rel_error, status), its contamination flag and the error that stopped
    it, if any (status is then the error's class and the unknown columns
    are nan)."""
    raw, name, value = args
    cfg = ExperimentConfig(dict(raw))
    cfg.raw[f"parameters.{name}"] = value
    theory = math.nan
    try:
        p = cfg.parameters
        theory = compute_c_star(p).c_star
        traj = simulate(cfg.initial_data, _window_sized(cfg, p, theory), p)
        trace = estimate_speed(traj, cfg.threshold, cfg.window_fraction)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return (name, value, theory, math.nan, math.nan, type(exc).__name__), False, exc
    rel = abs(trace.fitted_speed - theory) / theory
    return (name, value, theory, trace.fitted_speed, rel, "ok"), traj.contaminated, None


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    """Run every point in a pool of up to one process per CPU and write all
    of their rows; then the first failed point's error (in sweep order)
    decides the exit code.  A killed worker raises BrokenProcessPool (exit 4)."""
    # imported here: only the sweep needs it, and it costs every other command's startup
    from concurrent.futures import ProcessPoolExecutor

    name = cfg.raw["sweep.parameter"]
    values = cfg.raw["sweep.values"]
    if not values:
        raise ConfigError("sweep.values is empty: nothing to sweep")
    jobs = [(cfg.raw, name, v) for v in values]
    with ProcessPoolExecutor(min(len(jobs), os.cpu_count() or 1)) as pool:
        results = list(pool.map(_sweep_point, jobs))
    write_csv(cfg.outdir / "sweep.csv",
              ["param", "value", "c_theory", "c_measured", "rel_error", "status"],
              row_lines(row for row, _, _ in results))
    contaminated = False
    for (n, v, th, ms, rel, status), bad, _ in results:
        if status != "ok":
            print(f"{n}={fmt(v)} status={status}")
            continue
        flag = " (window contaminated)" if bad else ""
        contaminated = contaminated or bad
        print(f"{n}={fmt(v)} c_theory={fmt(th)} c_measured={fmt(ms)} rel_error={fmt(rel)}{flag}")
    print(f"wrote {cfg.outdir / 'sweep.csv'}")
    failure = next((exc for _, _, exc in results if exc is not None), None)
    if failure is not None:
        raise failure
    return 1 if contaminated else 0


def _cmd_verify(only: str | None) -> int:
    from .acceptance import CRITERIA, run_criteria

    selected = None
    if only is not None:
        numbers = [number for number, _, _ in CRITERIA]
        parts = [x.strip() for x in only.split(",") if x.strip()]
        unknown = ",".join(x for x in parts if not x.isdecimal() or int(x) not in numbers)
        if unknown or not parts:
            raise ConfigError(f"--only takes criterion numbers {numbers[0]}-{numbers[-1]}, "
                              f"got {unknown or 'none'}")
        selected = [int(x) for x in parts]
    results = run_criteria(only=selected)
    return 0 if all(r.passed for r in results) else 1


# name -> (help, command) of every command that runs from the config
_COMMANDS = {
    "speed": ("dispersion scan and spreading speeds", _cmd_speed),
    "simulate": ("run the coupled system and measure the front", _cmd_simulate),
    "asymptotic": ("run the large-diffusion limit system", _cmd_asymptotic),
    "sweep": ("theory vs measured speed over a parameter sweep", _cmd_sweep),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cityroad",
        description="City-road lattice invasion model: simulation and spreading speeds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", default=None, help="path to key=value config file")
        sp.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    sub.add_parser("verify", help="run the acceptance suite").add_argument(
        "--only", default=None, help="comma-separated criterion numbers to run")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args.only)
        cfg = parse_config(args.config, args.sets)
        cfg.outdir.mkdir(parents=True, exist_ok=True)  # before anything is solved
        return _COMMANDS[args.command][1](cfg)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
